"""Core model for weighted counting CSPs over a finite domain.

An instance bundles a catalog of named weight functions with a list of
constraints, each applying one function to a scope of variables.  The weight of
an assignment is the product of the applied function values, and the partition
function is the sum of those weights over all assignments.

Key conventions, used everywhere in the package:

* all arithmetic is exact (``fractions.Fraction``); weights are non-negative
  and negative inputs are rejected while parsing,
* a tuple ``(x_1, ..., x_k)`` over domain ``{0..q-1}`` is stored at table index
  ``sum(x_i * q**(k-i))`` -- the first coordinate is the most significant,
* :meth:`WeightFunction.lookup` reads a table at a validated tuple; the
  evaluators and classifiers index ``table`` directly by that layout, and
  passes over a whole table read its integer form ``WeightFunction.scaled``,
* an :class:`Instance` stores its constraints grouped by function
  (``Instance.scopes``), the form every evaluator reads; the loader builds
  that form directly, and a tuple of :class:`Constraint` objects is made only
  when ``Instance.constraints`` is read,
* exhaustive enumeration refuses (rather than approximates) once the number of
  weighted states exceeds a configurable budget, ``2**30`` by default.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, product, repeat
from math import lcm
from operator import attrgetter, floordiv, mul
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import InputError, Refusal

#: Default ceiling on the states an enumeration may visit: the assignments of
#: ``conditioned_z``/``brute_force_z`` and the codewords of the code enumerator.
DEFAULT_BUDGET = 2**30

#: Most bits a value may need (see :func:`check_value_bits`); the value of an
#: instance can reach ``q**n``.  Printing a 2**20-bit value takes about a
#: second, and four times as many bits take more than ten.
MAX_VALUE_BITS = 2**20

_T = TypeVar("_T")
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def check_value_bits(what: str, bits: int) -> None:
    """Refuse, naming ``what``, a value that can need more than ``MAX_VALUE_BITS`` bits."""
    if bits > MAX_VALUE_BITS:
        raise Refusal(
            f"{what}: the value can need {bits} bits or more, beyond the limit of {MAX_VALUE_BITS}"
        )


# ---------------------------------------------------------------------------
# exact rationals
# ---------------------------------------------------------------------------

def parse_rational(value: object, where: str = "value") -> Fraction:
    """Parse a non-negative rational given as an int or ``"num"``/``"num/den"``.

    ``where`` names the field in diagnostics, e.g. ``functions.f.table[3]``.
    """
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, Fraction):
        result = value
    elif isinstance(value, int):
        result = Fraction(value)
    elif isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num_text, den_text = text.split("/", 1)
                num, den = int(num_text), int(den_text)
                if den == 0:
                    raise InputError(f"{where}: zero denominator in {value!r}")
                result = Fraction(num, den)
            else:
                result = Fraction(int(text))
        except ValueError as exc:
            raise InputError(f"{where}: not a rational: {value!r}") from exc
    else:
        raise InputError(
            f"{where}: expected an integer or 'num/den' string, got {type(value).__name__}"
        )
    if result.numerator < 0:
        raise InputError(f"{where}: negative weight {value!r} is not allowed")
    return result


def _decimal(value: int) -> str:
    """Exact decimal digits of a non-negative int of any size.

    ``str`` refuses ints beyond the interpreter's digit limit (4300 digits by
    default, never below 640), so larger values are split by a power of ten
    into pieces of at most 2000 bits, about 600 digits, which it accepts.  The
    process-wide limit is left alone.
    """
    if value.bit_length() <= 2000:
        return str(value)
    low_digits = value.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(value, 10**low_digits)
    return _decimal(high) + _decimal(low).zfill(low_digits)


def format_rational(value: Fraction) -> str:
    """Render a rational exactly, at any size, as ``"num"`` or ``"num/den"``."""
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def decimal_rendering(value: Fraction) -> str:
    """Approximate decimal form, for human-facing output only."""
    try:
        return f"{float(value):.12g}"
    except OverflowError:
        return "overflow"


# ---------------------------------------------------------------------------
# tuple <-> table index
# ---------------------------------------------------------------------------

def tuple_to_index(values: Sequence[int], domain_size: int) -> int:
    """Map a domain tuple to its table index (first coordinate most significant)."""
    index = 0
    for v in values:
        index = index * domain_size + v
    return index


def strides(arity: int, domain_size: int) -> list[int]:
    """The table index step of each coordinate, ``q**(arity - 1 - j)`` at ``j``."""
    return [domain_size ** (arity - 1 - j) for j in range(arity)]


def table_indices(offsets: Sequence[Sequence[int]]) -> Iterator[int]:
    """The table index of every point of a frame, lazily and in table order.

    ``offsets[j][d]`` is what frame coordinate ``j`` adds at value ``d``:
    ``d`` times a stride, or a sum of strides for merged coordinates, reads
    a coordinate, ``perm[d] * stride`` maps values, and one offset pins it.
    """
    return map(sum, product(*offsets))


def index_to_tuple(index: int, arity: int, domain_size: int) -> tuple[int, ...]:
    """Inverse of :func:`tuple_to_index`."""
    if not 0 <= index < domain_size**arity:
        raise InputError(
            f"index {index} outside table range for arity {arity} over domain {domain_size}"
        )
    out = [0] * arity
    for pos in range(arity - 1, -1, -1):
        index, out[pos] = divmod(index, domain_size)
    return tuple(out)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """A k-ary table of non-negative rationals over domain ``{0..q-1}``."""

    arity: int
    domain_size: int
    table: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _require_int(self.arity, "arity")
        _require_int(self.domain_size, "domain_size")
        if self.domain_size < 2:
            raise InputError(f"domain size must be at least 2, got {self.domain_size}")
        if self.arity < 0:
            raise InputError(f"arity must be non-negative, got {self.arity}")
        if not isinstance(self.table, tuple):  # a table is hashed, so it must be immutable
            raise InputError(f"table: expected a tuple, got {reprlib.repr(self.table)}")
        # q**arity >= 2**arity, so an arity beyond the entry count's bit length
        # cannot match, and the possibly giant power is never computed
        entries = len(self.table)
        if self.arity > entries.bit_length() or entries != self.domain_size**self.arity:
            raise InputError(
                f"table has {entries} entries, expected {self.domain_size}**{self.arity} "
                f"for arity {self.arity} over domain {self.domain_size}"
            )
        # entry types and signs in bulk (building ``scaled``); only a fault
        # walks the table, to name the first faulty entry in table order
        table = self.table
        if not all(map(isinstance, table, repeat(Fraction))) or min(self.scaled[1]) < 0:
            for pos, entry in enumerate(table):
                if not isinstance(entry, Fraction):
                    raise InputError(
                        f"table[{pos}]: expected Fraction, got {type(entry).__name__}"
                    )
                if entry.numerator < 0:
                    raise InputError(f"table[{pos}]: negative weight {entry}")

    def lookup(self, point: Sequence[int]) -> Fraction:
        """Value at a domain tuple, checking its length and every coordinate."""
        if len(point) != self.arity:
            raise InputError(
                f"lookup with {len(point)} coordinates on an arity-{self.arity} function"
            )
        index = 0
        for v in point:
            if not 0 <= v < self.domain_size:
                raise InputError(f"coordinate {v} outside domain of size {self.domain_size}")
            index = index * self.domain_size + v
        return self.table[index]

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """The lcm ``d`` of the entries' denominators and the table times ``d``.

        Entry ``i`` is ``Fraction(ints[i], d)`` for ``d, ints = scaled``.  Made
        once per table, with C-level passes, it is the form every whole-table
        pass reads: comparing, ordering or testing ints costs no ``Fraction``
        method call per entry.  Equal tables have equal ``scaled``, since
        fractions are stored reduced.
        """
        numerators = tuple(map(_numerator, self.table))
        denominators = tuple(map(_denominator, self.table))
        common = lcm(*denominators)
        if common == 1:
            return common, numerators
        factors = map(floordiv, repeat(common), denominators)
        return common, tuple(map(mul, numerators, factors))

    # The table is immutable, so its hash is taken once per object, from the
    # ints of ``scaled``; classification's cache looks tables up by it.
    @cached_property
    def _hash(self) -> int:
        return hash((self.arity, self.domain_size, self.scaled))

    def __hash__(self) -> int:
        return self._hash

    def support_indices(self) -> list[int]:
        """Table indices carrying non-zero weight, in increasing order."""
        ints = self.scaled[1]
        return list(compress(range(len(ints)), ints))


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    """One application of a named catalog function to a variable scope."""

    function: str
    scope: tuple[int, ...]


@dataclass(frozen=True, init=False, repr=False)
class Instance:
    """Variables, a function catalog, and constraints; immutable once built.

    The stored form is the one the evaluators read: ``scopes`` maps each used
    function, in catalog order, to its scopes in constraint order, and a
    tuple holds each constraint's function name in input order.
    ``constraints``, the tuple of :class:`Constraint`, is derived from the two
    on first read and cached.  A loaded instance builds it only when
    something reads it, and evaluating a tractable instance never does; an
    instance built in code keeps the tuple it was given.  Two instances are
    equal when their sizes, catalogs, scopes and name tuples are, which is
    when their constraint tuples are.

    Loaded or built in code, an instance passes one check.  The header comes
    first: both sizes are ``int``, the catalog is a ``dict`` of
    ``WeightFunction`` entries over the instance's domain.  In code, the
    constraints must then be a tuple of objects with a catalog name and a
    scope tuple (the loader checks the JSON shape instead).  Last, each
    function's scopes are checked in bulk for its arity and for variables
    that are ``int`` in ``[0, num_variables)``; only when that fails are the
    constraints walked in input order, to name the first fault.
    """

    num_variables: int
    domain_size: int
    functions: dict[str, WeightFunction]
    scopes: dict[str, list[tuple[int, ...]]]
    _names: tuple[str, ...]

    def __init__(
        self,
        num_variables: int,
        domain_size: int,
        functions: dict[str, WeightFunction],
        constraints: tuple[Constraint, ...],
    ) -> None:
        _check_header(num_variables, domain_size, functions)
        # a wrong container can hold a whole instance, so its repr is abbreviated
        if not isinstance(constraints, tuple):
            raise InputError(f"constraints: expected a tuple, got {reprlib.repr(constraints)}")
        groups: dict[str, list[tuple[int, ...]]] = {name: [] for name in functions}
        names = []
        try:
            for pos, c in enumerate(constraints):
                group = groups.get(c.function)
                if group is None:
                    raise InputError(f"constraints[{pos}]: unknown function {c.function!r}")
                if type(c.scope) is not tuple:
                    raise TypeError("scope is not a tuple")
                group.append(c.scope)
                names.append(c.function)
        except (TypeError, AttributeError) as exc:
            # not a Constraint, an unhashable name, or a scope that is not a tuple
            raise InputError(
                f"constraints[{pos}]: expected a Constraint of a name and a scope tuple, got {c!r}"
            ) from exc
        self._store(num_variables, domain_size, functions, groups, tuple(names))
        self.__dict__["constraints"] = constraints

    @classmethod
    def _loaded(
        cls,
        num_variables: int,
        domain_size: int,
        functions: dict[str, WeightFunction],
        groups: dict[str, list[tuple[int, ...]]],
        names: tuple[str, ...],
    ) -> "Instance":
        """An instance from scopes grouped by catalog name, as the loader sorts them."""
        _check_header(num_variables, domain_size, functions)
        instance = cls.__new__(cls)
        instance._store(num_variables, domain_size, functions, groups, names)
        return instance

    def _store(
        self,
        num_variables: int,
        domain_size: int,
        functions: dict[str, WeightFunction],
        groups: dict[str, list[tuple[int, ...]]],
        names: tuple[str, ...],
    ) -> None:
        """Check each function's scopes in bulk, then keep the stored form."""
        for name, scopes in groups.items():
            if scopes and not _scopes_fit(scopes, functions[name].arity, num_variables):
                raise InputError(next(_scope_faults(num_variables, functions, groups, names)))
        self.__dict__.update(
            num_variables=num_variables,
            domain_size=domain_size,
            functions=functions,
            scopes={name: scopes for name, scopes in groups.items() if scopes},
            _names=names,
        )

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """Every constraint, in input order, built from the stored form once."""
        return tuple(map(Constraint, self._names, _in_order(self._names, self.scopes)))

    # a generated hash would fail on the catalog dict; this one names the class
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Instance(num_variables={self.num_variables!r}, domain_size={self.domain_size!r}, "
            f"functions={self.functions!r}, constraints={self.constraints!r})"
        )


def _check_header(num_variables: object, domain_size: object, functions: object) -> None:
    """Check both sizes and the catalog, in the order every instance reports them."""
    n = _require_int(num_variables, "num_variables")
    q = _require_int(domain_size, "domain_size")
    if q < 2:
        raise InputError(f"domain size must be at least 2, got {q}")
    if n < 0:
        raise InputError(f"negative variable count {n}")
    # a wrong container can hold a whole instance, so its repr is abbreviated
    if not isinstance(functions, dict):
        raise InputError(f"functions: expected a dict, got {reprlib.repr(functions)}")
    for name, fn in functions.items():
        if not isinstance(fn, WeightFunction):
            raise InputError(f"functions[{name!r}]: expected a WeightFunction, got {fn!r}")
        if fn.domain_size != q:
            raise InputError(f"function {name!r} has domain {fn.domain_size}, instance has {q}")


def _scopes_fit(scopes: list[tuple], arity: int, n: int) -> bool:
    """Whether every scope has ``arity`` variables, each an ``int`` in ``[0, n)``.

    Each test is one pass in C over all of one function's scopes.
    """
    if set(map(len, scopes)) != {arity}:
        return False
    variables = list(chain.from_iterable(scopes))
    return not variables or (
        set(map(type, variables)) == {int} and min(variables) >= 0 and max(variables) < n
    )


def _in_order(names: Sequence[str], groups: dict[str, list[tuple]]) -> Iterator[tuple]:
    """Each constraint's scope, in input order, taken from its function's group."""
    heads = {name: iter(scopes) for name, scopes in groups.items()}
    return map(next, map(heads.__getitem__, names))


def _scope_faults(
    n: int,
    functions: dict[str, WeightFunction],
    groups: dict[str, list[tuple]],
    names: Sequence[str],
) -> Iterator[str]:
    """The message of each arity or variable fault, walking constraints in input order."""
    for pos, (name, scope) in enumerate(zip(names, _in_order(names, groups))):
        arity = functions[name].arity
        if len(scope) != arity:
            yield f"constraints[{pos}]: scope length {len(scope)} != arity {arity} of {name!r}"
            continue
        for j, v in enumerate(scope):
            if type(v) is not int:
                yield f"constraints[{pos}].scope[{j}]: expected an integer, got {v!r}"
            elif not 0 <= v < n:
                yield f"constraints[{pos}]: variable {v} out of range"


def brute_force_z(instance: Instance, budget: int | None = None) -> Fraction:
    """Partition function by exhaustive enumeration -- the ground-truth oracle.

    Refuses when ``q**n`` exceeds the budget; the result is exact and
    deterministic.
    """
    return conditioned_z(instance, (), budget)


def conditioned_z(
    instance: Instance,
    pins: Iterable[tuple[int, int]],
    budget: int | None = None,
) -> Fraction:
    """Partition function with some variables held fixed.

    ``pins`` is a sequence of ``(variable, value)`` pairs over distinct
    variables.  Every free variable counts against the budget, but only those
    that some constraint touches are enumerated; each of the others
    multiplies the sum by ``q``.  Each constraint reads its function's
    ``scaled`` ints through ``Instance.scopes``; an assignment stops at its
    first zero entry, and the sum is divided once at the end.
    """
    limit = DEFAULT_BUDGET if budget is None else budget
    q, n = instance.domain_size, instance.num_variables
    fixed: dict[int, int] = {}
    for var, value in pins:
        if not 0 <= var < n:
            raise InputError(f"pinned variable {var} out of range")
        if not 0 <= value < q:
            raise InputError(f"pinned value {value} outside domain")
        if var in fixed:
            raise InputError(f"variable {var} pinned more than once")
        fixed[var] = value
    free = n - len(fixed)
    # q >= 2: free >= limit.bit_length() implies q**free > limit, uncomputed
    if free >= limit.bit_length() or q**free > limit:
        raise Refusal(
            f"enumeration of {q}**{free} weighted states exceeds the budget of {limit}"
        )
    touched = sorted(
        {v for scopes in instance.scopes.values() for scope in scopes for v in scope}
    )
    at = {v: i for i, v in enumerate(touched)}
    domains = [(fixed[v],) if v in fixed else range(q) for v in touched]
    # each table's ints over its common denominator d, one spec per
    # constraint; the sum of int products is divided once by each d per use
    specs = []
    denominator = 1
    for name, scopes in instance.scopes.items():
        d, ints = instance.functions[name].scaled
        denominator *= d ** len(scopes)
        specs += [(ints, [at[v] for v in scope]) for scope in scopes]
    untouched = free - sum(1 for v in touched if v not in fixed)
    total = 0
    for sigma in product(*domains):
        w = 1
        for ints, scope in specs:
            index = 0
            for v in scope:
                index = index * q + sigma[v]
            value = ints[index]
            if not value:
                w = 0
                break
            if value != 1:  # an entry equal to d is still multiplied
                w *= value
        total += w
    return Fraction(total * q**untouched, denominator)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------
#
# Canonical layout (compact separators, insertion order preserved):
#   {"q":2,"n":3,"functions":{"xor3":{"arity":3,"table":["0","1","1","0","1","0","0","1"]}},
#    "constraints":[{"f":"xor3","scope":[0,1,2]}]}

def instance_to_obj(instance: Instance) -> dict:
    functions = {
        name: {"arity": fn.arity, "table": [format_rational(v) for v in fn.table]}
        for name, fn in instance.functions.items()
    }
    constraints = [{"f": c.function, "scope": list(c.scope)} for c in instance.constraints]
    return {
        "q": instance.domain_size,
        "n": instance.num_variables,
        "functions": functions,
        "constraints": constraints,
    }


def instance_to_json(instance: Instance) -> str:
    """Canonical byte-reproducible serialization."""
    return json.dumps(instance_to_obj(instance), separators=(",", ":"))


def _require_int(obj: object, where: str) -> int:
    if type(obj) is not int:  # so a bool is refused too
        raise InputError(f"{where}: expected an integer, got {obj!r}")
    return obj


def _parse_functions(obj: object, domain_size: int, where: str) -> dict[str, WeightFunction]:
    """Parse a catalog of functions, each distinct entry text only once.

    Tables repeat a few texts many times, so each JSON string or int parsed
    by this call is kept with its ``Fraction``.  Only exact ``str`` and
    ``int`` entries are kept: ``true`` and ``1.0`` equal ``1`` as dict keys,
    and must still be rejected at their own index.
    """
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object mapping names to functions")
    catalog: dict[str, WeightFunction] = {}
    parsed: dict[str | int, Fraction] = {}
    for name, spec in obj.items():
        here = f"{where}.{name}"
        if not isinstance(spec, dict):
            raise InputError(f"{here}: expected an object with 'arity' and 'table'")
        unknown = set(spec) - {"arity", "table"}
        if unknown:
            raise InputError(f"{here}: unknown keys {sorted(unknown)}")
        if "arity" not in spec:
            raise InputError(f"{here}: missing 'arity'")
        if "table" not in spec:
            raise InputError(f"{here}: missing 'table'")
        arity = _require_int(spec["arity"], f"{here}.arity")
        table_obj = spec["table"]
        if not isinstance(table_obj, list):
            raise InputError(f"{here}.table: expected a list")
        table = []
        for i, v in enumerate(table_obj):
            kind = type(v)
            if kind is str or kind is int:
                value = parsed.get(v)
                if value is None:
                    value = parsed[v] = parse_rational(v, f"{here}.table[{i}]")
            else:
                # a boolean, float, null, list or object: always refused
                value = parse_rational(v, f"{here}.table[{i}]")
            table.append(value)
        try:
            catalog[name] = WeightFunction(arity, domain_size, tuple(table))
        except InputError as exc:
            raise InputError(f"{here}: {exc}") from exc
    return catalog


def _constraint_shape_fault(spec: object, here: str) -> str:
    """The message for a constraint that is not an object of exactly 'f' and 'scope'."""
    if not isinstance(spec, dict):
        return f"{here}: expected an object with 'f' and 'scope'"
    unknown = set(spec) - {"f", "scope"}
    if unknown:
        return f"{here}: unknown keys {sorted(unknown)}"
    return f"{here}: missing 'f' or 'scope'"


def instance_from_obj(obj: object) -> Instance:
    """Build an instance from parsed JSON, with field-level diagnostics.

    Constraints may reference the built-in library (``delta0``, ``eq``,
    ``unary:<w>`` ...); missing catalog entries are resolved there and added.
    Each constraint is checked here for its JSON shape only; ``Instance``
    checks its function, arity and variables, as for an instance built in code.
    """
    from .library import resolve_builtin  # deferred: library depends on this module

    if not isinstance(obj, dict):
        raise InputError("instance: expected a JSON object")
    unknown = set(obj) - {"q", "n", "functions", "constraints"}
    if unknown:
        raise InputError(f"instance: unknown keys {sorted(unknown)}")
    for key in ("q", "n", "functions", "constraints"):
        if key not in obj:
            raise InputError(f"instance: missing key {key!r}")
    q = _require_int(obj["q"], "q")
    n = _require_int(obj["n"], "n")
    catalog = _parse_functions(obj["functions"], q, "functions")

    constraints_obj = obj["constraints"]
    if not isinstance(constraints_obj, list):
        raise InputError("constraints: expected a list")

    groups: dict[str, list[tuple]] = {name: [] for name in catalog}
    names = []
    for pos, spec in enumerate(constraints_obj):
        if not (isinstance(spec, dict) and len(spec) == 2 and "f" in spec and "scope" in spec):
            raise InputError(_constraint_shape_fault(spec, f"constraints[{pos}]"))
        name = spec["f"]
        if not isinstance(name, str):
            raise InputError(f"constraints[{pos}].f: expected a function name string")
        group = groups.get(name)
        if group is None:
            builtin = resolve_builtin(name, q)
            if builtin is None:
                raise InputError(f"constraints[{pos}].f: unknown function {name!r}")
            catalog[name] = builtin
            group = groups[name] = []
        scope = spec["scope"]
        if not isinstance(scope, list):
            raise InputError(f"constraints[{pos}].scope: expected a list of variable indices")
        group.append(tuple(scope))
        names.append(name)
    return Instance._loaded(n, q, catalog, groups, tuple(names))


def decode_json(text: str) -> object:
    """``json.loads`` with every decode failure raised as an ``InputError``.

    Besides malformed text, ``json.loads`` raises a bare ``ValueError`` for an
    integer literal beyond the interpreter's digit limit and a
    ``RecursionError`` for very deep nesting.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def parse_instance(text: str) -> Instance:
    return instance_from_obj(decode_json(text))


def load_file(path: str, parse: Callable[[str], _T]) -> _T:
    """Read a UTF-8 file and parse its text, naming the path in any error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_instance(path: str) -> Instance:
    return load_file(path, parse_instance)


def parse_catalog(text: str) -> tuple[int, dict[str, WeightFunction]]:
    """Parse either a full instance or a bare ``{"q":..,"functions":..}`` file."""
    obj = decode_json(text)
    if not isinstance(obj, dict):
        raise InputError("catalog: expected a JSON object")
    if "constraints" in obj or "n" in obj:
        instance = instance_from_obj(obj)
        return instance.domain_size, dict(instance.functions)
    unknown = set(obj) - {"q", "functions"}
    if unknown:
        raise InputError(f"catalog: unknown keys {sorted(unknown)}")
    if "q" not in obj or "functions" not in obj:
        raise InputError("catalog: missing 'q' or 'functions'")
    q = _require_int(obj["q"], "q")
    return q, _parse_functions(obj["functions"], q, "functions")


def load_catalog(path: str) -> tuple[int, dict[str, WeightFunction]]:
    return load_file(path, parse_catalog)
