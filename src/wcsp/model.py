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
* every table access goes through :meth:`WeightFunction.lookup`,
* exhaustive enumeration refuses (rather than approximates) once the number of
  weighted states exceeds a configurable budget, ``2**30`` by default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import InputError, Refusal

#: Default ceiling on the states an enumeration may visit: the assignments of
#: ``conditioned_z``/``brute_force_z`` and the codewords of the code enumerator.
DEFAULT_BUDGET = 2**30

_ZERO = Fraction(0)
_ONE = Fraction(1)
_T = TypeVar("_T")


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
    if result < 0:
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
# weight functions and relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """A k-ary table of non-negative rationals over domain ``{0..q-1}``."""

    arity: int
    domain_size: int
    table: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.domain_size < 2:
            raise InputError(f"domain size must be at least 2, got {self.domain_size}")
        if self.arity < 0:
            raise InputError(f"arity must be non-negative, got {self.arity}")
        # q**arity >= 2**arity, so an arity beyond the entry count's bit length
        # cannot match, and the possibly giant power is never computed
        entries = len(self.table)
        if self.arity > entries.bit_length() or entries != self.domain_size**self.arity:
            raise InputError(
                f"table has {entries} entries, expected {self.domain_size}**{self.arity} "
                f"for arity {self.arity} over domain {self.domain_size}"
            )
        for pos, entry in enumerate(self.table):
            if not isinstance(entry, Fraction):
                raise InputError(f"table[{pos}]: expected Fraction, got {type(entry).__name__}")
            if entry < 0:
                raise InputError(f"table[{pos}]: negative weight {entry}")

    @classmethod
    def from_values(
        cls, arity: int, values: Iterable[object], domain_size: int = 2
    ) -> "WeightFunction":
        """Build from ints / strings / Fractions, validating non-negativity."""
        table = tuple(
            v if isinstance(v, Fraction) else parse_rational(v, f"table[{i}]")
            for i, v in enumerate(values)
        )
        return cls(arity, domain_size, table)

    def lookup(self, point: Sequence[int]) -> Fraction:
        """Value at a domain tuple; the only sanctioned way to read the table."""
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

    # The table is immutable, so its hash, a pass over every entry, is taken
    # once per object; classification's cache looks tables up by it.
    @cached_property
    def _hash(self) -> int:
        return hash((self.arity, self.domain_size, self.table))

    def __hash__(self) -> int:
        return self._hash

    def support_indices(self) -> list[int]:
        """Table indices carrying non-zero weight, in increasing order."""
        return [i for i, entry in enumerate(self.table) if entry]


@dataclass(frozen=True)
class Relation:
    """A set of tuples, stored index-encoded under the shared convention."""

    arity: int
    domain_size: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        limit = self.domain_size**self.arity
        for m in self.members:
            if not 0 <= m < limit:
                raise InputError(f"relation member {m} outside table range {limit}")

    @classmethod
    def from_tuples(
        cls, arity: int, tuples: Iterable[Sequence[int]], domain_size: int = 2
    ) -> "Relation":
        members = frozenset(tuple_to_index(t, domain_size) for t in tuples)
        return cls(arity, domain_size, members)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    """One application of a named catalog function to a variable scope."""

    function: str
    scope: tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    """Variables, a function catalog, and constraints; immutable once built."""

    num_variables: int
    domain_size: int
    functions: dict[str, WeightFunction]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if self.domain_size < 2:
            raise InputError(f"domain size must be at least 2, got {self.domain_size}")
        if self.num_variables < 0:
            raise InputError(f"negative variable count {self.num_variables}")
        for name, fn in self.functions.items():
            if fn.domain_size != self.domain_size:
                raise InputError(
                    f"function {name!r} has domain {fn.domain_size}, instance has {self.domain_size}"
                )
        for pos, c in enumerate(self.constraints):
            fn = self.functions.get(c.function)
            if fn is None:
                raise InputError(f"constraints[{pos}]: unknown function {c.function!r}")
            if len(c.scope) != fn.arity:
                raise InputError(
                    f"constraints[{pos}]: scope length {len(c.scope)} != arity {fn.arity} "
                    f"of {c.function!r}"
                )
            for v in c.scope:
                if not 0 <= v < self.num_variables:
                    raise InputError(f"constraints[{pos}]: variable {v} out of range")


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
    multiplies the sum by ``q``.
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
    touched = sorted({v for c in instance.constraints for v in c.scope})
    at = {v: i for i, v in enumerate(touched)}
    domains = [(fixed[v],) if v in fixed else range(q) for v in touched]
    specs = [
        (instance.functions[c.function].table, [at[v] for v in c.scope])
        for c in instance.constraints
    ]
    untouched = free - sum(1 for v in touched if v not in fixed)
    total = _ZERO
    for sigma in product(*domains):
        w = _ONE
        for table, scope in specs:
            index = 0
            for v in scope:
                index = index * q + sigma[v]
            value = table[index]
            if not value:
                w = _ZERO
                break
            if value != 1:
                w = w * value
        total += w
    return total * q**untouched


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
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise InputError(f"{where}: expected an integer, got {obj!r}")
    return obj


def _parse_functions(obj: object, domain_size: int, where: str) -> dict[str, WeightFunction]:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object mapping names to functions")
    catalog: dict[str, WeightFunction] = {}
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
        table = tuple(
            parse_rational(v, f"{here}.table[{i}]") for i, v in enumerate(table_obj)
        )
        try:
            catalog[name] = WeightFunction(arity, domain_size, table)
        except InputError as exc:
            raise InputError(f"{here}: {exc}") from exc
    return catalog


def instance_from_obj(obj: object) -> Instance:
    """Build an instance from parsed JSON, with field-level diagnostics.

    Constraints may reference the built-in library (``delta0``, ``eq``,
    ``unary:<w>`` ...); missing catalog entries are resolved there and added.
    """
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
    from .library import resolve_builtin  # deferred: library depends on this module

    constraints = []
    for pos, spec in enumerate(constraints_obj):
        here = f"constraints[{pos}]"
        if not isinstance(spec, dict):
            raise InputError(f"{here}: expected an object with 'f' and 'scope'")
        unknown = set(spec) - {"f", "scope"}
        if unknown:
            raise InputError(f"{here}: unknown keys {sorted(unknown)}")
        if "f" not in spec or "scope" not in spec:
            raise InputError(f"{here}: missing 'f' or 'scope'")
        name = spec["f"]
        if not isinstance(name, str):
            raise InputError(f"{here}.f: expected a function name string")
        if name not in catalog:
            builtin = resolve_builtin(name, q)
            if builtin is None:
                raise InputError(f"{here}.f: unknown function {name!r}")
            catalog[name] = builtin
        scope_obj = spec["scope"]
        if not isinstance(scope_obj, list):
            raise InputError(f"{here}.scope: expected a list of variable indices")
        scope = tuple(_require_int(v, f"{here}.scope[{i}]") for i, v in enumerate(scope_obj))
        constraints.append(Constraint(name, scope))
    return Instance(n, q, catalog, tuple(constraints))


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
