"""Built-in weight functions: pins, (dis)equality, parity indicators, unaries.

The names understood by :func:`resolve_builtin` -- ``delta0``, ``delta1``,
``eq``, ``neq``, ``xor3``, ``nxor3``, and ``unary:<w>`` -- may be referenced
directly from instance files and the command line.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import InputError
from .model import WeightFunction, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


def delta(value: int, domain_size: int = 2) -> WeightFunction:
    """Unary pin: weight 1 on ``value``, 0 elsewhere."""
    if not 0 <= value < domain_size:
        raise InputError(f"pin value {value} outside domain of size {domain_size}")
    table = tuple(_ONE if v == value else _ZERO for v in range(domain_size))
    return WeightFunction(1, domain_size, table)


def unary_weight(w: Fraction) -> WeightFunction:
    """Boolean unary mapping 0 to 1 and 1 to ``w``."""
    return WeightFunction(1, 2, (_ONE, Fraction(w)))


def binary_equality(domain_size: int = 2) -> WeightFunction:
    table = tuple(
        _ONE if x == y else _ZERO
        for x, y in product(range(domain_size), repeat=2)
    )
    return WeightFunction(2, domain_size, table)


def binary_disequality(domain_size: int = 2) -> WeightFunction:
    table = tuple(
        _ZERO if x == y else _ONE
        for x, y in product(range(domain_size), repeat=2)
    )
    return WeightFunction(2, domain_size, table)


def parity_indicator(arity: int) -> WeightFunction:
    """Boolean indicator of tuples with an odd number of ones."""
    table = tuple(
        _ONE if bin(i).count("1") % 2 == 1 else _ZERO for i in range(2**arity)
    )
    return WeightFunction(arity, 2, table)


def even_parity_indicator(arity: int) -> WeightFunction:
    """Boolean indicator of tuples with an even number of ones."""
    table = tuple(
        _ONE if bin(i).count("1") % 2 == 0 else _ZERO for i in range(2**arity)
    )
    return WeightFunction(arity, 2, table)


def full_disequality(domain_size: int) -> WeightFunction:
    """Arity-q indicator of pairwise-distinct tuples over a size-q domain."""
    table = tuple(
        _ONE if len(set(point)) == domain_size else _ZERO
        for point in product(range(domain_size), repeat=domain_size)
    )
    return WeightFunction(domain_size, domain_size, table)


def scale_function(fn: WeightFunction, factor: Fraction) -> WeightFunction:
    """Multiply every table entry by a non-negative rational."""
    factor = Fraction(factor)
    if factor < 0:
        raise InputError(f"scale factor {factor} is negative")
    return WeightFunction(fn.arity, fn.domain_size, tuple(v * factor for v in fn.table))


def resolve_builtin(name: str, domain_size: int = 2) -> WeightFunction | None:
    """Look up a library function by name; None when the name is not known.

    All built-ins are Boolean; requesting one under another domain size fails.
    """
    fixed = {
        "delta0": lambda: delta(0),
        "delta1": lambda: delta(1),
        "eq": binary_equality,
        "neq": binary_disequality,
        "xor3": lambda: parity_indicator(3),
        "nxor3": lambda: even_parity_indicator(3),
    }
    if name in fixed:
        fn = fixed[name]()
    elif name.startswith("unary:"):
        fn = unary_weight(parse_rational(name[len("unary:"):], name))
    else:
        return None
    if fn.domain_size != domain_size:
        raise InputError(
            f"built-in {name!r} is Boolean but the instance has domain size {domain_size}"
        )
    return fn
