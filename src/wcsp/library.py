"""Built-in weight functions: pins, (dis)equality, parity indicators, unaries.

The names understood by :func:`resolve_builtin` -- ``delta0``, ``delta1``,
``eq``, ``neq``, ``xor3``, ``nxor3``, and ``unary:<w>`` -- may be referenced
directly from instance files and the command line.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable

from .errors import InputError
from .model import WeightFunction, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _indicator(
    arity: int, domain_size: int, accept: Callable[[tuple[int, ...]], bool]
) -> WeightFunction:
    """The 0/1 table of the points, in table order, that ``accept`` admits."""
    table = tuple(
        _ONE if accept(point) else _ZERO
        for point in product(range(domain_size), repeat=arity)
    )
    return WeightFunction(arity, domain_size, table)


def delta(value: int, domain_size: int = 2) -> WeightFunction:
    """Unary pin: weight 1 on ``value``, 0 elsewhere."""
    if not 0 <= value < domain_size:
        raise InputError(f"pin value {value} outside domain of size {domain_size}")
    return _indicator(1, domain_size, lambda point: point[0] == value)


def unary_weight(w: Fraction) -> WeightFunction:
    """Boolean unary mapping 0 to 1 and 1 to ``w``."""
    return WeightFunction(1, 2, (_ONE, Fraction(w)))


def binary_equality(domain_size: int = 2) -> WeightFunction:
    return _indicator(2, domain_size, lambda point: point[0] == point[1])


def binary_disequality(domain_size: int = 2) -> WeightFunction:
    return _indicator(2, domain_size, lambda point: point[0] != point[1])


def parity_indicator(arity: int) -> WeightFunction:
    """Boolean indicator of tuples with an odd number of ones."""
    return _indicator(arity, 2, lambda point: sum(point) % 2 == 1)


def even_parity_indicator(arity: int) -> WeightFunction:
    """Boolean indicator of tuples with an even number of ones."""
    return _indicator(arity, 2, lambda point: sum(point) % 2 == 0)


def full_disequality(domain_size: int) -> WeightFunction:
    """Arity-q indicator of pairwise-distinct tuples over a size-q domain."""
    return _indicator(
        domain_size, domain_size, lambda point: len(set(point)) == domain_size
    )


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
