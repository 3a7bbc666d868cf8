"""Dense GF(2) linear systems on bit-packed integer rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from .errors import InputError, Refusal
from .model import Relation


@dataclass(frozen=True)
class Gf2System:
    """Rows ``coefficients * x = constant`` over GF(2).

    ``coefficients`` packs variable ``j`` at bit ``1 << j``; ``constant`` is a
    single bit.
    """

    num_variables: int
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        limit = 1 << self.num_variables
        for pos, (mask, constant) in enumerate(self.rows):
            if not 0 <= mask < limit:
                raise InputError(f"row {pos}: coefficient mask {mask} out of range")
            if constant not in (0, 1):
                raise InputError(f"row {pos}: constant {constant} is not a bit")


def count_solutions(system: Gf2System) -> int:
    """Number of solutions: 0 when inconsistent, else ``2**(n - rank)``."""
    # Not xor_basis: carrying the constant as bit 0 of each row shifts every
    # n-bit mask, and evaluating parity_spread(30000) on the pure-affine route
    # took 0.17-0.18 s that way against 0.10-0.11 s with this loop (medians of
    # 5 calls, two runs each, on a 2-vCPU Xeon VM).
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> reduced row
    for mask, constant in system.rows:
        while mask:
            high = mask.bit_length() - 1
            if high in basis:
                other_mask, other_constant = basis[high]
                mask ^= other_mask
                constant ^= other_constant
            else:
                basis[high] = (mask, constant)
                break
        else:
            if constant:
                return 0
    return 1 << (system.num_variables - len(basis))


def xor_basis(vectors: Iterable[int]) -> dict[int, int]:
    """Echelon basis of the GF(2) span of bit-packed vectors.

    Maps each basis vector's leading bit to the vector, reduced against the
    vectors inserted before it.  Zero and dependent vectors add nothing, so
    the span has exactly ``2**len(basis)`` members.
    """
    basis: dict[int, int] = {}
    for vec in vectors:
        while vec:
            high = vec.bit_length() - 1
            if high in basis:
                vec ^= basis[high]
            else:
                basis[high] = vec
                break
    return basis


def coset_of(members: Collection[int]) -> tuple[int, dict[int, int]] | None:
    """The lowest member and the :func:`xor_basis` of the differences from it,
    or ``None`` unless the members are that span's coset (``2**rank`` of them)."""
    if not members:
        return None
    origin = min(members)
    span = xor_basis(m ^ origin for m in members)
    return (origin, span) if len(members) == 1 << len(span) else None


def column_patterns(arity: int, span: dict[int, int]) -> list[int]:
    """Each coordinate's bits across the basis vectors of a coset's span.

    Bit ``j`` of entry ``i`` is coordinate ``i`` of the ``j``-th basis vector,
    where table indices keep coordinate 0 at the top bit.
    """
    vectors = list(span.values())
    return [
        sum((vec >> (arity - 1 - i) & 1) << j for j, vec in enumerate(vectors))
        for i in range(arity)
    ]


def coset_system(arity: int, origin: int, span: dict[int, int]) -> Gf2System:
    """The GF(2) system whose solutions are the coset ``origin + span``.

    A row ``a`` (coordinate ``i`` at bit ``i``) vanishes on the span exactly
    when the patterns of its coordinates XOR to 0.  Reducing each
    ``pattern << arity | 1 << i`` tracks the combination in the low bits, so
    the basis vectors that lose their pattern bits, ``arity - rank`` of them,
    are a basis of the rows; each row's constant is its parity on the origin.
    """
    patterns = column_patterns(arity, span)
    basis = xor_basis(pattern << arity | 1 << i for i, pattern in enumerate(patterns))
    point = sum((origin >> (arity - 1 - i) & 1) << i for i in range(arity))
    rows = tuple(
        (a, (a & point).bit_count() & 1) for key, a in basis.items() if key < arity
    )
    return Gf2System(arity, rows)


def affine_system_of(relation: Relation) -> Gf2System:
    """A GF(2) system whose solution set is exactly the given affine relation.

    An empty relation yields the single inconsistent row ``0 = 1``; a
    non-affine relation is an error.
    """
    if relation.domain_size != 2:
        raise Refusal("affine systems are only defined for domain size 2")
    if not relation.members:
        return Gf2System(relation.arity, ((0, 1),))
    coset = coset_of(relation.members)
    if coset is None:
        raise InputError("relation is not affine; no linear system represents it")
    return coset_system(relation.arity, *coset)
