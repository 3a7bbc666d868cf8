"""Dense GF(2) linear systems on bit-packed integer rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


def _nullspace(vectors: Iterable[int], width: int) -> list[int]:
    """Basis of ``{a : a . v = 0 for every v}`` for bit-packed row vectors."""
    echelon = xor_basis(vectors)
    # Back-substitute to a fully reduced form: each pivot bit appears in
    # exactly one retained vector.
    for high in sorted(echelon, reverse=True):
        for other in list(echelon):
            if other != high and echelon[other] >> high & 1:
                echelon[other] ^= echelon[high]
    pivot_bits = set(echelon)
    out = []
    for free in range(width):
        if free in pivot_bits:
            continue
        vector = 1 << free
        for pivot, vec in echelon.items():
            if vec >> free & 1:
                vector |= 1 << pivot
        out.append(vector)
    return out


def affine_system_of(relation: Relation) -> Gf2System:
    """A GF(2) system whose solution set is exactly the given affine relation.

    An empty relation yields the single inconsistent row ``0 = 1``; a
    non-affine relation is an error.
    """
    if relation.domain_size != 2:
        raise Refusal("affine systems are only defined for domain size 2")
    k = relation.arity
    members = relation.members
    if not members:
        return Gf2System(k, ((0, 1),))
    origin = min(members)
    span = xor_basis(m ^ origin for m in members)
    # A coset of the span has 2**rank members; anything else is not affine.
    if len(members) != 1 << len(span):
        raise InputError("relation is not affine; no linear system represents it")

    # Member indices keep coordinate 0 at the top bit, system rows at bit 0;
    # reversing the bits of the origin and the basis (not of every member)
    # translates the coset.
    def reverse(index: int) -> int:
        return int(f"{index:0{k}b}"[::-1], 2)

    origin = reverse(origin)
    rows = tuple(
        (a, bin(a & origin).count("1") % 2)
        for a in _nullspace(map(reverse, span.values()), k)
    )
    return Gf2System(k, rows)
