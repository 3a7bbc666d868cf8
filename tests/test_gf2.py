"""Bit-packed GF(2) systems: solution counting and relation round-trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import gf2_count_direct, span_closure

from wcsp.errors import InputError, Refusal
from wcsp.gf2 import Gf2System, affine_system_of, count_solutions, xor_basis
from wcsp.model import Relation, tuple_to_index


def test_count_hand_values():
    # x1 + x2 + x3 = 1 over three variables
    assert count_solutions(Gf2System(3, ((0b111, 1),))) == 4
    # x = 0 and x = 1 simultaneously
    assert count_solutions(Gf2System(1, ((1, 0), (1, 1)))) == 0
    # no rows at all
    assert count_solutions(Gf2System(5, ())) == 32
    # redundant rows do not change the rank
    assert count_solutions(Gf2System(2, ((0b11, 1), (0b11, 1)))) == 2
    # 0 = 0 rows are vacuous
    assert count_solutions(Gf2System(2, ((0, 0),))) == 4
    # 0 = 1 is flatly inconsistent
    assert count_solutions(Gf2System(2, ((0, 1),))) == 0


def test_system_validation():
    with pytest.raises(InputError):
        Gf2System(2, ((0b100, 0),))
    with pytest.raises(InputError):
        Gf2System(2, ((0b01, 2),))


@given(st.integers(0, 6), st.data())
def test_count_matches_direct_enumeration(num_variables, data):
    rows = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, (1 << num_variables) - 1), st.integers(0, 1)
            ),
            max_size=8,
        )
    )
    system = Gf2System(num_variables, tuple(rows))
    assert count_solutions(system) == gf2_count_direct(num_variables, rows)


@given(st.lists(st.integers(0, (1 << 7) - 1), max_size=10))
def test_xor_basis_rank_is_the_log_of_the_span(vectors):
    basis = xor_basis(vectors)
    span = span_closure(vectors)
    assert 1 << len(basis) == len(span)
    assert span_closure(basis.values()) == span
    assert all(vector.bit_length() - 1 == high for high, vector in basis.items())


# ---------------------------------------------------------------------------
# relation -> system


def _solution_set(system: Gf2System, arity: int) -> frozenset[int]:
    """Solutions of the system, re-encoded as table indices.

    The system puts coordinate i at bit ``1 << i``; tables put coordinate 0 on
    top.  Enumerate assignments as tuples and convert explicitly.
    """
    out = set()
    for index in range(1 << arity):
        point = [(index >> (arity - 1 - i)) & 1 for i in range(arity)]
        good = True
        for mask, constant in system.rows:
            acc = 0
            for i, value in enumerate(point):
                if mask >> i & 1:
                    acc ^= value
            if acc != constant:
                good = False
                break
        if good:
            out.add(tuple_to_index(point, 2))
    return frozenset(out)


def test_affine_system_of_known_relations():
    odd = Relation.from_tuples(3, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)])
    system = affine_system_of(odd)
    assert system.rows == ((0b111, 1),)

    diag = Relation.from_tuples(2, [(0, 0), (1, 1)])
    system = affine_system_of(diag)
    assert system.rows == ((0b11, 0),)

    full = Relation.from_tuples(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert affine_system_of(full).rows == ()

    empty = Relation.from_tuples(2, [])
    assert affine_system_of(empty).rows == ((0, 1),)

    point = Relation.from_tuples(2, [(1, 0)])
    system = affine_system_of(point)
    assert _solution_set(system, 2) == point.members


def test_affine_system_of_rejects_non_affine():
    horn = Relation.from_tuples(2, [(0, 1), (1, 0), (1, 1)])
    with pytest.raises(InputError):
        affine_system_of(horn)
    with pytest.raises(Refusal):
        affine_system_of(Relation.from_tuples(1, [(0,)], domain_size=3))


@given(st.integers(0, 8), st.data())
def test_affine_system_round_trips_the_relation(arity, data):
    # Build an affine relation as a coset of a random span, then check that
    # the emitted system has exactly that solution set, one row per
    # dimension the span lacks.
    generators = data.draw(
        st.lists(st.integers(0, (1 << arity) - 1), max_size=arity)
    )
    shift = data.draw(st.integers(0, (1 << arity) - 1))
    members = {shift}
    for g in generators:
        members |= {m ^ g for m in members}
    relation = Relation(arity, 2, frozenset(members))
    system = affine_system_of(relation)
    assert system.num_variables == arity
    assert _solution_set(system, arity) == relation.members
    rank = len(members).bit_length() - 1
    assert len(system.rows) == arity - rank
