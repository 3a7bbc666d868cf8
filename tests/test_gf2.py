"""Bit-packed GF(2) systems: solution counting and relation round-trips."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import gf2_count_direct, span_closure

from wcsp.errors import InputError
from wcsp.gf2 import Gf2System, affine_system_of, count_solutions, xor_basis
from wcsp.model import tuple_to_index


def test_count_hand_values():
    # x1 + x2 + x3 = 1 over three variables
    assert count_solutions(Gf2System(3, ((0, 0b111, 1),))) == 4
    # x = 0 and x = 1 simultaneously
    assert count_solutions(Gf2System(1, ((0, 1, 0), (0, 1, 1)))) == 0
    # no rows at all
    assert count_solutions(Gf2System(5, ())) == 32
    # redundant rows do not change the rank
    assert count_solutions(Gf2System(2, ((0, 0b11, 1), (0, 0b11, 1)))) == 2
    # 0 = 0 rows are vacuous
    assert count_solutions(Gf2System(2, ((0, 0, 0),))) == 4
    # 0 = 1 is flatly inconsistent
    assert count_solutions(Gf2System(2, ((0, 0, 1),))) == 0


def test_system_validation():
    with pytest.raises(InputError):
        Gf2System(2, ((0, 0b100, 0),))
    with pytest.raises(InputError):
        Gf2System(2, ((0, 0b01, 2),))


def test_system_validation_bounds_each_row_by_its_span():
    # a row may sit anywhere, as long as the variables it spans exist
    Gf2System(4, ((3, 0b1, 1), (1, 0b101, 0), (4, 0, 1)))
    with pytest.raises(InputError, match="^row 1: coefficient mask 2 out of range$"):
        Gf2System(4, ((0, 0b1, 0), (3, 0b10, 0)))
    with pytest.raises(InputError, match="^row 0: lowest variable 5 out of range$"):
        Gf2System(4, ((5, 0, 0),))
    with pytest.raises(InputError, match="^row 0: coefficient mask -1 out of range$"):
        Gf2System(4, ((0, -1, 0),))
    with pytest.raises(InputError, match="^row 0: lowest variable -1 out of range$"):
        Gf2System(4, ((-1, 0b10, 0),))
    with pytest.raises(InputError, match="^row 0: constant -1 is not a bit$"):
        Gf2System(4, ((1, 0b1, -1),))


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
    system = Gf2System(num_variables, tuple((0, mask, c) for mask, c in rows))
    assert count_solutions(system) == gf2_count_direct(num_variables, rows)


@st.composite
def _span_systems(draw):
    """Rows at arbitrary lowest variables, then zero, repeated and dependent
    rows, the last with either constant, so that some systems are inconsistent."""
    n = draw(st.integers(0, 10))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        low = draw(st.integers(0, n))
        rows.append((low, draw(st.integers(0, (1 << (n - low)) - 1)), draw(st.integers(0, 1))))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        combined = 0
        for low, mask, _c in draw(st.lists(st.sampled_from(rows), max_size=3)):
            combined ^= mask << low
        # anchor the sum at or below its lowest variable
        lowest = (combined & -combined).bit_length() - 1 if combined else n
        low = draw(st.integers(0, lowest))
        rows.append((low, combined >> low, draw(st.integers(0, 1))))
    return n, draw(st.permutations(rows))


@given(_span_systems())
@example((3, [(0, 0b11, 1), (1, 0b11, 1), (0, 0b101, 1)]))  # inconsistent
@example((3, [(2, 0, 1)]))  # 0 = 1 at the last variable
@example((4, [(1, 0b110, 0), (2, 0b11, 0), (0, 0b10, 1)]))  # repeated after a shift
def test_span_rows_count_matches_direct_enumeration(system):
    n, rows = system
    full_width = [(mask << low, constant) for low, mask, constant in rows]
    assert count_solutions(Gf2System(n, tuple(rows))) == gf2_count_direct(n, full_width)


@given(st.lists(st.integers(0, (1 << 7) - 1), max_size=10))
def test_xor_basis_rank_is_the_log_of_the_span(vectors):
    basis = xor_basis(vectors)
    span = span_closure(vectors)
    assert 1 << len(basis) == len(span)
    assert span_closure(basis.values()) == span
    assert all(vector.bit_length() - 1 == high for high, vector in basis.items())


# ---------------------------------------------------------------------------
# index set -> system


def _solution_set(system: Gf2System, arity: int) -> frozenset[int]:
    """Solutions of the system, re-encoded as table indices.

    The system puts coordinate i at bit ``1 << i``; tables put coordinate 0 on
    top.  Enumerate assignments as tuples and convert explicitly.
    """
    out = set()
    for index in range(1 << arity):
        point = [(index >> (arity - 1 - i)) & 1 for i in range(arity)]
        good = True
        for low, mask, constant in system.rows:
            acc = 0
            for i, value in enumerate(point):
                if mask << low >> i & 1:
                    acc ^= value
            if acc != constant:
                good = False
                break
        if good:
            out.add(tuple_to_index(point, 2))
    return frozenset(out)


def _members(tuples) -> frozenset[int]:
    return frozenset(tuple_to_index(t, 2) for t in tuples)


def test_affine_system_of_known_relations():
    odd = _members([(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)])
    system = affine_system_of(3, odd)
    assert system.rows == ((0, 0b111, 1),)

    diag = _members([(0, 0), (1, 1)])
    system = affine_system_of(2, diag)
    assert system.rows == ((0, 0b11, 0),)

    full = _members([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert affine_system_of(2, full).rows == ()

    assert affine_system_of(2, frozenset()).rows == ((0, 0, 1),)

    point = _members([(1, 0)])
    system = affine_system_of(2, point)
    assert _solution_set(system, 2) == point


def test_affine_system_of_rejects_non_affine():
    horn = _members([(0, 1), (1, 0), (1, 1)])
    with pytest.raises(InputError):
        affine_system_of(2, horn)
    with pytest.raises(InputError, match="outside table range 2"):
        affine_system_of(1, {0, 2})
    with pytest.raises(InputError, match="outside table range 2"):
        affine_system_of(1, {-1})
    with pytest.raises(InputError, match="arity must be non-negative"):
        affine_system_of(-1, ())


@given(st.integers(0, 8), st.data())
def test_affine_system_round_trips_the_relation(arity, data):
    # Build an affine index set as a coset of a random span, then check that
    # the emitted system has exactly that solution set, one row per
    # dimension the span lacks.
    generators = data.draw(
        st.lists(st.integers(0, (1 << arity) - 1), max_size=arity)
    )
    shift = data.draw(st.integers(0, (1 << arity) - 1))
    members = {shift}
    for g in generators:
        members |= {m ^ g for m in members}
    system = affine_system_of(arity, members)
    assert system.num_variables == arity
    assert _solution_set(system, arity) == members
    rank = len(members).bit_length() - 1
    assert len(system.rows) == arity - rank
