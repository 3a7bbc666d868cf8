"""Instance reductions, each checked against the enumeration oracle."""

import itertools
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    decode,
    distinct_filtered_z,
    encode,
    enumerate_affine_supports,
    merge_direct,
    permutation_symmetric_direct,
    pin_direct,
    project_direct,
)

import wcsp.classify as classify
from wcsp.classify import is_pure_affine
from wcsp.errors import InputError, InvariantViolation, Refusal
from wcsp.library import (
    binary_disequality,
    binary_equality,
    delta,
    even_parity_indicator,
    full_disequality,
    parity_indicator,
    scale_function,
    unary_weight,
)
from wcsp.model import (
    MAX_VALUE_BITS,
    Constraint,
    Instance,
    WeightFunction,
    brute_force_z,
    conditioned_z,
    index_to_tuple,
)
from wcsp.reductions import (
    MAX_INTERPOLATION_OCCURRENCES,
    Partition,
    PinRecursion,
    UnaryExtraction,
    _exact_sqrt,
    _solve_vandermonde,
    all_partitions,
    extract_unary,
    extract_unary_iterated,
    interpolation_polynomial,
    interpolation_reduce,
    is_flip_symmetric,
    is_permutation_symmetric,
    merge_coordinates,
    mobius_pinning_reduce,
    mobius_table,
    parity_chain,
    pin_coordinate,
    pinning_reduce_boolean,
    project,
    project_out,
    refines,
    simulate_projection,
    symmetric_pinning_reduce_q,
    symmetrize_parity,
)

F = Fraction


def fn(arity, *values):
    return WeightFunction(arity, 2, tuple(F(v) for v in values))


def _instance(q, n, functions, constraints):
    return Instance(
        n, q, functions, tuple(Constraint(f, tuple(s)) for f, s in constraints)
    )


# ---------------------------------------------------------------------------
# table transforms


def test_project_hand_values():
    assert project(binary_disequality(), (1,)).table == (F(1), F(1))
    assert project(fn(2, 1, 3, 2, 6), (1,)).table == (F(3), F(9))
    skew = fn(2, 1, 3, 2, 6)
    assert project(skew, (0, 1)).table == skew.table  # identity projection
    assert project(skew, ()).table == (F(12),)


def test_project_validation():
    with pytest.raises(InputError):
        project(binary_disequality(), (1, 0))  # not increasing
    with pytest.raises(InputError):
        project(binary_disequality(), (0, 0))
    with pytest.raises(InputError):
        project(binary_disequality(), (2,))


def test_pin_coordinate_hand_values():
    assert pin_coordinate(parity_indicator(3), 0, 0).table == (
        F(0),
        F(1),
        F(1),
        F(0),
    )
    assert pin_coordinate(binary_disequality(), 0, 0).table == (F(0), F(1))
    assert pin_coordinate(fn(2, 1, 3, 2, 6), 1, 1).table == (F(3), F(6))
    with pytest.raises(InputError):
        pin_coordinate(binary_disequality(), 2, 0)
    with pytest.raises(InputError):
        pin_coordinate(binary_disequality(), 0, 2)


def test_project_out_hand_values():
    assert project_out(parity_indicator(3), 0).table == (F(1),) * 4
    pin_pair = fn(2, 1, 0, 0, 0)  # delta0 x delta0
    assert project_out(pin_pair, 0).table == (F(1), F(0))
    with pytest.raises(InputError):
        project_out(pin_pair, 5)


@given(st.integers(1, 4), st.integers(0, 3), st.data())
def test_project_out_is_sum_of_pins(arity, coordinate, data):
    coordinate %= arity
    table = data.draw(
        st.lists(
            st.integers(0, 4), min_size=2**arity, max_size=2**arity
        )
    )
    f = fn(arity, *table)
    left = project_out(f, coordinate).table
    zero = pin_coordinate(f, coordinate, 0).table
    one = pin_coordinate(f, coordinate, 1).table
    assert left == tuple(a + b for a, b in zip(zero, one))


@given(st.sampled_from([2, 3]), st.integers(0, 4), st.data())
def test_table_transforms_match_point_by_point_references(q, arity, data):
    entries = st.sampled_from([F(0), F(1), F(2), F(1, 3)])
    table = data.draw(st.lists(entries, min_size=q**arity, max_size=q**arity))
    f = WeightFunction(arity, q, tuple(table))
    for size in range(arity + 1):
        for coords in itertools.combinations(range(arity), size):
            assert project(f, coords) == WeightFunction(size, q, project_direct(f, coords))
    for coordinate in range(arity):
        keep = tuple(i for i in range(arity) if i != coordinate)
        assert project_out(f, coordinate).table == project_direct(f, keep)
        for value in range(q):
            pinned = WeightFunction(arity - 1, q, pin_direct(f, coordinate, value))
            assert pin_coordinate(f, coordinate, value) == pinned
    for first, second in itertools.permutations(range(arity), 2):
        merged = WeightFunction(arity - 1, q, merge_direct(f, first, second))
        assert merge_coordinates(f, first, second) == merged


def test_merge_coordinates_diagonal():
    merged = merge_coordinates(parity_indicator(3), 0, 1)
    # xor3(a, a, b) depends only on b
    assert merged.table == (F(0), F(1), F(0), F(1))
    with pytest.raises(InputError):
        merge_coordinates(parity_indicator(3), 1, 1)
    with pytest.raises(InputError):
        merge_coordinates(parity_indicator(3), 0, 3)


# ---------------------------------------------------------------------------
# projection simulation


def test_simulate_projection_unary_example():
    g = project_out(binary_disequality(), 1)  # the constant-1 unary
    inst = _instance(2, 1, {"g": g}, [("g", (0,))])
    lifted = simulate_projection(inst, "g", binary_disequality(), (0,))
    assert lifted.num_variables == 2
    assert brute_force_z(lifted) == brute_force_z(inst) == 2


def test_simulate_projection_chained():
    xor3 = parity_indicator(3)
    g = project(xor3, (0, 2))
    h = project(g, (0,))
    inst = _instance(2, 1, {"h": h}, [("h", (0,)), ("h", (0,))])
    step1 = simulate_projection(inst, "h", g, (0,))
    step2 = simulate_projection(step1, "h_lift", xor3, (0, 2))
    assert (
        brute_force_z(step2)
        == brute_force_z(step1)
        == brute_force_z(inst)
    )


def test_simulate_projection_all_coordinates_renames():
    neq = binary_disequality()
    inst = _instance(2, 2, {"g": neq}, [("g", (0, 1))])
    renamed = simulate_projection(inst, "g", neq, (0, 1))
    assert set(renamed.functions) == {"g_lift"}
    assert renamed.constraints == (Constraint("g_lift", (0, 1)),)
    assert renamed.num_variables == 2


def test_simulate_projection_refuses_wrong_preimage():
    inst = _instance(2, 1, {"g": unary_weight(F(5))}, [("g", (0,))])
    with pytest.raises(Refusal):
        simulate_projection(inst, "g", binary_disequality(), (0,))
    with pytest.raises(InputError):
        simulate_projection(inst, "missing", binary_disequality(), (0,))


@given(st.integers(0, 30))
def test_simulate_projection_preserves_z_randomly(seed):
    import random

    rng = random.Random(seed)
    preimage = fn(3, *(rng.choice([0, 1, 1, 2, 3]) for _ in range(8)))
    coords = tuple(sorted(rng.sample(range(3), rng.randint(1, 3))))
    g = project(preimage, coords)
    n = 4
    scopes = [
        tuple(rng.sample(range(n), len(coords))) for _ in range(rng.randint(1, 3))
    ]
    inst = _instance(2, n, {"g": g}, [("g", s) for s in scopes])
    lifted = simulate_projection(inst, "g", preimage, coords)
    assert brute_force_z(lifted) == brute_force_z(inst)


# ---------------------------------------------------------------------------
# Boolean pin elimination


def test_is_flip_symmetric():
    assert is_flip_symmetric({"neq": binary_disequality()})
    assert is_flip_symmetric({"eq": binary_equality()})
    # flipping all three arguments toggles a 3-way parity
    assert not is_flip_symmetric({"xor3": parity_indicator(3)})
    assert not is_flip_symmetric({"skew": fn(2, 1, 3, 2, 6)})
    assert not is_flip_symmetric({"d": delta(0)})
    assert is_flip_symmetric({})
    with pytest.raises(Refusal):
        is_flip_symmetric({"t": WeightFunction(1, 3, (F(1),) * 3)})


def test_pinning_symmetric_example():
    neq = binary_disequality()
    inst = _instance(
        2, 2, {"neq": neq, "delta0": delta(0)}, [("delta0", (0,)), ("neq", (0, 1))]
    )
    assert pinning_reduce_boolean(inst, brute_force_z) == 1


def test_pinning_asymmetric_example():
    skew = fn(2, 1, 3, 2, 6)
    inst = _instance(
        2, 2, {"f": skew, "delta0": delta(0)}, [("delta0", (0,)), ("f", (0, 1))]
    )
    assert pinning_reduce_boolean(inst, brute_force_z) == 4  # 1 + 3


def test_pinning_no_pins_is_passthrough():
    neq = binary_disequality()
    inst = _instance(2, 2, {"neq": neq}, [("neq", (0, 1))])
    calls = []

    def spy(sub):
        calls.append(sub)
        return brute_force_z(sub)

    assert pinning_reduce_boolean(inst, spy) == 2
    assert len(calls) == 1 and calls[0].constraints == inst.constraints


def test_pinning_contradictory_pins_short_circuit():
    inst = _instance(
        2,
        1,
        {"delta0": delta(0), "delta1": delta(1)},
        [("delta0", (0,)), ("delta1", (0,))],
    )

    def explode(_):
        raise AssertionError("the evaluator must not be called")

    assert pinning_reduce_boolean(inst, explode) == 0


def test_pinning_evaluator_never_sees_pins():
    neq = binary_disequality()
    inst = _instance(
        2,
        3,
        {"neq": neq, "delta0": delta(0), "delta1": delta(1)},
        [("delta0", (0,)), ("delta1", (1,)), ("neq", (0, 2)), ("neq", (1, 2))],
    )
    pin_tables = {(F(1), F(0)), (F(0), F(1))}

    def check(sub):
        assert all(f.table not in pin_tables for f in sub.functions.values())
        return brute_force_z(sub)

    expected = conditioned_z(inst, [(0, 0), (1, 1)])
    assert pinning_reduce_boolean(inst, check) == expected


@given(st.integers(0, 60))
def test_pinning_matches_conditioning_randomly(seed):
    import random

    rng = random.Random(seed)
    symmetric = rng.random() < 0.5
    if symmetric:
        body = {"neq": binary_disequality(), "xor3": parity_indicator(3)}
    else:
        body = {"skew": fn(2, *(rng.choice([1, 2, 3, 6]) for _ in range(4)))}
    n = 4
    constraints = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(list(body))
        arity = body[name].arity
        constraints.append((name, tuple(rng.sample(range(n), arity))))
    pins = {}
    for var in rng.sample(range(n), rng.randint(1, 2)):
        pins[var] = rng.randint(0, 1)
    functions = dict(body)
    functions["delta0"] = delta(0)
    functions["delta1"] = delta(1)
    for var, value in pins.items():
        constraints.append((f"delta{value}", (var,)))
    inst = _instance(2, n, functions, constraints)
    assert pinning_reduce_boolean(inst, brute_force_z) == brute_force_z(inst)


# ---------------------------------------------------------------------------
# interpolation


def test_solve_vandermonde_known_polynomial():
    # p(w) = 2 + 0w + 5w^2 sampled at 1, 2, 4
    points = [F(1), F(2), F(4)]
    values = [F(7), F(22), F(82)]
    assert _solve_vandermonde(points, values) == [F(2), F(0), F(5)]


_RATIONALS = st.fractions(min_value=-100, max_value=100, max_denominator=20)
_POLYNOMIALS = st.lists(_RATIONALS, min_size=1, max_size=13)  # degree <= 12


@given(
    _POLYNOMIALS,
    st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8).filter(lambda r: r != 1),
)
def test_solve_vandermonde_recovers_a_polynomial_at_geometric_points(coefficients, ratio):
    points = [ratio**j for j in range(len(coefficients))]
    values = [sum(c * p**k for k, c in enumerate(coefficients)) for p in points]
    assert _solve_vandermonde(points, values) == coefficients


@given(_POLYNOMIALS, st.data())
def test_solve_vandermonde_recovers_a_polynomial_at_distinct_points(coefficients, data):
    size = len(coefficients)
    points = data.draw(st.lists(_RATIONALS, min_size=size, max_size=size, unique=True))
    values = [sum(c * p**k for k, c in enumerate(coefficients)) for p in points]
    assert _solve_vandermonde(points, values) == coefficients

    # one point sampled twice makes the system singular, whatever the values
    source = data.draw(st.integers(0, size - 1))
    position = data.draw(st.integers(0, size))
    points.insert(position, points[source])
    values.insert(position, data.draw(_RATIONALS))
    with pytest.raises(InvariantViolation, match="interpolation points are not distinct"):
        _solve_vandermonde(points, values)


def test_interpolation_at_a_101_digit_point_is_quick():
    # Z(I; w) = (1 + w)**32 at a 334-bit point: 32 * 32 * 334 bits is under
    # the value limit, and the values reach point**(32 * 32)
    m = 32
    point = F(10**100 + 3)
    unaries = _instance(2, m, {"u": unary_weight(F(2))}, [("u", (v,)) for v in range(m)])
    start = time.perf_counter()
    coefficients = interpolation_polynomial(
        unaries, "u", point, lambda inst: (1 + point ** (len(inst.constraints) // m)) ** m
    )
    elapsed = time.perf_counter() - start
    assert coefficients == [math.comb(m, k) for k in range(m + 1)]
    assert elapsed < 10, f"took {elapsed:.1f} s"


def test_interpolation_single_occurrence():
    inst = _instance(2, 1, {"u": unary_weight(F(5))}, [("u", (0,))])
    coefficients = interpolation_polynomial(inst, "u", F(2), brute_force_z)
    assert coefficients == [F(1), F(1)]  # Z(I; w) = 1 + w
    assert interpolation_reduce(inst, "u", F(2), brute_force_z) == 6


def test_interpolation_double_occurrence():
    inst = _instance(2, 1, {"u": unary_weight(F(3))}, [("u", (0,)), ("u", (0,))])
    coefficients = interpolation_polynomial(inst, "u", F(2), brute_force_z)
    assert coefficients == [F(1), F(0), F(1)]  # Z(I; w) = 1 + w^2
    assert interpolation_reduce(inst, "u", F(2), brute_force_z) == 10


def test_interpolation_weight_one_equals_dropping_the_unary():
    neq = binary_disequality()
    inst = _instance(
        2, 2, {"u": unary_weight(F(1)), "neq": neq}, [("u", (0,)), ("neq", (0, 1))]
    )
    stripped = _instance(2, 2, {"neq": neq}, [("neq", (0, 1))])
    assert interpolation_reduce(inst, "u", F(2), brute_force_z) == brute_force_z(
        stripped
    )


def test_interpolation_weight_zero_is_a_pin():
    inst = _instance(
        2,
        2,
        {"u": unary_weight(F(0)), "neq": binary_disequality()},
        [("u", (0,)), ("neq", (0, 1))],
    )
    assert interpolation_reduce(inst, "u", F(2), brute_force_z) == 1


def test_interpolation_validation():
    inst = _instance(2, 1, {"u": unary_weight(F(5))}, [("u", (0,))])
    with pytest.raises(InputError):
        interpolation_polynomial(inst, "missing", F(2), brute_force_z)
    with pytest.raises(InputError):
        interpolation_polynomial(inst, "u", F(1), brute_force_z)
    with pytest.raises(InputError):
        interpolation_polynomial(inst, "u", F(0), brute_force_z)
    with pytest.raises(InputError):
        interpolation_polynomial(inst, "u", F(-2), brute_force_z)
    denormalized = _instance(2, 1, {"v": fn(1, 2, 6)}, [("v", (0,))])
    with pytest.raises(Refusal):
        interpolation_polynomial(denormalized, "v", F(2), brute_force_z)


def test_interpolation_refuses_too_many_occurrences_before_evaluating():
    def unaries(m):
        return _instance(2, m, {"u": unary_weight(F(2))}, [("u", (v,)) for v in range(m)])

    # at the bound: Z(I; w) = (1 + w)**m, evaluated in closed form
    m = MAX_INTERPOLATION_OCCURRENCES
    coefficients = interpolation_polynomial(
        unaries(m), "u", F(3), lambda inst: F(1 + 3 ** (len(inst.constraints) // m)) ** m
    )
    assert coefficients == [math.comb(m, k) for k in range(m + 1)]

    def never(instance):
        raise AssertionError("the evaluator ran before the refusal")

    m = MAX_INTERPOLATION_OCCURRENCES + 1
    with pytest.raises(Refusal, match=f"'u' occurs {m} times; .* up to {m - 1} occurrences"):
        interpolation_polynomial(unaries(m), "u", F(3), never)


def test_interpolation_refuses_a_point_too_large_before_evaluating():
    # the evaluated values and the divided differences reach point**(m * m): at
    # m = 64 a 31-digit point takes about 7 s, and the time grows with the point
    m = MAX_INTERPOLATION_OCCURRENCES
    unaries = _instance(2, m, {"u": unary_weight(F(2))}, [("u", (v,)) for v in range(m)])
    point = F(10**1000 + 1)
    bits = m * m * (point.numerator.bit_length() + 1)

    def never(instance):
        raise AssertionError("the evaluator ran before the refusal")

    with pytest.raises(Refusal) as info:
        interpolation_polynomial(unaries, "u", point, never)
    assert str(info.value) == (
        f"interpolating 'u' over {m} occurrences at a {point.numerator.bit_length() + 1}-bit "
        f"point: the value can need {bits} bits or more, beyond the limit of {MAX_VALUE_BITS}"
    )


@given(
    st.sampled_from([F(0), F(1, 2), F(3), F(7)]),
    st.sampled_from([F(2), F(1, 2)]),
    st.integers(0, 25),
)
def test_interpolation_matches_oracle_randomly(c, lam, seed):
    import random

    rng = random.Random(seed)
    n = 4
    functions = {"u": unary_weight(c), "neq": binary_disequality()}
    constraints = []
    for _ in range(rng.randint(0, 4)):
        constraints.append(("u", (rng.randrange(n),)))
    for _ in range(rng.randint(0, 2)):
        constraints.append(("neq", tuple(rng.sample(range(n), 2))))
    inst = _instance(2, n, functions, constraints)
    occurrences = sum(1 for f, _ in constraints if f == "u")
    coefficients = interpolation_polynomial(inst, "u", lam, brute_force_z)
    assert len(coefficients) == occurrences + 1
    assert interpolation_reduce(inst, "u", lam, brute_force_z) == brute_force_z(inst)


# ---------------------------------------------------------------------------
# parity chains


def test_parity_chain_base_case_is_one_constraint():
    chain = parity_chain(3)
    assert chain.num_variables == 3
    assert chain.constraints == (Constraint("xor3", (0, 1, 2)),)


def test_parity_chain_counts():
    for width in range(1, 9):
        chain = parity_chain(width)
        assert brute_force_z(chain) == 2 ** (width - 1), width


def test_parity_chain_each_odd_tuple_extends_uniquely():
    width = 4
    chain = parity_chain(width)
    for bits in range(1 << width):
        point = index_to_tuple(bits, width, 2)
        completions = conditioned_z(chain, list(enumerate(point)))
        expected = 1 if sum(point) % 2 == 1 else 0
        assert completions == expected, point


def test_parity_chain_validation():
    with pytest.raises(InputError):
        parity_chain(0)
    # 4 * 262146 - 9 variables fit MAX_VALUE_BITS, as evaluate requires; one
    # more input does not
    assert 4 * 262146 - 9 <= MAX_VALUE_BITS < 4 * 262147 - 9
    with pytest.raises(Refusal, match=rf"beyond the limit of {MAX_VALUE_BITS}$"):
        parity_chain(262147)


def test_parity_chain_variable_count():
    # every width up to 256, then a sample up to 2000 (the full sweep takes
    # about 16 s)
    for width in [*range(1, 257), *range(257, 2001, 29), 2000]:
        assert parity_chain(width).num_variables == max(3, 4 * width - 9), width


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_even_parity_indicator_is_fixed_point():
    symmetrized, balance, flattened = symmetrize_parity(even_parity_indicator(3))
    assert symmetrized.table == even_parity_indicator(3).table
    assert balance == 1
    assert flattened.table == even_parity_indicator(3).table
    assert is_pure_affine(flattened)


def test_symmetrize_weighted_even_support():
    # value 2 at the all-zero tuple, 1 on the other even-parity tuples
    f = fn(3, 2, 0, 0, 1, 0, 1, 1, 0)
    symmetrized, balance, flattened = symmetrize_parity(f)
    assert symmetrized.lookup((0, 0, 0)) == 64
    assert symmetrized.lookup((0, 1, 1)) == 1
    assert balance == 8
    assert set(flattened.table) == {F(0), F(64)}
    assert is_pure_affine(flattened)


def test_symmetrize_odd_support():
    f = fn(3, 0, 1, 1, 0, 2, 0, 0, 1)
    symmetrized, balance, flattened = symmetrize_parity(f)
    # the result is symmetric in its arguments
    for a, b, c in itertools.product((0, 1), repeat=3):
        assert symmetrized.lookup((a, b, c)) == symmetrized.lookup((b, a, c))
        assert symmetrized.lookup((a, b, c)) == symmetrized.lookup((c, b, a))
    assert is_pure_affine(flattened)
    # flattening multiplies by balance once per 1-coordinate
    for index in range(8):
        point = index_to_tuple(index, 3, 2)
        assert flattened.table[index] == symmetrized.table[index] * balance ** sum(
            point
        )


@given(st.integers(0, 40))
def test_symmetrize_random_parity_supported_tables(seed):
    import random

    rng = random.Random(seed)
    odd_case = rng.random() < 0.5
    support = (1, 2, 4, 7) if odd_case else (0, 3, 5, 6)
    table = [F(0)] * 8
    for index in support:
        table[index] = F(rng.choice([1, 2, 3, 5]), rng.choice([1, 2]))
    f = WeightFunction(3, 2, tuple(table))
    symmetrized, balance, flattened = symmetrize_parity(f)
    assert balance > 0
    for point in itertools.product((0, 1), repeat=3):
        value = symmetrized.lookup(point)
        assert all(symmetrized.lookup(order) == value for order in itertools.permutations(point))
    assert frozenset(symmetrized.support_indices()) == frozenset(support)
    assert is_pure_affine(flattened)
    assert frozenset(flattened.support_indices()) == frozenset(support)


def test_symmetrize_refuses_non_parity_support():
    with pytest.raises(Refusal):
        symmetrize_parity(fn(3, 1, 1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(InputError):
        symmetrize_parity(binary_disequality())


def test_exact_sqrt():
    assert _exact_sqrt(F(64)) == 8
    assert _exact_sqrt(F(9, 4)) == F(3, 2)
    with pytest.raises(InvariantViolation):
        _exact_sqrt(F(2))


# ---------------------------------------------------------------------------
# unary extraction


def test_extract_unary_direct_case():
    g = fn(2, 1, 0, 0, 3)
    outcome = extract_unary(g)
    assert isinstance(outcome, UnaryExtraction)
    assert outcome.ratio == 3
    assert outcome.function.table == (F(1), F(3))


def test_extract_unary_pin_recursion_case():
    # even-parity support with two distinct values on the 0-side of column 0
    g = fn(3, 1, 0, 0, 2, 0, 1, 2, 0)
    outcome = extract_unary(g)
    assert isinstance(outcome, PinRecursion)
    assert outcome.column == 0 and outcome.value == 0
    assert not is_pure_affine(outcome.function)
    assert outcome.function.arity == 2


def test_extract_unary_refusals():
    with pytest.raises(Refusal):
        extract_unary(scale_function(even_parity_indicator(3), F(5)))  # pure affine
    with pytest.raises(Refusal):
        extract_unary(fn(2, 0, 0, 0, 0))  # empty support
    with pytest.raises(Refusal):
        extract_unary(fn(2, 1, 1, 1, 0))  # support not affine
    with pytest.raises(Refusal):
        extract_unary(WeightFunction(1, 3, (F(1), F(2), F(0))))


def test_extract_unary_iterated_terminates():
    g = fn(3, 1, 0, 0, 2, 0, 1, 2, 0)
    outcome, steps = extract_unary_iterated(g)
    assert isinstance(outcome, UnaryExtraction)
    assert outcome.ratio not in (0, 1)
    assert steps >= 1


def test_extract_unary_iterated_classifies_nothing(monkeypatch):
    # extraction reads one coset of the support; it needs no classification
    original = classify.classify_function
    calls = []

    def counting(table):
        calls.append(table)
        return original(table)

    holders = [
        module
        for name, module in sys.modules.items()
        if name.split(".")[0] == "wcsp" and getattr(module, "classify_function", None) is original
    ]
    assert classify in holders
    for module in holders:
        monkeypatch.setattr(module, "classify_function", counting)
    outcome, steps = extract_unary_iterated(fn(3, 1, 0, 0, 2, 0, 1, 2, 0))
    assert isinstance(outcome, UnaryExtraction) and steps == 1
    assert calls == []


_LEVELS = tuple(map(F, ("1/2", 1, 2, 3)))


@st.composite
def _tables_with_affine_supports(draw):
    arity = draw(st.integers(0, 5))
    span = {0}
    for vec in draw(st.lists(st.integers(0, 2**arity - 1), max_size=arity)):
        span |= {member ^ vec for member in span}
    origin = draw(st.integers(0, 2**arity - 1))
    table = [F(0)] * 2**arity
    for member in span:
        table[origin ^ member] = draw(st.sampled_from(_LEVELS))
    return WeightFunction(arity, 2, tuple(table))


_ANY_TABLES = st.integers(0, 5).flatmap(
    lambda arity: st.tuples(*[st.sampled_from((F(0),) + _LEVELS)] * 2**arity).map(
        lambda table: WeightFunction(arity, 2, table)
    )
)


@given(st.one_of(_ANY_TABLES, _tables_with_affine_supports()))
def test_extract_unary_refuses_exactly_the_classifier_refusals(table):
    report = classify.classify_function(table)
    if not table.support_indices() or not report.affine_support or report.pure_affine:
        with pytest.raises(Refusal):
            extract_unary(table)
        return
    outcome = extract_unary(table)
    column = outcome.column
    if isinstance(outcome, PinRecursion):
        assert outcome.function == pin_coordinate(table, column, outcome.value)
        assert len(set(outcome.function.table) - {0}) >= 2
        return
    assert isinstance(outcome, UnaryExtraction)
    assert outcome.ratio not in (0, 1)
    assert outcome.function == unary_weight(outcome.ratio)
    low, high = project(table, (column,)).table
    assert high / low == outcome.ratio


def test_affine_support_columns_are_balanced():
    # Non-constant columns of an affine relation split evenly between 0 and 1.
    for arity in range(1, 5):
        for support in enumerate_affine_supports(arity):
            if not support:
                continue
            rows = [index_to_tuple(m, arity, 2) for m in sorted(support)]
            for column in range(arity):
                ones = sum(row[column] for row in rows)
                if 0 < ones < len(rows):
                    assert 2 * ones == len(rows), (support, column)


# ---------------------------------------------------------------------------
# partition lattice


def test_all_partitions_bell_counts():
    assert [len(all_partitions(size)) for size in range(1, 7)] == [
        1,
        2,
        5,
        15,
        52,
        203,
    ]
    with pytest.raises(Refusal):
        all_partitions(7)
    with pytest.raises(InputError):
        all_partitions(0)


def test_partition_validation():
    with pytest.raises(InputError):
        Partition(((0, 1), (1, 2)))  # overlap
    with pytest.raises(InputError):
        Partition(((0,), (2,)))  # gap
    with pytest.raises(InputError):
        Partition(((1, 0),))  # unsorted block
    with pytest.raises(InputError):
        Partition(((1,), (0,)))  # blocks out of order
    assert Partition.discrete(3).num_blocks == 3
    assert Partition.single_block(3).num_blocks == 1


def test_refines():
    fine = Partition.discrete(3)
    mid = Partition(((0, 1), (2,)))
    top = Partition.single_block(3)
    assert refines(fine, mid) and refines(mid, top) and refines(fine, top)
    assert not refines(top, mid)
    assert refines(mid, mid)
    other = Partition(((0, 2), (1,)))
    assert not refines(mid, other) and not refines(other, mid)


def test_mobius_table_small_cases():
    two = mobius_table(2)
    assert two[Partition.discrete(2)] == 1
    assert two[Partition.single_block(2)] == -1

    three = mobius_table(3)
    assert three[Partition.discrete(3)] == 1
    for pair in (((0, 1), (2,)), ((0, 2), (1,)), ((0,), (1, 2))):
        assert three[Partition(pair)] == -1
    assert three[Partition.single_block(3)] == 2


def test_mobius_top_value_and_zero_sums():
    import math

    for size in range(2, 7):
        table = mobius_table(size)
        top = Partition.single_block(size)
        assert table[top] == (-1) ** (size - 1) * math.factorial(size - 1)
        partitions = all_partitions(size)
        for theta in partitions:
            if theta.num_blocks == size:
                continue
            assert sum(table[eta] for eta in partitions if refines(eta, theta)) == 0


# ---------------------------------------------------------------------------
# Moebius pinning


def test_mobius_pinning_bare_disequality():
    two = _instance(
        2, 2, {"neq": full_disequality(2)}, [("neq", (0, 1))]
    )
    assert mobius_pinning_reduce(two, brute_force_z) == 2

    three = _instance(
        3, 3, {"neq3": full_disequality(3)}, [("neq3", (0, 1, 2))]
    )
    assert mobius_pinning_reduce(three, brute_force_z) == 6


def test_mobius_pinning_forced_equality_gives_zero():
    inst = _instance(
        2,
        2,
        {"neq": full_disequality(2), "eq": binary_equality()},
        [("neq", (0, 1)), ("eq", (0, 1))],
    )
    assert mobius_pinning_reduce(inst, brute_force_z) == 0


def test_mobius_pinning_matches_distinctness_filter():
    import random

    for seed in range(25):
        rng = random.Random(seed)
        q = rng.choice([2, 3])
        n = q + rng.randint(1, 2)
        unary = WeightFunction(
            1, q, tuple(F(rng.randint(1, 3)) for _ in range(q))
        )
        functions = {"neq": full_disequality(q), "u": unary}
        scope = tuple(rng.sample(range(n), q))
        constraints = [("neq", scope)]
        for _ in range(rng.randint(0, 3)):
            constraints.append(("u", (rng.randrange(n),)))
        inst = _instance(q, n, functions, constraints)
        assert mobius_pinning_reduce(inst, brute_force_z) == distinct_filtered_z(
            inst, 0
        )


def test_mobius_pinning_detection_refusals():
    neq = full_disequality(2)
    none_inst = _instance(2, 2, {"eq": binary_equality()}, [("eq", (0, 1))])
    with pytest.raises(Refusal):
        mobius_pinning_reduce(none_inst, brute_force_z)
    double = _instance(
        2, 3, {"neq": neq}, [("neq", (0, 1)), ("neq", (1, 2))]
    )
    with pytest.raises(Refusal):
        mobius_pinning_reduce(double, brute_force_z)
    # explicit index resolves the ambiguity
    assert mobius_pinning_reduce(double, brute_force_z, constraint_index=0) == (
        distinct_filtered_z(double, 0)
    )


def test_mobius_family_keeps_the_disequality_only_while_another_constraint_uses_it():
    neq = full_disequality(2)
    catalog = {"unused": binary_equality(), "neq": neq, "eq": binary_equality()}
    catalogs = []

    def spy(sub):
        catalogs.append(list(sub.functions))
        return brute_force_z(sub)

    single = _instance(2, 3, catalog, [("eq", (1, 2)), ("neq", (0, 1))])
    assert mobius_pinning_reduce(single, spy) == distinct_filtered_z(single, 1)
    assert catalogs and all(names == ["eq"] for names in catalogs)
    catalogs.clear()
    double = _instance(2, 3, catalog, [("neq", (0, 1)), ("eq", (1, 2)), ("neq", (1, 2))])
    assert mobius_pinning_reduce(double, spy, constraint_index=0) == (
        distinct_filtered_z(double, 0)
    )
    assert catalogs and all(names == ["neq", "eq"] for names in catalogs)


def test_mobius_pinning_index_validation():
    inst = _instance(
        2,
        2,
        {"neq": full_disequality(2), "eq": binary_equality()},
        [("eq", (0, 1)), ("neq", (0, 1))],
    )
    with pytest.raises(InputError):
        mobius_pinning_reduce(inst, brute_force_z, constraint_index=5)
    with pytest.raises(Refusal):
        mobius_pinning_reduce(inst, brute_force_z, constraint_index=0)
    repeated = _instance(2, 2, {"neq": full_disequality(2)}, [("neq", (0, 0))])
    with pytest.raises(Refusal):
        mobius_pinning_reduce(repeated, brute_force_z)


# ---------------------------------------------------------------------------
# symmetric q-ary pinning


def test_is_permutation_symmetric():
    assert is_permutation_symmetric({"neq": binary_disequality(3)}, 3)
    assert is_permutation_symmetric({"neq3": full_disequality(3)}, 3)
    assert not is_permutation_symmetric(
        {"u": WeightFunction(1, 3, (F(1), F(2), F(3)))}, 3
    )
    assert not is_permutation_symmetric({"d": delta(0, 3)}, 3)
    assert is_permutation_symmetric({}, 3)
    for q in (2, 4):
        with pytest.raises(InputError):
            is_permutation_symmetric({"neq": binary_disequality(3)}, q)


def test_permutation_symmetry_of_the_q6_disequality_is_quick():
    import time

    neq6 = full_disequality(6)
    started = time.perf_counter()
    assert is_permutation_symmetric({"neq6": neq6}, 6)
    assert time.perf_counter() - started < 5


def _orbit_sum(values, arity, q, group):
    """The sum of the table over a group of domain permutations, invariant under it."""
    return [
        sum(values[encode(tuple(perm[v] for v in decode(index, arity, q)), q)] for perm in group)
        for index in range(len(values))
    ]


@given(st.sampled_from([2, 3, 4]), st.data())
def test_permutation_symmetry_matches_direct_check(q, data):
    # Tables are drawn plain (rarely symmetric) or summed over all q!
    # permutations (symmetric), over the rotations alone or over the
    # transposition of 0 and 1 alone (each symmetric under one generator).
    groups = [
        [tuple(range(q))],
        list(itertools.permutations(range(q))),
        [tuple((d + shift) % q for d in range(q)) for shift in range(q)],
        [tuple(range(q)), (1, 0, *range(2, q))],
    ]
    functions = {}
    for name in ("f", "g")[: data.draw(st.integers(1, 2))]:
        arity = data.draw(st.integers(0, {2: 5, 3: 4, 4: 3}[q]))
        size = q**arity
        values = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        group = data.draw(st.sampled_from(groups))
        functions[name] = WeightFunction(
            arity, q, tuple(map(F, _orbit_sum(values, arity, q, group)))
        )
    assert is_permutation_symmetric(functions, q) == permutation_symmetric_direct(
        functions, q
    )
    if q == 2:
        assert is_flip_symmetric(functions) == permutation_symmetric_direct(functions, 2)


def test_symmetric_pinning_boolean_example():
    inst = _instance(
        2,
        2,
        {"neq": binary_disequality(), "delta0": delta(0)},
        [("delta0", (0,)), ("neq", (0, 1))],
    )
    assert symmetric_pinning_reduce_q(inst, brute_force_z) == 1
    assert pinning_reduce_boolean(inst, brute_force_z) == 1

    # a family that is not flip-symmetric takes the skew sum at q = 2
    skewed = _instance(
        2,
        2,
        {"f": fn(2, 1, 3, 2, 6), "delta0": delta(0)},
        [("delta0", (0,)), ("f", (0, 1))],
    )
    assert symmetric_pinning_reduce_q(skewed, brute_force_z) == 4  # 1 + 3
    assert pinning_reduce_boolean(skewed, brute_force_z) == 4


def test_symmetric_pinning_ternary_example():
    inst = _instance(
        3,
        2,
        {"neq": binary_disequality(3), "delta2": delta(2, 3)},
        [("delta2", (0,)), ("neq", (0, 1))],
    )
    assert symmetric_pinning_reduce_q(inst, brute_force_z) == 2


def test_symmetric_pinning_no_pins_is_passthrough():
    inst = _instance(3, 2, {"neq": binary_disequality(3)}, [("neq", (0, 1))])
    calls = []

    def spy(sub):
        calls.append(sub)
        return brute_force_z(sub)

    assert symmetric_pinning_reduce_q(inst, spy) == 6
    assert len(calls) == 1


def test_symmetric_pinning_contradictory_pins():
    inst = _instance(
        3,
        1,
        {"delta0": delta(0, 3), "delta1": delta(1, 3)},
        [("delta0", (0,)), ("delta1", (0,))],
    )
    assert symmetric_pinning_reduce_q(inst, brute_force_z) == 0


def test_symmetric_pinning_refuses_asymmetric_family():
    inst = _instance(
        3,
        1,
        {"u": WeightFunction(1, 3, (F(1), F(2), F(3))), "delta0": delta(0, 3)},
        [("u", (0,)), ("delta0", (0,))],
    )
    with pytest.raises(Refusal):
        symmetric_pinning_reduce_q(inst, brute_force_z)


def test_symmetric_pinning_ignores_unused_functions():
    # the asymmetric unary "u" is in the catalog but no constraint uses it
    inst = _instance(
        3,
        3,
        {
            "h": WeightFunction(2, 3, (F(1),) * 9),
            "u": WeightFunction(1, 3, (F(1), F(2), F(3))),
            "delta0": delta(0, 3),
        },
        [("h", (0, 1)), ("delta0", (0,))],
    )
    catalogs = []

    def spy(sub):
        catalogs.append(set(sub.functions))
        return brute_force_z(sub)

    assert symmetric_pinning_reduce_q(inst, spy) == brute_force_z(inst) == 9
    assert catalogs and all(names == {"h"} for names in catalogs)


@given(st.integers(0, 60))
def test_symmetric_pinning_matches_conditioning(seed):
    import random

    rng = random.Random(seed)
    q = rng.choice([2, 3])
    n = 3
    if q == 2 and rng.random() < 0.5:
        # a random table, most often not flip-symmetric, which only the
        # Boolean case accepts
        body = fn(2, *(rng.choice([0, 1, 2, 3, 6]) for _ in range(4)))
    else:
        body = binary_disequality(q)
    functions = {"f": body}
    constraints = []
    for _ in range(rng.randint(1, 3)):
        constraints.append(("f", tuple(rng.sample(range(n), 2))))
    pins = {}
    for var in rng.sample(range(n), rng.randint(1, 2)):
        pins[var] = rng.randrange(q)
    for var, value in pins.items():
        name = f"delta{value}"
        functions[name] = delta(value, q)
        constraints.append((name, (var,)))
    inst = _instance(q, n, functions, constraints)
    assert symmetric_pinning_reduce_q(inst, brute_force_z) == conditioned_z(
        inst, pins.items()
    )


# ---------------------------------------------------------------------------
# cost of pin and merge reductions


def test_reductions_count_but_never_list_unconstrained_variables():
    import time

    n = 10**12
    seen = []

    def spy(sub):
        seen.append((sub.num_variables, sub.constraints))
        return F(1)

    started = time.perf_counter()
    pinned = _instance(
        2,
        n,
        {"neq": binary_disequality(), "delta1": delta(1)},
        [("delta1", (n - 7,)), ("neq", (n - 1, n - 7))],
    )
    assert pinning_reduce_boolean(pinned, spy) == 0
    # the pinned one is representative 1 (split) or 0 (merged); the other
    # variable takes the next id
    assert seen == [
        (n + 1, (Constraint("neq", (2, 1)),)),
        (n, (Constraint("neq", (1, 0)),)),
    ]

    seen.clear()
    diseq = _instance(2, n, {"neq": full_disequality(2)}, [("neq", (n - 1, 3))])
    assert mobius_pinning_reduce(diseq, spy) == 0
    assert seen == [(n, ()), (n - 1, ())]

    # a domain too large for the partition lattice is refused before the
    # 40**40 entries of its disequality table
    pin40 = _instance(40, 1, {"p": delta(0, 40)}, [("p", (0,))])
    with pytest.raises(Refusal):
        symmetric_pinning_reduce_q(pin40, spy)
    assert time.perf_counter() - started < 1
