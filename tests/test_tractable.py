"""Polynomial evaluators versus the enumeration oracle."""

import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import parity_components_direct, partition_function_direct

import wcsp.tractable as tractable
from wcsp.errors import Refusal
from wcsp.generate import (
    parity_spread,
    product_type_chain,
    random_instance,
    random_product_type_function,
    random_pure_affine_function,
)
from wcsp.classify import classify_family, classify_function
from wcsp.library import (
    binary_disequality,
    binary_equality,
    delta,
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
    instance_to_json,
    parse_instance,
)
from wcsp.models import Graph, hom_instance, ising_matrix
from wcsp.tractable import (
    ParityUnionFind,
    eval_elimination,
    eval_product_type,
    eval_pure_affine,
    evaluate,
    exact_product,
)

F = Fraction


def _instance(q, n, functions, constraints):
    return Instance(
        n, q, functions, tuple(Constraint(f, tuple(s)) for f, s in constraints)
    )


def _verdict(instance):
    """The classification of the used functions, as evaluate() builds it."""
    return classify_family({name: instance.functions[name] for name in instance.scopes})


# ---------------------------------------------------------------------------
# parity union-find


def test_parity_union_find_tracks_complements():
    uf = ParityUnionFind(4)
    assert uf.classes == 4
    assert uf.union(0, 1, 1)  # complementary
    assert uf.union(1, 2, 0)  # equal
    assert uf.classes == 2
    root0, p0 = uf.find(0)
    root2, p2 = uf.find(2)
    assert root0 == root2
    assert p0 ^ p2 == 1  # 0 and 2 end up complementary
    assert uf.union(0, 2, 1)  # agrees with the ties so far
    assert not uf.union(0, 2, 0)  # contradicts them
    assert uf.classes == 2  # ties inside a class merge nothing
    # variable 3 is untouched
    root3, p3 = uf.find(3)
    assert root3 == 3 and p3 == 0


def test_parity_union_find_long_chain():
    size = 200
    uf = ParityUnionFind(size)
    for v in range(size - 1):
        uf.union(v, v + 1, 1)
    root_first, p_first = uf.find(0)
    root_last, p_last = uf.find(size - 1)
    assert root_first == root_last
    assert (p_first ^ p_last) == (size - 1) % 2


@st.composite
def _tie_batches(draw):
    """A variable count and batches of (pairs, parity), pairs possibly repeated."""
    n = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    batch = st.tuples(st.lists(pair, max_size=14), st.integers(0, 1))
    return n, draw(st.lists(batch, max_size=4))


@given(_tie_batches())
@example((3, [([(0, 0)], 1)]))  # a self-tie with parity 1 contradicts at once
@example((4, [([(0, 1), (1, 2), (0, 1)], 1), ([(0, 2), (2, 3), (1, 3), (3, 3)], 0)]))
@example((3, [([(0, 1), (1, 2)], 1), ([(2, 0)], 1), ([(1, 2)], 0)]))  # odd cycle
def test_parity_union_find_tie_matches_breadth_first_components(case):
    n, batches = case
    flat = [(u, v, parity) for pairs, parity in batches for u, v in pairs]
    # the oracle's first contradicting tie, or len(flat) when there is none
    made = next(
        (i for i in range(len(flat)) if parity_components_direct(n, flat[: i + 1]) is None),
        len(flat),
    )
    uf = ParityUnionFind(n)
    results = []
    for pairs, parity in batches:
        results.append(uf.tie([u for u, _ in pairs], [v for _, v in pairs], parity))
        if not results[-1]:
            break
    # every batch before the one holding that tie succeeds and that one fails
    ends = [sum(len(pairs) for pairs, _ in batches[: i + 1]) for i in range(len(batches))]
    expected = [True] * sum(end <= made for end in ends)
    if made < len(flat):
        expected.append(False)
    assert results == expected
    # and no tie after it was made
    component, colour = parity_components_direct(n, flat[:made])
    roots, parities = uf.find_all(range(n))
    assert uf.classes == len(set(component))
    for a in range(n):
        for b in range(n):
            assert (roots[a] == roots[b]) == (component[a] == component[b])
            if roots[a] == roots[b]:
                assert parities[a] ^ parities[b] == colour[a] ^ colour[b]


# ---------------------------------------------------------------------------
# exact products

_FACTORS = st.fractions(min_value=0, max_value=12, max_denominator=12)


@given(
    st.one_of(
        st.lists(_FACTORS, max_size=30),
        st.builds(
            lambda pool, length: [pool[i % len(pool)] for i in range(length)],
            st.lists(_FACTORS, min_size=1, max_size=4),
            st.integers(0, 10**4),
        ),
    )
)
@example([])
@example([F(1)] * 10**4)
@example([F(2), F(0), F(1, 3)])
@example([F(3, 2), F(2, 9)] * 5000)
@example([3, F(1, 6), 1 << 100])
def test_exact_product_matches_sequential_product(factors):
    expected = F(1)
    for factor in factors:
        expected *= factor
    assert exact_product(factors) == expected


# ---------------------------------------------------------------------------
# product-type evaluator


def test_product_type_hand_values():
    neq = binary_disequality()
    lean = unary_weight(F(2))
    inst = _instance(
        2, 2, {"neq": neq, "lean": lean}, [("neq", (0, 1)), ("lean", (0,))]
    )
    assert eval_product_type(inst, _verdict(inst)) == 3

    triangle = _instance(
        2, 3, {"neq": neq}, [("neq", (0, 1)), ("neq", (1, 2)), ("neq", (2, 0))]
    )
    assert eval_product_type(triangle, _verdict(triangle)) == 0

    lonely = _instance(2, 1, {}, [])
    assert eval_product_type(lonely, _verdict(lonely)) == 2

    skew = WeightFunction(2, 2, (F(1), F(3), F(2), F(6)))
    alone = _instance(2, 2, {"skew": skew}, [("skew", (0, 1))])
    assert eval_product_type(alone, _verdict(alone)) == 12


def test_product_type_zero_function_annihilates():
    zero = WeightFunction(2, 2, (F(0),) * 4)
    inst = _instance(2, 3, {"z": zero}, [("z", (0, 1))])
    assert eval_product_type(inst, _verdict(inst)) == 0


def test_product_type_repeated_variable_in_scope():
    neq = binary_disequality()
    inst = _instance(2, 2, {"neq": neq}, [("neq", (0, 0))])
    # neq on (0, 0) zeroes every assignment
    assert eval_product_type(inst, _verdict(inst)) == 0
    eq = binary_equality()
    inst = _instance(2, 2, {"eq": eq}, [("eq", (0, 0))])
    assert eval_product_type(inst, _verdict(inst)) == 4


def test_product_type_refusals():
    xor3 = parity_indicator(3)
    inst = _instance(2, 3, {"xor3": xor3}, [("xor3", (0, 1, 2))])
    verdict = _verdict(inst)
    with pytest.raises(Refusal):
        eval_product_type(inst, verdict)
    ternary = _instance(3, 1, {}, [])
    verdict = _verdict(ternary)
    with pytest.raises(Refusal):
        eval_product_type(ternary, verdict)


# Product-type functions covering pins, plain and complemented ties, unary
# weights and constant scales.
_PRODUCT_CATALOG = {
    "eq": binary_equality(),
    "neq": binary_disequality(),
    "d0": delta(0),
    "d1": delta(1),
    "lean": unary_weight(F(2, 3)),
    "half": WeightFunction(1, 2, (F(1, 2), F(1, 2))),
    "tie": WeightFunction(2, 2, (F(2), F(0), F(0), F(3))),
    "anti": WeightFunction(2, 2, (F(0), F(5), F(1, 2), F(0))),
    "skew": WeightFunction(2, 2, (F(1), F(3), F(2), F(6))),
    "pin_first": WeightFunction(2, 2, (F(0), F(0), F(4), F(7))),
    "split3": WeightFunction(3, 2, (F(0), F(2), F(0), F(0), F(0), F(0), F(5), F(0))),
}


@st.composite
def _product_instances(draw):
    n = draw(st.integers(1, 7))
    names = sorted(_PRODUCT_CATALOG)
    constraints = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(names))
        scope = draw(
            st.lists(
                st.integers(0, n - 1),
                min_size=_PRODUCT_CATALOG[name].arity,
                max_size=_PRODUCT_CATALOG[name].arity,
            )
        )
        constraints.append((name, scope))
    return _instance(2, n, _PRODUCT_CATALOG, constraints)


@given(_product_instances())
@example(  # a contradictory parity cycle beside a pinned class and free variables
    _instance(
        2,
        7,
        _PRODUCT_CATALOG,
        [("neq", (0, 1)), ("neq", (1, 2)), ("neq", (2, 0)), ("d1", (3,)), ("tie", (3, 4))],
    )
)
@example(  # an even cycle of complemented ties, a pinned side, free variables
    _instance(
        2,
        7,
        _PRODUCT_CATALOG,
        [
            ("anti", (0, 1)),
            ("neq", (1, 2)),
            ("anti", (2, 3)),
            ("neq", (3, 0)),
            ("pin_first", (0, 4)),
            ("split3", (4, 5, 1)),
            ("lean", (5,)),
        ],
    )
)
def test_product_type_matches_enumeration_on_mixed_structure(instance):
    assert eval_product_type(instance, _verdict(instance)) == brute_force_z(instance)


@given(_product_instances(), st.data())
def test_product_type_ignores_variable_labels_and_constraint_order(instance, data):
    # the route reads each function's scopes column by column, so relabelling
    # changes every column and shuffling changes their order
    label = data.draw(st.permutations(range(instance.num_variables)))
    constraints = data.draw(st.permutations(instance.constraints))
    moved = Instance(
        instance.num_variables,
        2,
        instance.functions,
        tuple(Constraint(c.function, tuple(label[v] for v in c.scope)) for c in constraints),
    )
    assert eval_product_type(moved, _verdict(moved)) == brute_force_z(instance)


def test_product_type_counts_equal_weights_on_one_class_side():
    # "eq2" on a path, "lean" and "eq3" tie variables 0..9 into one class
    # and each weighs its side 1 by 2: one function over nine scopes and three
    # functions in all; variable 10, tied to the class's complement, weighs
    # its side 0 by 2 through "lean"; variable 11 is free
    functions = {
        "eq2": WeightFunction(2, 2, (F(1), F(0), F(0), F(2))),
        "lean": unary_weight(F(2)),
        "eq3": WeightFunction(3, 2, (F(1),) + (F(0),) * 6 + (F(2),)),
        "neq": binary_disequality(),
    }
    constraints = [("eq2", (v, v + 1)) for v in range(9)]
    constraints += [("lean", (v,)) for v in (0, 3, 7, 10)]
    constraints += [("eq3", (2, 5, 9)), ("neq", (4, 10))]
    inst = _instance(2, 12, functions, constraints)
    expected = (2 + 2 ** (9 + 3 + 1)) * 2
    assert eval_product_type(inst, _verdict(inst)) == expected == brute_force_z(inst)


def _empty(n):
    return Instance(n, 2, {}, ())


@pytest.mark.parametrize(
    "build, closed_form",
    [
        (product_type_chain, lambda n: 2 ** (n - 1) + 3 ** (n - 1) * 2 ** -(-n // 3)),
        (_empty, lambda n: 2**n),
    ],
    ids=["chain", "empty"],
)
def test_product_route_is_linear_including_big_integers(build, closed_form):
    seconds = {}
    for n in (10**4, 10**5):
        instance = build(n)
        started = time.perf_counter()
        value, route = evaluate(instance)
        seconds[n] = time.perf_counter() - started
        assert route == "product-type"
        assert value == closed_form(n)
    assert seconds[10**5] <= max(20 * seconds[10**4], 2.0), seconds


def test_pure_affine_route_is_linear_in_time_and_memory():
    seconds = {}
    for n in (10**4, 10**5):
        instance = parity_spread(n)
        started = time.perf_counter()
        value, route = evaluate(instance)
        seconds[n] = time.perf_counter() - started
        assert route == "pure-affine"
        assert value == 2**n
    assert seconds[10**5] <= max(20 * seconds[10**4], 2.0), seconds
    # rows as wide as n would hold about n**2 / 16 bytes, 625 MB at 10**5
    tracemalloc.start()
    try:
        evaluate(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, peak


@pytest.mark.parametrize("build", [product_type_chain, parity_spread], ids=["chain", "spread"])
def test_loading_is_linear(build):
    seconds = {}
    for n in (10**4, 10**5):
        text = instance_to_json(build(n))
        started = time.perf_counter()
        instance = parse_instance(text)
        seconds[n] = time.perf_counter() - started
        assert instance.num_variables == n
    assert seconds[10**5] <= max(20 * seconds[10**4], 2.0), seconds


def test_a_loaded_instance_holds_its_scopes_and_little_else():
    # the scope tuples, their ints and one name per constraint; one object
    # per constraint besides would hold about 8 MB more
    text = instance_to_json(parity_spread(10**5))
    tracemalloc.start()
    try:
        instance = parse_instance(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(instance.scopes["xor3w"]) == 10**5 - 2
    assert held <= 25 * 2**20, held


# ---------------------------------------------------------------------------
# pure-affine evaluator


def test_pure_affine_hand_values():
    xor3 = parity_indicator(3)
    inst = _instance(2, 3, {"xor3": xor3}, [("xor3", (0, 1, 2))])
    assert eval_pure_affine(inst, _verdict(inst)) == 4

    boosted = scale_function(xor3, F(3))
    twice = _instance(
        2, 3, {"f": boosted}, [("f", (0, 1, 2)), ("f", (0, 1, 2))]
    )
    assert eval_pure_affine(twice, _verdict(twice)) == 36  # 3*3 * #solutions(one equation)

    folded = _instance(2, 2, {"xor3": xor3}, [("xor3", (0, 0, 1))])
    assert eval_pure_affine(folded, _verdict(folded)) == 2  # x^x^y = 1 forces y = 1

    pinned = _instance(
        2, 3, {"xor3": xor3, "d0": delta(0)}, [("xor3", (0, 1, 2)), ("d0", (0,))]
    )
    assert eval_pure_affine(pinned, _verdict(pinned)) == 2

    contradiction = _instance(
        2, 1, {"d0": delta(0), "d1": delta(1)}, [("d0", (0,)), ("d1", (0,))]
    )
    assert eval_pure_affine(contradiction, _verdict(contradiction)) == 0


@st.composite
def _affine_functions(draw):
    """A level times the indicator of a random coset, of arity 1..4."""
    arity = draw(st.integers(1, 4))
    members = {draw(st.integers(0, (1 << arity) - 1))}
    for step in draw(st.lists(st.integers(1, (1 << arity) - 1), max_size=arity)):
        members |= {m ^ step for m in members}
    level = draw(st.sampled_from([F(1), F(2), F(1, 2), F(3)]))
    table = tuple(level if i in members else F(0) for i in range(1 << arity))
    return WeightFunction(arity, 2, table)


@st.composite
def _affine_instances(draw):
    """Pure-affine instances whose scopes may repeat a variable, with their
    variable labels shuffled so that rows need not follow the labels' order."""
    n = draw(st.integers(1, 7))
    functions = {f"a{i}": draw(_affine_functions()) for i in range(draw(st.integers(1, 3)))}
    label = draw(st.permutations(range(n)))
    constraints = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(sorted(functions)))
        arity = functions[name].arity
        scope = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity))
        constraints.append((name, [label[v] for v in scope]))
    return _instance(2, n, functions, constraints)


@given(_affine_instances())
@example(  # x ^ x = 1 cancels to the row 0 = 1
    _instance(
        2,
        3,
        {"xor3": parity_indicator(3), "neq": binary_disequality()},
        [("xor3", (2, 0, 1)), ("neq", (1, 1))],
    )
)
@example(  # x ^ x ^ y = 1 pins y, beside a chain whose labels run backwards
    _instance(
        2,
        5,
        {"xor3": scale_function(parity_indicator(3), F(3))},
        [("xor3", (4, 3, 2)), ("xor3", (3, 2, 1)), ("xor3", (0, 0, 2))],
    )
)
def test_pure_affine_matches_enumeration_on_shuffled_labels(instance):
    assert eval_pure_affine(instance, _verdict(instance)) == brute_force_z(instance)


def test_pure_affine_refusals():
    lean = unary_weight(F(2))
    inst = _instance(2, 1, {"lean": lean}, [("lean", (0,))])
    verdict = _verdict(inst)
    with pytest.raises(Refusal):
        eval_pure_affine(inst, verdict)
    ternary = _instance(3, 1, {}, [])
    verdict = _verdict(ternary)
    with pytest.raises(Refusal):
        eval_pure_affine(ternary, verdict)


def test_pure_affine_reads_only_used_functions_and_refuses_them_itself():
    at_least_one = WeightFunction(2, 2, (F(0), F(3), F(3), F(3)))  # support not affine
    zero = WeightFunction(1, 2, (F(0), F(0)))
    xor3 = parity_indicator(3)
    for bad in (at_least_one, zero):
        scope = tuple(range(bad.arity))
        refused = _instance(2, 3, {"bad": bad}, [("bad", scope)])
        verdict = _verdict(refused)
        with pytest.raises(Refusal, match="not pure affine"):
            eval_pure_affine(refused, verdict)
    unused = _instance(2, 3, {"xor3": xor3, "bad": at_least_one}, [("xor3", (0, 1, 2))])
    assert eval_pure_affine(unused, _verdict(unused)) == 4
    # a verdict may also report functions that no constraint uses
    spare = _instance(2, 3, {"xor3": xor3, "d0": delta(0)}, [("xor3", (0, 1, 2))])
    assert eval_pure_affine(spare, classify_family(spare.functions)) == 4


def test_product_type_reads_only_used_functions():
    functions = {"neq": binary_disequality(), "xor3": parity_indicator(3)}
    path = _instance(2, 4, functions, [("neq", (0, 1)), ("neq", (1, 2)), ("neq", (2, 3))])
    assert eval_product_type(path, _verdict(path)) == 2
    refused = _instance(2, 3, functions, [("xor3", (0, 1, 2))])
    verdict = _verdict(refused)
    with pytest.raises(Refusal, match="'xor3' is not product type"):
        eval_product_type(refused, verdict)


# ---------------------------------------------------------------------------
# dispatcher


def test_evaluate_reports_route():
    neq = binary_disequality()
    value, route = evaluate(_instance(2, 2, {"neq": neq}, [("neq", (0, 1))]))
    assert (value, route) == (2, "product-type")

    xor3 = parity_indicator(3)
    value, route = evaluate(_instance(2, 3, {"xor3": xor3}, [("xor3", (0, 1, 2))]))
    assert (value, route) == (4, "pure-affine")

    hard = {"xor3": xor3, "lean": unary_weight(F(2))}
    value, route = evaluate(
        _instance(2, 3, hard, [("xor3", (0, 1, 2)), ("lean", (0,))])
    )
    assert route == "elimination"
    assert value == 6  # odd-parity points weigh 1,1,2,2 under the unary

    value, route = evaluate(_instance(3, 2, {}, []))
    assert (value, route) == (9, "elimination")


def test_evaluate_force_oracle_and_budget():
    neq = binary_disequality()
    inst = _instance(2, 2, {"neq": neq}, [("neq", (0, 1))])
    value, route = evaluate(inst, force_oracle=True)
    assert (value, route) == (2, "brute-force")
    big = _instance(2, 64, {"neq": neq}, [("neq", (0, 1))])
    with pytest.raises(Refusal):
        evaluate(big, budget=2**10, force_oracle=True)
    # the same instance is fine on the polynomial route
    value, route = evaluate(big, budget=2**10)
    assert route == "product-type" and value == 2 * 2**62


@given(
    st.sampled_from(["product-type", "pure-affine", "mixed"]),
    st.integers(0, 40),
)
def test_evaluate_agrees_with_enumeration(profile, seed):
    inst = random_instance(profile, seed, num_variables=5, num_constraints=6)
    value, _route = evaluate(inst)
    assert value == brute_force_z(inst)


def test_polynomial_routes_handle_sizes_enumeration_cannot():
    chain = product_type_chain(400)
    value, route = evaluate(chain, budget=2**20)
    assert route == "product-type" and value > 0

    spread = parity_spread(300)
    value, route = evaluate(spread, budget=2**20)
    assert route == "pure-affine" and value > 0


@pytest.mark.parametrize("q", [2, 4, 2**64])
def test_evaluate_bounds_the_value_bits_at_the_limit(q):
    bits_per_variable = q.bit_length() - 1
    at_limit = _instance(q, MAX_VALUE_BITS // bits_per_variable, {}, [])
    value, _ = evaluate(at_limit)
    assert value == 2**MAX_VALUE_BITS
    beyond = _instance(q, MAX_VALUE_BITS // bits_per_variable + 1, {}, [])
    with pytest.raises(Refusal, match=rf"beyond the limit of {MAX_VALUE_BITS}$"):
        evaluate(beyond)
    # the enumeration oracle keeps its own budget and message
    with pytest.raises(Refusal, match="^enumeration of"):
        evaluate(beyond, force_oracle=True)


class _Unwalkable(tuple):
    """A constraint tuple that refuses to be iterated."""

    def __iter__(self):
        raise AssertionError("the constraints were walked after validation")


_ROUTED = {
    "product-type": lambda: product_type_chain(12),
    "pure-affine": lambda: parity_spread(12),
    "elimination": lambda: _instance(
        2,
        12,
        {"ising": WeightFunction(2, 2, (F(2), F(1), F(1), F(2)))},
        [("ising", (v, (v + 1) % 12)) for v in range(12)],
    ),
}


@pytest.mark.parametrize("route", list(_ROUTED))
def test_evaluate_reads_the_grouping_not_the_constraints(route):
    instance = _ROUTED[route]()
    expected = brute_force_z(instance)
    object.__setattr__(instance, "constraints", _Unwalkable(instance.constraints))
    assert evaluate(instance) == (expected, route)


@given(
    st.sampled_from(["product-type", "pure-affine", "mixed"]),
    st.integers(0, 10**6),
    st.integers(1, 8),
    st.integers(0, 10),
    st.randoms(use_true_random=False),
)
def test_constraint_order_changes_neither_value_nor_route(profile, seed, n, m, rng):
    instance = random_instance(profile, seed, n, m)
    constraints = list(instance.constraints)
    rng.shuffle(constraints)
    shuffled = Instance(n, 2, instance.functions, tuple(constraints))
    value, route = evaluate(instance)
    assert evaluate(shuffled) == (value, route)
    assert value == brute_force_z(instance)


def test_evaluate_trusts_its_own_pure_affine_verdict(monkeypatch):
    def recheck(*args):
        raise AssertionError("pure-affine function checked a second time")

    monkeypatch.setattr(tractable, "is_pure_affine", recheck)
    monkeypatch.setattr(tractable, "affine_system_of", recheck)
    xor3 = parity_indicator(3)
    inst = _instance(2, 4, {"xor3": xor3}, [("xor3", (0, 1, 2)), ("xor3", (1, 2, 3))])
    assert evaluate(inst) == (4, "pure-affine")


# ---------------------------------------------------------------------------
# bucket elimination

_ENTRIES = st.sampled_from([F(0), F(1), F(2), F(1, 2), F(3)])


@st.composite
def _small_instances(draw):
    """q in {2, 3}; arity 0..3 tables with zero entries; scopes may repeat a
    variable, and some variables may be left unconstrained."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 6))
    functions = {}
    for pos in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(0, 3 if n else 0))
        size = q**arity
        table = draw(st.lists(_ENTRIES, min_size=size, max_size=size))
        functions[f"f{pos}"] = WeightFunction(arity, q, tuple(table))
    constraints = []
    for _ in range(draw(st.integers(0, 7))):
        name = draw(st.sampled_from(sorted(functions)))
        arity = functions[name].arity
        scope = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=arity, max_size=arity))
        constraints.append(Constraint(name, tuple(scope)))
    return Instance(n, q, functions, tuple(constraints))


@given(_small_instances())
@example(  # hard: xor3 with a repeated variable, a unary, an arity-0 scale
    _instance(
        2,
        4,
        {
            "xor3": parity_indicator(3),
            "lean": unary_weight(F(2)),
            "half": WeightFunction(0, 2, (F(1, 2),)),
        },
        [("xor3", (0, 0, 1)), ("xor3", (1, 2, 0)), ("lean", (2,)), ("half", ())],
    )
)
@example(  # q=3: a zero-heavy binary table looped on one variable
    _instance(
        3,
        3,
        {"g": WeightFunction(2, 3, (F(0), F(1), F(2), F(0), F(0), F(3), F(1, 2), F(0), F(1)))},
        [("g", (0, 0)), ("g", (0, 1)), ("g", (1, 0))],
    )
)
def test_elimination_matches_direct_enumeration(instance):
    expected = partition_function_direct(instance)
    assert eval_elimination(instance) == expected
    value, route = evaluate(instance)
    assert value == expected
    if instance.domain_size != 2:
        assert route == "elimination"


def test_elimination_cost_follows_width_not_variable_count():
    lam = F(2, 3)
    length = 2000
    path = Graph.from_edges(length, [(v, v + 1) for v in range(length - 1)])
    value, route = evaluate(hom_instance(path, ising_matrix(lam)))
    # each edge independently agrees (1) or disagrees (lambda) along the path
    assert (value, route) == (2 * (1 + lam) ** (length - 1), "elimination")
    # unconstrained variables are counted, never enumerated or tabulated
    assert evaluate(Instance(10**5, 3, {}, ())) == (3 ** 10**5, "elimination")


def test_elimination_budget_bounds_the_largest_table():
    complete = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    inst = hom_instance(complete, ising_matrix(F(3)))
    # every vertex of K5 has four neighbours: one table of 2**5 entries
    assert eval_elimination(inst, budget=2**5) == brute_force_z(inst)
    with pytest.raises(Refusal, match="width 4: .* 2\\*\\*5 entries .* budget of 31"):
        eval_elimination(inst, budget=2**5 - 1)
    # refused before any table is built: K40 would need 2**40 entries at once
    dense = Graph.from_edges(40, [(u, v) for u in range(40) for v in range(u + 1, 40)])
    with pytest.raises(Refusal, match="width 39"):
        evaluate(hom_instance(dense, ising_matrix(F(3))))


# ---------------------------------------------------------------------------
# cross-route ladder: past the oracle's reach, elimination checks the routes


@st.composite
def _ladder_instances(draw):
    """A chain, a tree or a band of width 2 or 3 over 50..2000 variables, of
    random product-type or pure-affine tables, with unaries on a quarter of
    the variables, the labels relabelled and the constraints shuffled.

    Each constraint flips the coordinates of a base table so that one
    planted assignment lies in the support, so the value is positive, and
    at large sizes it runs to thousands of digits.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    family = rng.choice(["product-type", "pure-affine"])
    shape = rng.choice(["chain", "tree", "band"])
    n = rng.randint(50, 2000)
    make = random_product_type_function if family == "product-type" else random_pure_affine_function
    if shape == "tree":
        scopes = [(rng.randrange(v), v) for v in range(1, n)]
    else:
        width = rng.randint(2, 3) if shape == "band" else 1
        scopes = [tuple(range(v, v + width + 1)) for v in range(n - width)]
    scopes += [(v,) for v in rng.sample(range(n), n // 4)]
    # three non-zero tables of each arity, those of no product type first,
    # so that some pure-affine families take the pure-affine route
    bases = {}
    for arity in {len(s) for s in scopes}:
        drawn = [base for base in (make(rng, arity) for _ in range(12)) if any(base.table)]
        bases[arity] = sorted(drawn, key=lambda base: classify_function(base).product_type)[:3]
    planted = [rng.randrange(2) for _ in range(n)]
    label = rng.sample(range(n), n)
    functions = {}
    constraints = []
    for scope in scopes:
        arity = len(scope)
        pick = rng.randrange(len(bases[arity]))
        base = bases[arity][pick]
        point = sum(planted[v] << (arity - 1 - j) for j, v in enumerate(scope))
        flip = base.support_indices()[0] ^ point
        name = f"f{arity}.{pick}^{flip}"
        if name not in functions:
            table = tuple(base.table[i ^ flip] for i in range(1 << arity))
            functions[name] = WeightFunction(arity, 2, table)
        constraints.append(Constraint(name, tuple(label[v] for v in scope)))
    rng.shuffle(constraints)
    return family, Instance(n, 2, functions, tuple(constraints))


@settings(max_examples=30, derandomize=True)
@given(_ladder_instances())
def test_tractable_routes_match_elimination_at_scale(case):
    family, instance = case
    value, route = evaluate(instance)
    # a pure-affine family whose tables are all product type goes that route
    assert route in ("product-type", family)
    assert value == eval_elimination(instance)
    if family == "pure-affine":
        assert eval_pure_affine(instance, _verdict(instance)) == value
