"""Polynomial evaluators versus the enumeration oracle."""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wcsp.errors import Refusal
from wcsp.generate import product_type_chain, random_instance
from wcsp.library import (
    binary_disequality,
    binary_equality,
    delta,
    parity_indicator,
    scale_function,
    unary_weight,
)
from wcsp.model import Constraint, Instance, WeightFunction, brute_force_z
from wcsp.tractable import (
    ParityUnionFind,
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


# ---------------------------------------------------------------------------
# parity union-find


def test_parity_union_find_tracks_complements():
    uf = ParityUnionFind(4)
    uf.union(0, 1, 1)  # complementary
    uf.union(1, 2, 0)  # equal
    root0, p0 = uf.find(0)
    root2, p2 = uf.find(2)
    assert root0 == root2
    assert p0 ^ p2 == 1  # 0 and 2 end up complementary
    assert not uf.dead[root0]
    uf.union(0, 2, 0)  # contradicts: marks the class annihilated
    assert uf.dead[uf.find(0)[0]]
    # variable 3 is untouched
    root3, p3 = uf.find(3)
    assert root3 == 3 and p3 == 0 and not uf.dead[3]


def test_parity_union_find_long_chain():
    size = 200
    uf = ParityUnionFind(size)
    for v in range(size - 1):
        uf.union(v, v + 1, 1)
    root_first, p_first = uf.find(0)
    root_last, p_last = uf.find(size - 1)
    assert root_first == root_last
    assert (p_first ^ p_last) == (size - 1) % 2


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
    assert eval_product_type(inst) == 3

    triangle = _instance(
        2, 3, {"neq": neq}, [("neq", (0, 1)), ("neq", (1, 2)), ("neq", (2, 0))]
    )
    assert eval_product_type(triangle) == 0

    lonely = _instance(2, 1, {}, [])
    assert eval_product_type(lonely) == 2

    skew = WeightFunction(2, 2, (F(1), F(3), F(2), F(6)))
    assert eval_product_type(_instance(2, 2, {"skew": skew}, [("skew", (0, 1))])) == 12


def test_product_type_zero_function_annihilates():
    zero = WeightFunction(2, 2, (F(0),) * 4)
    inst = _instance(2, 3, {"z": zero}, [("z", (0, 1))])
    assert eval_product_type(inst) == 0


def test_product_type_repeated_variable_in_scope():
    neq = binary_disequality()
    inst = _instance(2, 2, {"neq": neq}, [("neq", (0, 0))])
    assert eval_product_type(inst) == 0  # v != v never holds, var 1 still free?
    eq = binary_equality()
    inst = _instance(2, 2, {"eq": eq}, [("eq", (0, 0))])
    assert eval_product_type(inst) == 4


def test_product_type_refusals():
    xor3 = parity_indicator(3)
    inst = _instance(2, 3, {"xor3": xor3}, [("xor3", (0, 1, 2))])
    with pytest.raises(Refusal):
        eval_product_type(inst)
    ternary = _instance(3, 1, {}, [])
    with pytest.raises(Refusal):
        eval_product_type(ternary)


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
    assert eval_product_type(instance) == brute_force_z(instance)


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


# ---------------------------------------------------------------------------
# pure-affine evaluator


def test_pure_affine_hand_values():
    xor3 = parity_indicator(3)
    inst = _instance(2, 3, {"xor3": xor3}, [("xor3", (0, 1, 2))])
    assert eval_pure_affine(inst) == 4

    boosted = scale_function(xor3, F(3))
    twice = _instance(
        2, 3, {"f": boosted}, [("f", (0, 1, 2)), ("f", (0, 1, 2))]
    )
    assert eval_pure_affine(twice) == 36  # 3*3 * #solutions(one equation)

    folded = _instance(2, 2, {"xor3": xor3}, [("xor3", (0, 0, 1))])
    assert eval_pure_affine(folded) == 2  # x^x^y = 1 forces y = 1

    pinned = _instance(
        2, 3, {"xor3": xor3, "d0": delta(0)}, [("xor3", (0, 1, 2)), ("d0", (0,))]
    )
    assert eval_pure_affine(pinned) == 2

    contradiction = _instance(
        2, 1, {"d0": delta(0), "d1": delta(1)}, [("d0", (0,)), ("d1", (0,))]
    )
    assert eval_pure_affine(contradiction) == 0


def test_pure_affine_refusals():
    lean = unary_weight(F(2))
    inst = _instance(2, 1, {"lean": lean}, [("lean", (0,))])
    with pytest.raises(Refusal):
        eval_pure_affine(inst)
    with pytest.raises(Refusal):
        eval_pure_affine(_instance(3, 1, {}, []))


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
    assert route == "brute-force"
    assert value == 6  # odd-parity points weigh 1,1,2,2 under the unary

    value, route = evaluate(_instance(3, 2, {}, []))
    assert (value, route) == (9, "brute-force")


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
    from wcsp.generate import parity_spread, product_type_chain

    chain = product_type_chain(400)
    value, route = evaluate(chain, budget=2**20)
    assert route == "product-type" and value > 0

    spread = parity_spread(300)
    value, route = evaluate(spread, budget=2**20)
    assert route == "pure-affine" and value > 0
