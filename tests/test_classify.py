"""Dichotomy classification, checked against independent reference procedures.

The fast coset-based implementations are the code under test; the
slow decomposition search and literal closure test live in ``oracles`` and
serve as ground truth on exhaustive small inputs.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    affine_by_closure,
    product_type_by_decomposition,
    pure_affine_direct,
)

import wcsp.classify as classify
import wcsp.tractable as tractable
from wcsp.classify import (
    FamilyVerdict,
    classify_family,
    classify_function,
    has_affine_support,
    is_product_like,
    is_product_type,
    is_pure_affine,
    reconstruct_product_table,
    useful_indices,
)
from wcsp.errors import Refusal
from wcsp.generate import random_product_type_function
from wcsp.gf2 import affine_system_of, coset_system
from wcsp.library import (
    binary_disequality,
    binary_equality,
    delta,
    parity_indicator,
    scale_function,
    unary_weight,
)
from wcsp.model import Constraint, Instance, WeightFunction, brute_force_z, tuple_to_index
from wcsp.reductions import pinning_reduce_boolean
from wcsp.tractable import evaluate

F = Fraction


def fn(arity, *values):
    return WeightFunction(arity, 2, tuple(F(v) for v in values))


# ---------------------------------------------------------------------------
# affine supports of 0/1 tables


def indicator(arity, members, domain_size=2):
    """The 0/1 table whose support is the given index set."""
    return WeightFunction(
        arity, domain_size, tuple(F(int(i in members)) for i in range(domain_size**arity))
    )


def support_of(arity, tuples, domain_size=2):
    return indicator(arity, {tuple_to_index(t, domain_size) for t in tuples}, domain_size)


def test_affine_relation_hand_values():
    odd = support_of(3, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)])
    assert has_affine_support(odd)
    horn = support_of(2, [(0, 1), (1, 0), (1, 1)])
    assert not has_affine_support(horn)
    assert has_affine_support(support_of(2, []))
    assert has_affine_support(support_of(0, [()]))
    assert has_affine_support(support_of(2, [(1, 0)]))


@given(st.integers(0, 4), st.data())
def test_affine_relation_matches_closure_oracle(arity, data):
    members = data.draw(
        st.frozensets(st.integers(0, 2**arity - 1), max_size=2**arity)
    )
    assert has_affine_support(indicator(arity, members)) == affine_by_closure(members, arity)


def test_affine_relation_exhaustive_arity_3():
    for bits in range(1 << 8):
        members = frozenset(i for i in range(8) if bits >> i & 1)
        assert has_affine_support(indicator(3, members)) == affine_by_closure(members, 3)


def test_affine_relation_refuses_larger_domains():
    with pytest.raises(Refusal):
        has_affine_support(support_of(1, [(2,)], domain_size=3))


# ---------------------------------------------------------------------------
# support and pure-affine flags


def test_has_affine_support_hand_values():
    assert not has_affine_support(fn(2, 1, 1, 1, 0))
    assert has_affine_support(fn(1, 1, 2))
    assert has_affine_support(fn(1, 0, 5))
    assert has_affine_support(parity_indicator(3))


def test_is_pure_affine_hand_values():
    assert is_pure_affine(scale_function(parity_indicator(3), F(3)))
    assert not is_pure_affine(fn(2, 1, 0, 0, 3))  # two distinct values
    assert is_pure_affine(delta(1))
    assert not is_pure_affine(fn(1, 0, 0))  # empty support
    assert not is_pure_affine(fn(2, 1, 1, 1, 0))  # support not affine


@given(st.integers(0, 3), st.data())
def test_pure_affine_matches_direct_oracle(arity, data):
    table = data.draw(
        st.lists(
            st.sampled_from([0, 0, 1, 2, 3]),
            min_size=2**arity,
            max_size=2**arity,
        )
    )
    assert is_pure_affine(fn(arity, *table)) == pure_affine_direct(table)


# ---------------------------------------------------------------------------
# useful coordinates and slice ratios


def test_useful_indices_hand_values():
    assert useful_indices(fn(2, 1, 3, 2, 6)) == [0, 1]
    assert useful_indices(delta(0)) == []
    assert useful_indices(binary_disequality()) == []  # no doubly-positive row
    assert useful_indices(fn(2, 1, 1, 0, 1)) == [0, 1]
    assert useful_indices(fn(0, 5)) == []


def test_is_product_like_hand_values():
    ok, ratios = is_product_like(fn(2, 1, 3, 2, 6))
    assert ok and ratios == {0: F(1, 2), 1: F(1, 3)}
    ok, ratios = is_product_like(fn(2, 1, 1, 1, 2))
    assert not ok and ratios == {}
    ok, ratios = is_product_like(binary_disequality())
    assert ok and ratios == {}  # vacuously: no useful coordinate
    ok, ratios = is_product_like(unary_weight(F(3, 4)))
    assert ok and ratios == {0: F(4, 3)}


# ---------------------------------------------------------------------------
# product type with witnesses


def test_is_product_type_positive_cases():
    for example in (
        fn(2, 1, 3, 2, 6),
        binary_equality(),
        binary_disequality(),
        delta(0),
        delta(1),
        unary_weight(F(7)),
        fn(2, 0, 0, 0, 0),
        fn(3, *[0] * 8),
        fn(0, 9),
        fn(2, 1, 0, 0, 3),  # weighted equality tie
        fn(3, 0, 2, 0, 0, 0, 0, 6, 0),  # neq tie between cols, pin on the rest
    ):
        flag, witness = is_product_type(example)
        assert flag, example
        assert reconstruct_product_table(witness) == example.table


def test_is_product_type_negative_cases():
    for example in (
        parity_indicator(3),
        fn(2, 1, 1, 1, 0),
        fn(2, 1, 1, 1, 2),
        fn(3, 0, 1, 1, 0, 1, 0, 0, 1),
    ):
        flag, witness = is_product_type(example)
        assert not flag and witness is None


def test_zero_function_is_product_type_but_not_pure_affine():
    zero = fn(2, 0, 0, 0, 0)
    flag, witness = is_product_type(zero)
    assert flag and witness.scale == 0
    assert not is_pure_affine(zero)


def test_product_type_refuses_larger_domains():
    with pytest.raises(Refusal):
        is_product_type(WeightFunction(1, 3, (F(1), F(1), F(1))))


@given(st.integers(0, 4), st.data())
def test_product_type_matches_decomposition_search(arity, data):
    if data.draw(st.booleans(), label="generated"):
        # product type by construction, unless one entry is then changed
        rng = data.draw(st.randoms(use_true_random=False))
        table = list(random_product_type_function(rng, arity).table)
        if data.draw(st.booleans(), label="changed"):
            index = data.draw(st.integers(0, len(table) - 1), label="index")
            choices = [v for v in (0, 1, 2, F(1, 2)) if v != table[index]]
            table[index] = data.draw(st.sampled_from(choices), label="value")
    else:
        table = data.draw(
            st.lists(
                st.sampled_from([0, 0, 1, 1, 2, 3]),
                min_size=2**arity,
                max_size=2**arity,
            )
        )
    function = fn(arity, *table)
    flag, witness = is_product_type(function)
    assert flag == product_type_by_decomposition(table, arity)
    if flag:
        assert reconstruct_product_table(witness) == function.table


@pytest.mark.parametrize("arity", range(2, 11))
def test_full_support_product_tables_and_one_entry_changes(arity):
    rng = random.Random(arity)
    weights = [(F(rng.randint(1, 6), rng.randint(1, 4)), F(rng.randint(1, 6))) for _ in range(arity)]
    table = []
    for point in itertools.product((0, 1), repeat=arity):
        value = F(3)
        for column, side in enumerate(point):
            value *= weights[column][side]
        table.append(value)
    flag, witness = is_product_type(fn(arity, *table))
    assert flag and reconstruct_product_table(witness) == tuple(table)
    # the origin, a single lowest-bit flip, the far corner and one more
    for index in (0, 1, len(table) - 1, rng.randrange(len(table))):
        for changed in (2 * table[index], F(0)):
            perturbed = table[:index] + [changed] + table[index + 1 :]
            assert is_product_type(fn(arity, *perturbed)) == (False, None), (index, changed)


def test_product_type_exhaustive_binary_01_tables():
    for table in itertools.product((0, 1), repeat=4):
        function = fn(2, *table)
        flag, _ = is_product_type(function)
        assert flag == product_type_by_decomposition(list(table), 2), table


@given(st.integers(0, 3), st.data())
def test_all_useful_means_product_type_equals_product_like(arity, data):
    table = data.draw(
        st.lists(
            st.sampled_from([1, 2, 3, 5]), min_size=2**arity, max_size=2**arity
        )
    )
    function = fn(arity, *table)
    assert useful_indices(function) == list(range(arity))
    flag, _ = is_product_type(function)
    assert flag == is_product_like(function)[0]


# ---------------------------------------------------------------------------
# family verdicts


def test_family_verdicts():
    product_family = {"eq": binary_equality(), "lean": unary_weight(F(2))}
    assert (
        classify_family(product_family).family is FamilyVerdict.PRODUCT_TYPE_FP
    )

    affine_family = {"xor3": parity_indicator(3), "pin": delta(0)}
    assert classify_family(affine_family).family is FamilyVerdict.PURE_AFFINE_FP

    hard_family = {"xor3": parity_indicator(3), "lean": unary_weight(F(2))}
    verdict = classify_family(hard_family)
    assert verdict.family is FamilyVerdict.HARD
    assert verdict.hard_pair == ("xor3", "lean")


def test_family_prefers_product_type_when_both_apply():
    # delta functions are simultaneously product type and pure affine
    verdict = classify_family({"pin": delta(0)})
    assert verdict.family is FamilyVerdict.PRODUCT_TYPE_FP
    report = verdict.per_function["pin"]
    assert report.product_type and report.pure_affine


def test_single_hard_function_pairs_with_itself():
    bad = fn(2, 1, 1, 1, 0)  # neither product type nor pure affine
    verdict = classify_family({"bad": bad})
    assert verdict.family is FamilyVerdict.HARD
    assert verdict.hard_pair == ("bad", "bad")


def test_empty_family_is_product_type():
    assert classify_family({}).family is FamilyVerdict.PRODUCT_TYPE_FP


def test_classify_function_report_fields():
    report = classify_function(fn(2, 1, 3, 2, 6))
    assert report.product_type
    assert not report.pure_affine
    assert report.affine_support  # full support is affine
    assert reconstruct_product_table(report.witness) == fn(2, 1, 3, 2, 6).table
    assert report.affine_witness is None  # four distinct non-zero levels

    # support {(0,0,1), (0,1,1)} at level 5: x0 = 0, x2 = 1, x1 free
    report = classify_function(fn(3, 0, 5, 0, 5, 0, 0, 0, 0))
    assert report.pure_affine and report.affine_support
    assert report.affine_witness.level == 5
    system = report.affine_witness.system
    solutions = {
        point
        for point in itertools.product((0, 1), repeat=3)
        # row bit i is coordinate i
        if all(
            sum(point[i] for i in range(3) if mask << low >> i & 1) % 2 == constant
            for low, mask, constant in system.rows
        )
    }
    assert solutions == {(0, 0, 1), (0, 1, 1)}
    assert classify_function(fn(2, 0, 3, 3, 3)).affine_witness is None
    assert classify_function(fn(1, 0, 0)).affine_witness is None


def test_equal_tables_hash_equal_and_are_classified_once(monkeypatch):
    classified = []

    def counting(function):
        classified.append(function)
        return classify_function(function)

    first = WeightFunction(8, 2, tuple(F(bin(i).count("1") + 1) for i in range(256)))
    second = WeightFunction(8, 2, tuple(F(bin(i).count("1") + 1) for i in range(256)))
    assert first is not second and first.table is not second.table
    assert first == second and hash(first) == hash(second)
    classify._table_report.cache_clear()
    monkeypatch.setattr(classify, "classify_function", counting)
    verdict = classify_family({"first": first, "second": second})
    assert len(classified) == 1
    reports = verdict.per_function
    assert reports["first"] is reports["second"]


def test_a_reduction_classifies_each_table_once(monkeypatch):
    classified = []

    def counting(function):
        classified.append(function)
        return classify_function(function)

    classify._table_report.cache_clear()
    monkeypatch.setattr(classify, "classify_function", counting)
    k = 10
    # product type, 2**(number of ones): not flip-symmetric, so pin
    # elimination makes four evaluator calls
    big = WeightFunction(k, 2, tuple(F(2 ** bin(i).count("1")) for i in range(1 << k)))
    functions = {"big": big, "eq": binary_equality(), "delta0": delta(0), "delta1": delta(1)}
    constraints = (
        Constraint("big", tuple(range(k))),
        Constraint("eq", (k, 1)),
        Constraint("delta0", (0,)),
        Constraint("delta1", (k,)),
    )
    instance = Instance(k + 1, 2, functions, constraints)
    calls = []

    def evaluator(inst):
        value, route = evaluate(inst)
        calls.append(route)
        return value

    assert pinning_reduce_boolean(instance, evaluator) == brute_force_z(instance)
    assert calls == ["product-type"] * 4
    assert sum(1 for function in classified if function == big) == 1

    for weight in range(1, 40):
        classify_family({"u": unary_weight(F(weight))})
    info = classify._table_report.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize <= 16


def test_a_pure_affine_reduction_builds_each_system_once(monkeypatch):
    k = 9
    built = []

    def counting(arity, members):
        built.append(arity)
        return affine_system_of(arity, members)

    def counting_coset(arity, origin, span):
        built.append(arity)
        return coset_system(arity, origin, span)

    classify._table_report.cache_clear()
    # classification builds the system from the support's coset, and
    # evaluation could rebuild it from the support; count both
    monkeypatch.setattr(classify, "coset_system", counting_coset)
    monkeypatch.setattr(tractable, "affine_system_of", counting)
    # odd parity of odd arity at level 3: pure affine, not flip-symmetric, so
    # pin elimination makes four evaluator calls
    odd = WeightFunction(k, 2, tuple(F(3 * (bin(i).count("1") % 2)) for i in range(1 << k)))
    functions = {"odd": odd, "eq": binary_equality(), "delta0": delta(0), "delta1": delta(1)}
    constraints = (
        Constraint("odd", tuple(range(k))),
        Constraint("eq", (k, 1)),
        Constraint("delta0", (0,)),
        Constraint("delta1", (k,)),
    )
    instance = Instance(k + 1, 2, functions, constraints)
    calls = []

    def evaluator(inst):
        value, route = evaluate(inst)
        calls.append(route)
        return value

    assert pinning_reduce_boolean(instance, evaluator) == brute_force_z(instance)
    assert calls == ["pure-affine"] * 4
    assert built.count(k) == 1
