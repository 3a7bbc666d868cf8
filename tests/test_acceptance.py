"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Every criterion is deterministic (fixed seeds) and desk scale.
"""

import itertools
import random
import time
from fractions import Fraction

from oracles import (
    bg_2x2_expected,
    distinct_filtered_z,
    enumerate_affine_supports,
    product_type_by_decomposition,
    pure_affine_direct,
    rank1_hom_value,
    rank_direct,
)
from wcsp.classify import classify_family, is_product_type, is_pure_affine
from wcsp.generate import (
    parity_spread,
    random_connected_graph,
    random_instance,
    random_table_function,
)
from wcsp.library import (
    binary_disequality,
    binary_equality,
    delta,
    full_disequality,
    unary_weight,
)
from wcsp.model import Constraint, Instance, WeightFunction, brute_force_z
from wcsp.models import (
    HomTractability,
    TargetMatrix,
    bulatov_grohe_classify,
    eval_graph_hom,
    verify_cut_identity,
)
from wcsp.reductions import (
    Partition,
    UnaryExtraction,
    extract_unary_iterated,
    interpolation_polynomial,
    interpolation_reduce,
    is_flip_symmetric,
    mobius_pinning_reduce,
    mobius_table,
    parity_chain,
    pinning_reduce_boolean,
    project,
    simulate_projection,
)
from wcsp.tractable import eval_product_type, eval_pure_affine, evaluate

F = Fraction


def _verdict(instance):
    """The classification of the used functions, as evaluate() builds it."""
    return classify_family({name: instance.functions[name] for name in instance.scopes})


def _report(index, label, ok):
    print(f"[{index:>2}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {index} failed"


def test_01_classifier_matches_oracles_on_all_small_tables():
    values = (F(0), F(1), F(2))
    disagreements = 0
    seen = 0
    for arity in (1, 2, 3):
        for table in itertools.product(values, repeat=2**arity):
            fn = WeightFunction(arity, 2, table)
            if is_product_type(fn)[0] != product_type_by_decomposition(table, arity):
                disagreements += 1
            if is_pure_affine(fn) != pure_affine_direct(table):
                disagreements += 1
            seen += 1
    _report(
        1,
        f"classifier vs decomposition/closure oracles on {seen} tables, "
        f"{disagreements} disagreements",
        seen == 6651 and disagreements == 0,
    )


def test_02_fast_evaluators_match_brute_force():
    mismatches = 0
    for trial in range(1000):
        n = 12 if trial % 50 == 0 else 3 + trial % 7
        m = 1 + (trial * 7) % 20
        inst = random_instance(
            "product-type", 1000 + trial, num_variables=n, num_constraints=m
        )
        if eval_product_type(inst, _verdict(inst)) != brute_force_z(inst):
            mismatches += 1
        inst = random_instance(
            "pure-affine", 5000 + trial, num_variables=n, num_constraints=m
        )
        if eval_pure_affine(inst, _verdict(inst)) != brute_force_z(inst):
            mismatches += 1
    _report(
        2,
        f"1000+1000 random tractable instances vs brute force, {mismatches} mismatches",
        mismatches == 0,
    )


def test_03_large_instances_run_in_polynomial_time():
    def chain(length):
        steps = tuple(Constraint("step", (i, i + 1)) for i in range(length - 1))
        return Instance(length, 2, {"step": binary_disequality()}, steps)

    start = time.perf_counter()
    small_value, small_route = evaluate(chain(1000))
    small_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    big_value, big_route = evaluate(chain(10000))
    big_elapsed = time.perf_counter() - start

    spread_value, spread_route = evaluate(parity_spread(500))

    ok = (
        small_value == 2
        and big_value == 2
        and small_route == big_route == "product-type"
        and big_elapsed < max(50 * small_elapsed, 2.0)
        and spread_route == "pure-affine"
        and spread_value > 0
    )
    _report(
        3,
        "10x constraint growth stays near-linear "
        f"({small_elapsed:.3f}s -> {big_elapsed:.3f}s) and n=500 elimination runs",
        ok,
    )


def _pinning_trial(trial):
    rng = random.Random(40000 + trial)
    n = rng.randint(3, 6)
    if trial % 2 == 0:
        family = {
            "eq": binary_equality(),
            "neq": binary_disequality(),
            "two": WeightFunction(1, 2, (F(2), F(2))),
        }
    else:
        family = {
            "f": random_table_function(rng, rng.randint(1, 3)),
            "lean": unary_weight(F(2)),
        }
    functions = dict(family)
    functions["pin_zero"] = delta(0)
    functions["pin_one"] = delta(1)
    constraints = []
    for _ in range(rng.randint(1, 5)):
        name = rng.choice(sorted(family))
        arity = family[name].arity
        constraints.append(Constraint(name, tuple(rng.sample(range(n), arity))))
    for _ in range(rng.randint(1, 2)):
        pin = rng.choice(["pin_zero", "pin_one"])
        constraints.append(Constraint(pin, (rng.randrange(n),)))
    inst = Instance(n, 2, functions, tuple(constraints))
    return inst, is_flip_symmetric(family)


def _projection_trial(trial):
    rng = random.Random(41000 + trial)
    arity = rng.randint(2, 3)
    preimage = random_table_function(rng, arity)
    keep = sorted(rng.sample(range(arity), rng.randint(1, arity)))
    projected = project(preimage, keep)
    n = rng.randint(3, 5)
    functions = {"g": projected, "w": unary_weight(F(rng.randint(1, 3)))}
    constraints = [Constraint("g", tuple(rng.sample(range(n), len(keep))))]
    for _ in range(rng.randint(0, 2)):
        constraints.append(Constraint("w", (rng.randrange(n),)))
    inst = Instance(n, 2, functions, tuple(constraints))
    lifted = simulate_projection(inst, "g", preimage, keep)
    return inst, lifted


def test_04_pinning_and_projection_simulations_are_sound():
    mismatches = 0
    symmetric_seen = asymmetric_seen = 0
    for trial in range(500):
        inst, symmetric = _pinning_trial(trial)
        if symmetric:
            symmetric_seen += 1
        else:
            asymmetric_seen += 1
        if pinning_reduce_boolean(inst, brute_force_z) != brute_force_z(inst):
            mismatches += 1
    for trial in range(500):
        inst, lifted = _projection_trial(trial)
        if brute_force_z(lifted) != brute_force_z(inst):
            mismatches += 1
    _report(
        4,
        f"500 pin eliminations ({symmetric_seen} symmetric / {asymmetric_seen} "
        f"asymmetric) and 500 projection lifts, {mismatches} mismatches",
        mismatches == 0 and symmetric_seen >= 200 and asymmetric_seen >= 200,
    )


def test_05_interpolation_recovers_the_value_exactly():
    targets = [F(0), F(1, 2), F(3), F(7)]
    points = [F(2), F(1, 2)]
    mismatches = 0
    for trial in range(200):
        rng = random.Random(50000 + trial)
        occurrences = trial % 7
        c = targets[trial % len(targets)]
        lam = points[trial % len(points)]
        n = rng.randint(2, 4)
        functions = {
            "u": WeightFunction(1, 2, (F(1), c)),
            "f": random_table_function(rng, 2),
        }
        constraints = [
            Constraint("f", tuple(rng.sample(range(n), 2)))
            for _ in range(rng.randint(1, 3))
        ]
        constraints += [
            Constraint("u", (rng.randrange(n),)) for _ in range(occurrences)
        ]
        inst = Instance(n, 2, functions, tuple(constraints))
        coefficients = interpolation_polynomial(inst, "u", lam, brute_force_z)
        if len(coefficients) != occurrences + 1:
            mismatches += 1
        if interpolation_reduce(inst, "u", lam, brute_force_z) != brute_force_z(inst):
            mismatches += 1
    _report(
        5,
        f"200 interpolation runs match brute force with degree-bound "
        f"coefficient counts, {mismatches} mismatches",
        mismatches == 0,
    )


def test_06_parity_chain_counts():
    ok = True
    for width in range(3, 11):
        value, route = evaluate(parity_chain(width))
        ok = ok and value == 2 ** (width - 1) and route == "pure-affine"
        if width <= 5:
            ok = ok and brute_force_z(parity_chain(width)) == value
    _report(6, "parity chains count 2^(k-1) assignments for k=3..10", ok)


def test_07_cut_identity_on_random_graphs():
    lambdas = [F(0), F(1, 2), F(1), F(2), F(3)]
    checked = 0
    failures = 0
    for index in range(25):
        rng = random.Random(70000 + index)
        graph = random_connected_graph(rng, 2 + index % 6)
        for lam in lambdas:
            checked += 1
            if not verify_cut_identity(graph, lam):
                failures += 1
    _report(
        7,
        f"cut-space enumerator equals half the two-spin value on {checked} "
        f"graph/weight pairs, {failures} failures",
        checked >= 100 and failures == 0,
    )


def test_08_two_by_two_target_classification_and_rank_one_values():
    graphs = [
        random_connected_graph(random.Random(800 + i), 2 + i % 5) for i in range(20)
    ]
    wrong_verdicts = 0
    wrong_values = 0
    rank_one_cases = 0
    for a, b, d in itertools.product(range(4), repeat=3):
        matrix = TargetMatrix.from_rows([[F(a), F(b)], [F(b), F(d)]])
        verdict = bulatov_grohe_classify(matrix)
        expected = bg_2x2_expected(F(a), F(b), F(d))
        if (verdict is HomTractability.TRACTABLE) != expected:
            wrong_verdicts += 1
            continue
        if verdict is HomTractability.TRACTABLE and rank_direct(matrix.entries) == 1:
            rank_one_cases += 1
            for graph in graphs:
                if eval_graph_hom(graph, matrix) != rank1_hom_value(matrix, graph):
                    wrong_values += 1
    _report(
        8,
        f"all 64 symmetric 2x2 targets classified ({wrong_verdicts} wrong), "
        f"{rank_one_cases} rank-1 cases match the closed form on 20 graphs "
        f"({wrong_values} wrong)",
        wrong_verdicts == 0 and wrong_values == 0 and rank_one_cases > 0,
    )


def test_09_mobius_pinning_matches_distinctness_filter():
    mismatches = 0
    for trial in range(200):
        rng = random.Random(90000 + trial)
        q = 2 if trial % 2 == 0 else 3
        n = q + rng.randint(1, 2)
        functions = {
            "neq": full_disequality(q),
            "u": WeightFunction(1, q, tuple(F(rng.randint(1, 3)) for _ in range(q))),
        }
        constraints = [Constraint("neq", tuple(rng.sample(range(n), q)))]
        for _ in range(rng.randint(0, 3)):
            constraints.append(Constraint("u", (rng.randrange(n),)))
        inst = Instance(n, q, functions, tuple(constraints))
        if mobius_pinning_reduce(inst, brute_force_z) != distinct_filtered_z(inst, 0):
            mismatches += 1

    import math

    top_ok = all(
        mobius_table(q)[Partition.single_block(q)]
        == (-1) ** (q - 1) * math.factorial(q - 1)
        for q in range(2, 7)
    )
    _report(
        9,
        f"200 Moebius pin eliminations match direct filtering ({mismatches} "
        "mismatches) and top-of-lattice weights check out for q<=6",
        mismatches == 0 and top_ok,
    )


def test_10_unary_extraction_terminates_with_a_skewed_weight():
    one, two, zero = F(1), F(2), F(0)
    failures = 0
    checked = 0
    for arity in (1, 2, 3, 4):
        size = 2**arity
        for support in enumerate_affine_supports(arity):
            spots = sorted(support)
            if len(spots) < 2:
                continue
            for choice in itertools.product((one, two), repeat=len(spots)):
                if all(v == choice[0] for v in choice):
                    continue  # constant on an affine support: nothing to extract
                table = [zero] * size
                for spot, value in zip(spots, choice):
                    table[spot] = value
                outcome, _steps = extract_unary_iterated(
                    WeightFunction(arity, 2, tuple(table))
                )
                checked += 1
                if not (
                    isinstance(outcome, UnaryExtraction)
                    and outcome.ratio not in (0, 1)
                ):
                    failures += 1
    _report(
        10,
        f"iterated extraction found a weight ratio outside {{0,1}} for all "
        f"{checked} affine-support non-pure-affine tables, {failures} failures",
        checked == 75888 and failures == 0,
    )
