"""Random instance generation and the seeded verification suites."""

import pytest

from wcsp.classify import classify_function, is_pure_affine
from wcsp.errors import InputError
from wcsp.generate import (
    PROFILES,
    parity_spread,
    product_type_chain,
    random_instance,
)
from wcsp.model import brute_force_z, instance_to_json
from wcsp.tractable import evaluate
from wcsp.verify import SUITES, run_suite


def test_profiles_are_the_documented_four():
    assert PROFILES == ("product-type", "pure-affine", "mixed", "graph-hom")


def test_generation_is_seed_deterministic():
    for profile in PROFILES:
        a = random_instance(profile, 17)
        b = random_instance(profile, 17)
        assert instance_to_json(a) == instance_to_json(b)
        c = random_instance(profile, 18)
        assert instance_to_json(a) != instance_to_json(c)


def test_product_type_profile_members_classify_accordingly():
    for seed in range(12):
        inst = random_instance("product-type", seed, 5, 6)
        for name, fn in inst.functions.items():
            assert classify_function(fn).product_type, (seed, name)


def test_pure_affine_profile_members_classify_accordingly():
    for seed in range(12):
        inst = random_instance("pure-affine", seed, 5, 6)
        for fn in inst.functions.values():
            assert is_pure_affine(fn), seed


def test_graph_hom_profile_shape():
    inst = random_instance("graph-hom", 3, 5, 7)
    assert inst.domain_size == 2
    assert set(inst.functions) == {"edge"}
    assert all(len(c.scope) == 2 for c in inst.constraints)
    assert all(c.scope[0] != c.scope[1] for c in inst.constraints)


def test_random_instance_validation():
    with pytest.raises(InputError):
        random_instance("nope", 0)
    with pytest.raises(InputError):
        random_instance("mixed", 0, num_variables=0)
    with pytest.raises(InputError):
        random_instance("mixed", 0, num_constraints=-1)


def test_product_type_chain_is_tractable_and_exact():
    chain = product_type_chain(9)
    value, route = evaluate(chain)
    assert route == "product-type"
    assert value == brute_force_z(chain)
    with pytest.raises(InputError):
        product_type_chain(1)


def test_parity_spread_is_tractable_and_exact():
    spread = parity_spread(9)
    value, route = evaluate(spread)
    assert route == "pure-affine"
    assert value == brute_force_z(spread)
    with pytest.raises(InputError):
        parity_spread(2)


# ---------------------------------------------------------------------------
# verification suites


def test_run_suite_names():
    assert SUITES == ("oracle", "reductions", "cut", "all")
    with pytest.raises(ValueError):
        run_suite("bogus", seed=0)


def test_all_suites_pass_on_seed_zero():
    results = run_suite("all", seed=0)
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    assert {r.suite for r in results} == {"oracle", "reductions", "cut"}


def test_suite_results_are_seed_deterministic():
    first = run_suite("cut", seed=5)
    second = run_suite("cut", seed=5)
    assert [(r.name, r.passed, r.detail) for r in first] == [
        (r.name, r.passed, r.detail) for r in second
    ]
