"""Seeded verification suites: every fast path replayed against the oracle.

Each check builds random cases, runs a fast evaluator or a reduction, and
compares with exhaustive enumeration.  Results are collected rather than
raised so a run reports every failure at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .generate import random_connected_graph, random_instance
from .model import Constraint, Instance, brute_force_z
from .models import verify_cut_identity
from .reductions import (
    interpolation_reduce,
    parity_chain,
    pinning_reduce_boolean,
    project,
    simulate_projection,
)
from .library import delta, unary_weight
from .tractable import evaluate

SUITES = ("oracle", "reductions", "cut", "all")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _compare(
    suite: str, name: str, got: object, expected: object, against: str = "oracle"
) -> CheckResult:
    return CheckResult(suite, name, got == expected, f"{got} vs {against} {expected}")


def check_oracle_equivalence(seed: int) -> list[CheckResult]:
    """Dispatcher output equals enumeration on random small instances."""
    results = []
    for trial in range(24):
        profile = ("product-type", "pure-affine", "mixed")[trial % 3]
        instance = random_instance(profile, seed * 1000 + trial, 6, 7)
        fast, route = evaluate(instance)
        slow = brute_force_z(instance)
        detail = f"{route}: {fast} vs oracle {slow}"
        results.append(CheckResult("oracle", f"dispatch-{profile}-{trial}", fast == slow, detail))
    return results


def _with_pins(instance: Instance, rng: random.Random) -> Instance:
    functions = dict(instance.functions)
    functions.setdefault("delta0", delta(0))
    functions.setdefault("delta1", delta(1))
    constraints = list(instance.constraints)
    for var in rng.sample(
        range(instance.num_variables), rng.randint(1, instance.num_variables // 2)
    ):
        constraints.append(
            Constraint(rng.choice(("delta0", "delta1")), (var,))
        )
    return Instance(
        instance.num_variables, 2, functions, tuple(constraints)
    )


def check_reductions(seed: int) -> list[CheckResult]:
    """Pin elimination, projection simulation, and interpolation vs the oracle."""
    results = []
    rng = random.Random(seed)
    for trial in range(16):
        base = random_instance("mixed", seed * 2000 + trial, 5, 5)
        pinned = _with_pins(base, rng)
        expected = brute_force_z(pinned)
        got = pinning_reduce_boolean(pinned, brute_force_z)
        results.append(_compare("reductions", f"pin-elimination-{trial}", got, expected))
    for trial in range(16):
        base = random_instance("mixed", seed * 3000 + trial, 5, 4)
        name = next(iter(base.functions))
        fn = base.functions[name]
        if fn.arity >= 2:
            coords = tuple(sorted(rng.sample(range(fn.arity), fn.arity - 1)))
        else:
            coords = (0,)
        functions = dict(base.functions)
        functions[name] = project(fn, coords)
        shrunk = Instance(
            base.num_variables,
            2,
            functions,
            tuple(
                Constraint(c.function, c.scope[: len(coords)])
                if c.function == name
                else c
                for c in base.constraints
            ),
        )
        lifted = simulate_projection(shrunk, name, fn, coords)
        expected = brute_force_z(shrunk)
        got = brute_force_z(lifted)
        results.append(
            _compare("reductions", f"projection-simulation-{trial}", got, expected)
        )
    for trial in range(16):
        base = random_instance("mixed", seed * 4000 + trial, 5, 4)
        functions = dict(base.functions)
        weight = rng.choice((Fraction(3), Fraction(1, 2), Fraction(7)))
        functions.setdefault("uprobe", unary_weight(weight))
        constraints = list(base.constraints)
        for _ in range(rng.randint(1, 4)):
            constraints.append(
                Constraint("uprobe", (rng.randrange(base.num_variables),))
            )
        augmented = Instance(base.num_variables, 2, functions, tuple(constraints))
        expected = brute_force_z(augmented)
        got = interpolation_reduce(
            augmented, "uprobe", Fraction(2), brute_force_z
        )
        results.append(_compare("reductions", f"interpolation-{trial}", got, expected))
    for width in range(1, 7):
        instance = parity_chain(width)
        expected = Fraction(2 ** (width - 1))
        got = brute_force_z(instance)
        results.append(
            _compare("reductions", f"parity-chain-{width}", got, expected, "expected")
        )
    return results


def check_cut_identity(seed: int) -> list[CheckResult]:
    """Cut-space enumerator equals half the two-spin value on random graphs."""
    results = []
    rng = random.Random(seed)
    weights = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
    for trial in range(20):
        n = rng.randint(2, 7)
        graph = random_connected_graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
        weight = rng.choice(weights)
        results.append(
            CheckResult(
                "cut",
                f"cut-identity-{trial}",
                verify_cut_identity(graph, weight),
                f"n={n} weight={weight}",
            )
        )
    return results


def run_suite(suite: str, seed: int) -> list[CheckResult]:
    """Run one named suite (or ``all``); unknown names raise ``ValueError``."""
    if suite == "oracle":
        return check_oracle_equivalence(seed)
    if suite == "reductions":
        return check_reductions(seed)
    if suite == "cut":
        return check_cut_identity(seed)
    if suite == "all":
        return (
            check_oracle_equivalence(seed)
            + check_reductions(seed)
            + check_cut_identity(seed)
        )
    raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
