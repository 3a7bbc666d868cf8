"""Seeded inputs and expected values for the two benchmark workloads.

Every operation is one ``wcsp`` command line (``eval`` or ``reduce ...``) on a
JSON instance file written here.  Each operation carries its expected exact
value, computed before any timing starts: closed forms for the
``tractable-scale`` families and for the tractable parts of the routing
slice, and the independent enumeration oracles of ``tests/oracles.py`` for
everything else.  The ``wcsp`` package is used only to build inputs
(``generate``, ``models``, ``library`` and the JSON writer in ``model``).

A workload is a fixed list of base operations run in whole rounds.  Where a
cache keyed on instance contents could make a repeated input cheaper than a
fresh one, round ``r > 0`` rewrites the input into an equivalent form with
the same value: enumerated instances have their variables relabelled, and
reduction inputs have the coordinates of each large table permuted together
with its scope.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from wcsp.generate import (
    parity_spread,
    product_type_chain,
    random_connected_graph,
    random_instance,
)
from wcsp.library import (
    binary_disequality,
    binary_equality,
    delta,
    full_disequality,
    parity_indicator,
)
from wcsp.model import Constraint, Instance, WeightFunction, instance_to_json
from wcsp.models import hom_instance, ising_matrix

#: Python's default limit on the digits of an int converted to or from str.
INT_STR_DIGITS = 4300

_WEIGHTS = (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5), Fraction(2, 3))
_HARD_EDGE_WEIGHTS = (Fraction(1, 2), Fraction(2), Fraction(3), Fraction(2, 3), Fraction(5))


def int_text(n: int) -> str:
    """Decimal digits of a non-negative int of any size.

    ``str`` refuses ints beyond the interpreter's digit limit, so large
    values are split by powers of ten into pieces it accepts.
    """
    if n.bit_length() < 13_000:  # under 3914 digits
        return str(n)
    half = int(n.bit_length() * 0.30103) // 2
    high, low = divmod(n, 10**half)
    return int_text(high) + int_text(low).zfill(half)


def rational_text(value: Fraction) -> str:
    """The CLI's ``value`` rendering: ``"num"`` or ``"num/den"``."""
    if value.denominator == 1:
        return int_text(value.numerator)
    return f"{int_text(value.numerator)}/{int_text(value.denominator)}"


@dataclass
class Op:
    """One CLI operation with its expected exact value."""

    label: str
    command: tuple[str, ...]  # e.g. ("eval",) or ("reduce", "pin-vars")
    options: tuple[str, ...]  # arguments after the instance path
    instance: Instance
    expected: Fraction
    variant: Callable[[Instance, random.Random], Instance] | None = None
    expected_text: str = field(init=False)
    over_digit_limit: bool = field(init=False)

    def __post_init__(self) -> None:
        self.expected_text = rational_text(self.expected)
        self.over_digit_limit = any(
            len(part) > INT_STR_DIGITS for part in self.expected_text.split("/")
        )


@dataclass
class Workload:
    name: str
    ops: list[Op]
    tail_percentile: float  # fixed per workload so the metric keeps its meaning
    seed: int
    workdir: Path
    _holds: dict[Path, int] = field(default_factory=dict)  # file -> round it holds

    @property
    def min_ops(self) -> int:
        """Samples needed for ten of them to lie beyond the tail percentile."""
        return -(-10 * 100 // int(round(100 - self.tail_percentile)))

    def argv(self, index: int, round_number: int) -> list[str]:
        """Command line of base op ``index`` in a round, writing its input file.

        Round 0 and ops without a variant use the base file.  Other rounds
        use a variant file, rewritten with a fresh equivalent form drawn from
        the seed and the round whenever the round changes.
        """
        op = self.ops[index]
        variant = round_number if op.variant else 0
        path = self.workdir / f"op{index:02d}-{'variant' if variant else 'base'}.json"
        if self._holds.get(path) != variant:
            instance = op.instance
            if variant:
                rng = random.Random(f"{self.name}/{self.seed}/{index}/{variant}")
                instance = op.variant(instance, rng)
            path.write_text(instance_to_json(instance) + "\n", encoding="utf-8")
            self._holds[path] = variant
        return [*op.command, str(path), *op.options]


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def oracle_z(oracles, instance: Instance) -> Fraction:
    """Partition function by the oracle module's plain enumeration.

    ``distinct_filtered_z`` skips one constraint and keeps assignments where
    that constraint's variables are pairwise distinct.  A marker constraint
    on a single variable is always distinct, so the filter keeps every
    assignment and the sum is the plain partition function.
    """
    q = instance.domain_size
    marker = "__oracle_marker"
    functions = dict(instance.functions)
    functions[marker] = WeightFunction(1, q, (Fraction(1),) * q)
    constraints = instance.constraints + (Constraint(marker, (0,)),)
    marked = Instance(instance.num_variables, q, functions, constraints)
    return oracles.distinct_filtered_z(marked, len(constraints) - 1)


def chain_z(n: int) -> Fraction:
    """``product_type_chain(n)``: all-0 gives 2^(n-1), all-1 gives 3^(n-1)*2^ceil(n/3)."""
    return Fraction(2 ** (n - 1) + 3 ** (n - 1) * 2 ** -(-n // 3))


def power_of_two_z(n: int) -> Fraction:
    """``parity_spread(n)`` (2^(n-2) levels times 4 solutions) and n free variables."""
    return Fraction(2**n)


def neq_path_z(length: int, unaries: dict[int, tuple[Fraction, Fraction]]) -> Fraction:
    """A path of ``neq`` ties has exactly two assignments, the alternating ones."""
    total = Fraction(0)
    for first in (0, 1):
        weight = Fraction(1)
        for v, pair in unaries.items():
            weight *= pair[(first + v) % 2]
        total += weight
    return total


def check_reference_values(oracles) -> None:
    """Check each closed form against the oracle on small sizes."""
    for n in range(3, 9):
        unaries = {v: (Fraction(v + 1), Fraction(1, v + 2)) for v in range(0, n, 2)}
        cases = [
            ("chain", product_type_chain(n), chain_z(n)),
            ("parity spread", parity_spread(n), power_of_two_z(n)),
            ("empty", Instance(n, 2, {}, ()), power_of_two_z(n)),
            ("neq path", _neq_path(n, 0, unaries, {}), neq_path_z(n, unaries)),
        ]
        for family, instance, closed_form in cases:
            if oracle_z(oracles, instance) != closed_form:
                raise RuntimeError(f"closed form for {family} n={n} disagrees with the oracle")


# ---------------------------------------------------------------------------
# equivalent rewrites used for later rounds
# ---------------------------------------------------------------------------

def relabel_variables(instance: Instance, rng: random.Random) -> Instance:
    """The same instance under a random renaming of its variables."""
    order = list(range(instance.num_variables))
    rng.shuffle(order)
    constraints = tuple(
        Constraint(c.function, tuple(order[v] for v in c.scope))
        for c in instance.constraints
    )
    return Instance(instance.num_variables, instance.domain_size, instance.functions, constraints)


def permute_large_tables(instance: Instance, rng: random.Random, min_arity: int = 8) -> Instance:
    """Permute the coordinates of each large Boolean table along with its scope.

    Each such function is used by exactly one constraint here, so
    ``f'(y) = f(x)`` with ``x[perm[j]] = y[j]`` on scope ``s'[j] = s[perm[j]]``
    leaves the value unchanged while the table itself differs.
    """
    functions = dict(instance.functions)
    constraints = list(instance.constraints)
    for pos, c in enumerate(constraints):
        fn = functions[c.function]
        if fn.arity < min_arity:
            continue
        k = fn.arity
        perm = list(range(k))
        rng.shuffle(perm)
        table = [Fraction(0)] * len(fn.table)
        for y in range(len(fn.table)):
            x = 0
            for j in range(k):
                if y >> (k - 1 - j) & 1:
                    x |= 1 << (k - 1 - perm[j])
            table[y] = fn.table[x]
        functions[c.function] = WeightFunction(k, 2, tuple(table))
        constraints[pos] = Constraint(c.function, tuple(c.scope[p] for p in perm))
    return Instance(instance.num_variables, 2, functions, tuple(constraints))


# ---------------------------------------------------------------------------
# tractable-scale
# ---------------------------------------------------------------------------

#: Geometric ladder from 10^3 to 3*10^4 variables (ratio 30^(1/14)).  Dense
#: steps keep neighbouring latencies close, so the median of the mix moves
#: smoothly instead of jumping between widely spaced sizes.  With 45
#: operations a round, the p90 tail sits 4.5 operations from the top, in the
#: middle of one operation's calls rather than between two.
LADDER = tuple(round(1000 * 30 ** (i / 14)) for i in range(15))


def tractable_scale(rng: random.Random, oracles) -> tuple[list[Op], float]:
    del oracles  # closed forms only
    ops = []
    for base in LADDER:
        for family in ("chain", "parity", "empty"):
            n = round(base * rng.uniform(0.99, 1.01))
            if family == "chain":
                instance, expected = product_type_chain(n), chain_z(n)
            elif family == "parity":
                instance, expected = parity_spread(n), power_of_two_z(n)
            else:
                instance, expected = Instance(n, 2, {}, ()), power_of_two_z(n)
            ops.append(Op(f"{family} n={n}", ("eval",), (), instance, expected))
    rng.shuffle(ops)
    return ops, 90.0


# ---------------------------------------------------------------------------
# enum-reduce: enumeration
# ---------------------------------------------------------------------------

def _neq_path(
    length: int,
    offset: int,
    unaries: dict[int, tuple[Fraction, Fraction]],
    extra_functions: dict[str, WeightFunction],
    extra_constraints: tuple[Constraint, ...] = (),
) -> Instance:
    """``neq`` ties along ``offset .. offset+length-1`` plus per-vertex unaries."""
    functions = {"neq": binary_disequality(), **extra_functions}
    constraints = list(extra_constraints)
    constraints += [
        Constraint("neq", (offset + v, offset + v + 1)) for v in range(length - 1)
    ]
    for v, pair in unaries.items():
        name = f"w{v}"
        functions[name] = WeightFunction(1, 2, pair)
        constraints.append(Constraint(name, (offset + v,)))
    return Instance(offset + length, 2, functions, tuple(constraints))


def _path_unaries(rng: random.Random, length: int) -> dict[int, tuple[Fraction, Fraction]]:
    spots = rng.sample(range(length), 4)
    return {v: (rng.choice(_WEIGHTS), rng.choice(_WEIGHTS)) for v in sorted(spots)}


#: Ising instances per size.  The two largest hold the round's p97 tail: with
#: 29 operations a round it falls 0.87 operations from the top, inside them.
ISING_COUNTS = {10: 1, 11: 3, 12: 2, 13: 2}


def _hard_mixed(rng: random.Random, oracles, n: int) -> Instance:
    """A ``mixed``-profile instance whose used functions form a hard family.

    Hardness is decided by the oracle module: not every used function is
    product type, and not every one is pure affine.  Unused catalog entries
    are dropped; unused hard functions belong to the routing slice.
    """
    while True:
        instance = random_instance("mixed", rng.randrange(2**31), n, 2 * n)
        used = {c.function: instance.functions[c.function] for c in instance.constraints}
        product = all(oracles.product_type_by_decomposition(f.table, f.arity) for f in used.values())
        affine = all(oracles.pure_affine_direct(f.table) for f in used.values())
        if not product and not affine:
            return Instance(n, 2, used, instance.constraints)


def enumeration_ops(rng: random.Random, oracles) -> list[Op]:
    """Ising and hard mixed instances that are enumerated, and the routing slice."""
    ops = []
    # Enumeration visits every state and no Ising entry is zero, so the cost
    # of an instance is set by n, its 2n edges and lambda; lambda cycles over
    # the pool from a seeded start, so every run holds nearly the same mix.
    offset = rng.randrange(len(_HARD_EDGE_WEIGHTS))
    slot = 0
    for n, count in ISING_COUNTS.items():
        for _ in range(count):
            graph = random_connected_graph(rng, n, 2 * n)
            lam = _HARD_EDGE_WEIGHTS[(offset + slot) % len(_HARD_EDGE_WEIGHTS)]
            slot += 1
            ops.append(
                Op(
                    f"ising n={n} lambda={lam}",
                    ("eval",),
                    (),
                    hom_instance(graph, ising_matrix(lam)),
                    oracles.ising_direct(graph, lam),
                    relabel_variables,
                )
            )
    for _ in range(2):
        instance = _hard_mixed(rng, oracles, 12)
        ops.append(
            Op("mixed n=12", ("eval",), (), instance, oracle_z(oracles, instance), relabel_variables)
        )

    # Routing slice: instances whose hard part is unused or small, so
    # enumerating all 2^n states is needless.
    length = rng.randint(36, 44)
    lam = rng.choice(_HARD_EDGE_WEIGHTS)
    unaries = _path_unaries(rng, length)
    unused_hard = {"spin": ising_matrix(lam).edge_function()}
    ops.append(
        Op(
            f"neq path n={length} + unused hard function",
            ("eval",),
            (),
            _neq_path(length, 0, unaries, unused_hard),
            neq_path_z(length, unaries),
            relabel_variables,
        )
    )
    block = 8
    graph = random_connected_graph(rng, block, 2 * block)
    lam = rng.choice(_HARD_EDGE_WEIGHTS)
    length = rng.randint(28, 34)
    unaries = _path_unaries(rng, length)
    spin = tuple(Constraint("spin", edge) for edge in graph.edges)
    ops.append(
        Op(
            f"hard block n={block} + neq path n={length}",
            ("eval",),
            (),
            _neq_path(
                length,
                block,
                unaries,
                {"spin": ising_matrix(lam).edge_function()},
                extra_constraints=spin,
            ),
            oracles.ising_direct(graph, lam) * neq_path_z(length, unaries),
            relabel_variables,
        )
    )
    return ops


# ---------------------------------------------------------------------------
# enum-reduce: reductions
# ---------------------------------------------------------------------------
#
# Classification cost grows with the table size and the number of
# coordinates that are not pinned, and affine tests with the support size.
# The tables below fix those shapes per arity and draw only positions and
# values from the seed, so an operation costs about the same in every run.

def product_type_table(rng: random.Random, arity: int) -> WeightFunction:
    """A product-type table: one pinned coordinate, one tied to a free one
    (equal or complemented), and unary weights on the free ones."""
    coords = list(range(arity))
    rng.shuffle(coords)
    free = coords[2:]
    pinned = {coords[0]: rng.randrange(2)}
    tied = {coords[1]: (rng.choice(free), rng.randrange(2))}
    weights = {c: (rng.choice(_WEIGHTS), rng.choice(_WEIGHTS)) for c in free}
    scale = rng.choice(_WEIGHTS)
    table = []
    for index in range(1 << arity):
        bits = [index >> (arity - 1 - c) & 1 for c in range(arity)]
        if any(bits[c] != v for c, v in pinned.items()) or any(
            bits[c] != bits[rep] ^ flip for c, (rep, flip) in tied.items()
        ):
            table.append(Fraction(0))
            continue
        value = scale
        for c, pair in weights.items():
            value *= pair[bits[c]]
        table.append(value)
    return WeightFunction(arity, 2, tuple(table))


def pure_affine_table(rng: random.Random, arity: int) -> WeightFunction:
    """One positive weight on a random coset of dimension arity - 2."""
    span = {0}
    while len(span) < 1 << (arity - 2):
        direction = rng.randrange(1, 1 << arity)
        if direction not in span:
            span |= {s ^ direction for s in span}
    origin = rng.randrange(1 << arity)
    weight = rng.choice(_WEIGHTS)
    support = {origin ^ s for s in span}
    return WeightFunction(
        arity, 2, tuple(weight if i in support else Fraction(0) for i in range(1 << arity))
    )


def _pins(rng: random.Random, variables: list[int]) -> list[Constraint]:
    chosen = rng.sample(variables, 3)
    return [
        Constraint("delta0", (chosen[0],)),
        Constraint("delta1", (chosen[1],)),
        Constraint(rng.choice(("delta0", "delta1")), (chosen[2],)),
    ]


def reduction_ops(rng: random.Random, oracles) -> list[Op]:
    """Reductions that call the evaluator many times on nearly the same catalog."""
    ops = []
    for arity in (8, 9, 10, 11, 12):
        n = arity + 2
        variables = list(range(n))

        # Interpolation of one normalised unary over a product-type catalog:
        # four occurrences, so five evaluator calls.
        constraints = [Constraint("big", tuple(rng.sample(variables, arity)))]
        constraints += [Constraint("u", (v,)) for v in rng.sample(variables, 4)]
        constraints.append(Constraint("eq", tuple(rng.sample(variables, 2))))
        functions = {
            "big": product_type_table(rng, arity),
            "u": WeightFunction(1, 2, (Fraction(1), rng.choice(_WEIGHTS))),
            "eq": binary_equality(),
        }
        instance = Instance(n, 2, functions, tuple(constraints))
        ops.append(
            Op(
                f"interpolate arity={arity}",
                ("reduce", "interpolate"),
                ("--unary", "u", "--point", rng.choice(("1/2", "3", "5/2"))),
                instance,
                oracle_z(oracles, instance),
                permute_large_tables,
            )
        )

        # Pin elimination over a product-type catalog.  The tie's weights
        # (w, 0, 0, 1) with w != 1 make the family asymmetric under flipping,
        # so the reduction makes four evaluator calls.
        constraints = [Constraint("big", tuple(rng.sample(variables, arity)))]
        constraints.append(Constraint("tie", tuple(rng.sample(variables, 2))))
        constraints += _pins(rng, variables)
        functions = {
            "big": product_type_table(rng, arity),
            "tie": WeightFunction(2, 2, (rng.choice(_WEIGHTS), Fraction(0), Fraction(0), Fraction(1))),
            "delta0": delta(0),
            "delta1": delta(1),
        }
        instance = Instance(n, 2, functions, tuple(constraints))
        ops.append(
            Op(
                f"pin-vars product-type arity={arity}",
                ("reduce", "pin-vars"),
                (),
                instance,
                oracle_z(oracles, instance),
                permute_large_tables,
            )
        )

        # Pin elimination over a pure-affine catalog.  xor3 keeps the family
        # off the product-type route and, being odd, asymmetric under flipping.
        constraints = [Constraint("big", tuple(rng.sample(variables, arity)))]
        constraints.append(Constraint("xor3", tuple(rng.sample(variables, 3))))
        constraints += _pins(rng, variables)
        functions = {
            "big": pure_affine_table(rng, arity),
            "xor3": parity_indicator(3),
            "delta0": delta(0),
            "delta1": delta(1),
        }
        instance = Instance(n, 2, functions, tuple(constraints))
        ops.append(
            Op(
                f"pin-vars pure-affine arity={arity}",
                ("reduce", "pin-vars"),
                (),
                instance,
                oracle_z(oracles, instance),
                permute_large_tables,
            )
        )

    # Moebius pin elimination at q=3, where the evaluator enumerates.  Every
    # table entry is positive, so the cost is set by n and the constraint count.
    for n in (5, 6):
        pair = [
            WeightFunction(2, 3, tuple(rng.choice(_WEIGHTS) for _ in range(9)))
            for _ in range(2)
        ]
        constraints = [Constraint("diseq", tuple(rng.sample(range(n), 3)))]
        constraints += [
            Constraint(rng.choice(("h0", "h1")), tuple(rng.sample(range(n), 2)))
            for _ in range(2 * n)
        ]
        functions = {"diseq": full_disequality(3), "h0": pair[0], "h1": pair[1]}
        instance = Instance(n, 3, functions, tuple(constraints))
        ops.append(
            Op(
                f"mobius-pin q=3 n={n}",
                ("reduce", "mobius-pin"),
                (),
                instance,
                oracles.distinct_filtered_z(instance, 0),
                relabel_variables,
            )
        )
    return ops


def enum_reduce(rng: random.Random, oracles) -> tuple[list[Op], float]:
    ops = enumeration_ops(rng, oracles) + reduction_ops(rng, oracles)
    rng.shuffle(ops)
    return ops, 97.0


BUILDERS = {
    "tractable-scale": tractable_scale,
    "enum-reduce": enum_reduce,
}


def build(name: str, seed: int, workdir: Path, oracles) -> Workload:
    """Draw the workload's operations from the seed and compute expected values."""
    rng = random.Random(f"{name}/{seed}")
    ops, tail = BUILDERS[name](rng, oracles)
    return Workload(name, ops, tail, seed, workdir)
