"""Exact evaluators: two polynomial-time ones and a budgeted fallback.

Product-type instances reduce to parity-tagged variable classes: every
constraint contributes unary weight pairs and equality/complement ties, so the
partition function is a product of per-class sums.  Pure-affine instances
reduce to a weight product times a GF(2) solution count.  Every other family
is #P-hard; it is evaluated by exact bucket elimination, whose cost is set by
the width of the constraint graph rather than by the number of variables.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import lcm, prod

# is_pure_affine and affine_system_of are re-exported: perfbench/tracing.py
# wraps them by name.
from .classify import FamilyVerdict, Verdict, classify_family, is_pure_affine  # noqa: F401
from .errors import Refusal
from .gf2 import Gf2System, affine_system_of, count_solutions  # noqa: F401
from .model import Instance, brute_force_z, tuple_to_index

_ZERO = Fraction(0)

# Elimination holds its tables in memory, unlike enumeration, which runs in
# constant space under model.DEFAULT_BUDGET.  Without an explicit budget its
# largest table is held to 2**24 exact integers, a few hundred MB at most.
DEFAULT_TABLE_BUDGET = 2**24


class ParityUnionFind:
    """Union-find over variables carrying a parity offset toward the root.

    Uniting two variables with parity 1 declares them complementary; a cycle
    whose parities contradict marks the class annihilated rather than raising.
    """

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.rank = [0] * size
        self.offset = [0] * size  # parity relative to the parent link
        self.dead = [False] * size  # meaningful at roots only

    def find(self, v: int) -> tuple[int, int]:
        """Return (root, parity of v relative to the root), compressing paths."""
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        root = v
        parity = 0
        for node in reversed(path):
            parity ^= self.offset[node]
            self.parent[node] = root
            self.offset[node] = parity
        if path:
            return root, self.offset[path[0]]
        return root, 0

    def union(self, u: int, v: int, parity: int) -> None:
        root_u, parity_u = self.find(u)
        root_v, parity_v = self.find(v)
        if root_u == root_v:
            if parity_u ^ parity_v != parity:
                self.dead[root_u] = True
            return
        if self.rank[root_u] < self.rank[root_v]:
            root_u, root_v = root_v, root_u
            parity_u, parity_v = parity_v, parity_u
        self.parent[root_v] = root_u
        self.offset[root_v] = parity_u ^ parity_v ^ parity
        self.dead[root_u] = self.dead[root_u] or self.dead[root_v]
        if self.rank[root_u] == self.rank[root_v]:
            self.rank[root_u] += 1


def _tree_product(values: list[int]) -> int:
    """Product of ints, multiplied pairwise level by level (a balanced tree)."""
    while len(values) > 1:
        paired = [a * b for a, b in zip(values[::2], values[1::2])]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0] if values else 1


def exact_product(factors: list[Fraction | int]) -> Fraction:
    """Exact product of non-negative rationals at near-linear big-integer cost.

    A running ``Fraction`` product reduces by a gcd of the ever-growing
    partial result at every step, which is quadratic in the result's size.
    Here numerators and denominators are multiplied as plain ints in balanced
    product trees, and the result is reduced once.
    """
    numerators: list[int] = []
    denominators: list[int] = []
    for factor in factors:
        numerator = factor.numerator
        if not numerator:
            return _ZERO
        if numerator != 1:
            numerators.append(numerator)
        if factor.denominator != 1:
            denominators.append(factor.denominator)
    return Fraction(_tree_product(numerators), _tree_product(denominators))


def _classify_used(instance: Instance) -> Verdict:
    """Classify the functions some constraint uses; unused ones never matter.

    Reports of recent tables are kept, so an evaluator called by
    :func:`evaluate` reads the reports that routing has just built.
    """
    used = {c.function for c in instance.constraints}
    return classify_family(
        {name: fn for name, fn in instance.functions.items() if name in used}
    )


def _refuse(name: str, kind: str) -> Refusal:
    return Refusal(
        f"function {name!r} is not {kind}; call evaluate() to route the instance instead"
    )


def eval_product_type(instance: Instance) -> Fraction:
    """Exact partition function of an all-product-type instance, near-linear time.

    Runs on the product-type witnesses of the used functions, and refuses
    (pointing at :func:`evaluate`) when a used function has none.
    """
    if instance.domain_size != 2:
        raise Refusal("the product-type evaluator handles domain size 2 only")
    witnesses = {}
    for report in _classify_used(instance).per_function.values():
        if report.witness is None:
            raise _refuse(report.name, "product type")
        witnesses[report.name] = report.witness

    union = ParityUnionFind(instance.num_variables)
    scales: list[Fraction] = []
    # Factors for one side of one variable, 2 * variable + side, with factor
    # 0 for a pin; each goes to the variable's class once the ties are final.
    # Two flat lists, not a tuple per factor: allocating containers triggers
    # the cyclic garbage collector, whose full passes scan the whole instance.
    sided: list[int] = []
    factors: list[Fraction] = []
    for c in instance.constraints:
        witness = witnesses[c.function]
        if witness.scale == 0:
            return _ZERO  # a zero function annihilates every assignment
        scales.append(witness.scale)
        for col, val in witness.constant_columns:
            sided.append(2 * c.scope[col] + 1 - val)
            factors.append(_ZERO)
        for cls in witness.classes:
            rep_var = c.scope[cls.members[0][0]]
            for side in (0, 1):
                if cls.weights[side] != 1:
                    sided.append(2 * rep_var + side)
                    factors.append(cls.weights[side])
            for col, complemented in cls.members[1:]:
                union.union(rep_var, c.scope[col], 1 if complemented else 0)

    # A merge carries the dead flag to the new root, so any flag means a root's
    # class has contradictory parities: both of its sums, hence Z, are 0.
    if any(union.dead):
        return _ZERO
    sides: dict[int, tuple[list[Fraction], list[Fraction]]] = {}  # root -> factors
    for key, factor in zip(sided, factors):
        root, parity = union.find(key >> 1)
        if root not in sides:
            sides[root] = ([], [])
        sides[root][(key & 1) ^ parity].append(factor)
    classes = sum(1 for v, parent in enumerate(union.parent) if v == parent)
    free = classes - len(sides)  # unweighted classes each sum to 1 + 1
    totals = [exact_product(low) + exact_product(high) for low, high in sides.values()]
    return exact_product([*scales, *totals, 1 << free])


def eval_pure_affine(instance: Instance) -> Fraction:
    """Exact partition function of an instance whose used functions are pure affine.

    The value is the product of each constraint's non-zero level times the
    GF(2) solution count of the accumulated support systems, both read from
    the used functions' pure-affine witnesses; a used function without one
    is refused.
    """
    if instance.domain_size != 2:
        raise Refusal("the pure-affine evaluator handles domain size 2 only")
    witnesses = {}
    for report in _classify_used(instance).per_function.values():
        if report.affine_witness is None:
            raise _refuse(report.name, "pure affine")
        witnesses[report.name] = report.affine_witness

    rows: list[tuple[int, int]] = []
    for c in instance.constraints:
        arity = len(c.scope)
        for mask, constant in witnesses[c.function].system.rows:
            var_mask = 0
            for pos in range(arity):
                if mask >> pos & 1:
                    var_mask ^= 1 << c.scope[pos]
            rows.append((var_mask, constant))
    count = count_solutions(Gf2System(instance.num_variables, tuple(rows)))
    return exact_product(
        [*(witnesses[c.function].level for c in instance.constraints), count]
    )


def eval_elimination(instance: Instance, budget: int | None = None) -> Fraction:
    """Exact partition function of any instance by bucket elimination.

    Each constraint becomes a factor over its distinct variables (a repeated
    variable is read through the table index), scaled to integers by the
    common denominator of its table.  Variables are summed out in min-degree
    order (Dechter, "Bucket elimination", 1999): eliminating one multiplies
    the factors that mention it into a table over it and its current
    neighbours.  The order, and so the largest such table, ``q**(width + 1)``
    entries, is fixed before any table is built, and the budget
    (``DEFAULT_TABLE_BUDGET`` when none is given) bounds that table.  Each
    table is built already summed over its variable, so no larger one is held.
    Variables that no constraint touches contribute ``q`` each.
    """
    limit = DEFAULT_TABLE_BUDGET if budget is None else budget
    q = instance.domain_size
    scopes = [tuple(dict.fromkeys(c.scope)) for c in instance.constraints]
    neighbours: dict[int, set[int]] = {}
    for scope in scopes:
        for v in scope:
            neighbours.setdefault(v, set()).update(u for u in scope if u != v)
    numerators = [q ** (instance.num_variables - len(neighbours))]
    heap = [(len(adjacent), v) for v, adjacent in neighbours.items()]
    heapify(heap)
    order: list[int] = []
    while heap:
        degree, v = heappop(heap)
        if v not in neighbours or degree != len(neighbours[v]):
            continue  # eliminated already, or its degree changed since the push
        if q ** (degree + 1) > limit:
            raise Refusal(
                f"bucket elimination reaches width {degree}: its table of "
                f"{q}**{degree + 1} entries exceeds the budget of {limit}"
            )
        adjacent = neighbours.pop(v)
        for u in adjacent:
            neighbours[u] |= adjacent
            neighbours[u] -= {u, v}
            heappush(heap, (len(neighbours[u]), u))
        order.append(v)

    position = {v: i for i, v in enumerate(order)}
    buckets: list[list[tuple[tuple[int, ...], list[int]]]] = [[] for _ in order]
    denominators: list[int] = []

    def place(scope: tuple[int, ...], table: list[int]) -> None:
        if scope:
            buckets[min(position[v] for v in scope)].append((scope, table))
        else:
            numerators.append(table[0])

    for c, scope in zip(instance.constraints, scopes):
        table = instance.functions[c.function].table
        if len(scope) < len(c.scope):
            slots = [scope.index(v) for v in c.scope]
            table = tuple(
                table[tuple_to_index([point[s] for s in slots], q)]
                for point in product(range(q), repeat=len(scope))
            )
        denominator = lcm(*(x.denominator for x in table))
        denominators.append(denominator)
        place(scope, [x.numerator * (denominator // x.denominator) for x in table])

    for v, bucket in zip(order, buckets):
        # v is the last, least significant, coordinate of the bucket's table,
        # so summing it out adds runs of q consecutive entries.
        frame = (*dict.fromkeys(u for scope, _ in bucket for u in scope if u != v), v)
        at = {u: i for i, u in enumerate(frame)}
        strides = [
            [(at[u], q ** (len(scope) - 1 - j)) for j, u in enumerate(scope)]
            for scope, _ in bucket
        ]
        weights = (
            prod(
                table[sum(point[i] * step for i, step in stride)]
                for (_, table), stride in zip(bucket, strides)
            )
            for point in product(range(q), repeat=len(frame))
        )
        runs = [weights] * q  # q references to one iterator: zip takes runs of q
        place(frame[:-1], [sum(run) for run in zip(*runs)])
    return Fraction(_tree_product(numerators), _tree_product(denominators))


def evaluate(
    instance: Instance, budget: int | None = None, force_oracle: bool = False
) -> tuple[Fraction, str]:
    """Evaluate by the classification-selected route.

    Returns the value and the evaluator used: ``product-type``,
    ``pure-affine`` or ``elimination``, or ``brute-force`` when
    ``force_oracle`` asks for the enumeration oracle.  Only the functions that
    some constraint uses are classified.  Hard families, and domains other
    than {0, 1}, go to bucket elimination, which refuses when its largest
    table exceeds the budget; the oracle refuses beyond ``q**n`` states.
    """
    if force_oracle:
        return brute_force_z(instance, budget), "brute-force"
    if instance.domain_size == 2:
        verdict = _classify_used(instance)
        if verdict.family is FamilyVerdict.PRODUCT_TYPE_FP:
            return eval_product_type(instance), "product-type"
        if verdict.family is FamilyVerdict.PURE_AFFINE_FP:
            return eval_pure_affine(instance), "pure-affine"
    return eval_elimination(instance, budget), "elimination"
