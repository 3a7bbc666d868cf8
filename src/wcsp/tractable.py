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
from itertools import repeat
from math import ceil, lcm, log2, prod
from operator import itemgetter

# is_pure_affine and affine_system_of are re-exported: perfbench/tracing.py
# wraps them by name.
from .classify import FamilyVerdict, Verdict, classify_family, is_pure_affine  # noqa: F401
from .errors import Refusal
from .gf2 import Gf2System, affine_system_of, count_solutions  # noqa: F401
from .model import MAX_VALUE_BITS, Instance, brute_force_z, check_value_bits, strides, table_indices

_ZERO = Fraction(0)

# Elimination holds its tables in memory, unlike enumeration, which runs in
# constant space under model.DEFAULT_BUDGET.  Without an explicit budget its
# largest table is held to 2**24 exact integers, a few hundred MB at most.
DEFAULT_TABLE_BUDGET = 2**24


class ParityUnionFind:
    """Union-find over variables carrying a parity offset toward the root.

    Uniting two variables with parity 1 declares them complementary.
    :meth:`union` returns ``False`` when a tie contradicts the earlier ones (a
    parity cycle of odd weight), and ``classes`` counts the current classes.
    """

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.rank = [0] * size
        self.offset = [0] * size  # parity relative to the parent link
        self.classes = size

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

    def union(self, u: int, v: int, parity: int) -> bool:
        """Tie ``u`` to ``v`` with the given parity; ``False`` on a contradiction."""
        root_u, parity_u = self.find(u)
        root_v, parity_v = self.find(v)
        if root_u == root_v:
            return parity_u ^ parity_v == parity
        if self.rank[root_u] < self.rank[root_v]:
            root_u, root_v = root_v, root_u
            parity_u, parity_v = parity_v, parity_u
        self.parent[root_v] = root_u
        self.offset[root_v] = parity_u ^ parity_v ^ parity
        if self.rank[root_u] == self.rank[root_v]:
            self.rank[root_u] += 1
        self.classes -= 1
        return True


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


def _witnesses(instance: Instance, verdict: Verdict, kind: str, field: str) -> dict:
    """The witnesses of one kind in the verdict's reports, by function name.

    Refuses a domain other than {0, 1}, and the first reported function
    without a ``field`` witness, pointing at :func:`evaluate`.
    """
    if instance.domain_size != 2:
        raise Refusal(f"the {kind.replace(' ', '-')} evaluator handles domain size 2 only")
    witnesses = {}
    for name, report in verdict.per_function.items():
        witness = getattr(report, field)
        if witness is None:
            raise Refusal(
                f"function {name!r} is not {kind}; "
                "call evaluate() to route the instance instead"
            )
        witnesses[name] = witness
    return witnesses


def eval_product_type(instance: Instance, verdict: Verdict) -> Fraction:
    """Exact partition function of an all-product-type instance, near-linear time.

    Runs on the product-type witnesses in ``verdict``, which classifies the
    used functions; a function without one is refused, pointing at :func:`evaluate`.
    """
    witnesses = _witnesses(instance, verdict, "product type", "witness")
    union = ParityUnionFind(instance.num_variables)
    scales: list[Fraction] = []
    # Factors for one side of one variable, 2 * variable + side, with factor
    # 0 for a pin; each goes to the variable's class once the ties are final.
    # Two flat lists, not a tuple per factor: allocating containers triggers
    # the cyclic garbage collector, whose full passes scan the whole instance.
    sided: list[int] = []
    factors: list[Fraction] = []
    for name, scopes in instance.scopes.items():
        witness = witnesses[name]
        if witness.scale == 0:
            return _ZERO  # a zero function annihilates every assignment
        scales.append(witness.scale ** len(scopes))
        for scope in scopes:
            for col, val in witness.constant_columns:
                sided.append(2 * scope[col] + 1 - val)
                factors.append(_ZERO)
            for cls in witness.classes:
                rep_var = scope[cls.members[0][0]]
                for side in (0, 1):
                    if cls.weights[side] != 1:
                        sided.append(2 * rep_var + side)
                        factors.append(cls.weights[side])
                for col, complemented in cls.members[1:]:
                    if not union.union(rep_var, scope[col], 1 if complemented else 0):
                        # a class with contradictory parities: both of its
                        # sums, hence Z, are 0
                        return _ZERO

    sides: dict[int, tuple[list[Fraction], list[Fraction]]] = {}  # root -> factors
    for key, factor in zip(sided, factors):
        root, parity = union.find(key >> 1)
        if root not in sides:
            sides[root] = ([], [])
        sides[root][(key & 1) ^ parity].append(factor)
    free = union.classes - len(sides)  # unweighted classes each sum to 1 + 1
    totals = [exact_product(low) + exact_product(high) for low, high in sides.values()]
    return exact_product([*scales, *totals, 1 << free])


def eval_pure_affine(instance: Instance, verdict: Verdict) -> Fraction:
    """Exact partition function of an instance whose used functions are pure affine.

    The value is the product of each constraint's non-zero level times the
    GF(2) solution count of the accumulated support systems, both read from
    the pure-affine witnesses in ``verdict``, which classifies the used
    functions; a function without one is refused.  Each row spans only the
    variables its constraint ties.
    """
    witnesses = _witnesses(instance, verdict, "pure affine", "affine_witness")
    rows: list[tuple[int, int, int]] = []
    levels: list[Fraction] = []
    for name, group in instance.scopes.items():
        witness = witnesses[name]
        levels.append(witness.level ** len(group))
        # Coordinate i of every scope in the group: each witness row is then
        # built for all of the group's constraints at once, column by column.
        columns = [list(map(itemgetter(i), group)) for i in range(len(group[0]))]
        for low, mask, constant in witness.system.rows:
            picked = [columns[low + j] for j in range(mask.bit_length()) if mask >> j & 1]
            lows = list(map(min, *picked)) if len(picked) > 1 else picked[0]
            masks = [0] * len(group)
            for column in picked:  # a variable repeated in a scope cancels
                masks = [m ^ 1 << (v - b) for m, v, b in zip(masks, column, lows)]
            rows.extend(zip(lows, masks, repeat(constant)))
    count = count_solutions(Gf2System(instance.num_variables, tuple(rows)))
    return exact_product([*levels, count])


def eval_elimination(instance: Instance, budget: int | None = None) -> Fraction:
    """Exact partition function of any instance by bucket elimination.

    Each constraint becomes a factor over its scope, its table scaled to
    integers, once per function, by the table's common denominator; each
    position of a variable repeated in a scope reads the same coordinate.
    Variables are summed out in min-degree order (Dechter, "Bucket
    elimination", 1999): eliminating one multiplies the factors that mention
    it into a table over it and its current neighbours.  The order, and so
    the largest such table, ``q**(width + 1)`` entries, is fixed before any
    table is built, and the budget (``DEFAULT_TABLE_BUDGET`` when none is
    given) bounds that table.  Each table is built already summed over its
    variable, so no larger one is held.  Variables that no constraint touches
    contribute ``q`` each.
    """
    limit = DEFAULT_TABLE_BUDGET if budget is None else budget
    q = instance.domain_size
    neighbours: dict[int, set[int]] = {}
    for scopes in instance.scopes.values():
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

    for name, scopes in instance.scopes.items():
        table = instance.functions[name].table
        denominator = lcm(*(x.denominator for x in table))
        denominators.append(denominator ** len(scopes))
        scaled = [x.numerator * (denominator // x.denominator) for x in table]
        for scope in scopes:
            place(scope, scaled)

    for v, bucket in zip(order, buckets):
        # v is the last, least significant, coordinate of the bucket's table,
        # so summing it out adds runs of q consecutive entries.
        frame = (*dict.fromkeys(u for scope, _ in bucket for u in scope if u != v), v)
        columns = []
        for scope, table in bucket:
            step = dict.fromkeys(frame, 0)  # a repeated variable adds each stride
            for u, stride in zip(scope, strides(len(scope), q)):
                step[u] += stride
            offsets = [[d * s for d in range(q)] for s in step.values()]
            columns.append(map(table.__getitem__, table_indices(offsets)))
        weights = map(prod, zip(*columns))
        # q references to one iterator: zip takes runs of q
        place(frame[:-1], list(map(sum, zip(*[weights] * q))))
    return Fraction(_tree_product(numerators), _tree_product(denominators))


def evaluate(
    instance: Instance, budget: int | None = None, force_oracle: bool = False
) -> tuple[Fraction, str]:
    """Evaluate by the classification-selected route.

    Returns the value and the evaluator used: ``product-type``,
    ``pure-affine`` or ``elimination``, or ``brute-force`` when
    ``force_oracle`` asks for the enumeration oracle.  Only the functions that
    some constraint uses, the keys of ``instance.scopes``, are classified,
    once, and the chosen tractable evaluator runs on that verdict.  Hard
    families, and domains other than {0, 1}, go to bucket elimination, which
    refuses when its largest table exceeds the budget; the oracle refuses
    beyond ``q**n`` states.  Every other route refuses an instance whose
    ``n * log2(q)`` exceeds ``MAX_VALUE_BITS``, before any per-variable
    storage or power of ``q``.
    """
    if force_oracle:
        return brute_force_z(instance, budget), "brute-force"
    q, n = instance.domain_size, instance.num_variables
    # log2(q) >= 1, so past the limit n alone decides (n * log2(q) might not
    # even fit a float)
    check_value_bits(f"{q}**{n} assignments", n if n > MAX_VALUE_BITS else ceil(n * log2(q)))
    if q == 2:
        verdict = classify_family({name: instance.functions[name] for name in instance.scopes})
        if verdict.family is FamilyVerdict.PRODUCT_TYPE_FP:
            return eval_product_type(instance, verdict), "product-type"
        if verdict.family is FamilyVerdict.PURE_AFFINE_FP:
            return eval_pure_affine(instance, verdict), "pure-affine"
    return eval_elimination(instance, budget), "elimination"
