"""Exact evaluators: two polynomial-time ones and a budgeted fallback.

Product-type instances reduce to parity-tagged variable classes: every
constraint contributes unary weight pairs and equality/complement ties, so the
partition function is a product of per-class sums.  Pure-affine instances
reduce to a weight product times a GF(2) solution count.  Every other family
is #P-hard; it is evaluated by exact bucket elimination, whose cost is set by
the width of the constraint graph rather than by the number of variables.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from math import ceil, log2, prod
from operator import itemgetter, xor

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

    Tying two variables with parity 1 declares them complementary.
    :meth:`tie` ties columns of pairs at once and returns ``False`` at the
    first tie that contradicts the earlier ones (a parity cycle of odd
    weight); :meth:`find_all` gives the roots and parities of a column.
    :meth:`union` and :meth:`find` are their one-element cases, and
    ``classes`` counts the current classes.
    """

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.rank = [0] * size
        self.offset = [0] * size  # parity relative to the parent link; 0 at a root
        self.classes = size

    def _walk(self, vs: Iterable[int]) -> Iterator[int]:
        """Yield the root and then the parity of each of ``vs``, halving its path.

        Lazy, so each walk sees every tie made before it is resumed.
        """
        parent, offset = self.parent, self.offset
        for v in vs:
            parity = 0
            while (up := parent[v]) != v:
                top = parent[up]
                offset[v] ^= offset[up]  # v skips its parent: link it to top
                parent[v] = top
                parity ^= offset[v]
                v = top
            yield v
            yield parity

    def find_all(self, vs: Iterable[int]) -> tuple[list[int], list[int]]:
        """The roots of ``vs`` and their parities relative to those roots."""
        found = list(self._walk(vs))
        return found[::2], found[1::2]

    def tie(self, us: Iterable[int], vs: Iterable[int], parity: int) -> bool:
        """Tie each ``u`` to its ``v`` with the given parity, in order.

        Returns ``False`` at the first tie that contradicts the earlier ones,
        leaving the later ties unmade.
        """
        parent, offset, rank = self.parent, self.offset, self.rank
        walked = self._walk(chain.from_iterable(zip(us, vs)))
        for root_u, parity_u, root_v, parity_v in zip(walked, walked, walked, walked):
            if root_u == root_v:
                if parity_u ^ parity_v != parity:
                    return False
                continue
            if rank[root_u] < rank[root_v]:
                root_u, root_v = root_v, root_u
            parent[root_v] = root_u
            offset[root_v] = parity_u ^ parity_v ^ parity
            if rank[root_u] == rank[root_v]:
                rank[root_u] += 1
            self.classes -= 1
        return True

    def find(self, v: int) -> tuple[int, int]:
        """Return (root, parity of v relative to the root)."""
        (root,), (parity,) = self.find_all((v,))
        return root, parity

    def union(self, u: int, v: int, parity: int) -> bool:
        """Tie ``u`` to ``v`` with the given parity; ``False`` on a contradiction."""
        return self.tie((u,), (v,), parity)


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
    Each function's scopes are read a column at a time: a class ties its
    representative column to each member column, and its weights and pins
    are listed for the whole column.  Equal weights that end on one side of
    one class are counted and raised to that count once.
    """
    witnesses = _witnesses(instance, verdict, "product type", "witness")
    union = ParityUnionFind(instance.num_variables)
    # Z's numerator and denominator factors: each function's scale, raised to
    # its constraint count, and each weighted class's two-sided sum
    numerators: list[int] = []
    denominators: list[int] = []
    # One entry per pin or weighted class side of one constraint, in three
    # flat lists: the variable, the side and the weight as (numerator,
    # denominator), cheap to hash.  A pin weighs its other side 0.  Each
    # entry goes to its variable's class once the ties are final.  A column
    # repeats one weight tuple, as allocating a container per entry triggers
    # the cyclic garbage collector, whose full passes scan the whole instance.
    # `cli.main` pauses the collector, but library callers keep it on.
    variables: list[int] = []
    sides: list[int] = []
    weights: list[tuple[int, int]] = []
    for name, scopes in instance.scopes.items():
        witness = witnesses[name]
        if not witness.scale:
            return _ZERO  # a zero function annihilates every assignment
        numerators.append(witness.scale.numerator ** len(scopes))
        denominators.append(witness.scale.denominator ** len(scopes))
        columns = [list(map(itemgetter(i), scopes)) for i in range(len(scopes[0]))]
        weighted = [(col, 1 - val, (0, 1)) for col, val in witness.constant_columns]
        for cls in witness.classes:
            rep = cls.members[0][0]
            weighted += [
                (rep, side, (w.numerator, w.denominator)) for side, w in enumerate(cls.weights)
            ]
            for col, complemented in cls.members[1:]:
                if not union.tie(columns[rep], columns[col], int(complemented)):
                    # a class with contradictory parities: both of its sums,
                    # hence Z, are 0
                    return _ZERO
        for col, side, weight in weighted:
            if weight != (1, 1):
                variables += columns[col]
                sides += repeat(side, len(scopes))
                weights += repeat(weight, len(scopes))

    roots, parities = union.find_all(variables)
    counts = Counter(zip(roots, map(xor, sides, parities), weights))
    # root -> numerators and denominators of the factors on its side 0, then
    # on its side 1; a class's sum is reduced only as part of Z
    classes: dict[int, tuple[list[int], list[int], list[int], list[int]]] = {}
    for (root, side, (numerator, denominator)), count in counts.items():
        if root not in classes:
            classes[root] = ([], [], [], [])
        factors = classes[root]
        factors[2 * side].append(numerator**count)
        factors[2 * side + 1].append(denominator**count)
    for factors in classes.values():
        low, low_den, high, high_den = map(_tree_product, factors)
        numerators.append(low * high_den + high * low_den)
        denominators.append(low_den * high_den)
    free = union.classes - len(classes)  # unweighted classes each sum to 1 + 1
    return Fraction(_tree_product(numerators) << free, _tree_product(denominators))


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

    Each constraint becomes a factor over its scope, its table's
    ``scaled`` ints over their common denominator; each
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
    buckets: list[list[tuple[tuple[int, ...], Sequence[int]]]] = [[] for _ in order]
    denominators: list[int] = []

    def place(scope: tuple[int, ...], table: Sequence[int]) -> None:
        if scope:
            buckets[min(position[v] for v in scope)].append((scope, table))
        else:
            numerators.append(table[0])

    for name, scopes in instance.scopes.items():
        denominator, scaled = instance.functions[name].scaled
        denominators.append(denominator ** len(scopes))
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
