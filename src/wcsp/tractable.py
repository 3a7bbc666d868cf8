"""Polynomial-time evaluators for the two tractable families.

Product-type instances reduce to parity-tagged variable classes: every
constraint contributes unary weight pairs and equality/complement ties, so the
partition function is a product of per-class sums.  Pure-affine instances
reduce to a weight product times a GF(2) solution count.
"""

from __future__ import annotations

from fractions import Fraction

from .classify import (
    FamilyVerdict,
    ProductWitness,
    classify_family,
    is_product_type,
    is_pure_affine,
    underlying_relation,
)
from .errors import Refusal
from .gf2 import Gf2System, affine_system_of, count_solutions
from .model import Instance, brute_force_z

_ZERO = Fraction(0)


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


def eval_product_type(
    instance: Instance, witnesses: dict[str, ProductWitness] | None = None
) -> Fraction:
    """Exact partition function of an all-product-type instance, near-linear time.

    Refuses (pointing at the brute-force oracle) when some catalog function is
    not product type.  Witnesses may be passed in to skip re-classification.
    """
    if instance.domain_size != 2:
        raise Refusal("the product-type evaluator handles domain size 2 only")
    if witnesses is None:
        witnesses = {}
        for name, fn in instance.functions.items():
            ok, witness = is_product_type(fn)
            if not ok:
                raise Refusal(
                    f"function {name!r} is not product type; "
                    "evaluate with the brute-force oracle instead"
                )
            witnesses[name] = witness

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
    """Exact partition function of an all-pure-affine instance.

    The value is the product of each constraint's non-zero level times the
    GF(2) solution count of the accumulated support systems.
    """
    if instance.domain_size != 2:
        raise Refusal("the pure-affine evaluator handles domain size 2 only")
    levels: dict[str, Fraction] = {}
    systems: dict[str, Gf2System] = {}
    for name, fn in instance.functions.items():
        if not is_pure_affine(fn):
            raise Refusal(
                f"function {name!r} is not pure affine; "
                "evaluate with the brute-force oracle instead"
            )
        levels[name] = fn.table[fn.support_indices()[0]]
        systems[name] = affine_system_of(underlying_relation(fn))

    rows: list[tuple[int, int]] = []
    for c in instance.constraints:
        arity = len(c.scope)
        for mask, constant in systems[c.function].rows:
            var_mask = 0
            for pos in range(arity):
                if mask >> pos & 1:
                    var_mask ^= 1 << c.scope[pos]
            rows.append((var_mask, constant))
    count = count_solutions(Gf2System(instance.num_variables, tuple(rows)))
    return exact_product([*(levels[c.function] for c in instance.constraints), count])


def evaluate(
    instance: Instance, budget: int | None = None, force_oracle: bool = False
) -> tuple[Fraction, str]:
    """Evaluate by the classification-selected route.

    Returns the value and the evaluator used: ``product-type``,
    ``pure-affine``, or ``brute-force``.  Hard families fall back to the
    enumeration oracle, which refuses beyond its budget.
    """
    if not force_oracle and instance.domain_size == 2:
        verdict = classify_family(instance.functions)
        if verdict.family is FamilyVerdict.PRODUCT_TYPE_FP:
            witnesses = {
                name: report.witness for name, report in verdict.per_function.items()
            }
            return eval_product_type(instance, witnesses), "product-type"
        if verdict.family is FamilyVerdict.PURE_AFFINE_FP:
            return eval_pure_affine(instance), "pure-affine"
    return brute_force_z(instance, budget), "brute-force"
