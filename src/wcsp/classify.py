"""Dichotomy classification of Boolean weight functions.

A function is *product type* when it factors into unary weights together with
binary equality / disequality ties; it is *pure affine* when its support is an
affine (coset) relation and all non-zero values coincide.  A family where every
member is product type, or every member is pure affine, admits a polynomial
evaluator; any other family is classified hard.

Both classes have affine supports, so each table's support is reduced once to
a coset (its lowest index and the span of the differences from it), whose
rank and basis decide both classes.  Each function's report carries the
witness of every tractable class it belongs to, and the polynomial-time
evaluators in :mod:`wcsp.tractable` run on those witnesses alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import Refusal
from .gf2 import Gf2System, coset_of, coset_system
from .model import Relation, WeightFunction, index_to_tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _require_boolean(fn: WeightFunction | Relation, what: str) -> None:
    if fn.domain_size != 2:
        raise Refusal(f"{what} is only defined for domain size 2")


# ---------------------------------------------------------------------------
# support relations and affineness
# ---------------------------------------------------------------------------

def underlying_relation(fn: WeightFunction) -> Relation:
    """The set of tuples where the function is non-zero."""
    return Relation(fn.arity, fn.domain_size, frozenset(fn.support_indices()))


def is_affine_relation(relation: Relation) -> bool:
    """Whether a Boolean relation is closed under coordinatewise a XOR b XOR c.

    Equivalently: the relation is a coset of a GF(2)-linear space.  The
    empty relation counts as affine.
    """
    _require_boolean(relation, "affine test")
    return not relation.members or coset_of(relation.members) is not None


def has_affine_support(fn: WeightFunction) -> bool:
    return is_affine_relation(underlying_relation(fn))


def is_pure_affine(fn: WeightFunction) -> bool:
    """Affine support, non-empty, and a single shared non-zero value.

    The identically-zero function is *not* pure affine (its support is empty),
    though it is product type.
    """
    _require_boolean(fn, "pure affine test")
    return len({value for value in fn.table if value}) == 1 and has_affine_support(fn)


# ---------------------------------------------------------------------------
# product structure
# ---------------------------------------------------------------------------

def useful_indices(fn: WeightFunction) -> list[int]:
    """Coordinates (0-based) where both slices carry some non-zero weight."""
    _require_boolean(fn, "useful index test")
    k, table = fn.arity, fn.table
    strides = [1 << (k - 1 - i) for i in range(k)]
    return [
        i
        for i, stride in enumerate(strides)
        if any(table[m] and table[m | stride] for m in range(len(table)) if not m & stride)
    ]


def is_product_like(fn: WeightFunction) -> tuple[bool, dict[int, Fraction]]:
    """Whether each useful coordinate has one ratio tying its two slices.

    For a useful coordinate ``i`` the requirement is a single rational
    ``r_i`` with ``f(..0..) == r_i * f(..1..)`` for every setting of the other
    coordinates; rows where both slices vanish are compatible with any ratio.
    Returns the flag and the ratio for each useful coordinate.
    """
    _require_boolean(fn, "product-like test")
    k = fn.arity
    table = fn.table
    ratios: dict[int, Fraction] = {}
    for i in useful_indices(fn):
        stride = 1 << (k - 1 - i)
        ratio: Fraction | None = None
        for index in range(len(table)):
            if index & stride:
                continue
            zero_side = table[index]
            one_side = table[index | stride]
            if not one_side:
                if zero_side:
                    return False, {}
                continue
            current = zero_side / one_side
            if ratio is None:
                ratio = current
            elif ratio != current:
                return False, {}
        assert ratio is not None  # a useful index has a doubly-positive row
        ratios[i] = ratio
    return True, ratios


@dataclass(frozen=True)
class TiedColumnClass:
    """Columns locked together on the support, with per-column polarity.

    ``members`` lists ``(column, complemented)`` pairs; the first member is the
    representative (never complemented).  ``weights`` give the multiplicative
    contribution when the representative takes value 0 resp. 1.
    """

    members: tuple[tuple[int, bool], ...]
    weights: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class ProductWitness:
    """Data reconstructing a product-type function exactly.

    A tuple is in the support iff it matches every pinned column and respects
    every tie; its value is ``scale`` times one weight per tied class.  The
    identically-zero function is witnessed by ``scale == 0`` with no columns.
    """

    arity: int
    constant_columns: tuple[tuple[int, int], ...]
    classes: tuple[TiedColumnClass, ...]
    scale: Fraction


def reconstruct_product_table(witness: ProductWitness) -> tuple[Fraction, ...]:
    """Expand a witness back into a full table (soundness check helper)."""
    k = witness.arity
    table = []
    for index in range(1 << k):
        point = index_to_tuple(index, k, 2)
        if any(point[col] != val for col, val in witness.constant_columns):
            table.append(_ZERO)
            continue
        value = witness.scale
        ok = True
        for cls in witness.classes:
            rep = cls.members[0][0]
            rep_value = point[rep]
            for col, complemented in cls.members:
                if point[col] != (rep_value ^ 1 if complemented else rep_value):
                    ok = False
                    break
            if not ok:
                break
            value = value * cls.weights[rep_value]
        table.append(value if ok else _ZERO)
    return tuple(table)


def is_product_type(fn: WeightFunction) -> tuple[bool, ProductWitness | None]:
    """Decide product type and, when it holds, return an exact witness.

    The support's coset basis must tie the columns into ``rank`` classes,
    and each row must equal its parent row times one class ratio (see
    :func:`_product_witness`).
    """
    _require_boolean(fn, "product type test")
    support = fn.support_indices()
    witness = _product_witness(fn, support, coset_of(support))
    return witness is not None, witness


def _product_witness(
    fn: WeightFunction, support: list[int], coset: tuple[int, dict[int, int]] | None
) -> ProductWitness | None:
    """The product-type witness read off the support and its coset, if any.

    A column's pattern is its bit in each basis vector: 0 pins it to the
    origin's bit, equal patterns tie columns (complemented where their origin
    bits differ).  A row's parent flips back the class of its lowest bit that
    differs from the origin.
    """
    k = fn.arity
    if not support:
        return ProductWitness(k, (), (), _ZERO)
    if coset is None:
        return None
    origin, span = coset
    table = fn.table
    constant_columns = []
    classes: dict[int, list[tuple[int, bool]]] = {}  # pattern -> members
    for col in range(k):
        shift = k - 1 - col
        pattern = sum((vec >> shift & 1) << j for j, vec in enumerate(span.values()))
        side = origin >> shift & 1
        if not pattern:
            constant_columns.append((col, side))
        elif pattern in classes:
            rep = classes[pattern][0][0]
            classes[pattern].append((col, side != origin >> (k - 1 - rep) & 1))
        else:
            classes[pattern] = [(col, False)]
    if len(classes) != len(span):  # implied by the row checks, but cheaper
        return None

    base = table[origin]
    witness_classes = []
    class_of_bit = {}  # column bit -> (class mask, class ratio)
    for members in classes.values():
        mask = sum(1 << (k - 1 - col) for col, _ in members)
        ratio = table[origin ^ mask] / base
        for col, _ in members:
            class_of_bit[1 << (k - 1 - col)] = mask, ratio
        rep_side = origin >> (k - 1 - members[0][0]) & 1
        weights = (ratio, _ONE) if rep_side else (_ONE, ratio)
        witness_classes.append(TiedColumnClass(tuple(members), weights))
    for index in support[1:]:  # support[0] is the origin
        differ = index ^ origin
        mask, ratio = class_of_bit[differ & -differ]
        if table[index] != table[index ^ mask] * ratio:
            return None
    return ProductWitness(k, tuple(constant_columns), tuple(witness_classes), base)


# ---------------------------------------------------------------------------
# family verdicts
# ---------------------------------------------------------------------------

class FamilyVerdict(Enum):
    PRODUCT_TYPE_FP = "PRODUCT_TYPE_FP"
    PURE_AFFINE_FP = "PURE_AFFINE_FP"
    HARD = "HARD"


@dataclass(frozen=True)
class AffineWitness:
    """A pure-affine function: ``level`` on the solutions of ``system``, else 0.

    Row bit ``i`` of the system stands for coordinate ``i`` of the function.
    """

    level: Fraction
    system: Gf2System


@dataclass(frozen=True)
class FunctionReport:
    """Per-function flags; each witness is set exactly when its flag is."""

    name: str
    product_type: bool
    pure_affine: bool
    affine_support: bool
    witness: ProductWitness | None
    affine_witness: AffineWitness | None


@dataclass(frozen=True)
class Verdict:
    """Family-level verdict with one report per catalog function.

    When the family is hard, ``hard_pair`` names a function that is not
    product type and one that is not pure affine (possibly the same).
    """

    family: FamilyVerdict
    per_function: dict[str, FunctionReport]
    hard_pair: tuple[str, str] | None


def classify_function(name: str, fn: WeightFunction) -> FunctionReport:
    _require_boolean(fn, "product type test")
    # Both tractable tests read one coset of the support; pure affine is an
    # affine support with one non-zero level, witnessed with the coset's system.
    support = fn.support_indices()
    coset = coset_of(support)
    witness = _product_witness(fn, support, coset)
    level = fn.table[support[0]] if support else None
    pure = coset is not None and all(fn.table[i] == level for i in support)
    affine = AffineWitness(level, coset_system(fn.arity, *coset)) if pure else None
    return FunctionReport(
        name=name,
        product_type=witness is not None,
        pure_affine=affine is not None,
        affine_support=coset is not None or not support,
        witness=witness,
        affine_witness=affine,
    )


@lru_cache(maxsize=8)
def _table_report(fn: WeightFunction) -> FunctionReport:
    """The report of one table (arity, domain size and entries), unnamed.

    Reductions call the evaluator several times on one catalog, and each call
    classifies it; the few most recent tables cover such a catalog, and the
    bound keeps large tables from piling up over many of them.
    """
    return classify_function("", fn)


def classify_family(functions: Mapping[str, WeightFunction]) -> Verdict:
    """Classify a catalog: product-type family, pure-affine family, or hard.

    When every function satisfies both tractable conditions the product-type
    verdict is preferred.
    """
    reports = {
        name: replace(_table_report(fn), name=name) for name, fn in functions.items()
    }
    if all(r.product_type for r in reports.values()):
        return Verdict(FamilyVerdict.PRODUCT_TYPE_FP, reports, None)
    if all(r.pure_affine for r in reports.values()):
        return Verdict(FamilyVerdict.PURE_AFFINE_FP, reports, None)
    not_product = next(name for name, r in reports.items() if not r.product_type)
    not_affine = next(name for name, r in reports.items() if not r.pure_affine)
    return Verdict(FamilyVerdict.HARD, reports, (not_product, not_affine))
