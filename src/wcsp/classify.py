"""Dichotomy classification of Boolean weight functions.

A function is *product type* when it factors into unary weights together with
binary equality / disequality ties; it is *pure affine* when its support is an
affine (coset) relation and all non-zero values coincide.  A family where every
member is product type, or every member is pure affine, admits a polynomial
evaluator; any other family is classified hard.

Classification decisions here are purely syntactic on the table.  Each
function's report carries the witness of every tractable class it belongs to,
and the polynomial-time evaluators in :mod:`wcsp.tractable` run on those
witnesses alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import InputError, Refusal
from .gf2 import Gf2System, affine_system_of
from .model import Relation, WeightFunction, index_to_tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _require_boolean(fn: WeightFunction, what: str) -> None:
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

    Equivalently: the relation is a coset of a GF(2)-linear space, which is
    exactly when :func:`affine_system_of` finds a system for it.  The empty
    relation counts as affine.
    """
    try:
        affine_system_of(relation)
    except InputError:
        return False
    return True


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
    k = fn.arity
    table = fn.table
    out = []
    for i in range(k):
        stride = 1 << (k - 1 - i)
        found = False
        for index in range(len(table)):
            if index & stride:
                continue
            if table[index] and table[index | stride]:
                found = True
                break
        if found:
            out.append(i)
    return out


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

    The test is polynomial in the table size: group the support columns into
    equal-or-complemented classes, require the class patterns to exhaust all
    combinations, then check that values factor through per-class ratios
    against a base point.
    """
    _require_boolean(fn, "product type test")
    k = fn.arity
    support = fn.support_indices()
    if not support:
        return True, ProductWitness(k, (), (), _ZERO)
    rows = [index_to_tuple(m, k, 2) for m in support]
    columns = [tuple(row[i] for row in rows) for i in range(k)]
    height = len(rows)

    constant_columns = []
    classes: list[list[tuple[int, bool]]] = []
    for i in range(k):
        col = columns[i]
        if col.count(col[0]) == height:
            constant_columns.append((i, col[0]))
            continue
        for cls in classes:
            rep_col = columns[cls[0][0]]
            if col == rep_col:
                cls.append((i, False))
                break
            if all(a != b for a, b in zip(col, rep_col)):
                cls.append((i, True))
                break
        else:
            classes.append([(i, False)])

    if height != 1 << len(classes):
        return False, None

    member_set = frozenset(support)
    base_index = support[0]
    base = rows[0]
    base_value = fn.table[base_index]
    class_masks = []
    ratios = []
    for cls in classes:
        mask = 0
        for col, _complemented in cls:
            mask |= 1 << (k - 1 - col)
        flipped = base_index ^ mask
        if flipped not in member_set:
            return False, None
        class_masks.append(mask)
        ratios.append(fn.table[flipped] / base_value)

    for row, index in zip(rows, support):
        expected = base_value
        for cls, ratio in zip(classes, ratios):
            rep = cls[0][0]
            if row[rep] != base[rep]:
                expected = expected * ratio
        if fn.table[index] != expected:
            return False, None

    witness_classes = []
    for cls, ratio in zip(classes, ratios):
        rep = cls[0][0]
        weights = (_ONE, ratio) if base[rep] == 0 else (ratio, _ONE)
        witness_classes.append(TiedColumnClass(tuple(cls), weights))
    witness = ProductWitness(
        k, tuple(constant_columns), tuple(witness_classes), base_value
    )
    return True, witness


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
    product_type, witness = is_product_type(fn)
    # Pure affine is affine support plus one non-zero level (see is_pure_affine).
    # The support's system is the one coset test and half the witness.
    try:
        system = affine_system_of(underlying_relation(fn))
    except InputError:
        system = None
    levels = {value for value in fn.table if value}
    affine = AffineWitness(*levels, system) if system and len(levels) == 1 else None
    return FunctionReport(
        name=name,
        product_type=product_type,
        pure_affine=affine is not None,
        affine_support=system is not None,
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
