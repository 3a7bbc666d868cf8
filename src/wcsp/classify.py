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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from typing import Mapping

from .errors import Refusal
from .gf2 import Gf2System, column_patterns, coset_of, coset_system
from .model import WeightFunction, strides, table_indices

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _require_boolean(fn: WeightFunction, what: str) -> None:
    if fn.domain_size != 2:
        raise Refusal(f"{what} is only defined for domain size 2")


# ---------------------------------------------------------------------------
# affine supports
# ---------------------------------------------------------------------------

def has_affine_support(fn: WeightFunction) -> bool:
    """Whether the support is affine; an empty support counts as affine."""
    return classify_function(fn).affine_support


def is_pure_affine(fn: WeightFunction) -> bool:
    """Affine support, non-empty, and a single shared non-zero value.

    The identically-zero function is *not* pure affine (its support is empty),
    though it is product type.
    """
    return classify_function(fn).pure_affine


# ---------------------------------------------------------------------------
# product structure
# ---------------------------------------------------------------------------

def useful_indices(fn: WeightFunction) -> list[int]:
    """Coordinates (0-based) where both slices carry some non-zero weight."""
    _require_boolean(fn, "useful index test")
    table = fn.table
    return [
        i
        for i, stride in enumerate(strides(fn.arity, 2))
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
    table = fn.table
    step = strides(fn.arity, 2)
    ratios: dict[int, Fraction] = {}
    for i in useful_indices(fn):
        stride = step[i]
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
    step = strides(k, 2)
    # the support's frame: the pins, each class's two sides, then every
    # column that no pin or class mentions, free at weight 1
    pinned = sum(val * step[col] for col, val in witness.constant_columns)
    mentioned = {col for col, _ in witness.constant_columns}
    sides = []
    for cls in witness.classes:
        mentioned.update(col for col, _ in cls.members)
        sides.append([sum(step[c] for c, flip in cls.members if flip ^ side) for side in (0, 1)])
    free = [col for col in range(k) if col not in mentioned]
    offsets = [[pinned], *sides, *([0, step[col]] for col in free)]
    weights = product(*(cls.weights for cls in witness.classes), *[(_ONE, _ONE)] * len(free))
    table = [_ZERO] * (1 << k)
    for index, point_weights in zip(table_indices(offsets), weights):
        table[index] = witness.scale * prod(point_weights)
    return tuple(table)


def is_product_type(fn: WeightFunction) -> tuple[bool, ProductWitness | None]:
    """Decide product type and, when it holds, return an exact witness.

    The support's coset basis must tie the columns into ``rank`` classes,
    and each row must equal its parent row times one class ratio (see
    :func:`_product_witness`).
    """
    witness = classify_function(fn).witness
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
    for col, pattern in enumerate(column_patterns(k, span)):
        side = origin >> (k - 1 - col) & 1
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
    # Rows are compared as ints: with T the table's ``scaled`` ints,
    # T[s] == T[s ^ mask] * ratio is T[s] * T[origin] ==
    # T[s ^ mask] * T[origin ^ mask].
    scaled = fn.scaled[1]
    witness_classes = []
    class_of_bit = {}  # column bit -> (class mask, T[origin ^ class mask])
    for members in classes.values():
        mask = sum(1 << (k - 1 - col) for col, _ in members)
        ratio = table[origin ^ mask] / base
        for col, _ in members:
            class_of_bit[1 << (k - 1 - col)] = mask, scaled[origin ^ mask]
        rep_side = origin >> (k - 1 - members[0][0]) & 1
        weights = (ratio, _ONE) if rep_side else (_ONE, ratio)
        witness_classes.append(TiedColumnClass(tuple(members), weights))
    at_origin = scaled[origin]
    for index in support[1:]:  # support[0] is the origin
        differ = index ^ origin
        mask, at_flip = class_of_bit[differ & -differ]
        if scaled[index] * at_origin != scaled[index ^ mask] * at_flip:
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
    """Per-function verdicts: a tractable class holds exactly when its witness is set."""

    affine_support: bool
    witness: ProductWitness | None
    affine_witness: AffineWitness | None

    @property
    def product_type(self) -> bool:
        return self.witness is not None

    @property
    def pure_affine(self) -> bool:
        return self.affine_witness is not None


@dataclass(frozen=True)
class Verdict:
    """Family-level verdict with one report per catalog function.

    When the family is hard, ``hard_pair`` names a function that is not
    product type and one that is not pure affine (possibly the same).
    """

    family: FamilyVerdict
    per_function: dict[str, FunctionReport]
    hard_pair: tuple[str, str] | None


def classify_function(fn: WeightFunction) -> FunctionReport:
    _require_boolean(fn, "product type test")
    # Both tractable tests read one coset of the support; pure affine is an
    # affine support with one non-zero level, witnessed with the coset's system.
    support = fn.support_indices()
    coset = coset_of(support)
    witness = _product_witness(fn, support, coset)
    level = fn.table[support[0]] if support else None
    # every non-zero entry is in the support, so one level is a count
    ints = fn.scaled[1]
    pure = coset is not None and ints.count(ints[support[0]]) == len(support)
    affine = AffineWitness(level, coset_system(fn.arity, *coset)) if pure else None
    return FunctionReport(
        affine_support=coset is not None or not support,
        witness=witness,
        affine_witness=affine,
    )


@lru_cache(maxsize=8)
def _table_report(fn: WeightFunction) -> FunctionReport:
    """The report of one table (arity, domain size and entries).

    Equal tables share one report.  A reduction calls the evaluator several
    times on one catalog, and each call classifies it once; the few most
    recent tables cover such a catalog, and the bound keeps large tables from
    piling up over many of them.
    """
    return classify_function(fn)


def classify_family(functions: Mapping[str, WeightFunction]) -> Verdict:
    """Classify a catalog: product-type family, pure-affine family, or hard.

    When every function satisfies both tractable conditions the product-type
    verdict is preferred.
    """
    reports = {name: _table_report(fn) for name, fn in functions.items()}
    if all(r.product_type for r in reports.values()):
        return Verdict(FamilyVerdict.PRODUCT_TYPE_FP, reports, None)
    if all(r.pure_affine for r in reports.values()):
        return Verdict(FamilyVerdict.PURE_AFFINE_FP, reports, None)
    not_product = next(name for name, r in reports.items() if not r.product_type)
    not_affine = next(name for name, r in reports.items() if not r.pure_affine)
    return Verdict(FamilyVerdict.HARD, reports, (not_product, not_affine))
