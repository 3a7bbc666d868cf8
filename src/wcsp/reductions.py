"""Executable reductions between counting CSP instances.

Everything here transforms instances or function tables and computes partition
values through a caller-supplied evaluator, so each construction can be
cross-checked exactly against the enumeration oracle:

* coordinate projection / pinning / merging of tables,
* replacing a projected function by its preimage with fresh variables,
* recovering one unary weight by polynomial interpolation,
* parity-of-k gadgets over ternary parity and a zero pin,
* symmetrization of parity-supported ternary functions,
* unary extraction from affine-supported, non-pure-affine functions,
* Moebius inversion over the partition lattice, which removes a full
  disequality or the pins of any domain size (Boolean pins are its q = 2 case).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, permutations
from math import factorial, isqrt, prod
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InputError, InvariantViolation, Refusal
from .gf2 import coset_of
from .library import delta, parity_indicator, unary_weight
from .model import (
    Constraint,
    Instance,
    WeightFunction,
    check_value_bits,
    index_to_tuple,
    strides,
    table_indices,
    tuple_to_index,
)

Evaluator = Callable[[Instance], Fraction]

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# table transforms
# ---------------------------------------------------------------------------

def project(fn: WeightFunction, coordinates: Sequence[int]) -> WeightFunction:
    """Sum the function over all coordinates outside the given increasing set."""
    coords = tuple(coordinates)
    if list(coords) != sorted(set(coords)):
        raise InputError(f"projection coordinates must be strictly increasing, got {coords}")
    for i in coords:
        if not 0 <= i < fn.arity:
            raise InputError(f"projection coordinate {i} outside arity {fn.arity}")
    q = fn.domain_size
    # a scatter: each point adds its value at the index of its kept coordinates
    kept = dict(zip(coords, strides(len(coords), q)))
    offsets = [[d * kept.get(i, 0) for d in range(q)] for i in range(fn.arity)]
    table = [_ZERO] * q ** len(coords)
    for sub, value in zip(table_indices(offsets), fn.table):
        if value:
            table[sub] += value
    return WeightFunction(len(coords), q, tuple(table))


def pin_coordinate(fn: WeightFunction, coordinate: int, value: int) -> WeightFunction:
    """Fix one coordinate to a domain value, dropping it from the arity."""
    if not 0 <= coordinate < fn.arity:
        raise InputError(f"pin coordinate {coordinate} outside arity {fn.arity}")
    if not 0 <= value < fn.domain_size:
        raise InputError(f"pin value {value} outside domain of size {fn.domain_size}")
    q = fn.domain_size
    offsets = [[d * s for d in range(q)] for s in strides(fn.arity, q)]
    offsets[coordinate] = [offsets[coordinate][value]]  # a single offset pins
    table = map(fn.table.__getitem__, table_indices(offsets))
    return WeightFunction(fn.arity - 1, q, tuple(table))


def project_out(fn: WeightFunction, coordinate: int) -> WeightFunction:
    """Sum one coordinate away; equals the pointwise sum of its two pins."""
    keep = tuple(i for i in range(fn.arity) if i != coordinate)
    if len(keep) == fn.arity:
        raise InputError(f"coordinate {coordinate} outside arity {fn.arity}")
    return project(fn, keep)


def merge_coordinates(fn: WeightFunction, first: int, second: int) -> WeightFunction:
    """Identify two coordinates, keeping the later one as the shared input."""
    if first == second:
        raise InputError("cannot merge a coordinate with itself")
    for i in (first, second):
        if not 0 <= i < fn.arity:
            raise InputError(f"merge coordinate {i} outside arity {fn.arity}")
    lo, hi = sorted((first, second))
    q = fn.domain_size
    step = strides(fn.arity, q)
    step[hi] += step[lo]  # the kept coordinate reads both
    del step[lo]
    offsets = [[d * s for d in range(q)] for s in step]
    table = map(fn.table.__getitem__, table_indices(offsets))
    return WeightFunction(fn.arity - 1, q, tuple(table))


# ---------------------------------------------------------------------------
# projection simulation
# ---------------------------------------------------------------------------

def _fresh_name(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    name = base
    while name in taken:
        name += "_"
    return name


def simulate_projection(
    instance: Instance,
    projected_name: str,
    preimage: WeightFunction,
    coordinates: Sequence[int],
) -> Instance:
    """Replace every constraint on a projected function by its preimage.

    Each replaced constraint keeps its scope on the projection coordinates and
    receives fresh variables elsewhere; summing the fresh variables out
    recovers the original weight, so the partition value is preserved exactly.
    Refuses when the named function is not the projection of ``preimage``.
    """
    if projected_name not in instance.functions:
        raise InputError(f"unknown function {projected_name!r}")
    target = instance.functions[projected_name]
    coords = tuple(coordinates)
    if preimage.domain_size != instance.domain_size:
        raise InputError("preimage domain size differs from the instance")
    if project(preimage, coords).table != target.table:
        raise Refusal(
            f"{projected_name!r} is not the projection of the supplied function "
            f"onto coordinates {coords}"
        )
    catalog = {n: f for n, f in instance.functions.items() if n != projected_name}
    preimage_name = _fresh_name(projected_name + "_lift", catalog)
    catalog[preimage_name] = preimage

    hidden = [i for i in range(preimage.arity) if i not in coords]
    next_var = instance.num_variables
    constraints = []
    for c in instance.constraints:
        if c.function != projected_name:
            constraints.append(c)
            continue
        scope = [0] * preimage.arity
        for j, pos in enumerate(coords):
            scope[pos] = c.scope[j]
        for pos in hidden:
            scope[pos] = next_var
            next_var += 1
        constraints.append(Constraint(preimage_name, tuple(scope)))
    return Instance(next_var, instance.domain_size, catalog, tuple(constraints))


# ---------------------------------------------------------------------------
# pins and relabelling
# ---------------------------------------------------------------------------

def is_flip_symmetric(functions: Mapping[str, WeightFunction]) -> bool:
    """True when no table changes under negating all arguments.

    The q = 2 case of :func:`is_permutation_symmetric`; other domains are refused.
    """
    if any(fn.domain_size != 2 for fn in functions.values()):
        raise Refusal("flip symmetry is only defined for domain size 2")
    return is_permutation_symmetric(functions, 2)


def _split_pins(
    instance: Instance,
) -> tuple[dict[int, int], list[Constraint], dict[str, WeightFunction]] | None:
    """The pinned values, the other constraints, and the functions they use.

    A pin is a unary point mass: one non-zero entry, equal to 1, read off the
    table itself.  Returns ``None`` when a variable is pinned to two values.
    """
    pins: dict[int, int] = {}
    family = {}
    for name, scopes in instance.scopes.items():
        fn = instance.functions[name]
        support = fn.support_indices() if fn.arity == 1 else ()
        if len(support) != 1 or fn.table[support[0]] != 1:
            family[name] = fn
            continue
        for (var,) in scopes:
            if pins.setdefault(var, support[0]) != support[0]:
                return None
    return pins, [c for c in instance.constraints if c.function in family], family


def _relabel(
    instance: Instance,
    functions: dict[str, WeightFunction],
    constraints: Iterable[Constraint],
    image: Mapping[int, int],
    base: int,
) -> Instance:
    """The constraints over new variable ids, with the given catalog.

    Each variable in ``image`` goes to its image, an id below ``base``; every
    other variable takes the next id from ``base`` in order of first use.  The
    result has ``base + n - len(image)`` variables, so variables that no
    constraint uses are counted but never listed.
    """
    label = dict(image)
    fresh = count(base)
    relabelled = []
    for c in constraints:
        for v in c.scope:
            if v not in label:
                label[v] = next(fresh)
        relabelled.append(Constraint(c.function, tuple(label[v] for v in c.scope)))
    return Instance(
        base + instance.num_variables - len(image),
        instance.domain_size,
        functions,
        tuple(relabelled),
    )


def pinning_reduce_boolean(instance: Instance, evaluator: Evaluator) -> Fraction:
    """The q = 2 case of :func:`symmetric_pinning_reduce_q`, for any Boolean family."""
    if instance.domain_size != 2:
        raise Refusal("pin elimination is only defined for domain size 2")
    return symmetric_pinning_reduce_q(instance, evaluator)


# ---------------------------------------------------------------------------
# interpolation of one unary weight
# ---------------------------------------------------------------------------

def _solve_vandermonde(points: list[Fraction], values: list[Fraction]) -> list[Fraction]:
    """Exact coefficients of the polynomial through (points[i], values[i]).

    Newton's divided differences, then Horner steps that multiply the Newton
    form out to monomial coefficients: O(m**2) field operations for m + 1
    points.
    """
    size = len(points)
    if len(set(points)) != size:
        raise InvariantViolation("interpolation points are not distinct")
    newton = list(values)
    for gap in range(1, size):
        for i in reversed(range(gap, size)):
            newton[i] = (newton[i] - newton[i - 1]) / (points[i] - points[i - gap])
    coefficients = [_ZERO] * size
    for k in reversed(range(size)):  # p = p * (x - points[k]) + newton[k]
        for i in reversed(range(1, size - k)):
            coefficients[i] = coefficients[i - 1] - points[k] * coefficients[i]
        coefficients[0] = newton[k] - points[k] * coefficients[0]
    return coefficients


def interpolation_polynomial(
    instance: Instance,
    unary_name: str,
    point: Fraction,
    evaluator: Evaluator,
) -> list[Fraction]:
    """Coefficients of the partition value as a polynomial in the unary weight.

    With ``m`` occurrences of the normalized unary ``(1, c)``, the value is a
    degree-<=m polynomial in the weight; evaluating at powers of ``point``
    (realized by stacking copies of the ``(1, point)`` unary) determines the
    coefficients through an exact Vandermonde solve, by Newton's divided
    differences in O(m**2) rational operations.
    """
    if unary_name not in instance.functions:
        raise InputError(f"unknown function {unary_name!r}")
    fn = instance.functions[unary_name]
    if fn.arity != 1 or fn.domain_size != 2:
        raise InputError(f"{unary_name!r} must be a Boolean unary function")
    if fn.table[0] != 1:
        raise Refusal(f"{unary_name!r} must be normalized to table (1, c)")
    ratio = Fraction(point)
    if ratio <= 0 or ratio == 1:
        raise InputError("interpolation point must be positive and different from 1")

    occurrences = len(instance.scopes.get(unary_name, ()))
    if occurrences > MAX_INTERPOLATION_OCCURRENCES:
        raise Refusal(
            f"{unary_name!r} occurs {occurrences} times; interpolation is "
            f"enforced up to {MAX_INTERPOLATION_OCCURRENCES} occurrences"
        )
    # the evaluated values and the divided differences reach point**(m * m)
    point_bits = ratio.numerator.bit_length() + ratio.denominator.bit_length()
    check_value_bits(
        f"interpolating {unary_name!r} over {occurrences} occurrences at a {point_bits}-bit point",
        occurrences * occurrences * point_bits,
    )
    # about m**2 rational steps on values of up to m**2 * b bits, each
    # quadratic in their size through its gcd
    work = occurrences**6 * point_bits**2
    if work > MAX_INTERPOLATION_WORK:
        raise Refusal(
            f"interpolating {unary_name!r} over {occurrences} occurrences at a {point_bits}-bit "
            f"point: the solve can take about {work} bit operations, beyond the limit of "
            f"{MAX_INTERPOLATION_WORK}"
        )
    probe_name = _fresh_name("probe_unary", instance.functions)
    catalog = {n: f for n, f in instance.functions.items() if n != unary_name}
    catalog[probe_name] = unary_weight(ratio)
    others = tuple(c for c in instance.constraints if c.function != unary_name)
    probes = tuple(Constraint(probe_name, s) for s in instance.scopes.get(unary_name, ()))
    values = [
        evaluator(Instance(instance.num_variables, 2, catalog, others + probes * copies))
        for copies in range(occurrences + 1)
    ]
    points = [ratio**j for j in range(occurrences + 1)]
    return _solve_vandermonde(points, values)


def interpolation_reduce(
    instance: Instance,
    unary_name: str,
    point: Fraction,
    evaluator: Evaluator,
) -> Fraction:
    """Exact partition value recovered by interpolation in the unary weight."""
    coefficients = interpolation_polynomial(instance, unary_name, point, evaluator)
    return polynomial_value(coefficients, instance.functions[unary_name].table[1])


def polynomial_value(coefficients: Sequence[Fraction], x: Fraction) -> Fraction:
    """The polynomial with the given coefficients, lowest degree first, at ``x``."""
    result = _ZERO
    for coefficient in reversed(coefficients):
        result = result * x + coefficient
    return result


# ---------------------------------------------------------------------------
# parity gadgets
# ---------------------------------------------------------------------------

def parity_chain(width: int) -> Instance:
    """A gadget over ternary parity and zero pins realizing odd parity of k inputs.

    Variables ``0..width-1`` are the primary inputs; auxiliaries follow.  Every
    odd-parity primary tuple extends to exactly one satisfying assignment and
    even-parity tuples to none, so the gadget has ``2**(width-1)`` satisfying
    assignments.  Refuses, before building any list, a chain whose variable
    count exceeds ``MAX_VALUE_BITS``, as evaluating it would.
    """
    if width < 1:
        raise InputError(f"parity chain needs at least one input, got {width}")
    # each split adds three variables and hands its two halves width + 2
    # inputs between them, so the chain has max(3, 4 * width - 9) variables
    variables = max(3, 4 * width - 9)
    check_value_bits(f"a parity chain of width {width} has 2**{variables} assignments", variables)
    constraints: list[Constraint] = []
    counter = width

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    def realize(variables: list[int]) -> None:
        if len(variables) == 3:
            constraints.append(Constraint("xor3", tuple(variables)))
            return
        if len(variables) < 3:
            pads = [fresh() for _ in range(3 - len(variables))]
            for pad in pads:
                constraints.append(Constraint("delta0", (pad,)))
            constraints.append(Constraint("xor3", tuple(variables + pads)))
            return
        half = (len(variables) + 1) // 2
        left_sum, right_sum, zero = fresh(), fresh(), fresh()
        realize(variables[:half] + [left_sum])
        realize(variables[half:] + [right_sum])
        constraints.append(Constraint("xor3", (left_sum, right_sum, zero)))
        constraints.append(Constraint("delta0", (zero,)))

    realize(list(range(width)))
    functions = {"xor3": parity_indicator(3), "delta0": delta(0)}
    return Instance(counter, 2, functions, tuple(constraints))


def _exact_sqrt(value: Fraction) -> Fraction:
    num, den = value.numerator, value.denominator
    root_num, root_den = isqrt(num), isqrt(den)
    if root_num * root_num != num or root_den * root_den != den:
        raise InvariantViolation(f"{value} has no exact rational square root")
    return Fraction(root_num, root_den)


def symmetrize_parity(
    fn: WeightFunction,
) -> tuple[WeightFunction, Fraction, WeightFunction]:
    """Symmetrize a parity-supported ternary function and rebalance it.

    Multiplies the function over all six argument orderings, then computes the
    unary weight ``c`` whose threefold product flattens the two support levels
    (the level ratio is a perfect square by construction).  Returns the
    symmetrized function, ``c``, and the flattened (pure affine) function.
    """
    if fn.arity != 3 or fn.domain_size != 2:
        raise InputError("parity symmetrization expects a Boolean ternary function")
    support = frozenset(fn.support_indices())
    odd_support = frozenset((1, 2, 4, 7))
    even_support = frozenset((0, 3, 5, 6))
    if support == odd_support:
        odd_case = True
    elif support == even_support:
        odd_case = False
    else:
        raise Refusal("support must be exactly the odd- or even-parity triples")

    # under an ordering, coordinate i is read at the stride of its new position
    step = strides(3, 2)
    reads = ([(0, step[order.index(i)]) for i in range(3)] for order in permutations(range(3)))
    columns = [map(fn.table.__getitem__, table_indices(offsets)) for offsets in reads]
    symmetrized = WeightFunction(3, 2, tuple(map(prod, zip(*columns))))

    if odd_case:
        level_ratio = symmetrized.lookup((0, 0, 1)) / symmetrized.lookup((1, 1, 1))
    else:
        level_ratio = symmetrized.lookup((0, 0, 0)) / symmetrized.lookup((0, 1, 1))
    balance = _exact_sqrt(level_ratio)

    flattened = tuple(
        symmetrized.table[index] * balance ** bin(index).count("1")
        for index in range(8)
    )
    return symmetrized, balance, WeightFunction(3, 2, flattened)


# ---------------------------------------------------------------------------
# unary extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnaryExtraction:
    """A normalized unary ``(1, ratio)`` with ``ratio`` outside {0, 1}."""

    function: WeightFunction
    ratio: Fraction
    column: int


@dataclass(frozen=True)
class PinRecursion:
    """A strictly smaller function that still carries two non-zero levels."""

    function: WeightFunction
    column: int
    value: int


def extract_unary(fn: WeightFunction) -> UnaryExtraction | PinRecursion:
    """One step toward a non-trivial unary from an unbalanced affine-support table.

    Scans columns left to right for a non-constant one.  If either side of
    that column still carries two distinct non-zero values the function is
    pinned there (0-side preferred) and the caller recurses; otherwise the
    projection onto the column is a scaled ``(1, ratio)`` unary -- the two
    sides of a non-constant column of an affine support are equally large, so
    the scale drops out.
    """
    if fn.domain_size != 2:
        raise Refusal("unary extraction is only defined for domain size 2")
    support = fn.support_indices()
    if not support:
        raise Refusal("unary extraction needs a non-empty support")
    coset = coset_of(support)
    if coset is None:
        raise Refusal("unary extraction requires an affine support")
    if all(fn.table[index] == fn.table[support[0]] for index in support):
        raise Refusal("the function is pure affine; there is no unary to extract")

    # every bit a member of the coset varies in is set in some basis vector
    varying = 0
    for vec in coset[1].values():
        varying |= vec
    # the first varying column is the highest varying bit
    column = fn.arity - varying.bit_length()
    side_values: tuple[set[Fraction], set[Fraction]] = (set(), set())
    for index in support:
        side_values[index >> (fn.arity - 1 - column) & 1].add(fn.table[index])
    for side in (0, 1):
        if len(side_values[side]) >= 2:
            return PinRecursion(pin_coordinate(fn, column, side), column, side)
    (low,) = side_values[0]
    (high,) = side_values[1]
    ratio = high / low
    return UnaryExtraction(unary_weight(ratio), ratio, column)


def extract_unary_iterated(fn: WeightFunction) -> tuple[UnaryExtraction, int]:
    """Iterate :func:`extract_unary` to completion; returns (result, pin steps)."""
    steps = 0
    current = fn
    while True:
        outcome = extract_unary(current)
        if isinstance(outcome, UnaryExtraction):
            return outcome, steps
        current = outcome.function
        steps += 1


# ---------------------------------------------------------------------------
# partition lattice and Moebius inversion
# ---------------------------------------------------------------------------

#: Partition-lattice operations are enforced up to this domain size (Bell(6)=203).
MAX_PARTITION_DOMAIN = 6

#: Interpolation is enforced up to this many occurrences m of the unary: it
#: makes m + 1 evaluator calls on up to m*m probe constraints, then solves for
#: the m + 1 coefficients in O(m**2) operations on rationals as large as
#: point**(m*m).
MAX_INTERPOLATION_OCCURRENCES = 64

#: Interpolation is enforced up to this much solve work m**6 * b**2 for a
#: b-bit point.  At m = 64 a 31-digit point (about 7 * 10**14) takes about
#: 7 s, and a 255-bit point (about 4.5 * 10**15) took 45 s, on a 2-vCPU VM.
MAX_INTERPOLATION_WORK = 2**50


@dataclass(frozen=True)
class Partition:
    """A set partition of ``{0..q-1}`` in canonical block order."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise InputError("partition blocks must be non-empty")
            if list(block) != sorted(block):
                raise InputError(f"block {block} is not sorted")
            if seen & set(block):
                raise InputError("partition blocks overlap")
            seen.update(block)
        if seen != set(range(len(seen))):
            raise InputError("partition must cover 0..q-1 exactly")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise InputError("blocks must be ordered by first element")

    @property
    def domain_size(self) -> int:
        return sum(len(block) for block in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @staticmethod
    def discrete(size: int) -> "Partition":
        return Partition(tuple((i,) for i in range(size)))

    @staticmethod
    def single_block(size: int) -> "Partition":
        return Partition((tuple(range(size)),))


def all_partitions(size: int) -> list[Partition]:
    """Every set partition of ``{0..size-1}``, coarsest-last deterministic order."""
    if size < 1:
        raise InputError(f"partition domain must be non-empty, got {size}")
    if size > MAX_PARTITION_DOMAIN:
        raise Refusal(
            f"partition lattices are enforced up to domain size {MAX_PARTITION_DOMAIN}"
        )
    found: list[list[list[int]]] = [[]]
    for element in range(size):
        updated = []
        for blocks in found:
            for i in range(len(blocks)):
                updated.append([b + [element] if j == i else list(b) for j, b in enumerate(blocks)])
            updated.append([list(b) for b in blocks] + [[element]])
        found = updated
    # each element joins an earlier block or opens a new one, so the blocks
    # come out sorted and ordered by their first element
    partitions = [Partition(tuple(map(tuple, blocks))) for blocks in found]
    partitions.sort(key=lambda p: (-p.num_blocks, p.blocks))
    return partitions


def refines(finer: Partition, coarser: Partition) -> bool:
    """Whether every block of ``finer`` sits inside one block of ``coarser``."""
    owner: dict[int, int] = {}
    for i, block in enumerate(coarser.blocks):
        for element in block:
            owner[element] = i
    for block in finer.blocks:
        owners = {owner[element] for element in block}
        if len(owners) != 1:
            return False
    return True


def mobius_table(size: int) -> dict[Partition, int]:
    """Moebius numbers over the partition lattice ordered by refinement.

    The number of a partition is its Moebius value above the all-singletons
    partition: the product over its blocks ``B`` of
    ``(-1)**(|B|-1) * (|B|-1)!``.  The single-block partition gets
    ``(-1)**(size-1) * (size-1)!``.
    """
    return {
        theta: prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in theta.blocks)
        for theta in all_partitions(size)
    }


def mobius_pinning_reduce(instance: Instance, evaluator: Evaluator) -> Fraction:
    """Partition value of an instance with one full-disequality constraint.

    The disequality over q distinct variables is removed by Moebius inversion:
    sum over all partitions of the q slots, merging the scoped variables
    blockwise and weighting each merged instance by its Moebius number.  The
    constraint is located by its table, and exactly one match is required.
    """
    q = instance.domain_size
    # first, so that a domain too large for the lattice is refused before the
    # q! permutations are listed
    table = mobius_table(q)
    # the full disequality has arity q and is 1 at the q! permutations, else 0
    permutation_points = [tuple_to_index(p, q) for p in permutations(range(q))]
    disequalities = {
        name
        for name, fn in instance.functions.items()
        if fn.arity == q
        and all(fn.table[i] == 1 for i in permutation_points)
        and sum(map(bool, fn.table)) == len(permutation_points)
    }
    matches = [c for c in instance.constraints if c.function in disequalities]
    if len(matches) != 1:
        raise Refusal(
            f"expected exactly one full-disequality constraint, found {len(matches)}"
        )
    (target,) = matches
    if len(set(target.scope)) != q:
        raise Refusal("the disequality constraint needs q distinct variables")
    # no other constraint uses the disequality's function, so it leaves the catalog
    base = tuple(c for c in instance.constraints if c.function != target.function)
    catalog = {
        name: instance.functions[name] for name in instance.scopes if name != target.function
    }
    slots = {v: slot for slot, v in enumerate(target.scope)}
    return _mobius_sum(instance, catalog, base, slots, table, evaluator)


def _mobius_sum(
    instance: Instance,
    functions: dict[str, WeightFunction],
    constraints: Sequence[Constraint],
    slots: Mapping[int, int],
    table: Mapping[Partition, int],
    evaluator: Evaluator,
) -> Fraction:
    """Sum over the partitions eta of the slots of mu(eta) times the merged value.

    For each eta, every variable in ``slots`` takes the id of the block of eta
    holding its slot, and the other variables follow (see :func:`_relabel`).
    """
    total = _ZERO
    for eta, weight in table.items():
        block_of = {slot: i for i, block in enumerate(eta.blocks) for slot in block}
        image = {v: block_of[slot] for v, slot in slots.items()}
        total += weight * evaluator(
            _relabel(instance, functions, constraints, image, eta.num_blocks)
        )
    return total


def is_permutation_symmetric(
    functions: Mapping[str, WeightFunction], domain_size: int
) -> bool:
    """True when every function is invariant under every domain permutation.

    The q-cycle and the transposition of 0 and 1 generate all q! permutations,
    so only those two are applied.  Each reads the table at the index of every
    permuted point.
    """
    q = domain_size
    cycle = [*range(1, q), 0]
    generators = [cycle, [1, 0, *range(2, q)]] if q > 2 else [cycle]
    for fn in functions.values():
        if fn.domain_size != q:
            raise InputError(f"a function over domain {fn.domain_size}, not {q}")
        for perm in generators:
            image = table_indices([[perm[d] * s for d in range(q)] for s in strides(fn.arity, q)])
            if tuple(map(fn.table.__getitem__, image)) != fn.table:
                return False
    return True


def symmetric_pinning_reduce_q(instance: Instance, evaluator: Evaluator) -> Fraction:
    """Eliminate value pins; the evaluator only ever sees pin-free instances.

    Each pinned variable goes to the slot of its value, and the Moebius sum of
    :func:`_mobius_sum` over the q slots counts the labellings whose q
    representatives are distinct: the wanted value A and its images under the
    other q! - 1 domain permutations.  A family (the functions that the
    constraints other than pins use) symmetric under all of them gives q! A;
    for q > 2 no other family is accepted.  At q = 2 an entry with
    f(x) > f(negated x) adds a constraint ``f`` on two extra variables in slots
    0 and 1, whose sum f(x) A + f(negated x) B separates A from the value B
    with 0 and 1 swapped.
    """
    q = instance.domain_size
    split_pins = _split_pins(instance)
    if split_pins is None:
        return _ZERO
    pins, remaining, family = split_pins
    n = instance.num_variables
    if not pins:
        return evaluator(Instance(n, q, family, tuple(remaining)))
    # refuses a domain too large for the lattice before the symmetry test
    table = mobius_table(q)
    if q > 2 and not is_permutation_symmetric(family, q):
        raise Refusal(
            "pin elimination over a general domain needs a family symmetric "
            "under all domain permutations"
        )
    base = _mobius_sum(instance, family, remaining, pins, table, evaluator)
    if q == 2:
        for name, fn in family.items():
            # the negated point of index x sits at index 2**arity - 1 - x
            for index, (value, mirror) in enumerate(zip(fn.table, reversed(fn.table))):
                if value > mirror:
                    extra = Constraint(
                        name, tuple(n + bit for bit in index_to_tuple(index, fn.arity, 2))
                    )
                    skewed = Instance(n + 2, 2, family, (*remaining, extra))
                    slots = {**pins, n: 0, n + 1: 1}
                    skew = _mobius_sum(
                        skewed, family, skewed.constraints, slots, table, evaluator
                    )
                    return (skew - mirror * base) / (value - mirror)
    return base / factorial(q)
