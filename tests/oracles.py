"""Independent reference implementations used to certify the package.

Everything here is written straight from definitions, as directly as
possible, deliberately sharing no algorithmic ideas with the package
internals: decomposition search instead of the column procedure, literal
triple-XOR closure instead of rank counting, plain subset enumeration instead
of Gray codes, and so on.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

_ZERO = Fraction(0)
_ONE = Fraction(1)


def decode(index: int, arity: int, q: int = 2) -> tuple[int, ...]:
    digits = []
    for _ in range(arity):
        digits.append(index % q)
        index //= q
    return tuple(reversed(digits))


def encode(point: tuple[int, ...], q: int = 2) -> int:
    index = 0
    for value in point:
        index = index * q + value
    return index


def decimal_digits(value: int) -> str:
    """Decimal form of a non-negative int of any size.

    Nine digits at a time from the least significant end, so no single
    conversion meets the interpreter's int-to-str digit limit.
    """
    groups = []
    while value >= 10**9:
        value, group = divmod(value, 10**9)
        groups.append(f"{group:09d}")
    groups.append(str(value))
    return "".join(reversed(groups))


# ---------------------------------------------------------------------------
# classifier oracles
# ---------------------------------------------------------------------------

def product_type_by_decomposition(table, arity: int) -> bool:
    """Search every equal/differ/free labeling of coordinate pairs.

    A labeling induces components of tied coordinates; the function
    decomposes iff the support is a box over per-component states and every
    support value satisfies the rectangle identity against a base point.
    """
    values = [Fraction(v) for v in table]
    if not any(values):
        return True
    points = [decode(i, arity) for i in range(len(values))]
    support = [p for i, p in enumerate(points) if values[i]]
    support_set = set(support)

    def value_at(point):
        return values[encode(point)]

    pairs = list(combinations(range(arity), 2))
    for labels in product((0, 1, 2), repeat=len(pairs)):  # free/equal/differ
        ok_support = True
        for p in support:
            for (i, j), lab in zip(pairs, labels):
                if lab == 1 and p[i] != p[j]:
                    ok_support = False
                    break
                if lab == 2 and p[i] == p[j]:
                    ok_support = False
                    break
            if not ok_support:
                break
        if not ok_support:
            continue

        parent = list(range(arity))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for (i, j), lab in zip(pairs, labels):
            if lab:
                parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for c in range(arity):
            groups.setdefault(find(c), []).append(c)
        components = list(groups.values())

        used_states = [
            sorted({tuple(p[c] for c in comp) for p in support})
            for comp in components
        ]
        box_size = 1
        for states in used_states:
            box_size *= len(states)
        if box_size != len(support):
            continue
        box_ok = True
        for choice in product(*used_states):
            candidate = [0] * arity
            for comp, state in zip(components, choice):
                for c, v in zip(comp, state):
                    candidate[c] = v
            if tuple(candidate) not in support_set:
                box_ok = False
                break
        if not box_ok:
            continue

        base = support[0]
        base_value = value_at(base)
        rectangle_ok = True
        for p in support:
            left = value_at(p) * base_value ** (len(components) - 1)
            right = _ONE
            for comp in components:
                hybrid = list(base)
                for c in comp:
                    hybrid[c] = p[c]
                right *= value_at(tuple(hybrid))
            if left != right:
                rectangle_ok = False
                break
        if rectangle_ok:
            return True
    return False


def affine_by_closure(members, arity: int) -> bool:
    """Literal definition: closed under coordinatewise triple XOR."""
    del arity  # index XOR is coordinatewise XOR for q=2
    member_set = set(members)
    for a in member_set:
        for b in member_set:
            for c in member_set:
                if a ^ b ^ c not in member_set:
                    return False
    return True


def span_closure(vectors) -> set[int]:
    """Every XOR of a subset of the vectors: {0} closed under each vector."""
    span = {0}
    for vector in vectors:
        span |= {member ^ vector for member in span}
    return span


def pure_affine_direct(table) -> bool:
    """Single positive value on a triple-XOR-closed non-empty support."""
    values = [Fraction(v) for v in table]
    support = [i for i, v in enumerate(values) if v]
    if not support:
        return False
    if len({values[i] for i in support}) != 1:
        return False
    return affine_by_closure(support, 0)


def product_like_direct(table, arity: int) -> tuple[bool, dict[int, Fraction]]:
    """Whether each useful coordinate has one ratio between its two slices.

    A coordinate is useful when some row (a setting of the other coordinates)
    is non-zero on both slices.  Each of its rows is divided out as a
    ``Fraction``: a row that vanishes on the 1-slice must vanish on the
    0-slice, and every other row's ratio must equal the first one.
    """
    values = [Fraction(v) for v in table]
    ratios = {}
    for i in range(arity):
        stride = 1 << (arity - 1 - i)
        rows = [(values[m], values[m | stride]) for m in range(len(values)) if not m & stride]
        if not any(zero_side and one_side for zero_side, one_side in rows):
            continue
        ratio = None
        for zero_side, one_side in rows:
            if not one_side:
                if zero_side:
                    return False, {}
                continue
            current = zero_side / one_side
            if ratio is None:
                ratio = current
            elif ratio != current:
                return False, {}
        ratios[i] = ratio
    return True, ratios


# ---------------------------------------------------------------------------
# table transforms, point by point
# ---------------------------------------------------------------------------

def project_direct(fn, coordinates) -> tuple:
    """Each point's value added at the index of its kept coordinates."""
    q = fn.domain_size
    table = [_ZERO] * q ** len(coordinates)
    for point in product(range(q), repeat=fn.arity):
        table[encode(tuple(point[i] for i in coordinates), q)] += fn.table[encode(point, q)]
    return tuple(table)


def pin_direct(fn, coordinate: int, value: int) -> tuple:
    """The value at each point of the other coordinates, with ``value`` put back."""
    q = fn.domain_size
    return tuple(
        fn.table[encode(rest[:coordinate] + (value,) + rest[coordinate:], q)]
        for rest in product(range(q), repeat=fn.arity - 1)
    )


def merge_direct(fn, first: int, second: int) -> tuple:
    """The value where the earlier coordinate copies the later one, which is kept."""
    lo, hi = sorted((first, second))
    q = fn.domain_size
    # rest lists every coordinate but lo, so the kept one sits at hi - 1
    return tuple(
        fn.table[encode(rest[:lo] + (rest[hi - 1],) + rest[lo:], q)]
        for rest in product(range(q), repeat=fn.arity - 1)
    )


# ---------------------------------------------------------------------------
# counting oracles
# ---------------------------------------------------------------------------

def permutation_symmetric_direct(functions, q: int) -> bool:
    """Whether every table is unchanged by each of the q! domain permutations,
    applied to every point in turn."""
    for fn in functions.values():
        for perm in permutations(range(q)):
            for index, value in enumerate(fn.table):
                point = decode(index, fn.arity, q)
                if fn.table[encode(tuple(perm[v] for v in point), q)] != value:
                    return False
    return True


def gf2_count_direct(num_variables: int, rows) -> int:
    count = 0
    for assignment in range(1 << num_variables):
        if all(
            bin(mask & assignment).count("1") % 2 == constant
            for mask, constant in rows
        ):
            count += 1
    return count


def partition_function_direct(instance) -> Fraction:
    """Sum over every assignment of the product of the constraint values."""
    q, n = instance.domain_size, instance.num_variables
    total = _ZERO
    for sigma in product(range(q), repeat=n):
        weight = _ONE
        for constraint in instance.constraints:
            fn = instance.functions[constraint.function]
            weight *= fn.lookup(tuple(sigma[v] for v in constraint.scope))
        total += weight
    return total


def scopes_direct(instance) -> dict:
    """Each catalog function that some constraint applies, with its scopes.

    Functions in catalog order, each function's scopes in constraint order.
    """
    grouping = {}
    for name in instance.functions:
        scopes = [c.scope for c in instance.constraints if c.function == name]
        if scopes:
            grouping[name] = scopes
    return grouping


def distinct_filtered_z(instance, diseq_position: int) -> Fraction:
    """Enumerate assignments, filtering on distinctness instead of weighting."""
    q, n = instance.domain_size, instance.num_variables
    diseq_scope = instance.constraints[diseq_position].scope
    total = _ZERO
    for sigma in product(range(q), repeat=n):
        if len({sigma[v] for v in diseq_scope}) != len(diseq_scope):
            continue
        weight = _ONE
        for position, constraint in enumerate(instance.constraints):
            if position == diseq_position:
                continue
            fn = instance.functions[constraint.function]
            weight *= fn.lookup(tuple(sigma[v] for v in constraint.scope))
        total += weight
    return total


def connected_direct(graph) -> bool:
    """Grow the set reached from vertex 0 until no edge leaves it."""
    if graph.num_vertices == 0:
        return True
    reached = {0}
    while True:
        grown = reached | {w for edge in graph.edges if reached & set(edge) for w in edge}
        if grown == reached:
            return len(reached) == graph.num_vertices
        reached = grown


def parity_components_direct(num_variables: int, ties) -> tuple[list, list] | None:
    """Components and colours of parity ties ``(u, v, parity)``, by breadth-first search.

    ``component[v]`` is the least variable of v's component and ``colour[v]``
    is v's parity relative to it; None when some tie contradicts the others
    (a cycle whose parities sum to 1).
    """
    adjacent = [[] for _ in range(num_variables)]
    for u, v, parity in ties:
        adjacent[u].append((v, parity))
        adjacent[v].append((u, parity))
    component = [None] * num_variables
    colour = [0] * num_variables
    for start in range(num_variables):
        if component[start] is not None:
            continue
        component[start] = start
        queue = [start]
        for u in queue:
            for v, parity in adjacent[u]:
                if component[v] is None:
                    component[v] = start
                    colour[v] = colour[u] ^ parity
                    queue.append(v)
                elif colour[v] != colour[u] ^ parity:
                    return None
    return component, colour


def ising_direct(graph, lam: Fraction) -> Fraction:
    """Direct edge-product enumeration of the two-spin value."""
    total = _ZERO
    for mask in range(1 << graph.num_vertices):
        weight = _ONE
        for u, v in graph.edges:
            if ((mask >> u) & 1) != ((mask >> v) & 1):
                weight *= lam
        total += weight
    return total


def weight_enum_direct(generator, lam: Fraction) -> Fraction:
    """Plain subset enumeration of the row span, no Gray code."""
    total = _ZERO
    dimension = len(generator.rows)
    for mask in range(1 << dimension):
        word = 0
        for i in range(dimension):
            if (mask >> i) & 1:
                word ^= generator.rows[i]
        total += lam ** bin(word).count("1")
    return total


# ---------------------------------------------------------------------------
# 2x2 spin targets
# ---------------------------------------------------------------------------

def bg_2x2_expected(a: Fraction, b: Fraction, d: Fraction) -> bool:
    """Hand-derived tractability for [[a, b], [b, d]].

    b = 0 splits the target into loops of rank <= 1; a = d = 0 leaves one
    bipartite edge of rank 2; otherwise the single non-bipartite component
    needs rank <= 1, i.e. a*d = b*b.
    """
    return b == 0 or (a == 0 and d == 0) or a * d == b * b


def rank_direct(rows) -> int:
    """Rank by plain Gaussian elimination over the rationals."""
    work = [list(row) for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] / work[rank][col]
            work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def bulatov_grohe_direct(matrix) -> bool:
    """Bulatov-Grohe tractability from the exact rank of each whole component.

    Components of the positive-entry graph on the vertices with a non-zero
    row, grown to a fixed point; a component is bipartite when one of its
    2-colourings (all tried, so keep targets small) puts no positive entry,
    loops included, inside a colour.  Tractable exactly when every component
    has rank at most 2 if bipartite, else at most 1.
    """
    entries = matrix.entries
    present = [i for i in range(matrix.size) if any(entries[i])]
    remaining = set(present)
    while remaining:
        component = {min(remaining)}
        while True:
            reached = component | {v for u in component for v in present if entries[u][v]}
            if reached == component:
                break
            component = reached
        remaining -= component
        members = sorted(component)
        bipartite = any(
            all(
                colours[a] != colours[b]
                for a, u in enumerate(members)
                for b, v in enumerate(members)
                if entries[u][v]
            )
            for colours in product((0, 1), repeat=len(members))
        )
        rank = rank_direct([[entries[u][v] for v in members] for u in members])
        if rank > (2 if bipartite else 1):
            return False
    return True


def rank1_hom_value(matrix, graph) -> Fraction:
    """Closed-form two-spin value for rank <= 1 targets: a row-sum product."""
    entries = matrix.entries
    if all(v == 0 for row in entries for v in row):
        if graph.num_edges:
            return _ZERO
        return Fraction(matrix.size**graph.num_vertices)
    pivot = next(i for i in range(matrix.size) if entries[i][i] > 0)
    degrees = graph.degrees()
    value = _ONE
    for vertex in range(graph.num_vertices):
        value *= sum(
            (entries[i][pivot] ** degrees[vertex] for i in range(matrix.size)),
            _ZERO,
        )
    return value / entries[pivot][pivot] ** graph.num_edges


# ---------------------------------------------------------------------------
# affine-support enumeration
# ---------------------------------------------------------------------------

def enumerate_affine_supports(arity: int) -> list[frozenset[int]]:
    """Every non-empty affine subset of {0,1}^arity, as index sets."""
    dimension = 1 << arity
    spans = set()
    for r in range(arity + 1):
        for generators in combinations(range(1, dimension), r):
            span = {0}
            for g in generators:
                span |= {x ^ g for x in span}
            spans.add(frozenset(span))
    supports = set()
    for span in spans:
        for shift in range(dimension):
            supports.add(frozenset(x ^ shift for x in span))
    return sorted(supports, key=lambda s: (len(s), sorted(s)))
