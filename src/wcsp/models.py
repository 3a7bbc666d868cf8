"""Concrete model families: weighted graph homomorphisms and binary codes.

A simple graph together with a symmetric non-negative target matrix yields a
two-spin (or q-spin) instance whose partition value is the weighted
homomorphism count.  The 2x2 targets are classified exactly into tractable and
hard by the component-rank criterion, and the cut-counting identity connects
the two-spin value on a connected graph to the weight enumerator of its
cut-space code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import InputError, Refusal
from .gf2 import xor_basis
from .model import (
    DEFAULT_BUDGET,
    Constraint,
    Instance,
    WeightFunction,
    check_value_bits,
    decode_json,
    load_file,
    parse_rational,
)
from .tractable import ParityUnionFind, evaluate

_ZERO = Fraction(0)
_ONE = Fraction(1)
_EDGE = "edge"


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """A simple undirected graph; edges are stored as sorted ``(u, v)`` pairs."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 0:
            raise InputError(f"vertex count must be non-negative, got {self.num_vertices}")
        seen = set()
        for edge in self.edges:
            if len(edge) != 2:
                raise InputError(f"edge {edge!r} must be a pair")
            u, v = edge
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise InputError(f"edge {edge!r} outside vertex range")
            if u == v:
                raise InputError(f"loop at vertex {u} is not allowed in a simple graph")
            if u > v:
                raise InputError(f"edge {edge!r} must be sorted")
            if edge in seen:
                raise InputError(f"duplicate edge {edge!r}")
            seen.add(edge)

    @staticmethod
    def from_edges(num_vertices: int, edges: Sequence[Sequence[int]]) -> "Graph":
        normalized = tuple(tuple(sorted(e)) for e in edges)
        return Graph(num_vertices, normalized)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        out = [0] * self.num_vertices
        for u, v in self.edges:
            out[u] += 1
            out[v] += 1
        return out


def is_connected(graph: Graph) -> bool:
    # a connected graph has a spanning tree, so at least V - 1 edges; checked
    # before the union-find, which a huge sparse graph could not hold
    if graph.num_edges < graph.num_vertices - 1:
        return False
    union = ParityUnionFind(graph.num_vertices)
    for u, v in graph.edges:
        union.union(u, v, 0)
    return union.classes <= 1


# ---------------------------------------------------------------------------
# target matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetMatrix:
    """A symmetric matrix of non-negative rationals used as a spin target."""

    size: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InputError(f"target matrix must have positive size, got {self.size}")
        if len(self.entries) != self.size:
            raise InputError("target matrix row count does not match its size")
        for i, row in enumerate(self.entries):
            if len(row) != self.size:
                raise InputError(f"target matrix row {i} has wrong length")
            for j, value in enumerate(row):
                if not isinstance(value, Fraction):
                    raise InputError(f"entry ({i},{j}) must be a Fraction")
                if value < 0:
                    raise InputError(f"entry ({i},{j}) is negative")
        for i in range(self.size):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise InputError(f"matrix is not symmetric at ({i},{j})")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[object]]) -> "TargetMatrix":
        entries = tuple(
            tuple(parse_rational(v, f"entries[{i}][{j}]") for j, v in enumerate(row))
            for i, row in enumerate(rows)
        )
        return TargetMatrix(len(entries), entries)

    def edge_function(self) -> WeightFunction:
        table = tuple(
            self.entries[i][j] for i in range(self.size) for j in range(self.size)
        )
        return WeightFunction(2, self.size, table)


def ising_matrix(edge_weight: Fraction) -> TargetMatrix:
    """The two-spin target awarding ``edge_weight`` to disagreeing endpoints."""
    lam = Fraction(edge_weight)
    if lam < 0:
        raise InputError(f"edge weight must be non-negative, got {lam}")
    return TargetMatrix(2, ((_ONE, lam), (lam, _ONE)))


def hom_instance(graph: Graph, matrix: TargetMatrix) -> Instance:
    """The spin instance whose partition value counts weighted homomorphisms."""
    constraints = tuple(Constraint(_EDGE, edge) for edge in graph.edges)
    return Instance(
        graph.num_vertices,
        matrix.size,
        {_EDGE: matrix.edge_function()},
        constraints,
    )


def eval_graph_hom(
    graph: Graph, matrix: TargetMatrix, budget: int | None = None
) -> Fraction:
    """Weighted homomorphism count from the graph into the target matrix."""
    value, _ = evaluate(hom_instance(graph, matrix), budget=budget)
    return value


# ---------------------------------------------------------------------------
# rank at most one and the component criterion
# ---------------------------------------------------------------------------

def _rank_at_most_one(rows: Sequence[Sequence[Fraction]]) -> bool:
    """Whether a rational matrix has rank at most 1, in one pass over its entries.

    With a non-zero pivot ``M[i0][j0]``, every row is a multiple of the pivot
    row exactly when ``M[i][j] * M[i0][j0] == M[i][j0] * M[i0][j]`` everywhere.
    """
    pivot = next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x), None)
    if pivot is None:
        return True
    i0, j0 = pivot
    lead, pivot_row = rows[i0][j0], rows[i0]
    return all(x * lead == row[j0] * pivot_row[j] for row in rows for j, x in enumerate(row))


class HomTractability(Enum):
    TRACTABLE = "tractable"
    HARD = "hard"


def bulatov_grohe_classify(matrix: TargetMatrix) -> HomTractability:
    """Component-rank classification of a symmetric non-negative spin target.

    Vertices with an all-zero row are inert.  The remaining vertices split
    into connected components of the positive-entry graph; the target is
    tractable exactly when every non-bipartite component (one containing a
    positive diagonal entry or an odd cycle) has rank at most 1 and every
    bipartite component has rank at most 2.  Ordered by colour, a bipartite
    component reads ``[[0, B], [B^T, 0]]``, of rank ``2 * rank(B)``, so each
    component costs one rank-at-most-1 test, quadratic in its size.  One
    parity union-find gives the components and their colours: each positive
    off-diagonal entry ties its ends with parity 1, and a positive diagonal
    entry or a contradicting tie marks its component as not bipartite.
    """
    entries = matrix.entries
    union = ParityUnionFind(matrix.size)
    odd = []  # a vertex of each positive diagonal entry or odd cycle found
    for u in range(matrix.size):
        if entries[u][u]:
            odd.append(u)
        for v in range(u + 1, matrix.size):
            if entries[u][v] and not union.union(u, v, 1):
                odd.append(u)
    odd_roots = {union.find(u)[0] for u in odd}
    colours: dict[int, tuple[list[int], list[int]]] = {}
    for u in range(matrix.size):
        if any(entries[u]):
            root, parity = union.find(u)
            colours.setdefault(root, ([], []))[parity].append(u)
    for root, (rows, columns) in colours.items():
        if root in odd_roots:
            rows = columns = rows + columns
        if not _rank_at_most_one([[entries[u][v] for v in columns] for u in rows]):
            return HomTractability.HARD
    return HomTractability.TRACTABLE


def slice_gram_matrix(fn: WeightFunction, coordinate: int) -> TargetMatrix:
    """Pairwise dot products of the two slices of a Boolean table.

    Slicing on one coordinate turns the table into two half-tables; the 2x2
    matrix of their pairwise dot products is singular exactly when the slices
    are proportional, and it feeds the component-rank classifier directly.
    """
    if fn.domain_size != 2:
        raise Refusal("slice products are only defined for domain size 2")
    if not 0 <= coordinate < fn.arity:
        raise InputError(f"coordinate {coordinate} outside arity {fn.arity}")
    stride = 1 << (fn.arity - 1 - coordinate)
    slices: tuple[list[Fraction], list[Fraction]] = ([], [])
    for index, value in enumerate(fn.table):
        slices[(index // stride) & 1].append(value)
    entries = tuple(
        tuple(
            sum((a * b for a, b in zip(slices[i], slices[j])), _ZERO)
            for j in range(2)
        )
        for i in range(2)
    )
    return TargetMatrix(2, entries)


# ---------------------------------------------------------------------------
# binary linear codes and the cut identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorMatrix:
    """A full-row-rank binary generator matrix; rows are column bitmasks."""

    length: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise InputError(f"code length must be positive, got {self.length}")
        for i, row in enumerate(self.rows):
            if not 0 <= row < (1 << self.length):
                raise InputError(f"generator row {i} outside length {self.length}")
        if len(xor_basis(self.rows)) < len(self.rows):
            raise InputError("generator rows are linearly dependent")

    @staticmethod
    def from_bits(rows: Sequence[Sequence[int]]) -> "GeneratorMatrix":
        if not rows:
            raise InputError("generator matrix needs at least one row")
        length = len(rows[0])
        masks = []
        for i, row in enumerate(rows):
            if len(row) != length:
                raise InputError(f"generator row {i} has inconsistent length")
            bad = next((j for j, bit in enumerate(row) if bit not in (0, 1)), None)
            if bad is not None:
                raise InputError(f"generator entry ({i},{bad}) must be 0 or 1")
            masks.append(int("".join(["1" if bit else "0" for bit in row]) or "0", 2))
        return GeneratorMatrix(length, tuple(masks))

    @property
    def dimension(self) -> int:
        return len(self.rows)


def weight_enumerator(
    generator: GeneratorMatrix, weight: Fraction, budget: int | None = None
) -> Fraction:
    """Sum of ``weight**hamming_weight`` over all codewords of the row span.

    Enumerates the span in Gray-code order, one row XOR per step, and counts
    the codewords of each Hamming weight.  Refuses first when the words
    exceed the budget, or when the value, a sum of ``2**dimension`` powers
    of ``weight`` up to its ``length``-th, can exceed ``MAX_VALUE_BITS``.
    """
    lam = Fraction(weight)
    dimension = generator.dimension
    _check_word_count(dimension, budget)
    check_value_bits(
        "weight enumerator",
        generator.length * (lam.numerator.bit_length() + lam.denominator.bit_length())
        + dimension,
    )
    counts = [1] + [0] * generator.length  # the zero word, then the others
    word = 0
    for step in range(1, 1 << dimension):
        flip = (step & -step).bit_length() - 1
        word ^= generator.rows[flip]
        counts[word.bit_count()] += 1
    return sum(count * lam**w for w, count in enumerate(counts) if count)


def _check_word_count(dimension: int, budget: int | None) -> None:
    limit = DEFAULT_BUDGET if budget is None else budget
    if 1 << dimension > limit:
        raise Refusal(
            f"code has 2**{dimension} words, beyond the enumeration budget {limit}"
        )


def incidence_code(graph: Graph, budget: int | None = None) -> GeneratorMatrix:
    """Cut-space generator of a connected graph: one row per non-root vertex.

    Column ``j`` is the j-th edge; the row of vertex ``v`` marks the edges
    incident to ``v``.  Dropping the last vertex leaves ``n - 1`` independent
    rows, and the row span enumerates every edge cut exactly once.  Refuses,
    as :func:`weight_enumerator` would, before building a row when the
    ``2**(n - 1)`` words exceed the budget.
    """
    if graph.num_vertices < 2:
        raise InputError("the cut-space code needs at least two vertices")
    if graph.num_edges == 0:
        raise InputError("the cut-space code needs at least one edge")
    if not is_connected(graph):
        raise Refusal("the cut-space code is only defined for connected graphs")
    _check_word_count(graph.num_vertices - 1, budget)
    rows = [0] * graph.num_vertices
    for j, (a, b) in enumerate(graph.edges):
        bit = 1 << (graph.num_edges - 1 - j)
        rows[a] |= bit
        rows[b] |= bit
    return GeneratorMatrix(graph.num_edges, tuple(rows[:-1]))


def cut_identity_sides(
    graph: Graph, edge_weight: Fraction, budget: int | None = None
) -> tuple[Fraction, Fraction]:
    """Both sides of the cut identity: (code enumerator, two-spin value)."""
    code = incidence_code(graph, budget=budget)
    enumerator = weight_enumerator(code, edge_weight, budget=budget)
    hom_value = eval_graph_hom(graph, ising_matrix(edge_weight), budget=budget)
    return enumerator, hom_value


def verify_cut_identity(
    graph: Graph, edge_weight: Fraction, budget: int | None = None
) -> bool:
    """Whether the cut-space enumerator equals half the two-spin value."""
    enumerator, hom_value = cut_identity_sides(graph, edge_weight, budget=budget)
    return 2 * enumerator == hom_value


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _strip_comments(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def parse_graph(text: str) -> Graph:
    """Graph from JSON (``{"vertices": n, "edges": [[u, v], ...]}``) or text.

    The text form is a vertex count on the first line and one ``u v`` pair per
    following line; ``#`` starts a comment.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = decode_json(text)
        if not isinstance(obj, dict):
            raise InputError("JSON graph must be an object")
        unknown = set(obj) - {"vertices", "edges"}
        if unknown:
            raise InputError(f"unknown graph fields: {sorted(unknown)}")
        if not isinstance(obj.get("vertices"), int) or isinstance(obj.get("vertices"), bool):
            raise InputError("graph field 'vertices' must be an integer")
        edges = obj.get("edges", [])
        if not isinstance(edges, list):
            raise InputError("graph field 'edges' must be a list")
        for e in edges:
            if (
                not isinstance(e, list)
                or len(e) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
            ):
                raise InputError(f"graph edge {e!r} must be a pair of integers")
        return Graph.from_edges(obj["vertices"], edges)
    lines = _strip_comments(text)
    if not lines:
        raise InputError("empty graph description")
    try:
        num_vertices = int(lines[0])
    except ValueError as exc:
        raise InputError(f"first graph line must be a vertex count, got {lines[0]!r}") from exc
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"graph edge line {line!r} must hold two vertices")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputError(f"graph edge line {line!r} must hold two integers") from exc
    return Graph.from_edges(num_vertices, edges)


def load_graph(path: str) -> Graph:
    return load_file(path, parse_graph)


def parse_target_matrix(text: str) -> TargetMatrix:
    """Target matrix from a JSON array of rows of rationals (ints or "a/b")."""
    obj = decode_json(text)
    if isinstance(obj, dict):
        unknown = set(obj) - {"entries"}
        if unknown:
            raise InputError(f"unknown matrix fields: {sorted(unknown)}")
        obj = obj.get("entries")
    if not isinstance(obj, list) or not obj:
        raise InputError("matrix must be a non-empty array of rows")
    for row in obj:
        if not isinstance(row, list):
            raise InputError("matrix rows must be arrays")
    return TargetMatrix.from_rows(obj)


def load_target_matrix(path: str) -> TargetMatrix:
    return load_file(path, parse_target_matrix)


def parse_generator(text: str) -> GeneratorMatrix:
    """Generator matrix from lines of 0/1 characters (spaces ignored)."""
    lines = _strip_comments(text)
    if not lines:
        raise InputError("empty generator description")
    rows = []
    for line in lines:
        bits = line.replace(" ", "").replace("\t", "")
        if not set(bits) <= {"0", "1"}:
            raise InputError(f"generator line {line!r} holds a non-binary symbol")
        rows.append(list(map(int, bits)))
    return GeneratorMatrix.from_bits(rows)


def load_generator(path: str) -> GeneratorMatrix:
    return load_file(path, parse_generator)
