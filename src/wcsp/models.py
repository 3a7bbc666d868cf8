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
    decode_json,
    load_file,
    parse_rational,
)
from .tractable import evaluate

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    def neighbors(self) -> list[set[int]]:
        out: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for u, v in self.edges:
            out[u].add(v)
            out[v].add(u)
        return out


def is_connected(graph: Graph) -> bool:
    if graph.num_vertices == 0:
        return True
    # a connected graph has a spanning tree, so at least V - 1 edges; checked
    # before the adjacency lists, which a huge sparse graph could not hold
    if graph.num_edges < graph.num_vertices - 1:
        return False
    adjacency = graph.neighbors()
    seen = {0}
    stack = [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.num_vertices


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


def hom_instance(graph: Graph, matrix: TargetMatrix, function_name: str = "edge") -> Instance:
    """The spin instance whose partition value counts weighted homomorphisms."""
    constraints = tuple(Constraint(function_name, edge) for edge in graph.edges)
    return Instance(
        graph.num_vertices,
        matrix.size,
        {function_name: matrix.edge_function()},
        constraints,
    )


def eval_graph_hom(
    graph: Graph, matrix: TargetMatrix, budget: int | None = None
) -> Fraction:
    """Weighted homomorphism count from the graph into the target matrix."""
    value, _ = evaluate(hom_instance(graph, matrix), budget=budget)
    return value


# ---------------------------------------------------------------------------
# exact rank and the component criterion
# ---------------------------------------------------------------------------

def row_reduce(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by exact Gauss-Jordan elimination.

    Returns the reduced rows and the pivot columns: row ``i`` of the result
    has a 1 in column ``pivots[i]`` and every other row a 0 there.
    """
    work = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(work[0]) if work else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        lead = work[pivot][col]
        pivot_row = [a / lead for a in work[pivot]]
        work[pivot] = work[rank]
        work[rank] = pivot_row
        for r in range(len(work)):
            if r != rank and work[r][col]:
                ratio = work[r][col]
                work[r] = [a - ratio * b for a, b in zip(work[r], pivot_row)]
        pivots.append(col)
    return work, pivots


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a rational matrix."""
    return len(row_reduce(rows)[1])


class HomTractability(Enum):
    TRACTABLE = "tractable"
    HARD = "hard"


def bulatov_grohe_classify(matrix: TargetMatrix) -> HomTractability:
    """Component-rank classification of a symmetric non-negative spin target.

    Vertices with an all-zero row are inert.  The remaining vertices split
    into connected components of the positive-entry graph; the target is
    tractable exactly when every non-bipartite component (one containing a
    positive diagonal entry or an odd cycle) has rank at most 1 and every
    bipartite component has rank at most 2.
    """
    size = matrix.size
    present = [i for i in range(size) if any(matrix.entries[i])]
    unvisited = set(present)
    while unvisited:
        start = min(unvisited)
        colour = {start: 0}
        stack = [start]
        bipartite = matrix.entries[start][start] == 0
        component = [start]
        while stack:
            u = stack.pop()
            for v in present:
                if not matrix.entries[u][v]:
                    continue
                if v == u:
                    bipartite = False
                    continue
                if v in colour:
                    if colour[v] == colour[u]:
                        bipartite = False
                    continue
                colour[v] = 1 - colour[u]
                component.append(v)
                stack.append(v)
        unvisited -= set(component)
        submatrix = [
            [matrix.entries[u][v] for v in component] for u in component
        ]
        limit = 2 if bipartite else 1
        if rational_rank(submatrix) > limit:
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
            mask = 0
            for j, bit in enumerate(row):
                if bit not in (0, 1):
                    raise InputError(f"generator entry ({i},{j}) must be 0 or 1")
                mask |= bit << (length - 1 - j)
            masks.append(mask)
        return GeneratorMatrix(length, tuple(masks))

    @property
    def dimension(self) -> int:
        return len(self.rows)


def weight_enumerator(
    generator: GeneratorMatrix, weight: Fraction, budget: int | None = None
) -> Fraction:
    """Sum of ``weight**hamming_weight`` over all codewords of the row span.

    Enumerates the span in Gray-code order, one row XOR per step.
    """
    lam = Fraction(weight)
    dimension = generator.dimension
    _check_word_count(dimension, budget)
    powers = [lam**w for w in range(generator.length + 1)]
    word = 0
    total = powers[0]
    for step in range(1, 1 << dimension):
        flip = (step & -step).bit_length() - 1
        word ^= generator.rows[flip]
        total += powers[word.bit_count()]
    return total


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
    rows = []
    for v in range(graph.num_vertices - 1):
        mask = 0
        for j, (a, b) in enumerate(graph.edges):
            if v in (a, b):
                mask |= 1 << (graph.num_edges - 1 - j)
        rows.append(mask)
    return GeneratorMatrix(graph.num_edges, tuple(rows))


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
        bits = []
        for ch in line:
            if ch in " \t":
                continue
            if ch not in "01":
                raise InputError(f"generator line {line!r} holds a non-binary symbol")
            bits.append(int(ch))
        rows.append(bits)
    return GeneratorMatrix.from_bits(rows)


def load_generator(path: str) -> GeneratorMatrix:
    return load_file(path, parse_generator)
