"""Graph homomorphism targets, code enumerators, and the cut identity."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    bg_2x2_expected,
    bulatov_grohe_direct,
    connected_direct,
    ising_direct,
    rank1_hom_value,
    rank_direct,
    weight_enum_direct,
)

from wcsp.errors import InputError, Refusal
from wcsp.generate import random_connected_graph
from wcsp.model import WeightFunction
from wcsp.models import (
    GeneratorMatrix,
    Graph,
    HomTractability,
    TargetMatrix,
    bulatov_grohe_classify,
    cut_identity_sides,
    eval_graph_hom,
    hom_instance,
    incidence_code,
    is_connected,
    ising_matrix,
    parse_generator,
    parse_graph,
    parse_target_matrix,
    slice_gram_matrix,
    verify_cut_identity,
    weight_enumerator,
)

F = Fraction


# ---------------------------------------------------------------------------
# graphs


def test_graph_validation():
    Graph.from_edges(3, [(2, 1), (0, 1)])  # normalizes ordering
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 0)])  # loop
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 1), (1, 0)])  # duplicate after sorting
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 2)])  # out of range
    with pytest.raises(InputError):
        Graph(2, ((1, 0),))  # direct constructor insists on sorted pairs
    with pytest.raises(InputError):
        Graph(-1, ())


def test_graph_degrees_and_neighbors():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert triangle.degrees() == [2, 2, 2]
    assert triangle.num_edges == 3


def test_is_connected():
    assert is_connected(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert not is_connected(Graph.from_edges(3, [(0, 1)]))
    assert is_connected(Graph.from_edges(1, []))
    assert is_connected(Graph.from_edges(0, []))
    assert not is_connected(Graph.from_edges(2, []))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@given(small_graphs())
def test_is_connected_matches_reachability(graph):
    assert is_connected(graph) == connected_direct(graph)


@given(st.integers(0, 50), st.integers(2, 8))
def test_random_connected_graphs_are_connected(seed, size):
    import random

    graph = random_connected_graph(random.Random(seed), size)
    assert graph.num_vertices == size
    assert is_connected(graph)


# ---------------------------------------------------------------------------
# target matrices and homomorphism values


def test_target_matrix_validation():
    with pytest.raises(InputError):
        TargetMatrix.from_rows([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(InputError):
        TargetMatrix.from_rows([[1, "-2"], ["-2", 1]])  # negative entry
    with pytest.raises(InputError):
        TargetMatrix.from_rows([[1, 2]])  # not square
    matrix = TargetMatrix.from_rows([["1/2", 1], [1, 3]])
    assert matrix.entries[0][0] == F(1, 2)
    assert matrix.edge_function().table == (F(1, 2), F(1), F(1), F(3))


def test_ising_matrix():
    matrix = ising_matrix(F(2))
    assert matrix.entries == ((F(1), F(2)), (F(2), F(1)))
    with pytest.raises(InputError):
        ising_matrix(F(-1))


def test_eval_graph_hom_hand_values():
    edge = Graph.from_edges(2, [(0, 1)])
    assert eval_graph_hom(edge, ising_matrix(F(2))) == 6

    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert eval_graph_hom(triangle, ising_matrix(F(2))) == 26

    ones = TargetMatrix.from_rows([[1, 1], [1, 1]])
    for graph in (edge, triangle, Graph.from_edges(5, [(0, 1), (2, 3)])):
        assert eval_graph_hom(graph, ones) == 2**graph.num_vertices


def test_eval_graph_hom_larger_domain():
    edge = Graph.from_edges(2, [(0, 1)])
    potts = TargetMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert eval_graph_hom(edge, potts) == 6  # proper 3-colorings of one edge


def test_hom_instance_shape():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    inst = hom_instance(triangle, ising_matrix(F(3)))
    assert inst.num_variables == 3
    assert len(inst.constraints) == 3
    assert set(inst.functions) == {"edge"}


@given(st.integers(0, 40), st.sampled_from([F(0), F(1, 2), F(1), F(2), F(3)]))
def test_ising_matches_direct_edge_product(seed, lam):
    import random

    rng = random.Random(seed)
    graph = random_connected_graph(rng, rng.randint(2, 6))
    assert eval_graph_hom(graph, ising_matrix(lam)) == ising_direct(graph, lam)


@given(st.integers(0, 30))
def test_hom_value_is_relabeling_invariant(seed):
    import random

    rng = random.Random(seed)
    size = rng.randint(2, 6)
    graph = random_connected_graph(rng, size)
    relabel = list(range(size))
    rng.shuffle(relabel)
    mapped = Graph.from_edges(
        size, [(relabel[u], relabel[v]) for u, v in graph.edges]
    )
    matrix = ising_matrix(F(rng.randint(0, 3)))
    assert eval_graph_hom(graph, matrix) == eval_graph_hom(mapped, matrix)


# ---------------------------------------------------------------------------
# rank and the tractability classification


def test_bulatov_grohe_hand_values():
    assert (
        bulatov_grohe_classify(TargetMatrix.from_rows([[1, 2], [2, 1]]))
        is HomTractability.HARD
    )
    assert (
        bulatov_grohe_classify(TargetMatrix.from_rows([[0, 1], [1, 0]]))
        is HomTractability.TRACTABLE
    )
    assert (
        bulatov_grohe_classify(TargetMatrix.from_rows([[1, 1], [1, 1]]))
        is HomTractability.TRACTABLE
    )
    # two disconnected loops are two rank-1 components
    assert (
        bulatov_grohe_classify(TargetMatrix.from_rows([[3, 0], [0, 2]]))
        is HomTractability.TRACTABLE
    )
    # rank-1 with ad = b^2
    assert (
        bulatov_grohe_classify(TargetMatrix.from_rows([[1, 2], [2, 4]]))
        is HomTractability.TRACTABLE
    )
    assert (
        bulatov_grohe_classify(TargetMatrix.from_rows([[0, 0], [0, 0]]))
        is HomTractability.TRACTABLE
    )


def test_bulatov_grohe_component_split_on_3x3():
    tractable = TargetMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 2]])
    assert bulatov_grohe_classify(tractable) is HomTractability.TRACTABLE
    hard = TargetMatrix.from_rows([[1, 2, 0], [2, 1, 0], [0, 0, 1]])
    assert bulatov_grohe_classify(hard) is HomTractability.HARD
    # bipartite two-block component of rank 2, plus an inert vertex
    bipartite = TargetMatrix.from_rows([[0, 3, 0], [3, 0, 0], [0, 0, 0]])
    assert bulatov_grohe_classify(bipartite) is HomTractability.TRACTABLE


def test_rank_one_targets_match_closed_form():
    import random

    for seed in range(10):
        rng = random.Random(seed)
        graph = random_connected_graph(rng, rng.randint(2, 5))
        row = [F(rng.randint(0, 3)) for _ in range(2)]
        scale = F(rng.randint(1, 3))
        matrix = TargetMatrix.from_rows(
            [[row[i] * row[j] * scale for j in range(2)] for i in range(2)]
        )
        assert bulatov_grohe_classify(matrix) is HomTractability.TRACTABLE
        assert eval_graph_hom(graph, matrix) == rank1_hom_value(matrix, graph)


def test_exhaustive_2x2_against_reference_criterion():
    for a in range(3):
        for b in range(3):
            for d in range(3):
                matrix = TargetMatrix.from_rows([[a, b], [b, d]])
                expected = bg_2x2_expected(F(a), F(b), F(d))
                got = bulatov_grohe_classify(matrix) is HomTractability.TRACTABLE
                assert got == expected, (a, b, d)


SPIN_VALUES = st.sampled_from([F(0), F(1), F(2), F(3), F(1, 2)])


@st.composite
def spin_targets(draw):
    """Symmetric targets of size <= 6, one block per disjoint set of vertices.

    A block is arbitrary, symmetric of rank 1, bipartite with a rank-1 block
    (rank 2 in all), bipartite with an arbitrary block, or left all zero.
    """
    size = draw(st.integers(1, 6))
    entries = [[F(0)] * size for _ in range(size)]
    vertices = draw(st.permutations(range(size)))
    while vertices:
        cut = draw(st.integers(1, len(vertices)))
        block, vertices = vertices[:cut], vertices[cut:]
        kind = draw(st.sampled_from(["any", "rank-1", "bipartite rank-1", "bipartite", "zero"]))
        if kind == "any":
            for a, u in enumerate(block):
                for v in block[a:]:
                    entries[u][v] = entries[v][u] = draw(SPIN_VALUES)
        elif kind == "rank-1":
            weights = [draw(SPIN_VALUES) for _ in block]
            for u, x in zip(block, weights):
                for v, y in zip(block, weights):
                    entries[u][v] = x * y
        elif kind != "zero":
            split = draw(st.integers(0, len(block)))
            left, right = block[:split], block[split:]
            if kind == "bipartite rank-1":
                x = [draw(SPIN_VALUES) for _ in left]
                y = [draw(SPIN_VALUES) for _ in right]
                half = [[a * b for b in y] for a in x]
            else:
                half = [[draw(SPIN_VALUES) for _ in right] for _ in left]
            for u, row in zip(left, half):
                for v, value in zip(right, row):
                    entries[u][v] = entries[v][u] = value
    return TargetMatrix(size, tuple(map(tuple, entries)))


@given(spin_targets())
def test_bulatov_grohe_matches_the_rank_rule(matrix):
    tractable = bulatov_grohe_classify(matrix) is HomTractability.TRACTABLE
    assert tractable == bulatov_grohe_direct(matrix)


# ---------------------------------------------------------------------------
# slice products


def test_slice_gram_matrix_values():
    skew = WeightFunction(2, 2, (F(1), F(3), F(2), F(6)))
    gram = slice_gram_matrix(skew, 0)
    assert gram.entries == ((F(10), F(20)), (F(20), F(40)))
    assert rank_direct(gram.entries) == 1

    crooked = WeightFunction(2, 2, (F(1), F(1), F(1), F(2)))
    gram = slice_gram_matrix(crooked, 0)
    assert gram.entries == ((F(2), F(3)), (F(3), F(5)))
    assert rank_direct(gram.entries) == 2
    with pytest.raises(InputError):
        slice_gram_matrix(skew, 2)
    with pytest.raises(Refusal):
        slice_gram_matrix(WeightFunction(1, 3, (F(1), F(1), F(1))), 0)


@given(st.integers(1, 3), st.data())
def test_gram_singular_iff_slices_proportional(arity, data):
    table = data.draw(
        st.lists(
            st.integers(0, 3), min_size=2**arity, max_size=2**arity
        )
    )
    f = WeightFunction(arity, 2, tuple(F(v) for v in table))
    coordinate = data.draw(st.integers(0, arity - 1))
    gram = slice_gram_matrix(f, coordinate)
    stride = 1 << (arity - 1 - coordinate)
    low = [v for i, v in enumerate(f.table) if not (i // stride) & 1]
    high = [v for i, v in enumerate(f.table) if (i // stride) & 1]
    proportional = all(
        low[i] * high[j] == low[j] * high[i]
        for i in range(len(low))
        for j in range(len(low))
    )
    assert (rank_direct(gram.entries) <= 1) == proportional


# ---------------------------------------------------------------------------
# codes and enumerators


def test_generator_matrix_validation():
    with pytest.raises(InputError):
        GeneratorMatrix.from_bits([[1, 0], [1, 0]])  # dependent rows
    with pytest.raises(InputError):
        GeneratorMatrix.from_bits([[1, 0], [0, 1], [1, 1]])  # dependent triple
    with pytest.raises(InputError):
        GeneratorMatrix.from_bits([[0, 0]])  # the zero row alone
    with pytest.raises(InputError):
        GeneratorMatrix.from_bits([[1, 2]])
    with pytest.raises(InputError):
        GeneratorMatrix.from_bits([[1, 0], [1]])
    with pytest.raises(InputError):
        GeneratorMatrix.from_bits([])
    with pytest.raises(InputError):
        GeneratorMatrix(2, (4,))
    good = GeneratorMatrix.from_bits([[1, 0, 1], [0, 1, 1]])
    assert good.dimension == 2 and good.length == 3
    assert good.rows == (0b101, 0b011)


def test_generator_matrix_from_bits_edge_cases():
    assert GeneratorMatrix.from_bits([[True, False, True]]).rows == (0b101,)
    with pytest.raises(InputError, match="code length must be positive"):
        GeneratorMatrix.from_bits([[]])
    # rows are checked in order, each for its length before its entries
    with pytest.raises(InputError, match=r"generator entry \(0,1\) must be 0 or 1"):
        GeneratorMatrix.from_bits([[1, 2], [1]])
    with pytest.raises(InputError, match="generator row 1 has inconsistent length"):
        GeneratorMatrix.from_bits([[1, 0], [1, 2, 0]])
    with pytest.raises(InputError, match="at least one row"):
        GeneratorMatrix.from_bits([])


def test_weight_enumerator_hand_values():
    lam = F(3)
    assert weight_enumerator(GeneratorMatrix.from_bits([[1, 1]]), lam) == 1 + lam**2
    assert weight_enumerator(GeneratorMatrix.from_bits([[1]]), lam) == 1 + lam
    identity = GeneratorMatrix.from_bits([[1, 0], [0, 1]])
    assert weight_enumerator(identity, lam) == (1 + lam) ** 2
    assert weight_enumerator(identity, F(0)) == 1  # only the zero word survives


@given(st.integers(0, 40), st.sampled_from([F(0), F(1, 2), F(1), F(2), F(3)]))
def test_weight_enumerator_matches_direct_enumeration(seed, lam):
    import random

    rng = random.Random(seed)
    length = rng.randint(1, 6)
    rows = []
    while True:
        candidate = [[rng.randint(0, 1) for _ in range(length)] for _ in range(
            rng.randint(1, min(4, length))
        )]
        try:
            generator = GeneratorMatrix.from_bits(candidate)
        except InputError:
            continue
        rows = candidate
        break
    # row bits pack with coordinate 0 on top
    assert generator.length == length
    assert generator.rows == tuple(int("".join(map(str, row)), 2) for row in rows)
    assert weight_enumerator(generator, lam) == weight_enum_direct(generator, lam)


def test_weight_enumerator_budget_refusal():
    generator = GeneratorMatrix.from_bits(
        [[1 if i == j else 0 for j in range(20)] for i in range(20)]
    )
    with pytest.raises(Refusal):
        weight_enumerator(generator, F(2), budget=2**10)


def test_incidence_code_hand_values():
    edge = Graph.from_edges(2, [(0, 1)])
    assert incidence_code(edge).rows == (1,)

    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert incidence_code(path).rows == (0b10, 0b11)

    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    code = incidence_code(triangle)
    assert code.dimension == 2 and code.length == 3


def test_incidence_code_errors():
    with pytest.raises(InputError):
        incidence_code(Graph.from_edges(1, []))
    with pytest.raises(InputError):
        incidence_code(Graph.from_edges(2, []))
    with pytest.raises(Refusal):
        incidence_code(Graph.from_edges(4, [(0, 1), (2, 3)]))


# ---------------------------------------------------------------------------
# the cut identity


def test_cut_identity_hand_values():
    edge = Graph.from_edges(2, [(0, 1)])
    assert cut_identity_sides(edge, F(2)) == (3, 6)
    assert verify_cut_identity(edge, F(2))

    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert cut_identity_sides(triangle, F(2)) == (13, 26)
    assert verify_cut_identity(triangle, F(2))


@given(st.integers(0, 30))
def test_cut_identity_at_weight_one_counts_subsets(seed):
    import random

    rng = random.Random(seed)
    graph = random_connected_graph(rng, rng.randint(2, 6))
    enumerator, hom_value = cut_identity_sides(graph, F(1))
    assert enumerator == 2 ** (graph.num_vertices - 1)
    assert hom_value == 2**graph.num_vertices


@given(
    st.integers(0, 60),
    st.sampled_from([F(0), F(1, 2), F(1), F(2), F(3)]),
)
def test_cut_identity_random_graphs(seed, lam):
    import random

    rng = random.Random(seed)
    graph = random_connected_graph(rng, rng.randint(2, 7))
    assert verify_cut_identity(graph, lam)


# ---------------------------------------------------------------------------
# file formats


def test_parse_graph_json_and_text():
    graph = parse_graph('{"vertices": 3, "edges": [[0, 1], [1, 2]]}')
    assert graph == Graph.from_edges(3, [(0, 1), (1, 2)])
    text = "3\n0 1  # a comment\n1 2\n"
    assert parse_graph(text) == graph
    with pytest.raises(InputError):
        parse_graph('{"vertices": 2, "edges": [[0, 1]], "extra": 1}')
    with pytest.raises(InputError):
        parse_graph('{"edges": []}')
    with pytest.raises(InputError):
        parse_graph("not a number\n0 1\n")
    with pytest.raises(InputError):
        parse_graph("3\n0 1 2\n")
    with pytest.raises(InputError):
        parse_graph("")
    with pytest.raises(InputError):
        parse_graph("{broken json")


def test_parse_target_matrix():
    matrix = parse_target_matrix('[[1, "1/2"], ["1/2", 0]]')
    assert matrix.entries == ((F(1), F(1, 2)), (F(1, 2), F(0)))
    wrapped = parse_target_matrix('{"entries": [[1, 0], [0, 1]]}')
    assert wrapped.size == 2
    with pytest.raises(InputError):
        parse_target_matrix("[]")
    with pytest.raises(InputError):
        parse_target_matrix('{"entries": [[1, 2], [3, 4]], "junk": 0}')
    with pytest.raises(InputError):
        parse_target_matrix("[[1, 2], [2, 1]")


def test_parse_generator():
    generator = parse_generator("1 0 1\n011\n")
    assert generator.rows == (0b101, 0b011)
    with pytest.raises(InputError):
        parse_generator("")
    with pytest.raises(InputError):
        parse_generator("102\n")
    with pytest.raises(InputError):
        parse_generator("11\n11\n")


def test_parse_generator_packs_a_long_row_in_linear_time():
    # packing one bit at a time took 8-10 s on this row (2-vCPU VM)
    start = time.perf_counter()
    generator = parse_generator("1" * 10**6 + "\n")
    assert time.perf_counter() - start < 1.0
    assert generator.rows == ((1 << 10**6) - 1,)


def test_load_helpers_round_trip(tmp_path):
    from wcsp.models import load_generator, load_graph, load_target_matrix

    graph_path = tmp_path / "g.txt"
    graph_path.write_text("2\n0 1\n", encoding="utf-8")
    assert load_graph(str(graph_path)) == Graph.from_edges(2, [(0, 1)])

    matrix_path = tmp_path / "h.json"
    matrix_path.write_text("[[1, 2], [2, 1]]", encoding="utf-8")
    assert load_target_matrix(str(matrix_path)).entries[0][1] == 2

    code_path = tmp_path / "a.txt"
    code_path.write_text("11\n", encoding="utf-8")
    assert load_generator(str(code_path)).rows == (0b11,)
