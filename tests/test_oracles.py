"""The reference implementations themselves, pinned on hand-computed cases.

If these fail, every downstream equivalence test is meaningless, so the
expected values here are frozen literals, worked out by hand.
"""

from fractions import Fraction

from oracles import (
    affine_by_closure,
    bg_2x2_expected,
    connected_direct,
    decode,
    encode,
    enumerate_affine_supports,
    gf2_count_direct,
    ising_direct,
    partition_function_direct,
    product_like_direct,
    product_type_by_decomposition,
    pure_affine_direct,
    rank1_hom_value,
    rank_direct,
    weight_enum_direct,
)

from wcsp.model import Constraint, Instance, WeightFunction
from wcsp.models import GeneratorMatrix, Graph, TargetMatrix

F = Fraction


def test_decode_encode_round_trip():
    for arity in range(5):
        for index in range(1 << arity):
            assert encode(decode(index, arity)) == index
    assert decode(5, 3) == (1, 0, 1)  # big-endian: first coordinate on top


def test_decomposition_search_on_known_tables():
    # disequality: one complementary pair
    assert product_type_by_decomposition([0, 1, 1, 0], 2)
    # rank-one table (1,3,2,6) = (1,2) x (1,3)
    assert product_type_by_decomposition([1, 3, 2, 6], 2)
    # ternary parity indicator is not a product
    assert not product_type_by_decomposition([0, 1, 1, 0, 1, 0, 0, 1], 3)
    # the zero function decomposes trivially
    assert product_type_by_decomposition([0, 0, 0, 0], 2)
    # one lonely off-diagonal support point: pins realize it
    assert product_type_by_decomposition([0, 7, 0, 0], 2)
    # support {00, 01, 10} is no box
    assert not product_type_by_decomposition([1, 1, 1, 0], 2)
    # box support but skewed values: f(11)*f(00) != f(01)*f(10)
    assert not product_type_by_decomposition([1, 1, 1, 2], 2)
    # constants are empty products
    assert product_type_by_decomposition([5], 0)
    # every unary decomposes
    assert product_type_by_decomposition([3, 7], 1)


def test_product_like_direct_on_known_tables():
    # (1, 3, 2, 6) = (1, 2) x (1, 3): slice ratios 1/2 and 1/3
    assert product_like_direct([1, 3, 2, 6], 2) == (True, {0: F(1, 2), 1: F(1, 3)})
    # skewed: rows (1, 1) and (1, 2) of the second coordinate differ
    assert product_like_direct([1, 1, 1, 2], 2) == (False, {})
    # disequality: no row is positive on both slices, so nothing is useful
    assert product_like_direct([0, 1, 1, 0], 2) == (True, {})
    # the 1-slice vanishes where the 0-slice does not
    assert product_like_direct([1, 1, 1, 0], 2) == (False, {})
    assert product_like_direct([3, 4], 1) == (True, {0: F(3, 4)})


def test_affine_closure_on_known_relations():
    assert affine_by_closure({0b001, 0b010, 0b100, 0b111}, 3)  # odd parity
    assert not affine_by_closure({0b01, 0b10, 0b11}, 2)
    assert affine_by_closure(set(), 2)
    assert affine_by_closure({0b00, 0b11}, 2)


def test_pure_affine_direct_on_known_tables():
    assert pure_affine_direct([0, 3, 3, 0, 3, 0, 0, 3])  # scaled odd parity
    assert not pure_affine_direct([1, 0, 0, 3])  # two distinct values
    assert not pure_affine_direct([0, 0, 0, 0])  # empty support
    assert pure_affine_direct([0, 1])  # a point mass


def test_gf2_count_direct():
    assert gf2_count_direct(3, [(0b111, 1)]) == 4
    assert gf2_count_direct(1, [(0b1, 0), (0b1, 1)]) == 0
    assert gf2_count_direct(5, []) == 32


def test_connected_direct_hand_values():
    assert connected_direct(Graph.from_edges(0, []))
    assert connected_direct(Graph.from_edges(1, []))
    assert not connected_direct(Graph.from_edges(2, []))
    assert connected_direct(Graph.from_edges(4, [(2, 3), (1, 2), (0, 1)]))  # path
    assert not connected_direct(Graph.from_edges(4, [(0, 1), (2, 3)]))  # two edges


def test_ising_direct_hand_values():
    edge = Graph.from_edges(2, [(0, 1)])
    assert ising_direct(edge, F(2)) == 6  # 2 + 2*lambda
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert ising_direct(triangle, F(2)) == 26  # 2 + 6*lambda^2


def test_partition_function_direct_hand_values():
    neq = WeightFunction(2, 3, tuple(F(int(a != b)) for a in range(3) for b in range(3)))
    lean = WeightFunction(1, 3, (F(1), F(2), F(1, 2)))
    half = WeightFunction(0, 3, (F(1, 2),))
    # a triangle of disequalities has 3! proper colourings; a fourth,
    # unconstrained variable multiplies by 3
    triangle = [Constraint("neq", pair) for pair in ((0, 1), (1, 2), (0, 2))]
    assert partition_function_direct(Instance(4, 3, {"neq": neq}, tuple(triangle))) == 18
    # lean on variable 0, used twice: 1 + 4 + 1/4; the arity-0 half halves it
    functions = {"lean": lean, "half": half}
    constraints = (Constraint("lean", (0,)), Constraint("lean", (0,)), Constraint("half", ()))
    assert partition_function_direct(Instance(1, 3, functions, constraints)) == F(21, 8)
    # neq on a repeated variable is 0 everywhere
    looped = (Constraint("neq", (0, 0)),)
    assert partition_function_direct(Instance(1, 3, {"neq": neq}, looped)) == 0
    assert partition_function_direct(Instance(0, 2, {}, ())) == 1


def test_weight_enum_direct_hand_values():
    lam = F(3)
    assert weight_enum_direct(GeneratorMatrix.from_bits([[1, 1]]), lam) == 1 + lam**2
    assert weight_enum_direct(GeneratorMatrix.from_bits([[1]]), lam) == 1 + lam
    assert (
        weight_enum_direct(GeneratorMatrix.from_bits([[1, 0], [0, 1]]), lam)
        == (1 + lam) ** 2
    )


def test_bg_2x2_expected_spot_checks():
    assert not bg_2x2_expected(F(1), F(2), F(1))  # Ising at lambda=2
    assert bg_2x2_expected(F(0), F(1), F(0))  # pure bipartite edge
    assert bg_2x2_expected(F(1), F(1), F(1))  # rank one
    assert bg_2x2_expected(F(1), F(2), F(4))  # rank one, 1*4 = 2^2
    assert bg_2x2_expected(F(3), F(0), F(2))  # two separate loops


def test_rank_direct_hand_values():
    assert rank_direct([]) == 0
    assert rank_direct([[F(0), F(0)]]) == 0
    assert rank_direct([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank_direct([[F(1), F(2)], [F(2), F(1)]]) == 2
    assert (
        rank_direct(
            [
                [F(1), F(0), F(1)],
                [F(0), F(1), F(1)],
                [F(1), F(1), F(2)],
            ]
        )
        == 2
    )


def test_rank1_closed_form_matches_enumeration():
    graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    for rows in ([[1, 2], [2, 4]], [[1, 1], [1, 1]], [[0, 0], [0, 3]]):
        matrix = TargetMatrix.from_rows(rows)
        expected = F(0)
        for mask in range(1 << graph.num_vertices):
            weight = F(1)
            for u, v in graph.edges:
                weight *= matrix.entries[(mask >> u) & 1][(mask >> v) & 1]
            expected += weight
        assert rank1_hom_value(matrix, graph) == expected


def test_affine_support_counts():
    # 1 + number of affine subsets: dimension-r subspace counts for GF(2)^k
    # times their 2^(k-r) cosets; at k=4 that totals 307 non-empty sets.
    assert len(enumerate_affine_supports(0)) == 1
    assert len(enumerate_affine_supports(1)) == 3
    assert len(enumerate_affine_supports(2)) == 11
    assert len(enumerate_affine_supports(3)) == 51
    assert len(enumerate_affine_supports(4)) == 307
    for support in enumerate_affine_supports(3):
        assert affine_by_closure(support, 3)
