import math

import numpy as np
import pytest

from radnorm.core import EdgeSet, GraphView, derive_graph, girth, is_tangle_free, log_clamped
from radnorm.families import (
    block_plus_singletons,
    circulant,
    expander_check,
    large_girth_instance,
    moore_bound,
    one_cycle_neighborhood_instance,
    random_regular,
    union_complete,
)
from radnorm.spectral import max_row_col_l2


def degrees(E: EdgeSet):
    deg = [0] * E.n
    for i, j in E.pairs:
        if i != j:
            deg[i] += 1
    return deg


class TestUnionComplete:
    def test_two_single_edges(self):
        inst = union_complete(2, 1)
        assert inst.matrix.pairs == ((0, 1), (1, 0), (2, 3), (3, 2))

    def test_k3(self):
        inst = union_complete(1, 2)
        A = inst.weight_matrix()
        assert np.array_equal(A.entries, np.ones((3, 3)) - np.eye(3))

    def test_m3_d3_regular(self):
        inst = union_complete(3, 3)
        assert inst.params["n"] == 12
        assert all(d == 3 for d in degrees(inst.matrix))

    def test_predicted_scale(self):
        inst = union_complete(4, 3)
        n = 16
        assert inst.predicted == pytest.approx(
            math.sqrt(3) + min(3, math.sqrt(log_clamped(n)))
        )

    def test_param_validation(self):
        with pytest.raises(ValueError):
            union_complete(0, 3)

    @pytest.mark.parametrize("m, d", [(1, 1), (5, 1), (1, 7), (3, 4), (113, 8)])
    def test_equals_the_block_loop(self, m, d):
        # the pairs of every block, both orientations, built one by one
        want = sorted((b * (d + 1) + i, b * (d + 1) + j)
                      for b in range(m) for i in range(d + 1) for j in range(d + 1)
                      if i != j)
        E = union_complete(m, d).matrix
        assert E.pairs == tuple(want)
        a = np.zeros((E.n, E.n))
        for i, j in want:
            a[i, j] = 1.0
        A = E.indicator()
        assert np.array_equal(A.entries, a) and A.symmetric


class TestRandomRegular:
    def test_n4_d3_is_k4(self):
        inst = random_regular(4, 3, seed=1)
        A = inst.weight_matrix().entries
        assert np.array_equal(A, np.ones((4, 4)) - np.eye(4))

    def test_d2_is_cycle_cover(self):
        inst = random_regular(6, 2, seed=3)
        G = derive_graph(inst.weight_matrix())
        assert all(len(nbrs) == 2 for nbrs in G.adjacency)

    def test_n100_d3_regular(self):
        inst = random_regular(100, 3, seed=42)
        assert all(d == 3 for d in degrees(inst.matrix))
        assert inst.predicted == pytest.approx(math.sqrt(3))

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, seed=1)
        with pytest.raises(ValueError):
            random_regular(4, 4, seed=1)

    def test_deterministic_per_seed(self):
        a = random_regular(20, 3, seed=9).matrix.pairs
        b = random_regular(20, 3, seed=9).matrix.pairs
        assert a == b


class TestLargeGirth:
    def test_n10_d2_g10_is_c10(self):
        inst = large_girth_instance(10, 2, 10, seed=3)
        G = derive_graph(inst.weight_matrix())
        assert all(len(nbrs) == 2 for nbrs in G.adjacency)
        assert girth(G) == 10

    def test_girth_holds(self):
        inst = large_girth_instance(30, 3, 5, seed=7)
        G = derive_graph(inst.weight_matrix())
        assert girth(G) >= 5
        assert G.max_degree <= 3

    def test_moore_infeasible(self):
        with pytest.raises(ValueError):
            large_girth_instance(5, 4, 6, seed=1)

    def test_moore_bound_values(self):
        assert moore_bound(3, 5) == 10  # Petersen graph size
        assert moore_bound(3, 6) == 14  # Heawood graph size
        assert moore_bound(4, 6) == 26


class TestOneCycleNeighborhood:
    def test_instance_passes_predicate(self):
        inst = one_cycle_neighborhood_instance(40, 3, 2, seed=7)
        G = derive_graph(inst.weight_matrix())
        assert is_tangle_free(G, 2)
        assert G.max_degree <= 3

    def test_shared_triangles_never_emitted(self):
        # negative structural test: a graph with two triangles through one
        # vertex fails the predicate the generator enforces
        G = GraphView.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        assert not is_tangle_free(G, 1)
        for seed in range(3):
            inst = one_cycle_neighborhood_instance(12, 4, 1, seed=seed)
            assert is_tangle_free(derive_graph(inst.weight_matrix()), 1)

    def test_chorded_cycle_allowed(self):
        # C_9 plus one chord far from itself stays 1-tangle-free
        edges = [(i, (i + 1) % 9) for i in range(9)] + [(0, 2)]
        G = GraphView.from_edges(9, edges)
        assert is_tangle_free(G, 1)


class TestExpanderCheck:
    def test_k4(self):
        E = union_complete(1, 3).matrix
        assert expander_check(E) == (3, pytest.approx(1.0))

    def test_c6(self):
        # cycle spectrum 2 cos(2 pi k / 6): one copy of the top value 2 is
        # dropped, the -2 at the other end stays
        E = EdgeSet(6, tuple(
            p for i in range(6) for p in [(i, (i + 1) % 6), ((i + 1) % 6, i)]
        ))
        d, lam = expander_check(E)
        assert d == 2 and lam == pytest.approx(2.0)

    def test_disjoint_k2(self):
        E = union_complete(2, 1).matrix
        assert expander_check(E) == (1, pytest.approx(1.0))

    def test_complete_graphs_lambda_one(self):
        for d in range(1, 9):
            dd, lam = expander_check(union_complete(1, d).matrix)
            assert dd == d and lam == pytest.approx(1.0)

    def test_non_regular_rejected(self):
        E = EdgeSet(3, ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            expander_check(E)

    def test_self_loop_rejected(self):
        E = EdgeSet(2, ((0, 0), (0, 1), (1, 0), (1, 1)))
        with pytest.raises(ValueError):
            expander_check(E)


class TestBlockPlusSingletons:
    def test_n3_d1(self):
        inst = block_plus_singletons(3, 1)
        assert inst.matrix.to_one_based() == [[1, 1], [2, 2], [3, 3]]

    def test_n5_d2(self):
        inst = block_plus_singletons(5, 2)
        assert inst.matrix.to_one_based() == [
            [1, 1], [1, 2], [2, 1], [2, 2], [3, 3], [4, 4], [5, 5],
        ]

    def test_d_equals_n(self):
        inst = block_plus_singletons(3, 3)
        assert len(inst.matrix.pairs) == 9

    def test_scales(self):
        inst = block_plus_singletons(100, 4)
        assert inst.predicted == pytest.approx(2.0)
        upper = inst.extra_scales["one_sided_upper"]["value"]
        assert upper == pytest.approx(2.0 + min(4, math.sqrt(log_clamped(100))))


class TestCirculant:
    def test_shift_matrix(self):
        b = np.zeros(5)
        b[1] = 1.0
        A = circulant(b).weight_matrix()
        assert np.array_equal(A.entries, np.roll(np.eye(5), 1, axis=0))

    def test_zero(self):
        A = circulant(np.zeros(4)).weight_matrix()
        assert not A.entries.any()

    def test_row_col_norms_equal_b(self):
        b = np.array([0, 1, 1, 0, 0])
        A = circulant(b).weight_matrix()
        row, col = max_row_col_l2(A)
        assert row == pytest.approx(math.sqrt(2))
        assert col == pytest.approx(math.sqrt(2))

    def test_general_weights(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal(8)
        inst = circulant(b)
        A = inst.weight_matrix()
        rn = np.sqrt((A.entries ** 2).sum(axis=1))
        assert np.allclose(rn, np.linalg.norm(b))
        assert inst.predicted == pytest.approx(np.linalg.norm(b))


class TestEnvelope:
    def test_serialization_keys(self):
        inst = union_complete(2, 2)
        d = inst.to_json_dict()
        assert d["family"] == "union_complete"
        assert d["kind"] == "edges"
        assert d["payload"]["n"] == 6
        assert "predicted" in d and "formula" in d

    def test_matrix_payload(self):
        inst = circulant([0.0, 1.0])
        d = inst.to_json_dict()
        assert d["kind"] == "matrix"
        assert d["payload"]["entries"] == [[0.0, 1.0], [1.0, 0.0]]
