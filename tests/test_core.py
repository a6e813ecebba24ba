import math

import numpy as np
import pytest

from radnorm import core
from radnorm.core import (
    SIGN_BLOCK_ROWS,
    CapExceededError,
    EdgeSet,
    GraphView,
    WeightMatrix,
    bfs_distances,
    derive_graph,
    girth,
    is_tangle_free,
    level_sets,
    log_clamped,
    neighborhood_sets,
    power_graph,
    sign_patterns,
)


def graph_from_edges(n, edges):
    return GraphView.from_edges(n, edges)


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def oracle_girth(G):
    """Shortest cycle by DFS over simple paths anchored at their minimum."""
    best = math.inf

    def dfs(start, v, visited):
        nonlocal best
        for w in G.adjacency[v]:
            if w == start and len(visited) >= 3:
                best = min(best, len(visited))
            elif w > start and w not in visited and len(visited) < best:
                dfs(start, w, visited | {w})

    for s in range(G.n):
        dfs(s, s, {s})
    return best


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


class TestWeightMatrix:
    def test_basic(self):
        A = WeightMatrix([[0, 1], [2, 0]])
        assert A.n_rows == 2 and A.n_cols == 2
        assert A.zero_diagonal
        assert A.max_abs() == 2.0

    def test_symmetric_flag_enforced(self):
        with pytest.raises(ValueError):
            WeightMatrix([[0, 1], [2, 0]], symmetric=True)
        with pytest.raises(ValueError):
            WeightMatrix([[0, 1, 0], [1, 0, 1]], symmetric=True)

    def test_finite_enforced(self):
        with pytest.raises(ValueError):
            WeightMatrix([[0, math.inf], [0, 0]])
        with pytest.raises(ValueError):
            WeightMatrix([[0, math.nan], [0, 0]])

    def test_size_cap(self):
        with pytest.raises(CapExceededError):
            WeightMatrix(np.zeros((8193, 1)))

    def test_entries_read_only(self):
        A = WeightMatrix([[1.0]])
        with pytest.raises(ValueError):
            A.entries[0, 0] = 2.0

    def test_zero_one_predicate(self):
        assert WeightMatrix([[0, 1], [1, 0]]).is_zero_one()
        assert not WeightMatrix([[0, 0.5], [1, 0]]).is_zero_one()


class TestEdgeSet:
    def test_dedup_and_sort(self):
        E = EdgeSet(3, ((2, 1), (0, 1), (2, 1)))
        assert E.pairs == ((0, 1), (2, 1))

    def test_range_check(self):
        with pytest.raises(ValueError):
            EdgeSet(2, ((0, 2),))

    def test_one_based_round_trip(self):
        E = EdgeSet.from_one_based(4, [[1, 2], [3, 4]])
        assert E.pairs == ((0, 1), (2, 3))
        assert E.to_one_based() == [[1, 2], [3, 4]]

    def test_indicator_is_zero_one(self):
        E = EdgeSet(3, ((0, 1), (1, 0), (2, 2)))
        A = E.indicator()
        assert A.is_zero_one()
        assert A.entries[0, 1] == 1.0 and A.entries[2, 2] == 1.0
        assert EdgeSet.from_matrix(A).pairs == E.pairs

    def test_indicator_round_trip_of_support(self):
        # indicator support graph reproduces the symmetrized pair support
        E = EdgeSet(4, ((0, 1), (2, 3)))
        G = derive_graph(E.indicator())
        assert set(G.edges()) == {(0, 1), (2, 3)}


class TestDeriveGraph:
    def test_complete_k3(self):
        A = WeightMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]], symmetric=True)
        G = derive_graph(A)
        assert all(len(nbrs) == 2 for nbrs in G.adjacency)
        assert G.max_degree == 2

    def test_zero_matrix(self):
        G = derive_graph(WeightMatrix(np.zeros((4, 4))))
        assert G.max_degree == 0
        assert all(nbrs == () for nbrs in G.adjacency)

    def test_two_disjoint_edges(self):
        E = EdgeSet.from_one_based(4, [[1, 2], [2, 1], [3, 4], [4, 3]])
        G = derive_graph(E.indicator())
        assert G.max_degree == 1
        assert set(G.edges()) == {(0, 1), (2, 3)}

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            derive_graph(WeightMatrix([[1, 0, 0], [0, 1, 0]]))

    def test_diagonal_ignored(self):
        G = derive_graph(WeightMatrix(np.eye(3)))
        assert G.max_degree == 0


class TestPowerGraph:
    def test_path_r2(self):
        G = power_graph(path(3), 2)
        assert set(G.edges()) == {(0, 1), (0, 2), (1, 2)}

    def test_r1_identity(self):
        G = cycle(5)
        assert power_graph(G, 1) is G

    def test_cycle6_r2_degree4(self):
        G = power_graph(cycle(6), 2)
        assert all(len(nbrs) == 4 for nbrs in G.adjacency)

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = int(rng.integers(2, 65)) if trial % 5 == 0 else int(rng.integers(2, 16))
            G = random_graph(rng, n, 3.0 / n)
            r = int(rng.integers(1, 4))
            Gr = power_graph(G, r)
            for v in range(n):
                dist = bfs_distances(G.adjacency, v)
                expect = {w for w, d in dist.items() if 1 <= d <= r}
                assert set(Gr.adjacency[v]) == expect

    def test_degree_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            G = random_graph(rng, int(rng.integers(3, 14)), 0.3)
            d = G.max_degree
            if d < 2:
                continue
            r = int(rng.integers(1, 4))
            assert power_graph(G, r).max_degree <= d ** r


class TestNeighborhoodSets:
    def test_path(self):
        ip, isec = neighborhood_sets(path(3), {0})
        assert ip == {1} and isec == {0, 2}

    def test_isolated(self):
        G = graph_from_edges(3, [(0, 1)])
        ip, isec = neighborhood_sets(G, {2})
        assert ip == frozenset() and isec == frozenset()

    def test_k4(self):
        ip, isec = neighborhood_sets(complete(4), {0})
        assert ip == {1, 2, 3} and isec == {0, 1, 2, 3}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            neighborhood_sets(path(3), {5})

    def test_cardinality_bounds_and_containment(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 14))
            G = random_graph(rng, n, 0.35)
            d = G.max_degree
            size = int(rng.integers(1, n + 1))
            I = set(rng.choice(n, size=size, replace=False).tolist())
            ip, isec = neighborhood_sets(G, I)
            assert len(ip) <= d * len(I)
            assert len(isec) <= d * d * len(I)
            if all(G.adjacency[v] for v in I):
                assert I <= isec


class TestLevelSets:
    def test_unit_coordinate(self):
        ls = level_sets([1.0, 0.0], math.e)
        assert ls.buckets == {1: (0,)}

    def test_zero_vector(self):
        assert level_sets([0.0, 0.0], math.e).buckets == {}

    def test_two_buckets(self):
        # derived by direct bucket-predicate evaluation: after normalizing
        # (e^-1.5, e^-0.5), the coordinates are ~0.245 and ~0.666, so they
        # sit in buckets 2 and 1 of the e-grid
        s = np.array([math.exp(-1.5), math.exp(-0.5)])
        s = s / np.linalg.norm(s)
        ls = level_sets(s, math.e)
        assert ls.buckets == {1: (1,), 2: (0,)}

    def test_base_validation(self):
        with pytest.raises(ValueError):
            level_sets([0.5], 1.0)

    def test_norm_precondition(self):
        with pytest.raises(ValueError):
            level_sets([1.0, 1.0], math.e)

    def test_partition_and_mass(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            s = rng.standard_normal(n)
            s = s / max(np.linalg.norm(s), 1.0)
            s[rng.random(n) < 0.2] = 0.0
            base = float(rng.uniform(1.1, 4.0))
            ls = level_sets(s, base)
            all_idx = [i for v in ls.buckets.values() for i in v]
            assert len(all_idx) == len(set(all_idx))
            assert set(all_idx) == set(np.nonzero(s)[0].tolist())
            for k, idx in ls.buckets.items():
                for i in idx:
                    assert base ** (-k) < abs(s[i]) <= base ** (1 - k)
            assert ls.weighted_mass() <= float(s @ s) + 1e-12

    def test_exact_power_boundaries(self):
        ls = level_sets([math.exp(-1.0) * 0.999999999, 0.1e-30], math.e)
        (k,) = [k for k, v in ls.buckets.items() if 0 in v]
        v = math.exp(-1.0) * 0.999999999
        assert math.e ** (-k) < v <= math.e ** (1 - k)


class TestGirth:
    def test_c5(self):
        assert girth(cycle(5)) == 5

    def test_tree(self):
        assert girth(path(6)) == math.inf

    def test_k4(self):
        assert girth(complete(4)) == 3

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            G = random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
            assert girth(G) == oracle_girth(G)


class TestTangleFree:
    def test_c5(self):
        assert is_tangle_free(cycle(5), 2)

    def test_two_triangles_sharing_vertex(self):
        G = graph_from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        assert not is_tangle_free(G, 1)

    def test_tree(self):
        for r in (1, 2, 5):
            assert is_tangle_free(path(7), r)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            is_tangle_free(cycle(4), 0)


def test_log_clamped():
    assert log_clamped(1.0) == 1.0
    assert log_clamped(0.0) == 1.0
    assert log_clamped(math.e ** 2) == 2.0


class TestSignPatterns:
    @pytest.mark.parametrize("k", range(1, 16))
    def test_half_of_all_patterns_first_sign_plus(self, k):
        blocks = list(sign_patterns(k))
        assert all(0 < len(b) <= SIGN_BLOCK_ROWS for b in blocks)
        signs = np.concatenate(blocks)
        assert signs.shape == (1 << (k - 1), k)
        assert np.all(signs[:, 0] == 1.0)
        assert set(np.unique(signs)) <= {-1.0, 1.0}
        assert len({row.tobytes() for row in signs}) == 1 << (k - 1)

    def test_counting_order(self):
        signs = np.concatenate(list(sign_patterns(3)))
        assert signs.tolist() == [[1, 1, 1], [1, -1, 1], [1, 1, -1], [1, -1, -1]]

    def test_blocks_follow_the_constant(self, monkeypatch):
        monkeypatch.setattr(core, "SIGN_BLOCK_ROWS", 3)
        assert [len(b) for b in sign_patterns(4)] == [3, 3, 2]

    def test_k_validated(self):
        with pytest.raises(ValueError):
            next(sign_patterns(0))
