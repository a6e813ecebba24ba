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
    log_clamped,
    off_diagonal,
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

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_off_diagonal_skips_the_diagonal(self, n):
        a = np.random.default_rng(n).normal(size=(n, n))
        a[np.diag_indices(n)] = 9.0
        want = sorted(a[~np.eye(n, dtype=bool)])
        assert sorted(off_diagonal(a).ravel()) == want
        assert sorted(off_diagonal(a.T).ravel()) == sorted(a.T[~np.eye(n, dtype=bool)])
        assert n < 2 or np.shares_memory(off_diagonal(a), a)


class TestEdgeSet:
    def test_dedup_and_sort(self):
        E = EdgeSet(3, ((2, 1), (0, 1), (2, 1)))
        assert E.pairs == ((0, 1), (2, 1))

    def test_range_check(self):
        with pytest.raises(ValueError):
            EdgeSet(2, ((0, 2),))

    @pytest.mark.parametrize("pairs, first", [
        (((5, 0), (1, 3), (-1, 9), (0, 0)), (-1, 9)),
        (((2, 2), (2, 3), (0, 7)), (0, 7)),
        (((2 ** 70, 0), (1, 5)), (1, 5)),
        (((2 ** 70, 0), (0, 1)), (2 ** 70, 0)),
    ])
    def test_range_check_reports_the_first_bad_pair(self, pairs, first):
        # the lexicographically first pair out of range, even past int64
        with pytest.raises(ValueError, match=rf"^pair \({first[0]}, {first[1]}\) out of range"):
            EdgeSet(3, pairs)

    @pytest.mark.parametrize("pairs", [((0, 1, 2),), ((0, 1, 2), (1, 2, 0)), ((0,), (1,))])
    def test_rejects_non_pairs(self, pairs):
        with pytest.raises(ValueError):
            EdgeSet(3, pairs)

    def test_numpy_indices_stored_as_python_ints(self):
        E = EdgeSet(4, [np.array([3, 1]), (np.int32(0), 2), [3, 1]])
        assert E.pairs == ((0, 2), (3, 1))
        assert all(type(x) is int for pair in E.pairs for x in pair)
        assert EdgeSet(4, ()).pairs == ()

    def test_index_arrays_built_once_and_read_only(self):
        E = EdgeSet(4, ((3, 1), (0, 2), (0, 0)))
        rows, cols = E.index_arrays()
        assert rows.tolist() == [0, 0, 3] and cols.tolist() == [0, 2, 1]
        assert E.index_arrays()[0] is rows and E.index_arrays()[1] is cols
        for arr in (rows, cols):
            with pytest.raises(ValueError):
                arr[0] = 1
        assert E.pairs == ((0, 0), (0, 2), (3, 1))
        assert E == EdgeSet(4, ((0, 0), (0, 2), (3, 1)))
        assert [a.size for a in EdgeSet(2, ()).index_arrays()] == [0, 0]

    def test_indicator_symmetry_flag(self):
        assert EdgeSet(3, ((0, 1), (1, 0), (2, 2))).indicator().symmetric
        assert not EdgeSet(3, ((0, 1), (2, 2))).indicator().symmetric
        assert EdgeSet(3, ()).indicator().symmetric

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
