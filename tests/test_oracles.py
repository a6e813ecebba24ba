import itertools
import math

import numpy as np
import pytest

from radnorm.core import CapExceededError, EdgeSet, GraphView, WeightMatrix, power_graph
from radnorm.oracles import (
    connected_count_bound,
    enumerate_connected,
    subgraph_norm_enum,
    x_quantity,
)


def reference_sign_bilinear(b):
    """Full enumeration over both sign vectors (double loop)."""
    b = np.asarray(b, dtype=float)
    best = -math.inf
    for rows in itertools.product([-1.0, 1.0], repeat=b.shape[0]):
        for cols in itertools.product([-1.0, 1.0], repeat=b.shape[1]):
            best = max(best, float(np.asarray(rows) @ b @ np.asarray(cols)))
    return best


def reference_x_quantity(b):
    """Independent double loop over nonempty I, J with the sign maximum."""
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    best = 0.0
    for imask in range(1, 1 << n):
        I = [i for i in range(n) if imask >> i & 1]
        for jmask in range(1, 1 << n):
            J = [j for j in range(n) if jmask >> j & 1]
            v = reference_sign_bilinear(b[np.ix_(I, J)])
            best = max(best, v / math.sqrt(len(I) * len(J)))
    return best


def cycle(n):
    return GraphView.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return GraphView.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestXQuantity:
    def test_zero(self):
        assert x_quantity(WeightMatrix(np.zeros((3, 3)))) == 0.0

    def test_single_symmetric_pair(self):
        for sign in (1.0, -1.0):
            a = np.zeros((3, 3))
            a[0, 1] = sign
            a[1, 0] = -sign
            assert x_quantity(WeightMatrix(a)) == pytest.approx(1.0)

    def test_k3_realization_matches_reference(self):
        rng = np.random.default_rng(13)
        base = np.ones((3, 3)) - np.eye(3)
        for _ in range(5):
            signs = rng.choice([-1.0, 1.0], (3, 3))
            b = base * signs
            assert x_quantity(WeightMatrix(b)) == pytest.approx(
                reference_x_quantity(b), abs=1e-10
            )

    def test_random_matches_reference(self):
        rng = np.random.default_rng(15)
        for _ in range(6):
            n = int(rng.integers(1, 4))
            b = rng.standard_normal((n, n))
            assert x_quantity(WeightMatrix(b)) == pytest.approx(
                reference_x_quantity(b), abs=1e-10
            )

    def test_at_least_max_entry(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            b = rng.standard_normal((4, 4))
            assert x_quantity(WeightMatrix(b)) >= float(np.abs(b).max()) - 1e-12

    def test_nonnegative_and_size_cap(self):
        assert x_quantity(WeightMatrix([[-5.0]])) == 5.0
        with pytest.raises(CapExceededError):
            x_quantity(WeightMatrix(np.ones((9, 9))))


class TestEnumerateConnected:
    def test_path_middle(self):
        got = enumerate_connected(path(3), 1, 2, 1)
        assert sorted(got) == [(0, 1), (1, 2)]

    def test_k1(self):
        assert enumerate_connected(cycle(4), 2, 1, 1) == [(2,)]

    def test_c5_k3(self):
        got = enumerate_connected(cycle(5), 0, 3, 1)
        assert sorted(got) == [(0, 1, 2), (0, 1, 4), (0, 3, 4)]

    def test_matches_subset_filter(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            G = GraphView.from_edges(n, edges)
            v = int(rng.integers(n))
            k = int(rng.integers(1, 5))
            r = int(rng.integers(1, 3))
            gr = power_graph(G, r)

            def connected(subset):
                seen = {subset[0]}
                stack = [subset[0]]
                inside = set(subset)
                while stack:
                    u = stack.pop()
                    for w in gr.adjacency[u]:
                        if w in inside and w not in seen:
                            seen.add(w)
                            stack.append(w)
                return len(seen) == len(subset)

            want = sorted(
                s for s in itertools.combinations(range(n), k)
                if v in s and connected(s)
            )
            got = sorted(enumerate_connected(G, v, k, r))
            assert got == want

    def test_count_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.35]
            G = GraphView.from_edges(n, edges)
            k = int(rng.integers(1, 6))
            r = int(rng.integers(1, 3))
            total = 0
            for v in range(n):
                count = len(enumerate_connected(G, v, k, r))
                assert count <= connected_count_bound(G, k, r)
                total += count
            # total with multiplicity: each set counted once per member
            assert total <= n * connected_count_bound(G, k, r) * k


class TestXQuantityCorpusBound:
    def test_mean_x_tracks_row_plus_r_estimate(self):
        # 200 seeded realizations across tiny corpus matrices: the sample
        # mean of the normalized bilinear maximum stays within a bounded
        # multiple of sqrt(Log d) row_max + R(Log n); the constant is
        # fitted and merely has to stay under 20
        from radnorm.bounds import r_estimate
        from radnorm.core import derive_graph, log_clamped
        from radnorm.families import union_complete
        from radnorm.spectral import max_row_col_l2

        rng = np.random.default_rng(44)
        tiny = [
            union_complete(2, 1).weight_matrix(),
            union_complete(1, 3).weight_matrix(),
            union_complete(2, 2).weight_matrix(),
            WeightMatrix(np.ones((5, 5)) - np.eye(5), symmetric=True),
        ]
        for _ in range(2):
            a = rng.standard_normal((6, 6))
            np.fill_diagonal(a, 0.0)
            tiny.append(WeightMatrix(a))
        b = rng.standard_normal((8, 8)) * (rng.random((8, 8)) < 0.4)
        np.fill_diagonal(b, 0.0)
        tiny.append(WeightMatrix(b))

        fitted = 0.0
        realizations = 0
        for A in tiny:
            n = A.n_rows
            d = derive_graph(A).max_degree
            row, _ = max_row_col_l2(A)
            r = r_estimate(A, log_clamped(n)).lower
            rhs = math.sqrt(log_clamped(d)) * row + r
            if rhs == 0.0:
                continue
            total = 0.0
            reps = 29
            for rep in range(reps):
                signs = np.where(rng.random(A.entries.shape) < 0.5, -1.0, 1.0)
                total += x_quantity(WeightMatrix(A.entries * signs))
                realizations += 1
            fitted = max(fitted, (total / reps) / rhs)
        assert realizations >= 200
        assert fitted < 20.0, f"fitted constant {fitted}"


class TestSubgraphNormEnum:
    def test_p_zero(self):
        assert subgraph_norm_enum(EdgeSet(3, ((0, 1),)), 0) == 0.0

    def test_full_block_p4(self):
        E = EdgeSet(3, tuple((i, j) for i in range(3) for j in range(3)))
        assert subgraph_norm_enum(E, 4) == pytest.approx(2.0)

    def test_p_at_least_edges(self):
        E = EdgeSet(4, ((0, 1), (1, 2), (2, 0)))
        want = float(np.linalg.svd(E.indicator().entries, compute_uv=False)[0])
        assert subgraph_norm_enum(E, 99) == pytest.approx(want)

    def test_cap(self):
        E = EdgeSet(8, tuple((i, j) for i in range(8) for j in range(8)))
        with pytest.raises(CapExceededError):
            subgraph_norm_enum(E, 12)
