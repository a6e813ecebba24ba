import math
import os
from unittest import mock

import numpy as np
import pytest

from radnorm import sampler, spectral, streams
from radnorm.core import CapExceededError, WeightMatrix, sign_patterns
from radnorm.corpus import corpus_symmetric
from radnorm.sampler import (
    MODES,
    _chunk_plan,
    _component_roots,
    _sample_norms,
    exact_small_norm_expectation,
    mc_norm,
)
from radnorm.spectral import top_value_max, top_values

ALL_ONES_2 = WeightMatrix(np.ones((2, 2)))
# exhaustive 16-pattern enumeration: 8 singular patterns give norm 2,
# the other 8 give sqrt(2)
EXPECT_2x2 = (2 + math.sqrt(2)) / 2


class TestExactSmallNormExpectation:
    def test_all_ones_2x2_iid(self):
        got = exact_small_norm_expectation(ALL_ONES_2, "rademacher_iid")
        assert got == pytest.approx(EXPECT_2x2, abs=1e-12)

    def test_one_symmetric_edge(self):
        A = WeightMatrix([[0, 1], [1, 0]], symmetric=True)
        assert exact_small_norm_expectation(A, "rademacher_symmetric") == 1.0

    def test_k3_symmetric_eight_patterns(self):
        # 3 independent signs; every realization has spectrum {2, -1, -1}
        # up to sign, so the expectation is exactly 2
        A = WeightMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]], symmetric=True)
        assert exact_small_norm_expectation(A, "rademacher_symmetric") == pytest.approx(2.0)

    def test_matches_direct_enumeration(self):
        # symmetric mode flips each free lower-triangle sign with its mirror
        rng = np.random.default_rng(17)
        for mode in ("rademacher_iid", "rademacher_symmetric"):
            for _ in range(10):
                n = int(rng.integers(1, 4))
                a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.8)
                A = WeightMatrix(a)
                if mode == "rademacher_iid":
                    ii, jj = np.nonzero(a)
                else:
                    ii, jj = np.nonzero(np.tril((a != 0) | (a.T != 0)))
                k = ii.size
                if k == 0:
                    assert exact_small_norm_expectation(A, mode) == 0.0
                    continue
                total = 0.0
                for mask in range(1 << k):
                    x = np.ones_like(a)
                    for b in range(k):
                        if mask >> b & 1:
                            x[ii[b], jj[b]] = -1.0
                            if mode == "rademacher_symmetric":
                                x[jj[b], ii[b]] = -1.0
                    total += float(np.linalg.svd(a * x, compute_uv=False)[0])
                want = total / (1 << k)
                got = exact_small_norm_expectation(A, mode)
                assert got == pytest.approx(want, rel=1e-10)

    #: (weights, mode, value): the exact expectations of small inputs, bit
    #: for bit as the sign-times-weight route gave them.  In iid mode a
    #: weight's sign is lost in its own random sign; the triangle whose
    #: mirrored cells (0, 1) and (1, 0) differ in sign but share one random
    #: sign is the case a fold that drops the weights' signs gets wrong (2).
    PINNED = [
        ([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], "rademacher_symmetric",
         1.7320508075688772),
        ([[1.0, 1.0], [1.0, 1.0]], "rademacher_iid", 1.7071067811865475),
        ([[1.0, 1.0], [1.0, 1.0]], "rademacher_symmetric", 1.7071067811865475),
        ([[1.0, -1.0], [1.0, 1.0]], "rademacher_iid", 1.7071067811865475),
        ([[1.0, -1.0], [1.0, 1.0]], "rademacher_symmetric", 1.7071067811865475),
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], "rademacher_iid",
         1.4142135623730951),
        ([[1.0, -2.0, 2.0]], "rademacher_iid", 3.0),
        ([[3.0, -1.0, 0.0], [0.0, 2.0, -0.5], [0.0, 0.0, 0.0]], "rademacher_iid",
         3.259943470603513),
        ([[3.0, -1.0, 0.0], [0.0, 2.0, -0.5], [0.0, 0.0, 0.0]], "rademacher_symmetric",
         3.259943470603513),
        ([[-1.0, -2.0, 0.0], [-2.0, 1.0, -1.0], [0.0, -1.0, -3.0]], "rademacher_iid",
         3.5037836231701753),
        ([[-1.0, -2.0, 0.0], [-2.0, 1.0, -1.0], [0.0, -1.0, -3.0]], "rademacher_symmetric",
         3.5037836231701753),
    ]

    @pytest.mark.parametrize("a, mode, want", PINNED)
    def test_pinned_small_inputs(self, a, mode, want):
        assert exact_small_norm_expectation(WeightMatrix(a), mode) == want

    def test_symmetric_path_p3(self):
        # a bipartite support: the two mirrored cells of a row share a sign
        A = WeightMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        got = exact_small_norm_expectation(A, "rademacher_symmetric")
        assert abs(got - math.sqrt(2)) <= 1e-15
        est = mc_norm(A, "rademacher_symmetric", 64, 5)
        assert est.mean == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_symmetric_cycle_c4(self):
        a = np.zeros((4, 4))
        for i in range(4):
            a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1.0
        got = exact_small_norm_expectation(WeightMatrix(a), "rademacher_symmetric")
        assert abs(got - 1.7071067811865475) <= 1e-15

    def test_sign_cap(self):
        with pytest.raises(CapExceededError):
            exact_small_norm_expectation(WeightMatrix(np.ones((5, 5))), "rademacher_iid")

    def test_gaussian_rejected(self):
        with pytest.raises(ValueError):
            exact_small_norm_expectation(ALL_ONES_2, "gaussian")


class TestMcNorm:
    def test_zero_matrix(self):
        est = mc_norm(WeightMatrix(np.zeros((3, 3))), "rademacher_iid", 64, 1)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_all_ones_2x2_vs_oracle(self):
        est = mc_norm(ALL_ONES_2, "rademacher_iid", 20000, 1)
        assert abs(est.mean - EXPECT_2x2) <= 3 * est.stderr

    def test_single_entry_any_mode(self):
        A = WeightMatrix([[-2.5]])
        for mode in ("rademacher_iid", "rademacher_symmetric"):
            est = mc_norm(A, mode, 64, 3)
            assert est.mean == 2.5 and est.stderr == 0.0

    def test_stderr_scales_exactly_at_extreme_weights(self):
        # unscaled, the squares gave inf at 1e200 and 0.0 at 1e-200, and at
        # 2^1015 the 1,024 norms of about 2^1016 sum past the float range
        for j, samples in ((-700, 64), (-660, 64), (660, 64), (700, 64), (1015, 1024)):
            A = WeightMatrix(np.ldexp(np.ones((2, 2)), j))
            for run in (lambda B: mc_norm(B, "rademacher_iid", samples, 1),
                        lambda B: mc_norm(B, "rademacher_iid", 2 * samples, 1, p_list=[2])):
                base, got = run(ALL_ONES_2), run(A)
                assert got.mean == np.ldexp(base.mean, j)
                assert got.stderr == np.ldexp(base.stderr, j)

    def test_symmetric_mode_requires_square(self):
        with pytest.raises(ValueError):
            mc_norm(WeightMatrix(np.ones((2, 3))), "rademacher_symmetric", 64, 1)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_norm(ALL_ONES_2, "rademacher_iid", 8, 1)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            mc_norm(ALL_ONES_2, "bernoulli", 64, 1)

    def test_reproducible_across_threads(self):
        rng = np.random.default_rng(23)
        A = WeightMatrix(rng.standard_normal((12, 12)))
        for mode in ("rademacher_iid", "rademacher_symmetric", "gaussian"):
            one = mc_norm(A, mode, 9000, 7, threads=1)
            four = mc_norm(A, mode, 9000, 7, threads=4)
            assert one == four

    def test_matches_exact_on_small_instances(self):
        rng = np.random.default_rng(29)
        for trial in range(6):
            n = int(rng.integers(2, 4))
            a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.7)
            A = WeightMatrix(a)
            for mode in ("rademacher_iid", "rademacher_symmetric"):
                want = exact_small_norm_expectation(A, mode)
                est = mc_norm(A, mode, 4000, seed=trial)
                assert abs(est.mean - want) <= max(4 * est.stderr, 1e-12)

    def test_block_diagonal_matches_dense_path(self):
        # the component split must agree with a dense whole-matrix norm
        rng = np.random.default_rng(31)
        a = np.zeros((6, 6))
        a[:3, :3] = rng.standard_normal((3, 3))
        a[3:, 3:] = rng.standard_normal((3, 3))
        A = WeightMatrix(a)
        est = mc_norm(A, "rademacher_iid", 600, 5)
        want = exact_small_norm_expectation(A, "rademacher_iid")
        assert abs(est.mean - want) <= 4 * est.stderr


def _spy_batch_norms(monkeypatch, record):
    """Make sampler._batch_norms call record(values, plan) after each chunk."""
    real = sampler._batch_norms

    def spy(values, plan):
        out = real(values, plan)
        record(values, plan)
        return out

    monkeypatch.setattr(sampler, "_batch_norms", spy)


def _bfs_roots(n, u, v):
    """Smallest vertex of each vertex's component, by plain graph search."""
    adj = [[] for _ in range(n)]
    for x, y in zip(u.tolist(), v.tolist()):
        adj[x].append(y)
        adj[y].append(x)
    root = [-1] * n
    for s in range(n):
        if root[s] >= 0:
            continue
        root[s] = s
        stack = [s]
        while stack:
            for y in adj[stack.pop()]:
                if root[y] < 0:
                    root[y] = s
                    stack.append(y)
    return np.array(root)


class TestComponentRoots:
    def test_permuted_path(self):
        perm = np.random.default_rng(41).permutation(2048)
        u, v = perm[:-1], perm[1:]
        assert np.array_equal(_component_roots(2048, u, v), np.zeros(2048))
        assert np.array_equal(_component_roots(2048, u, v), _bfs_roots(2048, u, v))

    def test_random_forest(self):
        rng = np.random.default_rng(43)
        n = 3000
        label = rng.permutation(n)
        child = np.arange(1, n)
        keep = rng.random(n - 1) < 0.9
        parent = rng.integers(0, child)
        u, v = label[child[keep]], label[parent[keep]]
        swap = rng.random(u.size) < 0.5
        u, v = np.where(swap, v, u), np.where(swap, u, v)
        order = rng.permutation(u.size)
        u, v = u[order], v[order]
        assert np.array_equal(_component_roots(n, u, v), _bfs_roots(n, u, v))

    def test_no_edges(self):
        empty = np.zeros(0, dtype=np.intp)
        assert np.array_equal(_component_roots(5, empty, empty), np.arange(5))


def _reference_norms(a, mode, values):
    """Norms of the realizations A o X for sampled values (m, k), by plain
    scatter into zeros: X holds one value per nonzero cell in row-major
    order, or in symmetric mode one per lower-triangle cell of the
    symmetrized support, mirrored.  Each block on a component of the
    bipartite support (rows and columns in ascending order) gets
    `top_values` of its unscaled matrices; a sample's norm is the largest."""
    nr, nc = a.shape
    if mode == "rademacher_symmetric":
        ii, jj = np.nonzero(np.tril((a != 0) | (a.T != 0)))
    else:
        ii, jj = np.nonzero(a)
    x = np.zeros((values.shape[0], nr, nc))
    x[:, ii, jj] = values
    if mode == "rademacher_symmetric":
        x[:, jj, ii] = values
    cells_i, cells_j = np.nonzero(a)
    roots = _bfs_roots(nr + nc, cells_i, nr + cells_j)
    out = np.zeros(values.shape[0])
    for root in np.unique(roots[cells_i]):
        rows = np.flatnonzero(roots[:nr] == root)
        cols = np.flatnonzero(roots[nr:] == root)
        block = np.zeros((values.shape[0], rows.size, cols.size))
        block[:] = a[np.ix_(rows, cols)] * x[:, rows][:, :, cols]
        out = np.maximum(out, top_values(block))
    return out


def _mixed_blocks(seed, exponents):
    """A square matrix of 1x1, 1xk, kx1 and several same-shape blocks and
    two lone larger ones (sides 4x5 and 12x12, above the contiguous
    transpose gate), rows and columns permuted, with entries m 2^e, m in
    [1, 2) and e drawn from `exponents`; every cell is nonzero but one of
    each 3x3 block, which stays connected."""
    rng = np.random.default_rng(seed)
    shapes = [(1, 1), (1, 1), (1, 3), (2, 1), (4, 5), (12, 12)] + [(3, 3)] * 6 + [(2, 4)] * 3
    n = max(sum(r for r, _ in shapes), sum(c for _, c in shapes))
    a = np.zeros((n, n))
    r0 = c0 = 0
    for r, c in shapes:
        e = rng.integers(exponents[0], exponents[1] + 1, size=(r, c))
        block = np.ldexp(rng.uniform(1.0, 2.0, size=(r, c)), e)
        block *= rng.choice([-1.0, 1.0], size=(r, c))
        if (r, c) == (3, 3):
            block[0, 2] = 0.0
        a[r0:r0 + r, c0:c0 + c] = block
        r0, c0 = r0 + r, c0 + c
    return a[rng.permutation(n)][:, rng.permutation(n)]


#: Entry exponent ranges: the smallest subnormal to near the largest
#: finite, separately and within one block.
EXPONENTS = [(-1074, -1000), (-1074, -1040), (-20, 20), (900, 1000), (-1074, 1000)]


class TestPrescaledPlan:
    """The Rademacher plan folds each block's power-of-two shift into its
    weights; every norm keeps the bits of the unscaled route."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("exponents", EXPONENTS)
    def test_sampled_norms_equal_the_scatter_reference(self, mode, exponents):
        for seed in range(3):
            a = _mixed_blocks(seed, exponents)
            k, plan = sampler._norm_plan(*sampler._cells(WeightMatrix(a)), mode)
            assert {g["shape"] for g in plan} >= {(1, 1), (1, 3), (2, 1), (4, 5), (3, 3)}
            u = np.concatenate([b for _, b in streams.uniform_blocks(seed, k, 300)])
            values = (streams.gaussians_from_uniform(u) if mode == "gaussian"
                      else streams.signs_from_uniform(u))
            want = _reference_norms(a, mode, values)
            with np.errstate(all="raise", under="ignore"):
                got = _sample_norms(WeightMatrix(a), mode, 300, seed)
            assert np.array_equal(got, want), (seed, mode, exponents)

    @pytest.mark.parametrize("mode", ["rademacher_iid", "rademacher_symmetric"])
    @pytest.mark.parametrize("exponents", [(-1074, -1060), (-3, 3), (980, 1000)])
    def test_exact_expectation_equals_the_scatter_reference(self, mode, exponents):
        rng = np.random.default_rng(7)
        for trial in range(4):
            e = rng.integers(exponents[0], exponents[1] + 1, size=(4, 4))
            a = np.ldexp(rng.uniform(1.0, 2.0, size=(4, 4)), e)
            a *= rng.random((4, 4)) < 0.6
            if trial == 0:
                a[:2, 2:] = a[2:, :2] = 0.0  # two blocks
            k = sampler._norm_plan(*sampler._cells(WeightMatrix(a)), mode)[0]
            if k == 0:
                continue
            total = sum(float(_reference_norms(a, mode, signs).sum())
                        for signs in sign_patterns(k))
            want = total / (1 << (k - 1))
            assert exact_small_norm_expectation(WeightMatrix(a), mode) == want

    @pytest.mark.parametrize("exponents", EXPONENTS)
    @pytest.mark.parametrize("g", [1, 9])
    def test_prescaled_stack_equals_the_unscaled_stack(self, exponents, g):
        rng = np.random.default_rng(g)
        for r, c in ((2, 2), (3, 5), (6, 4), (12, 12)):
            w = np.ldexp(rng.uniform(1.0, 2.0, size=(g, r, c)),
                         rng.integers(exponents[0], exponents[1] + 1, size=(g, r, c)))
            w *= rng.random((g, r, c)) < 0.7
            w[:, 0, 0] = 1.5  # no block all zero
            shift = np.frexp(np.abs(w).reshape(g, -1).max(axis=1))[1]
            signs = rng.choice([-1.0, 1.0], size=(40, g, r, c))
            prescaled = signs * np.ldexp(w, -shift[:, None, None])
            for floor in (np.zeros(40), np.ldexp(rng.uniform(0, 3, size=40), shift.max())):
                want = top_value_max(signs * w, floor)
                assert np.array_equal(top_value_max(prescaled, floor, shift), want)

    def test_single_block_group_skips_the_bracket(self):
        a = np.random.default_rng(8).standard_normal((5, 4))
        with mock.patch.object(spectral, "_bracket", side_effect=AssertionError):
            for mode in ("rademacher_iid", "gaussian"):
                _sample_norms(WeightMatrix(a), mode, 200, 1)
            _sample_norms(WeightMatrix(a[:4]), "rademacher_symmetric", 200, 1)


class TestChunkedSampling:
    """Pool tasks are equal row chunks of one stream block at a time."""

    A6 = WeightMatrix(np.random.default_rng(41).standard_normal((6, 6)))

    @pytest.fixture(autouse=True)
    def unclamped(self, monkeypatch):
        # the chunk plan clamps threads to the usable CPUs; these tests are
        # about the plan for a given thread count on any host, so the clamp
        # is lifted unless a test sets a CPU count of its own
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1 << 30)

    def test_threads_validated(self):
        for threads in (0, -1):
            with pytest.raises(ValueError):
                mc_norm(ALL_ONES_2, "rademacher_iid", 64, 1, threads=threads)
            with pytest.raises(ValueError):
                mc_norm(ALL_ONES_2, "rademacher_iid", 200, 1, threads=threads, p_list=[2])

    def test_chunk_plan_splits_evenly_per_thread(self):
        # dense_gauss_n128: blocks of 258 and 42 rows, 16,384 elements a row
        assert _chunk_plan(258, 128 * 128, 2) == ([0, 129, 258], 2)
        assert _chunk_plan(42, 128 * 128, 2) == ([0, 21, 42], 2)
        # sparse_gauss_n256: one 254x253 component, 130 rows per thread
        edges, workers = _chunk_plan(300, 254 * 253, 2)
        assert edges == [0, 75, 150, 225, 300] and workers == 2
        assert _chunk_plan(300, 254 * 253, 1) == ([0, 150, 300], 1)

    def test_chunk_plan_never_more_workers_than_chunks(self):
        # a pure call: no pool is started for this thread count
        for rows in (1, 7, 300):
            edges, workers = _chunk_plan(rows, 254 * 253, 10_000)
            sizes = np.diff(edges)
            assert edges[0] == 0 and edges[-1] == rows
            assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1
            assert workers == len(sizes) == rows

    def test_chunk_plan_threads_clamped_to_cpus(self, monkeypatch):
        # a pure call: mc --threads 5000 on a 4-position matrix must not
        # plan 4,096 workers for a 4,096-row block
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        assert _chunk_plan(4096, 4, 5000) == ([0, 2048, 4096], 2)
        for rows in (1, 7, 300, 4096):
            for threads in (1, 2, 3, 5000):
                edges, workers = _chunk_plan(rows, 254 * 253, threads)
                assert workers <= 2 and workers <= len(edges) - 1
                assert edges[0] == 0 and edges[-1] == rows

    def test_single_block_split_into_chunks(self, monkeypatch):
        # 500 samples of 36 positions fit one block; a budget of 40 rows
        # splits it into 13 or more chunks
        want = {m: _sample_norms(self.A6, m, 500, 3) for m in MODES}
        monkeypatch.setattr(sampler, "_REALIZE_BUDGET", 36 * 40)
        for mode in MODES:
            for threads in (1, 2, 3):
                got = _sample_norms(self.A6, mode, 500, 3, threads)
                assert np.array_equal(got, want[mode]), (mode, threads)

    def test_fewer_blocks_than_threads(self, monkeypatch):
        rows = []
        _spy_batch_norms(monkeypatch, lambda values, plan: rows.append(len(values)))
        for mode in MODES:
            rows.clear()
            want = _sample_norms(self.A6, mode, 100, 4)
            assert rows == [100]  # one block, one chunk
            for threads in (2, 3):
                rows.clear()
                got = _sample_norms(self.A6, mode, 100, 4, threads)
                assert np.array_equal(got, want), (mode, threads)
                assert len(rows) == threads

    def test_chunks_within_shared_budget(self, monkeypatch):
        budget = 36 * 60
        monkeypatch.setattr(sampler, "_REALIZE_BUDGET", budget)
        elements = []
        _spy_batch_norms(monkeypatch, lambda values, plan: elements.append(
            len(values) * sum(g["count"] * g["shape"][0] * g["shape"][1] for g in plan)))
        for threads in (1, 2, 3):
            elements.clear()
            _sample_norms(self.A6, "gaussian", 700, 5, threads)
            assert len(elements) > threads
            assert max(elements) <= budget // threads

    def test_blocks_drawn_lazily(self, monkeypatch):
        drawn = []
        blocks = streams.uniform_blocks

        def counting_blocks(*args):
            for item in blocks(*args):
                drawn.append(item[0])
                yield item

        seen = []
        monkeypatch.setattr(streams, "_BLOCK_BUDGET", 36 * 50)  # 50-sample blocks
        monkeypatch.setattr(streams, "uniform_blocks", counting_blocks)
        _spy_batch_norms(monkeypatch, lambda values, plan: seen.append(len(drawn)))
        _sample_norms(self.A6, "rademacher_iid", 400, 6, threads=2)
        assert len(drawn) == 8
        # two chunks per block, each done before the next block is drawn
        assert seen == [b for b in range(1, 9) for _ in range(2)]


def test_usable_cpus_within_machine():
    assert 1 <= sampler._usable_cpus() <= (os.cpu_count() or 1)


class TestSymmetrizationInequality:
    def test_symmetric_at_most_twice_iid(self):
        for name, A in corpus_symmetric()[:6]:
            sym = mc_norm(A, "rademacher_symmetric", 500, 11)
            iid = mc_norm(A, "rademacher_iid", 500, 11)
            slack = 4 * (sym.stderr + iid.stderr)
            assert sym.mean <= 2 * iid.mean + slack, name


class TestGaussianDomination:
    def test_iid_below_kappa_times_gaussian(self):
        kappa = math.sqrt(math.pi / 2)
        rng = np.random.default_rng(37)
        for trial in range(5):
            n = int(rng.integers(2, 9))
            A = WeightMatrix(rng.standard_normal((n, n)))
            iid = mc_norm(A, "rademacher_iid", 1500, trial)
            gau = mc_norm(A, "gaussian", 1500, trial)
            assert iid.mean <= kappa * gau.mean + 4 * (iid.stderr + gau.stderr)


class TestMcNormMoments:
    def test_single_entry_all_moments_exact(self):
        A = WeightMatrix([[2.0]])
        est = mc_norm(A, "rademacher_iid", 128, 1, p_list=[1, 2, 16, 64])
        for p, (val, se) in est.p_moments.items():
            assert val == 2.0 and se == 0.0

    def test_all_ones_second_moment(self):
        # 16-pattern enumeration: E norm^2 = (8*4 + 8*2)/16 = 3
        est = mc_norm(ALL_ONES_2, "rademacher_iid", 20000, 3, p_list=[2])
        val, se = est.p_moments[2.0]
        assert abs(val - math.sqrt(3)) <= 3 * se

    def test_log_moment_runs(self):
        A = WeightMatrix(np.ones((8, 8)) - np.eye(8))
        p = 2 * int(math.log(max(8, math.e)))
        est = mc_norm(A, "rademacher_iid", 300, 5, p_list=[p])
        val, se = est.p_moments[float(p)]
        assert val > 0 and se >= 0

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            mc_norm(ALL_ONES_2, "rademacher_iid", 200, 1, p_list=[65])
        with pytest.raises(ValueError):
            mc_norm(ALL_ONES_2, "rademacher_iid", 50, 1, p_list=[2])

    def test_mean_agrees_with_mc_norm(self):
        est1 = mc_norm(ALL_ONES_2, "rademacher_iid", 500, 9)
        est2 = mc_norm(ALL_ONES_2, "rademacher_iid", 500, 9, p_list=[2])
        assert est1.mean == est2.mean and est1.stderr == est2.stderr
        assert est1.p_moments is None


class TestSerialization:
    def test_json_dict(self):
        est = mc_norm(ALL_ONES_2, "rademacher_iid", 200, 4, p_list=[2])
        d = est.to_json_dict()
        assert set(d) == {"mean", "stderr", "samples", "seed", "mode", "p_moments"}
        assert d["p_moments"]["2.0"]["estimate"] > 0

    def test_csv_row_format(self):
        est = mc_norm(ALL_ONES_2, "rademacher_iid", 64, 4)
        row = est.csv_row("m1")
        parts = row.split(",")
        assert parts[0] == "m1" and parts[1] == "rademacher_iid"
        assert parts[2] == "64" and parts[3] == "4"
        assert float(parts[4]) == est.mean and float(parts[5]) == est.stderr
