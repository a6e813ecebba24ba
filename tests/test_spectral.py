import math
from unittest import mock

import numpy as np
import pytest

from radnorm import spectral
from radnorm.core import WeightMatrix
from radnorm.families import union_complete
from radnorm.oracles import top_singular_value
from radnorm.sampler import _sample_norms
from radnorm.spectral import (
    _GRAM_SLICE,
    _PRUNE_MARGIN,
    CONTIGUOUS_T_MAX,
    FULL_DECOMPOSITION_MAX,
    POWER_PAIR_MIN,
    _bracket,
    _certified_top,
    _gram,
    _start_vector,
    max_row_col_l2,
    power_pair,
    pow2_scaled,
    spectral_norm,
    top_pair,
    top_value_max,
    top_values,
)

#: The stated tolerance of `top_values` against an SVD on sides >= 2.
KERNEL_RTOL = 16 * np.finfo(float).eps


def one_pair(a, gram=False):
    """`top_pair` of a single matrix, as a stack of one."""
    sigma, u, v = top_pair(a[None], gram)
    return float(sigma[0]), u[0], v[0]


class TestSpectralNorm:
    def test_all_ones(self):
        assert spectral_norm(WeightMatrix(np.ones((3, 3)))) == pytest.approx(3.0, abs=1e-12)

    def test_scaled_orthogonal_rows(self):
        value = spectral_norm(WeightMatrix([[1, 1], [1, -1]]))
        assert value == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_random_20x20_matches_decomposition(self):
        a = np.random.default_rng(7).standard_normal((20, 20))
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(WeightMatrix(a)) == pytest.approx(want, rel=1e-8)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.standard_normal((int(rng.integers(2, 20)), int(rng.integers(2, 20))))
            A = WeightMatrix(a)
            assert spectral_norm(A) == pytest.approx(spectral_norm(A.transpose()), rel=1e-10)

    def test_dominates_row_col_lengths(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a = rng.standard_normal((int(rng.integers(1, 16)), int(rng.integers(1, 16))))
            A = WeightMatrix(a)
            row, col = max_row_col_l2(A)
            v = spectral_norm(A)
            assert v >= row - 1e-10
            assert v >= col - 1e-10

    def test_zero_matrix(self):
        assert spectral_norm(WeightMatrix(np.zeros((5, 5)))) == 0.0

    def test_within_trace_power_sandwich(self):
        # an independent route by matrix products only:
        # ||A|| <= (tr (A^T A)^k)^(1/2k) <= n^(1/2k) ||A||
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            a = rng.standard_normal((n, n))
            norm = spectral_norm(WeightMatrix(a))
            for k in (1, 2, 4, 8):
                v = np.trace(np.linalg.matrix_power(a.T @ a, k)) ** (1 / (2 * k))
                assert norm * (1 - 1e-12) <= v <= n ** (1 / (2 * k)) * norm * (1 + 1e-12)

    def test_equals_decomposition_beyond_full_decomposition_max(self):
        # sides above FULL_DECOMPOSITION_MAX get the same kernel as below:
        # a top gap of 1e-4 is answered to the kernel's tolerance, not by a
        # stalled power loop
        n = 513
        assert n > FULL_DECOMPOSITION_MAX
        small_gap = np.zeros((n, n))
        small_gap[0, 0], small_gap[1, 1] = 1.0, 0.9999
        gauss = np.random.default_rng(14).standard_normal((600, 600))
        for a in (small_gap, gauss):
            want = top_singular_value(a)
            assert spectral_norm(WeightMatrix(a)) == pytest.approx(want, rel=KERNEL_RTOL, abs=0)

    def test_deterministic(self):
        a = np.random.default_rng(5).standard_normal((40, 40))
        sigma1, _, v1 = power_pair(a, 6)
        sigma2, _, v2 = power_pair(a, 6)
        assert sigma1 == sigma2
        assert np.array_equal(v1, v2)


class TestZeroFirstStep:
    def test_nonzero_matrix_never_reports_zero(self):
        # the only nonzero row is orthogonal to the ramped start vector, so
        # the first power step maps it to zero
        n = 600
        assert n > FULL_DECOMPOSITION_MAX
        v0 = _start_vector(n)
        a = np.zeros((n, n))
        a[0, 0], a[0, 1] = v0[1], -v0[0]
        assert not (a @ v0).any()
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        assert spectral_norm(WeightMatrix(a)) == pytest.approx(want, rel=1e-12)
        # top_pair's own power steps beyond FULL_DECOMPOSITION_MAX, and the
        # 6 steps the k-sweep takes
        for sigma, u, v in (one_pair(a), power_pair(a, 6)):
            assert sigma == pytest.approx(want, rel=1e-12)
            assert float(u @ a @ v) == pytest.approx(sigma, rel=1e-12)


class TestTopValues:
    @staticmethod
    def reference(stack):
        flat = stack.reshape((-1,) + stack.shape[-2:])
        want = [np.linalg.svd(m, compute_uv=False)[0] for m in flat]
        return np.array(want).reshape(stack.shape[:-2])

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (6, 1), (3, 4), (5, 5), (7, 2), (3, 3)])
    def test_stacks_match_per_matrix_svd(self, shape):
        assert top_values(np.zeros((0,) + shape)).shape == (0,)  # no slice at all
        rng = np.random.default_rng(sum(shape))
        for lead in ((9,), (3, 4)):
            stack = rng.standard_normal(lead + shape)
            stack[0] = 0.0  # all-zero blocks included
            got = top_values(stack)
            assert got.shape == lead
            np.testing.assert_allclose(got, self.reference(stack), rtol=1e-15, atol=0)
            assert np.all(got[0] == 0.0)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_vector_shapes_far_from_one(self, scale):
        # squares of these entries overflow or underflow; the norm must not
        stack = scale * np.random.default_rng(4).standard_normal((5, 1, 7))
        stack[1] = 0.0
        for s in (stack, stack.transpose(0, 2, 1)):
            with np.errstate(all="raise"):
                got = top_values(s)
            np.testing.assert_allclose(got, self.reference(s), rtol=1e-15, atol=0)

    def test_single_matrix(self):
        a = np.random.default_rng(3).standard_normal((4, 6))
        want = top_singular_value(a)
        assert float(top_values(a)) == pytest.approx(want, rel=KERNEL_RTOL, abs=0)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4)])
    def test_slices_never_change_a_value(self, shape):
        # a stack longer than one Gram slice, with scaled and zero matrices
        # in it, gives each matrix bit for bit its value alone
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        count = 2 * (_GRAM_SLICE // (shape[0] * shape[1])) + 7
        stack = rng.standard_normal((count,) + shape)
        stack[3] *= 1e300
        stack[4] *= 1e-300
        stack[5] = 0.0
        got = top_values(stack)
        alone = np.array([float(top_values(m)) for m in stack])
        assert np.array_equal(got, alone)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (6, 4)])
    @pytest.mark.parametrize("kind", ["tiny", "huge", "subnormal", "mixed"])
    def test_no_floating_point_warning_at_extreme_scales(self, shape, kind):
        rng = np.random.default_rng(sum(shape))
        stack = rng.standard_normal((6,) + shape)
        if kind == "tiny":
            stack *= 1e-300
        elif kind == "huge":
            stack *= 1e300
        elif kind == "subnormal":
            stack = np.round(4 * stack) * 5e-324  # every nonzero entry subnormal
        else:
            # ordinary entries beside subnormal and 1e300-scale ones
            stack[:, 0, 0] = 5e-324
            stack[1:3] *= 1e300
        stack[0] = 0.0
        with np.errstate(all="raise"):
            got = top_values(stack)
        want = np.array([top_singular_value(m) for m in stack])
        np.testing.assert_allclose(got, want, rtol=KERNEL_RTOL, atol=0)


@pytest.mark.parametrize("kind", ["dense", "sparse", "signs"])
def test_contiguous_transpose_keeps_the_view_product_bits(kind):
    # `_gram` copies the transpose up to CONTIGUOUS_T_MAX on the strength of
    # this equality; on a BLAS where the copy moves bits this fails, rather
    # than the goldens moving silently
    rng = np.random.default_rng(["dense", "sparse", "signs"].index(kind))
    for r in range(2, CONTIGUOUS_T_MAX + 1):
        for c in range(2, CONTIGUOUS_T_MAX + 1):
            if kind == "signs":
                a = rng.choice([-1.0, 0.0, 1.0], size=(60, r, c)) * 0.75
            else:
                a = rng.uniform(-1.0, 1.0, size=(60, r, c))
                if kind == "sparse":
                    a *= rng.random((60, r, c)) < 0.3
            view = a.transpose(0, 2, 1)
            want = a @ view if r < c else view @ a
            assert np.array_equal(_gram(a), want), (r, c)


def _fancy_indexed(s):
    # x[:, idx] on a 2-D array is F-ordered: the Monte Carlo gather that
    # once moved low bits of a lone 12x12 block
    flat = s.reshape(s.shape[0], -1)
    return flat[:, np.arange(flat.shape[1])].reshape(s.shape)


def _strided(s):
    wide = np.zeros(s.shape[:-1] + (2 * s.shape[-1],))
    wide[..., ::2] = s
    return wide[..., ::2]


LAYOUTS = {
    "fancy index": _fancy_indexed,
    "fortran": np.asfortranarray,
    "strided": _strided,
    "transposed storage": lambda s: np.ascontiguousarray(s.swapaxes(-1, -2)).swapaxes(-1, -2),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("shape", [(1, 3, 3), (1, 11, 11), (1, 12, 12), (3, 12, 12),
                                   (1, 4, 14), (2, 16, 13), (1, 11, 12)],
                         ids=lambda s: "x".join(map(str, s)))
def test_gram_bits_do_not_depend_on_layout(layout, shape):
    # sides on both sides of CONTIGUOUS_T_MAX; every layout of the same
    # values gets the bits of the C-contiguous stack
    g, r, c = shape
    rng = np.random.default_rng(g * 1000 + r * 100 + c)
    stack = rng.standard_normal((40, g, r, c)) * (rng.random((40, g, r, c)) < 0.6)
    stack[0] = 0.0
    shift = np.frexp(np.abs(stack).reshape(40, g, -1).max(axis=(0, 2)))[1]
    prescaled = np.ldexp(stack, -shift[None, :, None, None])
    floor = np.zeros(40)
    other = LAYOUTS[layout](stack)
    assert np.array_equal(other, stack) and not other.flags["C_CONTIGUOUS"]
    assert np.array_equal(top_values(other), top_values(stack))
    assert np.array_equal(top_value_max(other, floor), top_value_max(stack, floor))
    assert np.array_equal(top_value_max(LAYOUTS[layout](prescaled), floor, shift),
                          top_value_max(prescaled, floor, shift))


def eigensolved(call):
    """(result of call(), matrices `top_value_max` eigensolved in it)."""
    seen = []
    original = spectral._gram_eig_top

    def counting(gram, shift):
        seen.append(gram.shape[0])
        return original(gram, shift)

    with mock.patch.object(spectral, "_gram_eig_top", counting):
        return call(), sum(seen)


def block_max(stack, floor):
    """The unpruned reference of `top_value_max`."""
    return np.maximum(floor, top_values(stack).max(axis=1))


class TestTopValueMax:
    def test_union_complete_blocks_pruned_to_the_same_bits(self):
        # the iid blocks of a union of complete graphs: a K_3 block has norm
        # 2 or sqrt(3), so half the blocks tie at a row's maximum
        rng = np.random.default_rng(40)
        for d, share in ((2, 0.6), (4, 0.1)):
            support = np.ones((d + 1, d + 1)) - np.eye(d + 1)
            stack = support * rng.choice([-1.0, 1.0], size=(50, 30, d + 1, d + 1))
            floor = np.zeros(50)
            got, solved = eigensolved(lambda: top_value_max(stack, floor))
            assert np.array_equal(got, block_max(stack, floor))
            assert solved <= share * stack.shape[0] * stack.shape[1]

    def test_ties_and_zero_blocks_keep_the_maximum(self):
        rng = np.random.default_rng(41)
        block = rng.standard_normal((4, 3))
        stack = np.broadcast_to(block, (6, 9, 4, 3)).copy()
        stack[:, ::2] = 0.0
        stack[5] = 0.0
        floor = np.zeros(6)
        got, solved = eigensolved(lambda: top_value_max(stack, floor))
        assert np.array_equal(got, block_max(stack, floor))
        assert got[5] == 0.0 and np.all(got[:5] == float(top_values(block)))
        # every copy of the block ties and its zeros drop; a zero row's
        # threshold is 0, which prunes nothing
        assert solved == 5 * 4 + 9

    def test_floor_above_every_block_solves_nothing(self):
        stack = np.random.default_rng(42).standard_normal((7, 5, 3, 3))
        floor = np.full(7, 1e3)
        floor[2] = np.inf
        got, solved = eigensolved(lambda: top_value_max(stack, floor))
        assert np.array_equal(got, floor) and solved == 0

    @pytest.mark.parametrize("shape", [(9, 1, 4, 5), (9, 6, 1, 5), (9, 6, 5, 1)])
    def test_one_block_per_row_and_vectors_bypass_the_bracket(self, shape):
        stack = np.random.default_rng(43).standard_normal(shape)
        floor = np.full(9, 1.5)
        with mock.patch.object(spectral, "_bracket", side_effect=AssertionError):
            got = top_value_max(stack, floor)
        assert np.array_equal(got, block_max(stack, floor))

    @pytest.mark.parametrize("j", [-1000, -1074 + 60, 1000])
    def test_extreme_scales(self, j):
        rng = np.random.default_rng(44)
        stack = np.ldexp(rng.choice([-1.0, 0.0, 1.0], size=(20, 12, 3, 4)), j)
        stack *= rng.uniform(0.5, 4.0, size=stack.shape)
        floor = np.zeros(20)
        with np.errstate(all="raise"):
            got = top_value_max(stack, floor)
        assert np.array_equal(got, block_max(stack, floor))
        assert np.array_equal(np.ldexp(got, -j), top_value_max(np.ldexp(stack, -j), floor))

    def test_slices_never_change_the_maximum(self):
        # rows spanning several Gram slices, with a per-row floor
        rng = np.random.default_rng(45)
        rows = 3 * (_GRAM_SLICE // (8 * 5 * 5)) + 1
        stack = rng.choice([-1.0, 1.0], size=(rows, 8, 5, 5))
        floor = rng.uniform(0.0, 6.0, size=rows)
        got = top_value_max(stack, floor)
        assert np.array_equal(got, block_max(stack, floor))
        alone = np.concatenate([top_value_max(stack[i:i + 1], floor[i:i + 1])
                                for i in range(0, rows, 97)])
        assert np.array_equal(got[::97], alone)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 7), (6, 4), (9, 9), (40, 33)])
    def test_bracket_contains_the_oracle_value(self, shape):
        rng = np.random.default_rng(sum(shape))
        stack = np.concatenate([
            rng.standard_normal((20,) + shape),
            rng.choice([-1.0, 1.0], size=(20,) + shape),
            np.ldexp(np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1])),
                     300)[None],  # rank one: both bounds equal sigma
            np.zeros((1,) + shape),
        ])
        scaled, shift = pow2_scaled(stack)
        lower, upper = _bracket(_gram(scaled), shift)
        want = np.array([top_singular_value(m) for m in stack])
        assert np.all(lower <= want * (1 + _PRUNE_MARGIN))
        assert np.all(upper >= want * (1 - _PRUNE_MARGIN))
        assert lower[-1] == upper[-1] == 0.0

    @pytest.mark.parametrize("g", [1, 3])
    def test_non_finite_entry_gives_inf_without_eigvalsh(self, g):
        # a Gaussian sample past the float range reaches the kernel as inf;
        # eigvalsh on its Gram matrix used to fail to converge
        stack = np.random.default_rng(46).standard_normal((5, g, 4, 3))
        stack[1, 0, 2, 1] = np.inf
        stack[3, g - 1, 0, 0] = np.nan
        floor = np.zeros(5)
        real = np.linalg.eigvalsh

        def finite_only(gram):
            assert np.isfinite(gram).all()
            return real(gram)

        with mock.patch.object(np.linalg, "eigvalsh", finite_only), \
                np.errstate(all="raise"):
            got = top_value_max(stack, floor)
        rest = [0, 2, 4]
        assert got[1] == got[3] == math.inf
        assert np.array_equal(got[rest], block_max(stack[rest], floor[rest]))

    def test_top_value_past_the_float_range_is_inf(self):
        stack = np.full((3, 2, 3, 3), 0.75)
        with np.errstate(all="raise"):
            got = top_value_max(stack, np.zeros(3), np.array([1024, 0]))
        assert np.all(got == math.inf)

    def test_sampled_union_complete_identical_for_any_thread_count(self):
        A = union_complete(13, 3).matrix.indicator()
        for mode in ("rademacher_iid", "rademacher_symmetric"):
            want = _sample_norms(A, mode, 500, 8)
            for threads in (2, 3):
                assert np.array_equal(_sample_norms(A, mode, 500, 8, threads), want)


class TestPow2Scaled:
    @pytest.mark.parametrize("j", [-1074, -3, 0, 5, 1000])
    def test_each_max_lands_in_half_one_exactly(self, j):
        # one exponent per array of the stack, any trailing shape; a zero
        # array keeps shift 0, and the scaling is undone exactly
        rng = np.random.default_rng(abs(j))
        for shape in ((6, 3, 4), (6, 12)):
            stack = np.ldexp(rng.uniform(-2.0, 2.0, size=shape), j)
            stack[1] = 0.0
            scaled, shift = pow2_scaled(stack)
            assert scaled.shape == stack.shape and shift.shape == (6,)
            top = np.abs(scaled).reshape(6, -1).max(axis=1)
            assert top[1] == 0.0 and shift[1] == 0
            assert np.all((top[[0, 2, 3, 4, 5]] >= 0.5) & (top[[0, 2, 3, 4, 5]] < 1.0))
            back = np.ldexp(scaled, shift.reshape((-1,) + (1,) * (stack.ndim - 1)))
            assert np.array_equal(back, stack)


class TestTopPair:
    def test_witnesses_achieve_value(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((12, 9))
        sigma, s, t = one_pair(a)
        assert float(s @ a @ t) == pytest.approx(sigma, rel=1e-10)
        assert sigma == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-12)
        assert np.linalg.norm(s) == pytest.approx(1.0)
        assert np.linalg.norm(t) == pytest.approx(1.0)

    def test_power_steps_beyond_full_decomposition(self):
        # side 600 > FULL_DECOMPOSITION_MAX: fixed power steps, no SVD;
        # a rank-one spike of 30 over noise of norm ~1.7 gives a clear gap
        n = 600
        assert n > FULL_DECOMPOSITION_MAX
        rng = np.random.default_rng(22)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        a = 30.0 * np.outer(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
        a += rng.standard_normal((n, n)) / math.sqrt(n) * 0.85
        want = np.linalg.svd(a, compute_uv=False)[0]
        sigma, u, v = one_pair(a)
        assert sigma == pytest.approx(want, rel=1e-9)
        assert float(u @ a @ v) == pytest.approx(sigma, rel=1e-12)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_steps_force_power_path(self):
        a = np.diag([3.0, 1.0, 0.5])
        sigma, u, v = power_pair(a, 6)
        assert sigma == pytest.approx(3.0, rel=1e-4)
        assert sigma <= 3.0 + 1e-12
        assert float(u @ a @ v) == pytest.approx(sigma, rel=1e-12)

    def test_zero_step_reports_zero(self):
        # the ramped start vector is mapped to zero after one step
        sigma, u, v = one_pair(np.zeros((700, 3)))
        assert sigma == 0.0 and not u.any()
        assert np.linalg.norm(v) == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 5), (5, 2), (1, 4), (4, 1)])
    @pytest.mark.parametrize("route", [{}, {"gram": True}, {"steps": 6}])
    def test_zero_matrix_on_every_route(self, shape, route):
        # the SVD, Gram and power routes all give sigma 0, u = 0 and the
        # start vector, alone and inside a stack
        def pair(stack):
            if "steps" in route:
                return [np.array(x) for x in
                        zip(*(power_pair(m, route["steps"]) for m in stack))]
            return top_pair(stack, **route)

        sigma, u, v = pair(np.zeros((1,) + shape))
        assert sigma[0] == 0.0 and not u[0].any()
        assert np.array_equal(v[0], _start_vector(shape[1]))
        stack = np.stack([np.ones(shape), np.zeros(shape)])
        sigma, u, v = pair(stack)
        assert sigma[0] > 0.0 and sigma[1] == 0.0 and not u[1].any()
        assert np.array_equal(v[1], _start_vector(shape[1]))

    def test_certified_steps_on_zero_rank_one_and_tied_matrices(self):
        # at and above the gate: a zero matrix and exactly tied tops (the
        # identity, and two equal blocks) never certify and take eigh's pair
        # bit for bit; a rank-one matrix certifies within 64 eps of its factor
        for n in (POWER_PAIR_MIN, POWER_PAIR_MIN + 8):
            rng = np.random.default_rng(23)
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            block = rng.standard_normal((n // 2, n // 2))
            tied = np.kron(np.eye(2), block)
            for a in (np.zeros((n, n)), np.eye(n), tied, tied.T):
                assert _certified_top(_gram(pow2_scaled(a[None])[0]))[1][0]
                got = one_pair(a, gram=True)
                with mock.patch.object(spectral, "POWER_PAIR_MIN", n + 1):
                    want = one_pair(a, gram=True)
                assert got[0] == want[0]
                assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
            for a in (np.outer(x, y), np.outer(x, y)[:, :n - 3], np.outer(x, y)[:n - 3]):
                tops, todo = _certified_top(_gram(pow2_scaled(a[None])[0]))
                assert not todo[0]
                top = tops[0]
                factor = y[:a.shape[1]] if a.shape[0] >= a.shape[1] else x[:a.shape[0]]
                factor = factor / np.linalg.norm(factor) * np.sign(factor @ top)
                np.testing.assert_allclose(top, factor, rtol=0, atol=64 * np.finfo(float).eps)
                sigma, u, v = one_pair(a, gram=True)
                assert sigma == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=KERNEL_RTOL)

    def test_gram_pair_beyond_full_decomposition_takes_power_steps(self):
        a = np.diag(np.linspace(1.0, 2.0, FULL_DECOMPOSITION_MAX + 1))
        got = one_pair(a, gram=True)
        want = one_pair(a)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


class TestMaxRowColL2:
    def test_identity(self):
        assert max_row_col_l2(WeightMatrix(np.eye(3))) == (1.0, 1.0)

    def test_rectangular_ones(self):
        row, col = max_row_col_l2(WeightMatrix(np.ones((2, 3))))
        assert row == pytest.approx(math.sqrt(3))
        assert col == pytest.approx(math.sqrt(2))

    def test_complete_block(self):
        d = 5
        a = np.ones((d + 1, d + 1)) - np.eye(d + 1)
        row, col = max_row_col_l2(WeightMatrix(a, symmetric=True))
        assert row == pytest.approx(math.sqrt(d))
        assert col == pytest.approx(math.sqrt(d))
