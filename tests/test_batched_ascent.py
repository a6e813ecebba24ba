"""The batched forms behind the k-sweep equal their one-matrix forms,
checked with hypothesis.

A stacked `top_pair` gives each matrix the pair a stack of it alone gives,
on the SVD and Gram routes, also when a stack above the Gram
route's gate mixes matrices that certify their power steps with matrices
that fall back to `eigh`; row-wise `water_fill` gives each row the result
of the scalar clip-count loop it replaced (kept below as the reference);
the ascent's weights, built in cell order from one value sort, equal the
route they replaced, a stable argsort, a gather, `water_fill` and a
scatter back (kept below as the reference), also where mirrored entries
of a symmetric matrix tie at the clip cut; and `_ascent` over a stack of
matrices at unit scale (`pow2_scaled`), scaled back, gives each matrix the
value `r_heuristic` finds for it, also when the stack mixes exactly
symmetric matrices, which take the SVD pair, with matrices that take the
Gram pair.  The ascent's budgeted batches of (matrix, seed) runs give
the values of the per-seed loop they replaced (kept below as the
reference), whether the budget splits one seed's stack or merges several
seeds, also when some surrogates are NaN; no pair call of the ascent takes
more than its budget; and the stack-wise certified power steps give each
matrix the bits of a call on it alone, inside stacks where some matrices
certify and others fall back to `eigh`.  These comparisons use exact
equality: the batched code performs the same floating-point operations in
the same order.  The greedy chain's shared shortlist scores
(`_shortlist_scores`) sum in another order, so each lies within a few eps
of the surrogate of its own zeroed pair, and the chain removes in the
order of the per-candidate loop they replaced (kept below as the
reference).
"""

import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from radnorm import bounds
from radnorm.bounds import (SHORTLIST_SIZE, EngineConfig, _ascent, _ascent_pair, _clipped,
                            _dual_weights, _greedy_chain, _magnitude, _reweighted,
                            _shortlist_scores, _stack_seeds, r_heuristic)
from radnorm.core import WeightMatrix, log_clamped
from radnorm.corpus import corpus_mixed
from radnorm.moments import hitczenko_surrogate, surrogate_rows, surrogate_sorted, water_fill
from radnorm.spectral import (POWER_PAIR_MIN, _certified_top, _scaled_gram, pow2_scaled,
                              power_pair, top_pair)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, database=None)

#: A few repeated magnitudes, so ties and exact zeros are common.
TIE_VALUES = [0.0, 0.5, 1.0, 1.0, 2.0, -1.0, -2.0, 3.0]

MOMENTS = st.one_of(st.sampled_from([1.0, 2.0, 3.0, math.log(3), 4.5, 9.0]),
                    st.floats(1.0, 12.0, allow_nan=False))


@st.composite
def stacks(draw, max_side=6, max_count=5):
    """(S, r, c) stacks mixing tied and continuous entries, with whole
    rows and columns zeroed in some matrices."""
    count = draw(st.integers(1, max_count))
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    if draw(st.booleans()):
        elements = st.sampled_from(TIE_VALUES)
    else:
        elements = st.floats(-4.0, 4.0, allow_subnormal=False)
    a = draw(arrays(np.float64, (count, rows, cols), elements=elements))
    for m in range(count):
        if draw(st.booleans()):
            a[m, draw(st.integers(0, rows - 1)), :] = 0.0
        if draw(st.booleans()):
            a[m, :, draw(st.integers(0, cols - 1))] = 0.0
    return a


@st.composite
def symmetric_stacks(draw):
    """`stacks` made exactly symmetric, a + a^T on a square slice, so
    mirrored entries tie."""
    a = draw(stacks())
    n = min(a.shape[1:])
    a = a[:, :n, :n]
    return a + a.transpose(0, 2, 1)


def water_fill_loop(star, p):
    """The scalar clip-count search the row-wise form replaced."""
    n = star.size
    if n == 0:
        return 0.0, np.zeros(0)
    if n <= p:
        return float(star.sum()), np.ones(n)
    suffix_sq = np.concatenate((np.cumsum((star ** 2)[::-1])[::-1], [0.0]))
    m = 0
    while True:
        t = math.sqrt(float(suffix_sq[m]))
        budget = p - m
        if t == 0.0 or budget <= 0.0:
            b = np.zeros(n)
            b[:m] = 1.0
            return float(star[:m].sum()), b
        if math.sqrt(budget) * float(star[m]) <= t:
            b = np.zeros(n)
            b[:m] = 1.0
            b[m:] = math.sqrt(budget) / t * star[m:]
            return float(star[:m].sum()) + math.sqrt(budget) * t, b
        m += 1


def _above_gate_stack():
    """Four matrices of Gram side POWER_PAIR_MIN + 8: a rank-one spike over
    noise and a rank-one matrix, which certify their power steps, then two
    equal blocks (a tied top) and a zero matrix, which fall back to eigh."""
    n = POWER_PAIR_MIN + 8
    rng = np.random.default_rng(31)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    spike = 3.0 * np.outer(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
    return np.stack([spike + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n),
                     np.outer(x, y), np.kron(np.eye(2), rng.standard_normal((n // 2, n // 2))),
                     np.zeros((n, n))])


_ABOVE_GATE = _above_gate_stack()


def test_above_gate_stack_mixes_certified_and_fallback_matrices():
    grams = _scaled_gram(_ABOVE_GATE)[0]
    assert [not _certified_top(g[None])[1][0] for g in grams] == [True, True, False, False]
    assert (~_certified_top(grams)[1]).tolist() == [True, True, False, False]


@PROPERTY_SETTINGS
@given(a=stacks(max_side=8), gram=st.booleans())
@example(a=np.stack([np.zeros((3, 5)), np.ones((3, 5))]), gram=True)
@example(a=np.stack([np.ones((5, 3)), np.zeros((5, 3))]), gram=False)
@example(a=_ABOVE_GATE, gram=True)
@example(a=_ABOVE_GATE[::-1].transpose(0, 2, 1).copy(), gram=True)
def test_stacked_top_pair_equals_per_matrix(a, gram):
    # the SVD and Gram routes alike, zero matrices included
    sigma, u, v = top_pair(a, gram)
    assert sigma.shape == (len(a),) and u.shape == a.shape[:2]
    assert v.shape == (len(a), a.shape[2])
    for m in range(len(a)):
        s1, u1, v1 = top_pair(a[m:m + 1], gram)
        assert sigma[m] == s1[0]
        assert np.array_equal(u[m], u1[0]) and np.array_equal(v[m], v1[0])


@PROPERTY_SETTINGS
@given(a=stacks(max_side=5), p=MOMENTS)
@example(a=np.zeros((2, 1, 3)), p=2.0)       # all-zero rows
@example(a=np.ones((1, 2, 2)), p=4.0)        # n <= p, integer p
@example(a=np.ones((2, 3, 3)), p=3.0)        # ties, the budget runs out at m = p
def test_row_wise_water_fill_equals_loop(a, p):
    rows = -np.sort(-np.abs(a.reshape(len(a), -1)), axis=1)
    values, b = water_fill(rows, p)
    for m, star in enumerate(rows):
        want_value, want_b = water_fill_loop(star, p)
        assert values[m] == want_value and np.array_equal(b[m], want_b)
        got_value, got_b = water_fill(star, p)
        assert isinstance(got_value, float)
        assert got_value == want_value and np.array_equal(got_b, want_b)


def sorted_route_weights(abs_c, p):
    """The ascent's weights before `_dual_weights`: a stable argsort of
    each row, a gather, `water_fill` in sorted order and a scatter back."""
    order = np.argsort(-abs_c, axis=1, kind="stable")
    _, b_sorted = water_fill(np.take_along_axis(abs_c, order, axis=1), p)
    b = np.empty_like(abs_c)
    np.put_along_axis(b, order, b_sorted, axis=1)
    return b


def value_sorted(a):
    """(|c|, star): each matrix of a stack flattened to one row of
    magnitudes, and that row sorted nonincreasing as the ascent sorts it."""
    abs_c = np.abs(a.reshape(len(a), -1))
    return abs_c, np.sort(abs_c, axis=1)[:, ::-1]


@PROPERTY_SETTINGS
@given(a=st.one_of(stacks(), symmetric_stacks()), p=MOMENTS)
@example(a=np.zeros((2, 2, 3)), p=2.0)                     # all-zero rows
@example(a=np.ones((1, 2, 2)), p=4.5)                      # n <= p
@example(a=np.ones((1, 3, 3)), p=2.0)                      # m = 0
@example(a=np.full((1, 2, 2), 2.0), p=4.0)                 # m = ceil(p), all tied at the cut
@example(a=np.array([[[6e-162, 6e-162, 3e-163], [0.0, 0.0, 0.0]]]), p=2.0)  # m = ceil(p) < n
@example(a=np.array([[[0.1, 0.05], [0.05, 0.1]]]), p=2.5)  # m = 1 inside a tie
def test_in_place_weights_equal_sorted_route(a, p):
    abs_c, star = value_sorted(a)
    assert np.array_equal(_dual_weights(abs_c, star, p), sorted_route_weights(abs_c, p))


@PROPERTY_SETTINGS
@given(a=st.one_of(stacks(), symmetric_stacks()), data=st.data())
def test_clipped_cells_lead_the_stable_order(a, data):
    # any clip count, so the cut falls inside ties far more often than
    # water-filling puts it there
    abs_c, star = value_sorted(a)
    n = abs_c.shape[1]
    m = np.array(data.draw(st.lists(st.integers(0, n), min_size=len(a), max_size=len(a))))
    order = np.argsort(-abs_c, axis=1, kind="stable")
    want = np.arange(n) < m[:, None]
    np.put_along_axis(want, order, want.copy(), axis=1)
    assert np.array_equal(_clipped(abs_c, star, m), want)


@PROPERTY_SETTINGS
@given(a=stacks(max_side=5), p=MOMENTS)
def test_surrogate_rows_equal_one_row(a, p):
    flat = a.reshape(len(a), -1)
    head, tail = surrogate_rows(flat, p)
    for m in range(len(a)):
        one = hitczenko_surrogate(flat[m], p)
        assert (head[m], tail[m], head[m] + tail[m]) == (one.head, one.tail, one.total)


#: Stacks that mix exactly symmetric matrices (SVD pair) with non-symmetric
#: ones (Gram pair), so the per-matrix gate of `_ascent_pair` is pinned.
_SYM = np.array([[2.0, -1.0, 0.5], [-1.0, 1.0, 3.0], [0.5, 3.0, -2.0]])
_MIXED = [
    np.stack([_SYM, _SYM + np.triu(np.full((3, 3), 0.25), 1)]),
    np.stack([np.arange(9.0).reshape(3, 3) - 4.0, np.ones((3, 3)), _SYM,
              np.eye(3) + np.eye(3, k=1)]),
    np.stack([np.where(np.eye(4) > 0, 0.0, 1.0), np.tril(np.ones((4, 4))),
              np.diag([3.0, 1.0, 1.0, 2.0])]),
]


@PROPERTY_SETTINGS
@given(a=stacks(), p=MOMENTS, restarts=st.integers(1, 3), seed=st.integers(0, 9),
       max_iters=st.sampled_from([1, 8, 20]))
@example(a=_MIXED[0], p=2.0, restarts=3, seed=0, max_iters=20)
@example(a=_MIXED[1], p=math.log(3), restarts=1, seed=4, max_iters=8)
@example(a=_MIXED[2], p=4.5, restarts=2, seed=7, max_iters=20)
@example(a=np.full((1, 1, 2), 1.11589085e-171), p=1.0, restarts=1, seed=0, max_iters=1)
def test_ascent_equals_per_matrix_r_heuristic(a, p, restarts, seed, max_iters):
    a[:, 0, 0] = np.where(a.reshape(len(a), -1).any(axis=1), a[:, 0, 0], 1.5)
    # r_heuristic runs the ascent on its input at unit scale
    scaled, shift = pow2_scaled(a)
    values = np.ldexp(_ascent(scaled, p, restarts, seed, max_iters), shift)
    for m in range(len(a)):
        br = r_heuristic(WeightMatrix(a[m]), p, restarts, seed, max_iters)
        assert values[m] == br.lower


def ascent_per_seed(stack, p, restarts, seed, max_iters):
    """`_ascent` before its runs were batched: the seeds of `_stack_seeds`
    one after the other, each stepped over the whole stack at once, and a
    value taken as a matrix's best only when it is strictly larger."""
    count, nr, nc = stack.shape
    best = np.zeros(count)

    def offer(idx, star):
        head, tail = bounds.surrogate_sorted(star, p)
        val = head + tail
        up = val > best[idx]
        best[idx[up]] = val[up]

    sym = np.zeros(count, dtype=bool)
    if nr == nc:
        sym = (stack == stack.transpose(0, 2, 1)).all(axis=(1, 2))
    for idx, s, t in _stack_seeds(stack, sym, restarts, seed):
        if not idx.size:
            continue
        a = stack[idx]
        c, abs_c, star = _reweighted(a, s, t)
        offer(idx, star)
        obj_prev = np.full(len(idx), -1.0)
        for _ in range(max_iters):
            weighted = a * (np.sign(c) * _dual_weights(abs_c, star, p)).reshape(a.shape)
            s, t = _ascent_pair(weighted, sym[idx])
            obj = (s[:, None, :] @ weighted @ t[:, :, None])[:, 0, 0]
            c, abs_c, star = _reweighted(a, s, t)
            offer(idx, star)
            going = ~(obj <= obj_prev * (1 + 1e-10) + 1e-12)
            if not going.all():
                idx, a, obj = idx[going], a[going], obj[going]
                c, abs_c, star = c[going], abs_c[going], star[going]
                if not idx.size:
                    break
            obj_prev = obj
    return best


def nan_surrogates(star, p):
    """`surrogate_sorted` with a NaN head wherever the row's largest
    magnitude has an odd last mantissa bit: a property of the row alone,
    so a run gets the same NaNs in any batch."""
    head, tail = surrogate_sorted(star, p)
    odd = (star[:, 0].view(np.int64) & 1) == 1
    return np.where(odd, np.nan, head), tail


@PROPERTY_SETTINGS
@given(a=stacks(), p=MOMENTS, restarts=st.integers(1, 3), seed=st.integers(0, 9),
       max_iters=st.sampled_from([1, 8, 20]), runs=st.integers(1, 40),
       extra=st.integers(0, 35), nan=st.booleans())
@example(a=_MIXED[1], p=math.log(3), restarts=1, seed=4, max_iters=8, runs=3, extra=5, nan=True)
@example(a=_MIXED[2], p=4.5, restarts=2, seed=7, max_iters=20, runs=40, extra=0, nan=False)
def test_budgeted_ascent_equals_the_per_seed_loop(a, p, restarts, seed, max_iters, runs,
                                                   extra, nan):
    # the budget splits one seed's stack (fewer runs than matrices per
    # batch) or merges several seeds (more), runs=40 holds every run of
    # the stack in one batch, and extra < r c leaves a partial matrix of
    # room; a NaN surrogate never becomes a matrix's best
    a[:, 0, 0] = np.where(a.reshape(len(a), -1).any(axis=1), a[:, 0, 0], 1.5)
    a = pow2_scaled(a)[0]
    budget = runs * a.shape[1] * a.shape[2] + extra
    with contextlib.ExitStack() as patches:
        if nan:
            patches.enter_context(mock.patch.object(bounds, "surrogate_sorted", nan_surrogates))
        want = ascent_per_seed(a, p, restarts, seed, max_iters)
        with mock.patch.object(bounds, "_ASCENT_BUDGET", budget):
            got = _ascent(a, p, restarts, seed, max_iters)
    assert np.array_equal(got, want)
    assert not np.isnan(got).any()


def _certify_mix(rows, cols, rng):
    """Five matrices of one shape, shuffled: a rank-one spike over noise and
    a rank-one matrix, which certify, then two equal blocks (a tied top,
    the odd side padded with zeros), a zero matrix and pure noise, which
    take more steps or give up."""
    n = min(rows, cols)
    x, y = rng.standard_normal(rows), rng.standard_normal(cols)
    spike = 3.0 * np.outer(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
    tied = np.zeros((rows, cols))
    block = rng.standard_normal((n // 2, n // 2))
    tied[:n // 2 * 2, :n // 2 * 2] = np.kron(np.eye(2), block)
    mats = [spike + 0.1 * rng.standard_normal((rows, cols)) / np.sqrt(n), np.outer(x, y),
            tied, np.zeros((rows, cols)), rng.standard_normal((rows, cols))]
    return np.stack([mats[k] for k in rng.permutation(len(mats))])


@pytest.mark.parametrize("side", [POWER_PAIR_MIN - 1, POWER_PAIR_MIN, 31, 32, 128])
@pytest.mark.parametrize("shape", ["square", "wide", "tall"])
def test_certified_top_is_per_matrix_inside_a_mixed_stack(side, shape):
    # each matrix gets the bits of a call on it alone, from the stack-wise
    # certificate and from the Gram pair, whichever matrices of the stack
    # certify and whichever fall back to eigh
    rows, cols = {"square": (side, side), "wide": (side, side + 3),
                  "tall": (side + 2, side)}[shape]
    a = _certify_mix(rows, cols, np.random.default_rng(side))
    grams = _scaled_gram(a)[0]
    top, todo = _certified_top(grams)
    assert todo.any() and not todo.all()
    sigma, u, v = top_pair(a, gram=True)
    for m in range(len(a)):
        one_top, one_todo = _certified_top(grams[m:m + 1])
        assert one_todo[0] == todo[m]
        assert todo[m] or np.array_equal(one_top[0], top[m])
        s1, u1, v1 = top_pair(a[m:m + 1], gram=True)
        assert sigma[m] == s1[0]
        assert np.array_equal(u[m], u1[0]) and np.array_equal(v[m], v1[0])


def test_ascent_pair_calls_stay_within_the_budget():
    # the k = 4 row of dense_gauss_n16 at default flags keeps 1,820 12x12
    # submatrices (7 runs each): no pair call of its ascent, the seeds'
    # own top pairs included, takes more than _ASCENT_BUDGET elements
    A = bounds._unit_scaled(dict(corpus_mixed())["dense_gauss_n16"])[0]
    keeps = [bounds._complement(16, combo) for combo in itertools.combinations(range(16), 4)]
    sizes = []

    def recording(stack, gram=False):
        sizes.append(stack.size)
        return top_pair(stack, gram)

    with mock.patch.object(bounds, "top_pair", recording):
        scores = bounds._full_estimates(A, keeps, log_clamped(4), EngineConfig())
    assert len(scores) == 1820 and min(scores) > 0.0
    assert max(sizes) <= bounds._ASCENT_BUDGET
    assert max(sizes) > bounds._ASCENT_BUDGET // 2


def greedy_chain_loop(a, p, steps):
    """The general-weight greedy chain before `_shortlist_scores`: each
    shortlisted z scored on its own, by the surrogate of a o u v^T with
    coordinate z of u and v zeroed and both renormalized."""
    keep = list(range(len(a)))
    removed = []
    for _ in range(steps):
        if not keep:
            break
        sub = a[np.ix_(keep, keep)]
        if not sub.any():
            removed.extend(keep)
            break
        sigma, u, v = power_pair(sub, 6)
        mass = (sub * sub).sum(axis=1) + (sub * sub).sum(axis=0)
        if len(keep) > SHORTLIST_SIZE:
            shortlist = sorted(int(z) for z in
                               np.argsort(-mass, kind="stable")[:SHORTLIST_SIZE])
        else:
            shortlist = list(range(len(keep)))
        best_score = math.inf
        best_local = shortlist[0]
        for z in shortlist:
            score = one_removal_score(sub, u, v, z, p) if sigma != 0.0 else 0.0
            if score < best_score - 1e-12:
                best_score = score
                best_local = z
        removed.append(keep[best_local])
        del keep[best_local]
    return removed


def one_removal_score(a, u, v, z, p):
    """The surrogate at (u, v) with coordinate z zeroed, scored on its own."""
    u2, v2 = u.copy(), v.copy()
    u2[z] = v2[z] = 0.0
    nu, nv = np.linalg.norm(u2), np.linalg.norm(v2)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return hitczenko_surrogate(a * np.outer(u2 / nu, v2 / nv), p).total


@st.composite
def shortlist_cases(draw):
    """(a, u, v, p): general weights of side 2 to 48 (Gaussian, few tied
    values, a circulant, or a block and its permuted copy), the 6-step top
    pair or a pair whose u or v is a signed basis vector, and p."""
    n = draw(st.integers(2, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gauss", "ties", "circulant", "copies"]))
    if kind == "gauss":
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6)
    elif kind == "ties":
        a = rng.choice(TIE_VALUES, size=(n, n))
    elif kind == "circulant":
        row = rng.choice(TIE_VALUES, size=n)
        a = np.stack([np.roll(row, i) for i in range(n)])
    else:
        h = n // 2
        block = rng.choice(TIE_VALUES, size=(h, h))
        perm = rng.permutation(h)
        a = np.zeros((n, n))
        a[:h, :h] = block
        a[h:2 * h, h:2 * h] = block[perm][:, perm]
    assume(np.isnan(_magnitude(a[None])[0]))
    _, u, v = power_pair(a, 6)
    pick = draw(st.sampled_from(["pair", "u", "v"]))
    if pick != "pair":
        e = np.zeros(n)
        e[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1.0, -1.0]))
        u, v = (e, v) if pick == "u" else (u, e)
    return a, u, v, draw(MOMENTS)


@PROPERTY_SETTINGS
@given(case=shortlist_cases())
def test_shortlist_scores_within_eps_of_each_removal(case):
    a, u, v, p = case
    zs = list(range(len(a)))
    for z, score in zip(zs, _shortlist_scores(a, u, v, zs, p)):
        want = one_removal_score(a, u, v, z, p)
        assert score == pytest.approx(want, rel=8 * np.finfo(float).eps, abs=0.0)


@PROPERTY_SETTINGS
@given(case=shortlist_cases(), steps=st.integers(1, 48))
def test_greedy_chain_removes_in_the_per_candidate_order(case, steps):
    a, _, _, p = case
    chain = _greedy_chain(WeightMatrix(a), p, steps, False, EngineConfig())
    assert chain == greedy_chain_loop(a, p, steps)
