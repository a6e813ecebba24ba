"""Metamorphic properties of the sampler and the exact 0/1 search,
checked with hypothesis.

Sampled norms must not depend on how a run is split into chunks and
threads, and scaling the weights by a power of two must scale every norm
exactly: both hold bit for bit, so the checks use array equality.  The
block plan must also give the norm of the whole dense realization.  The
exact subgraph value and the exact expectation must respect the
symmetries of the quantity (transpose, row and column permutations, sign
flips), up to rounding in the order of summation, and the exact value of
a support masked out of a larger one must equal that of the extracted
submatrix bit for bit, and the k-sweep's search score of a masked
support must equal that bracket's lower value within 16 eps.  The greedy
chain's screened shortlist scores must equal one search per candidate,
and the search that skips a whole-set eigensolve where a power bound shows
it cannot lower the cap must return what the ungated search (kept below
as the reference) returns, both bit for bit.  Every exact 0/1 bracket,
whether its search ran out of nodes or stopped at its cap, must hold the
exhaustive oracle's value, and a certified one must equal it.  The
spectral kernel's top values must lie within its stated 16 eps of the
oracles' plain SVD at any weight scale, and its Gram pair, from eigh or
from certified power steps, within a gap-scaled bound of the SVD pair.
The vectorized support degree must equal the degree of the support graph
built vertex by vertex.  An edge set handed to the sampler and the cheap
bounds as it is must give, bit for bit, what its dense indicator matrix
gives.  The bound profile of 2^j A must be 2^j times that of A, field by
field and bit for bit, removal sets and modes equal, for every j that
keeps each nonzero entry a normal float.  The Rademacher gather, which
puts each uniform's sign on |w| by `copysign`, must equal the sign map
times the signed weights bit for bit, and every sign pattern's norm must
lie in the range the plan derives from the weights alone.
"""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from radnorm import bounds, sampler, spectral, streams
from radnorm.scenarios import _cheap_bounds
from radnorm.bounds import (EngineConfig, _SearchStop, _exact_01, _search_01, _support_lower,
                            _support_scores, bound_profile, r_exact_01)
from radnorm.core import EdgeSet, WeightMatrix, derive_graph, max_support_degree
from radnorm.corpus import corpus_mixed
from radnorm.oracles import subgraph_norm_enum, top_singular_value
from radnorm.sampler import MODES, _sample_norms, exact_small_norm_expectation, mc_norm
from radnorm.spectral import FULL_DECOMPOSITION_MAX, top_pair, top_value_max, top_values

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, database=None)


@st.composite
def sampling_runs(draw):
    """(mode, weights, samples, seed, threads): sparse weights of side <= 12,
    entries zero or of magnitude in [1/2, 4]."""
    mode = draw(st.sampled_from(MODES))
    rows = draw(st.integers(1, 12))
    cols = rows if mode == "rademacher_symmetric" else draw(st.integers(1, 12))
    a = draw(arrays(np.float64, (rows, cols),
                    elements=st.floats(-4.0, 4.0, allow_subnormal=False)))
    a[np.abs(a) < 0.5] = 0.0
    samples = draw(st.integers(16, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    threads = draw(st.sampled_from([1, 2, 3]))
    return mode, a, samples, seed, threads


@PROPERTY_SETTINGS
@given(run=sampling_runs(), rows_per_chunk=st.sampled_from([None, 1, 7, 64]))
def test_norms_independent_of_threads_and_chunking(run, rows_per_chunk):
    mode, a, samples, seed, threads = run
    A = WeightMatrix(a)
    want = _sample_norms(A, mode, samples, seed)
    budget = sampler._REALIZE_BUDGET
    if rows_per_chunk is not None:
        budget = rows_per_chunk * a.size
    with mock.patch.object(sampler, "_REALIZE_BUDGET", budget):
        got = _sample_norms(A, mode, samples, seed, threads)
    assert np.array_equal(got, want)


#: A 6x6 support whose symmetric-mode blocks gave eigvalsh Gram matrices
#: that are not power-of-two equivariant: scaled by 2^30, 5 of its 219
#: sampled norms moved in the last bits until every matrix was normalised.
#: The weight is this exact float; 1.10947023 does not reproduce it.
UNEQUIVARIANT = np.zeros((6, 6))
for _i, _cols in enumerate([[2], [0, 2], [1, 5], [1, 2, 4, 5], [0, 2, 3, 4], [0, 2]]):
    UNEQUIVARIANT[_i, _cols] = 1.1094702280909


@PROPERTY_SETTINGS
@given(run=sampling_runs(), j=st.integers(-40, 40))
@example(run=("rademacher_symmetric", UNEQUIVARIANT, 219, 2746529310, 1), j=30)
def test_power_of_two_scaling_is_exact(run, j):
    mode, a, samples, seed, threads = run
    want = np.ldexp(_sample_norms(WeightMatrix(a), mode, samples, seed), j)
    got = _sample_norms(WeightMatrix(np.ldexp(a, j)), mode, samples, seed, threads)
    assert np.array_equal(got, want)


def _dense_norms(a, mode, samples, seed):
    """Norms of the whole realizations A o X, drawn from the same stream:
    one value per nonzero cell, or in symmetric mode one per lower-triangle
    cell of the symmetrized support, mirrored."""
    if mode == "rademacher_symmetric":
        ii, jj = np.nonzero(np.tril((a != 0) | (a.T != 0)))
    else:
        ii, jj = np.nonzero(a)
    if ii.size == 0:
        return np.zeros(samples)
    blocks = streams.uniform_blocks(seed, ii.size, samples)
    u = np.concatenate([block for _, block in blocks])
    values = (streams.gaussians_from_uniform(u) if mode == "gaussian"
              else streams.signs_from_uniform(u))
    x = np.zeros((samples,) + a.shape)
    x[:, ii, jj] = values
    if mode == "rademacher_symmetric":
        x[:, jj, ii] = values
    return top_values(a * x)


PATH_P3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


@PROPERTY_SETTINGS
@given(run=sampling_runs())
@example(run=("rademacher_symmetric", PATH_P3, 16, 0, 1))  # a bipartite support
def test_plan_norms_equal_dense_realization(run):
    mode, a, samples, seed, threads = run
    got = _sample_norms(WeightMatrix(a), mode, samples, seed, threads)
    want = _dense_norms(a, mode, samples, seed)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _signed_route(u, plan):
    """Per-sample norms and Gram-kernel stacks of the route the sampler
    took before it folded the sign into its gather: `signs_from_uniform`
    of the uniforms with a zero pad column, gathered, times the signed
    plan weights."""
    ext = np.concatenate((streams.signs_from_uniform(u), np.zeros((len(u), 1))), axis=1)
    out, stacks = np.zeros(len(u)), []
    for group in plan:
        r, c = group["shape"]
        w = group["w"] if group["neg"] is None else np.where(group["neg"], -group["w"], group["w"])
        block = ext.take(group["src"], axis=1) * w
        if r == 1 and c == 1:
            out = np.maximum(out, np.abs(block).max(axis=1))
            continue
        stacks.append(block.reshape(len(u), group["count"], r, c))
        out = top_value_max(stacks[-1], out, group["shift"])
    return out, stacks


#: Negative weights in every group shape: 1x1, 1x3, 2x1, a padded 2x2
#: (three cells) and two full 2x2 blocks, one of them with every weight
#: negative; as a symmetric matrix its mirrored cells share sign columns.
FOLD_SHAPES = np.zeros((9, 9))
FOLD_SHAPES[0, 0] = -3.0
FOLD_SHAPES[1, 1:4] = [1.0, -2.0, 0.5]
FOLD_SHAPES[2:4, 4] = [-1.5, 1.25]
FOLD_SHAPES[4:6, 5:7] = [[1.0, -1.0], [0.0, 2.0]]
FOLD_SHAPES[6:8, 7:9] = [[-1.0, -2.0], [-0.75, -1.0]]


@st.composite
def folded_runs(draw):
    """(mode, weights, uniforms): weights of side <= 8, signed, with
    exponents near the float limits or near 0, and uniforms with some
    entries set to exactly 0 and exactly 1/2."""
    mode = draw(st.sampled_from(sampler.EXACT_MODES))
    rows = draw(st.integers(1, 8))
    cols = rows if mode == "rademacher_symmetric" else draw(st.integers(1, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from([-1074, -1040, -3, 0, 960, 1020]))
    a = np.ldexp(gen.uniform(1.0, 2.0, (rows, cols)), base + gen.integers(0, 4, (rows, cols)))
    a *= gen.choice([-1.0, 1.0], (rows, cols)) * (gen.random((rows, cols)) < 0.5)
    u = gen.random((draw(st.integers(1, 40)), a.size))
    u[gen.random(u.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    u[gen.random(u.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.5
    return mode, a, u


@PROPERTY_SETTINGS
@given(run=folded_runs())
@example(run=("rademacher_iid", FOLD_SHAPES, np.tile([0.0, 0.5, 0.25, 0.75], (8, 8))))
@example(run=("rademacher_symmetric", FOLD_SHAPES + FOLD_SHAPES.T,
              np.tile([0.5, 0.0, 0.9, 0.1], (8, 8))))
@example(run=("rademacher_iid", np.ldexp(FOLD_SHAPES, 1020), np.full((3, 32), 0.5)))
@example(run=("rademacher_iid", np.ldexp(FOLD_SHAPES, -1070), np.zeros((3, 32))))
def test_folded_gather_equals_the_signed_route(run):
    # copysign(|w|, u - 1/2), negated where w < 0, is the sign times w bit
    # for bit: the norms, and every stack handed to the kernel, signs of
    # zero included
    mode, a, u = run
    k, plan = sampler._norm_plan(*sampler._cells(WeightMatrix(a)), mode)
    assume(k > 0)
    assert u.shape[1] >= k
    u = u[:, :k]
    stacks = []

    def kernel(stack, floor, shift=None):
        stacks.append(stack.copy())
        return top_value_max(stack, floor, shift)

    # norms of weights near the float maximum overflow to inf on both routes
    with np.errstate(over="ignore"), mock.patch.object(sampler, "top_value_max", kernel):
        want, want_stacks = _signed_route(u, plan)
        got = sampler._batch_norms(u, plan)
    assert np.array_equal(got, want)
    assert len(stacks) == len(want_stacks)
    for s, t in zip(stacks, want_stacks):
        assert np.array_equal(s, t) and np.array_equal(np.signbit(s), np.signbit(t))


@PROPERTY_SETTINGS
@given(r=st.integers(1, 6), c=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       j=st.one_of(st.just(0), st.integers(-1074, 1020)))
@example(r=2, c=2, seed=0, j=0)
@example(r=1, c=5, seed=1, j=-1074)
@example(r=4, c=1, seed=2, j=1020)
def test_norm_range_holds_every_sign_pattern(r, c, seed, j):
    # one block, nonzero at (0, 0), every other cell zero or of magnitude
    # 2^j [1, 2) down to 2^-1074; each sampled pattern's kernel norm, and
    # the tight ones (rank one gives the Frobenius norm, orthogonal rows
    # of equal weight the row norm), lie in the range
    gen = np.random.default_rng(seed)
    w = np.ldexp(gen.uniform(1.0, 2.0, (r, c)), j - gen.integers(0, 3, (r, c)))
    w *= gen.choice([-1.0, 1.0], (r, c)) * (gen.random((r, c)) < 0.7)
    w[0, 0] = np.ldexp(1.5, j)
    signs = gen.choice([-1.0, 1.0], (64, r, c))
    signs[0] = 1.0
    if r == c == 2:
        w[:] = np.ldexp(1.0, j)
        signs[1] = [[1.0, 1.0], [1.0, -1.0]]
    low, high = sampler._norm_range(*spectral.pow2_scaled(np.abs(w)[None]))
    with np.errstate(under="ignore"):
        norms = top_values(signs * w)
    assert np.all((low <= norms) & (norms <= high))


@st.composite
def edge_sets(draw):
    """(side, pairs, p, row permutation, column permutation): side <= 6."""
    n = draw(st.integers(1, 6))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(cells, max_size=14, unique=True))
    p = draw(st.integers(1, 8))
    rperm = draw(st.permutations(range(n)))
    cperm = draw(st.permutations(range(n)))
    return n, pairs, p, rperm, cperm


@PROPERTY_SETTINGS
@given(case=edge_sets())
def test_exact_01_invariant_under_transpose_and_permutations(case):
    n, pairs, p, rperm, cperm = case
    base = r_exact_01(EdgeSet(n, tuple(pairs)), p)
    assert base.certified
    moved = [
        [(j, i) for i, j in pairs],
        [(rperm[i], cperm[j]) for i, j in pairs],
    ]
    for other in moved:
        br = r_exact_01(EdgeSet(n, tuple(other)), p)
        assert br.certified
        np.testing.assert_allclose(br.lower, base.lower, rtol=1e-12, atol=0)


@st.composite
def budgeted_edge_sets(draw):
    """(side, pairs, p, budget): side <= 6, at most 12 pairs, and a node
    budget small enough to truncate some searches."""
    n = draw(st.integers(1, 6))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(cells, max_size=12, unique=True))
    p = draw(st.integers(1, 6))
    budget = draw(st.sampled_from([3, 30, 200_000]))
    return n, pairs, p, budget


@PROPERTY_SETTINGS
@given(case=budgeted_edge_sets())
def test_exact_01_bracket_holds_the_oracle(case):
    # a search stopped by its budget or at its cap still brackets the
    # exhaustive value, and a certified bracket is that value; the bracket
    # and the oracle take the same set's norm from different SVD routines,
    # which may differ in the last bits
    n, pairs, p, budget = case
    E = EdgeSet(n, tuple(pairs))
    want = subgraph_norm_enum(E, p)
    br = r_exact_01(E, p, budget)
    assert br.lower <= want + 1e-12
    assert want <= br.upper + 1e-9
    if br.certified:
        assert br.lower == br.upper
        assert abs(br.lower - want) <= 1e-9


@st.composite
def masked_supports(draw):
    """(support, kept, p, budget): a sparse 0/1 support of side <= 12, the indices
    kept after dropping one of them or a random proper subset, a moment and
    a node budget small enough to truncate some searches."""
    n = draw(st.integers(2, 12))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    support = np.zeros((n, n), dtype=bool)
    support[tuple(np.array(cells, dtype=int).reshape(-1, 2).T)] = True
    dropped = draw(st.one_of(st.integers(0, n - 1).map(lambda z: [z]),
                             st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True)))
    kept = [i for i in range(n) if i not in dropped]
    p = draw(st.integers(1, 6))
    budget = draw(st.sampled_from([3, 30, 200_000]))
    return support, kept, p, budget


@PROPERTY_SETTINGS
@given(case=masked_supports())
def test_masked_support_equals_extracted_submatrix(case):
    # the k-sweep scores a removal on the full support's index arrays with
    # the dropped rows and columns masked out, never relabelled
    support, kept, p, budget = case
    rows, cols = np.nonzero(support)
    on = np.isin(rows, kept) & np.isin(cols, kept)
    got = _exact_01(rows[on], cols[on], p, budget)
    ii, jj = np.nonzero(support[np.ix_(kept, kept)])
    want = r_exact_01(EdgeSet(len(kept), tuple(zip(ii.tolist(), jj.tolist()))), p, budget)
    assert (got.lower, got.upper, got.certified) == (want.lower, want.upper, want.certified)


@PROPERTY_SETTINGS
@given(case=masked_supports(), cap=st.sampled_from([1, 300_000]))
def test_support_score_equals_the_exact_lower_value(case, cap):
    # the k-sweep's search score is the exact bracket's lower value: the
    # search's own value, sqrt(size) for the star seed and the kernel's
    # value otherwise; the drawn budget truncates some searches, and
    # budget_cap 1 and 300,000 give _support_lower node budgets of 2,000
    # and 3,000
    support, kept, p, budget = case
    rows, cols = np.nonzero(support)
    on = np.isin(rows, kept) & np.isin(cols, kept)
    m = min(p, int(on.sum()))
    if m:
        got = _search_01(rows[on], cols[on], m, budget)[0]
        assert got == _exact_01(rows[on], cols[on], p, budget).lower
    config = EngineConfig(budget_cap=cap)
    got = _support_lower(rows, cols, on, p, config)
    assert got == _exact_01(rows[on], cols[on], p, max(2000, cap // 100)).lower


@st.composite
def shortlisted_supports(draw):
    """(support, zs, p): a square 0/1 support of side <= 12, either random
    cells or a K_d block (diagonal included) beside isolated diagonal
    pairs, a shortlist of removals (every index, or a sorted subset) and a
    moment with floor(p) from 1 to 8.  Small sides and few cells give
    removals that empty the support and moments that cover what is left."""
    n = draw(st.integers(1, 12))
    support = np.zeros((n, n), dtype=bool)
    if draw(st.booleans()):
        cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
        support[tuple(np.array(cells, dtype=int).reshape(-1, 2).T)] = True
    else:
        d = draw(st.integers(1, n))
        support[:d, :d] = True
        support[np.arange(d, n), np.arange(d, n)] = True
    zs = sorted(draw(st.one_of(st.just(list(range(n))),
                               st.lists(st.integers(0, n - 1), min_size=1, unique=True))))
    p = draw(st.integers(1, 8)) + draw(st.sampled_from([0.0, 0.25, 0.999]))
    return support, zs, p


def support_scores_per_candidate(support, zs, p, config):
    """The shortlist scores the degree screen replaced: one search per z."""
    rows, cols = np.nonzero(support)
    return [_support_lower(rows, cols, (rows != z) & (cols != z), p, config) for z in zs]


@PROPERTY_SETTINGS
@given(case=shortlisted_supports(), cap=st.sampled_from([1, 300_000]))
def test_screened_support_scores_equal_the_per_candidate_searches(case, cap):
    support, zs, p = case
    config = EngineConfig(budget_cap=cap)
    assert _support_scores(support, zs, p, config) == support_scores_per_candidate(
        support, zs, p, config)


def test_screened_support_scores_on_every_greedy_step_of_block_singletons():
    # every greedy step of this profile: the degree screen settles most
    # shortlisted removals, and the rest still run the search
    a = dict(corpus_mixed())["block_singletons_n128_d5"]
    config = EngineConfig()
    steps = []

    def checked(support, zs, p, config):
        got = _support_scores(support, zs, p, config)
        assert got == support_scores_per_candidate(support, zs, p, config)
        steps.append(len(zs))
        return got

    with mock.patch.object(bounds, "_support_scores", checked):
        bound_profile(a, config)
    # the chains of the k = 2 to 64 rows: 2 + 4 + ... + 64 steps
    assert len(steps) == 126


def search_01_ungated(rows, cols, m, budget_cap):
    """`_search_01` before its whole-set eigensolve was gated on a power
    bound: the reference the gated search must equal."""
    def pairs_value(rows, cols):
        ur = np.unique(rows)
        uc = np.unique(cols)
        a = np.zeros((len(ur), len(uc)))
        a[np.searchsorted(ur, rows), np.searchsorted(uc, cols)] = 1.0
        return float(top_values(a))

    row_deg = np.bincount(rows)
    col_deg = np.bincount(cols)
    rmax = int(row_deg.max())
    cmax = int(col_deg.max())
    if m >= rows.size:
        return pairs_value(rows, cols), True, math.sqrt(rmax * cmax)
    cap = min(math.sqrt(m), math.sqrt(min(rmax, m) * min(cmax, m)))
    best = math.sqrt(min(max(rmax, cmax), m))
    if (best < cap - 1e-12 and np.count_nonzero(row_deg) <= FULL_DECOMPOSITION_MAX
            and np.count_nonzero(col_deg) <= FULL_DECOMPOSITION_MAX):
        cap = min(cap, pairs_value(rows, cols))
    if best >= cap - 1e-12:
        return best, True, cap

    pairs = list(zip(rows.tolist(), cols.tolist()))
    by_row: dict = {}
    by_col: dict = {}
    for e, (i, j) in enumerate(pairs):
        by_row.setdefault(i, []).append(e)
        by_col.setdefault(j, []).append(e)
    nbr = [sorted((set(by_row[i]) | set(by_col[j])) - {e}) for e, (i, j) in enumerate(pairs)]
    nodes = 0

    def offer(subset):
        nonlocal best
        rc: dict = {}
        cc: dict = {}
        for e in subset:
            i, j = pairs[e]
            rc[i] = rc.get(i, 0) + 1
            cc[j] = cc.get(j, 0) + 1
        cheap = math.sqrt(min(len(subset), max(rc.values()) * max(cc.values())))
        if cheap <= best + 1e-12:
            return
        rmap = {i: k for k, i in enumerate(sorted(rc))}
        cmap = {j: k for k, j in enumerate(sorted(cc))}
        sub = np.zeros((len(rmap), len(cmap)))
        for e in subset:
            i, j = pairs[e]
            sub[rmap[i], cmap[j]] = 1.0
        val = float(top_values(sub))
        if val > best + 1e-12:
            best = val
            if val >= cap - 1e-12:
                raise _SearchStop(True)

    def grow(cur, cand, seen):
        nonlocal nodes
        nodes += 1
        if nodes > budget_cap:
            raise _SearchStop(False)
        if len(cur) == m or not cand:
            offer(cur)
            return
        root = cur[0]
        for idx, f in enumerate(cand):
            fresh = [g for g in nbr[f] if g > root and g not in seen]
            grow(cur + [f], cand[idx + 1:] + fresh, seen | set(fresh))

    try:
        for root in range(len(pairs)):
            cand = [f for f in nbr[root] if f > root]
            grow([root], cand, set(cand) | {root})
    except _SearchStop as stop:
        return best, stop.args[0], cap
    return best, True, cap


#: A bipartite path of 4 pairs, of norm sqrt(3).
PATH4 = [(0, 0), (0, 1), (1, 1), (1, 2)]
#: 12 pairs whose norm lies 0.099% below their cap at m = 7, and whose
#: power bound lies 0.102% below it: the smallest such gap a random search
#: of sides up to 8 found.
NEAR_CAP = [(0, 2), (0, 5), (2, 1), (2, 2), (2, 4), (2, 6), (3, 2), (3, 5), (4, 1),
            (5, 0), (5, 2), (5, 6)]


@PROPERTY_SETTINGS
@given(case=budgeted_edge_sets())
# K_3 at m = 4: the power bound on the norm 3 clears the cap 2, no eigensolve
@example(case=(3, [(i, j) for i in range(3) for j in range(3)], 4, 200_000))
# the path at m = 3: the norm ties the cap sqrt(3), the bound lies just below it
@example(case=(3, PATH4, 3, 200_000))
# the path beside a pair at m = 4: the norm lowers the cap from 2 to sqrt(3)
@example(case=(4, PATH4 + [(3, 3)], 4, 200_000))
@example(case=(7, NEAR_CAP, 7, 200_000))
def test_gated_search_equals_the_ungated_search(case):
    n, pairs, p, budget = case
    rows, cols = EdgeSet(n, tuple(pairs)).index_arrays()
    m = min(p, rows.size)
    assume(m > 0)
    assert _search_01(rows, cols, m, budget) == search_01_ungated(rows, cols, m, budget)


@st.composite
def small_weights(draw, square=False):
    """Weights of side <= 5 with at most 10 nonzero entries of magnitude
    in [1/2, 4], plus row and column permutations and a sign pattern."""
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    a = np.zeros((rows, cols))
    for i, j in draw(st.lists(cells, max_size=10, unique=True)):
        a[i, j] = draw(st.floats(0.5, 4.0)) * draw(st.sampled_from([-1.0, 1.0]))
    rperm = np.array(draw(st.permutations(range(rows))))
    cperm = rperm if square else np.array(draw(st.permutations(range(cols))))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                   min_size=a.size, max_size=a.size))).reshape(a.shape)
    return a, rperm, cperm, signs


@PROPERTY_SETTINGS
@given(case=small_weights())
def test_exact_expectation_iid_symmetries(case):
    a, rperm, cperm, signs = case
    base = exact_small_norm_expectation(WeightMatrix(a), "rademacher_iid")
    for other in (a.T, a[rperm][:, cperm], signs * a):
        got = exact_small_norm_expectation(WeightMatrix(other), "rademacher_iid")
        np.testing.assert_allclose(got, base, rtol=1e-12, atol=0)


@PROPERTY_SETTINGS
@given(case=small_weights(square=True))
def test_exact_expectation_symmetric_conjugation(case):
    a, perm, _, _ = case
    base = exact_small_norm_expectation(WeightMatrix(a), "rademacher_symmetric")
    got = exact_small_norm_expectation(WeightMatrix(a[perm][:, perm]),
                                       "rademacher_symmetric")
    np.testing.assert_allclose(got, base, rtol=1e-12, atol=0)


@PROPERTY_SETTINGS
@given(a=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 9), st.integers(2, 9)),
                elements=st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0]),
                                   st.floats(-4.0, 4.0, allow_subnormal=False))),
       j=st.one_of(st.just(0), st.integers(-1060, 1020)))
def test_top_values_within_tolerance_of_oracle_svd(a, j):
    # sides >= 2 take the Gram eigensolve; 2^j reaches subnormal and
    # near-overflow entries
    a = np.ldexp(a, j)
    want = np.array([top_singular_value(m) for m in a])
    with np.errstate(all="raise"):
        got = top_values(a)
    np.testing.assert_allclose(got, want, rtol=16 * np.finfo(float).eps, atol=0)


@st.composite
def gapped_stacks(draw):
    """(S, r, c) stacks of sides 1 to 12, or in about a quarter of the
    draws 40 to 160, where the Gram side can reach the certified power
    steps (POWER_PAIR_MIN); r < c, r = c or r > c: rank one, or a rank-one
    spike of norm 3 over Gaussian noise of norm about 0 to 1.5, so that
    the top gap is clear."""
    count = draw(st.integers(1, 4))
    sides = st.integers(40, 160) if draw(st.integers(0, 3)) == 0 else st.integers(1, 12)
    r, c = draw(sides), draw(sides)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.sampled_from([0.0, 0.1, 0.5, 1.5]))
    x = rng.standard_normal((count, r, 1))
    y = rng.standard_normal((count, 1, c))
    spike = 3.0 * x * y / (np.linalg.norm(x, axis=1, keepdims=True)
                           * np.linalg.norm(y, axis=2, keepdims=True))
    return spike + noise * rng.standard_normal((count, r, c)) / np.sqrt(max(r, c))


@PROPERTY_SETTINGS
@given(a=gapped_stacks(), j=st.sampled_from([0, 300, -300]))
def test_gram_pair_within_tolerance_of_the_svd_pair(a, j):
    # sigma within the kernel's 16 eps of the oracle; each vector within
    # 256 eps / relative gap of the SVD pair's, up to one joint sign (the
    # worst of 20,000 such matrices measured 43 eps / gap), whether it
    # came from eigh or from certified power steps; and scaling by 2^j
    # scales sigma exactly and leaves the vectors' bits alone
    eps = np.finfo(float).eps
    sigma, u, v = top_pair(a, gram=True)
    scaled = top_pair(np.ldexp(a, j), gram=True)
    assert np.array_equal(scaled[0], np.ldexp(sigma, j))
    assert np.array_equal(scaled[1], u) and np.array_equal(scaled[2], v)
    np.testing.assert_allclose(sigma, [top_singular_value(m) for m in a],
                               rtol=16 * eps, atol=0)
    _, want_u, want_v = top_pair(a)
    for m in range(len(a)):
        values = np.linalg.svd(a[m], compute_uv=False)
        second = values[1] if values.size > 1 else 0.0
        tol = 256 * eps * values[0] ** 2 / (values[0] ** 2 - second ** 2)
        sign = 1.0 if u[m] @ want_u[m] >= 0.0 else -1.0
        np.testing.assert_allclose(sign * u[m], want_u[m], rtol=0, atol=tol)
        np.testing.assert_allclose(sign * v[m], want_v[m], rtol=0, atol=tol)


@st.composite
def block_stacks(draw):
    """(stack, floor): an (m, g, r, c) stack of Gaussian, sign or repeated
    blocks, some all zero, at a scale 2^j, with a floor of zeros, of random
    values or above every block."""
    m, g = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gauss", "signs", "repeated", "union_complete"]))
    if kind == "gauss":
        stack = rng.standard_normal((m, g, r, c))
    elif kind == "signs":
        stack = rng.choice([-1.0, 0.0, 1.0], size=(m, g, r, c))
    elif kind == "repeated":
        stack = np.broadcast_to(rng.standard_normal((m, 1, r, c)), (m, g, r, c)).copy()
    else:
        # signed complete-graph blocks: few distinct norms, so exact ties
        support = np.ones((r, r)) - np.eye(r)
        stack = support * rng.choice([-1.0, 1.0], size=(m, g, r, r))
    stack[:, rng.random(g) < 0.2] = 0.0
    j = draw(st.one_of(st.just(0), st.integers(-1000, 1000)))
    stack = np.ldexp(stack, j)
    floor = draw(st.sampled_from(["zero", "random", "above"]))
    if floor == "zero":
        return stack, np.zeros(m)
    if floor == "random":
        return stack, np.ldexp(rng.uniform(0.0, 6.0, size=m), j)
    return stack, np.ldexp(np.full(m, 64.0), j)


@PROPERTY_SETTINGS
@given(case=block_stacks())
def test_top_value_max_equals_unpruned_maximum(case):
    # the pruned row maximum has the bits of the maximum over every block
    stack, floor = case
    want = np.maximum(floor, top_values(stack).max(axis=1))
    assert np.array_equal(top_value_max(stack, floor), want)


@st.composite
def square_supports(draw):
    """A square matrix of side <= 10 with a random, usually asymmetric
    support, diagonal entries and empty rows included."""
    n = draw(st.integers(0, 10))
    return draw(arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 0.0, 1.0, -2.5])))


@PROPERTY_SETTINGS
@given(a=square_supports())
@example(a=np.zeros((5, 5)))  # all zero
@example(a=np.diag([1.0, 0.0, 3.0]))  # diagonal only
@example(a=np.triu(np.ones((5, 5)), 1))  # asymmetric, last row empty
@example(a=np.eye(4) + np.eye(4, k=1))  # a path with its diagonal
def test_max_support_degree_equals_the_support_graph(a):
    A = WeightMatrix(a)
    assert max_support_degree(A) == derive_graph(A).max_degree
    # with the symmetry flag set the transpose is not read again
    S = WeightMatrix(a + a.T, symmetric=True)
    assert max_support_degree(S) == derive_graph(S).max_degree
    assert max_support_degree(S) == max_support_degree(WeightMatrix(a + a.T))


@st.composite
def edge_sets(draw):
    """(E, seed): a square edge set of side <= 12 with random, usually
    asymmetric pairs, diagonal pairs and empty rows included."""
    n = draw(st.integers(1, 12))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    return EdgeSet(n, pairs), draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(case=edge_sets())
@example(case=(EdgeSet(5, ()), 0))  # empty
@example(case=(EdgeSet(4, ((0, 0), (2, 2), (3, 3))), 1))  # diagonal only
@example(case=(EdgeSet(5, ((0, 1), (0, 3), (1, 2), (3, 0), (4, 4))), 2))  # asymmetric
@example(case=(EdgeSet(6, ((4, 1),)), 3))  # a single pair, empty rows
def test_edge_set_route_equals_the_indicator_route(case):
    E, seed = case
    A = E.indicator()
    for mode in MODES:
        for threads in (1, 2):
            got = mc_norm(E, mode, 40, seed, threads)
            assert repr(got) == repr(mc_norm(A, mode, 40, seed, threads))
    if len(E) <= 12:  # at most 2^11 sign patterns
        for mode in ("rademacher_iid", "rademacher_symmetric"):
            got = exact_small_norm_expectation(E, mode)
            assert repr(got) == repr(exact_small_norm_expectation(A, mode))
    assert repr(_cheap_bounds(E)) == repr(_cheap_bounds(A))


#: Profile fields that are not magnitudes: the moments and the counts.
NOT_MAGNITUDES = frozenset({"p", "moment", "n", "degree", "k"})


def scaled_profile(d, j, key=None):
    """A profile's JSON dict with every magnitude multiplied by 2^j."""
    if isinstance(d, dict):
        return {k: scaled_profile(v, j, k) for k, v in d.items()}
    if isinstance(d, list):
        return [scaled_profile(v, j, key) for v in d]
    if isinstance(d, float) and key not in NOT_MAGNITUDES:
        return float(np.ldexp(d, j))
    return d


@st.composite
def profile_cases(draw):
    """(a, symmetric, j, exact_threshold): generic general weights of side
    2 to 6 (Gaussian, about a third of them zero), symmetric or not, and a
    power j that keeps every nonzero 2^j a_ij a normal float and every
    profile value finite; the thresholds give greedy as well as exact
    k-sweep rows."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.7)
    symmetric = draw(st.booleans())
    if symmetric:
        a = np.triu(a) + np.triu(a, 1).T
    mags = np.abs(a[a != 0.0])
    assume(mags.size and mags.min() < mags.max())
    low, high = np.frexp(mags.min())[1], np.frexp(mags.max())[1]
    j = draw(st.integers(-1021 - low, 1000 - high))
    return a, symmetric, j, draw(st.sampled_from([0, 4, 2000]))


DENSE_GAUSS_N16 = dict(corpus_mixed())["dense_gauss_n16"].entries


# each example takes two profiles, about 0.1 s
@settings(PROPERTY_SETTINGS, max_examples=50)
@given(case=profile_cases())
# at 2^-40, an input left unnormalized meets the k-sweep's 1e-12 band
# at its own scale and removes index 1 at k = 1, not 5
@example(case=(DENSE_GAUSS_N16, False, -40, 150))
def test_profile_scales_exactly_by_powers_of_two(case):
    a, symmetric, j, threshold = case
    config = EngineConfig(exact_threshold=threshold)
    base = bound_profile(WeightMatrix(a, symmetric=symmetric), config).to_json_dict()
    got = bound_profile(WeightMatrix(np.ldexp(a, j), symmetric=symmetric),
                        config).to_json_dict()
    assert got == scaled_profile(base, j)
