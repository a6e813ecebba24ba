"""Named norm bounds and the R_A(p) machinery.

Everything a bound profile needs: the Seginer and Bandeira-van Handel
closed forms, the trivial degree bound, exact combinatorial evaluation of
the subgraph form of R_A(p) for 0/1 matrices (branch and bound over
connected edge subsets; a matrix whose nonzero entries share one
magnitude c is solved on its support and scaled by c), a surrogate-ascent
heuristic bracket for general weights, and the k-sweep term
max_k min_{|I| <= k} R(Log k) of the two-sided profile.

Every term is positively homogeneous of degree one.  `bound_profile`,
`r_heuristic` and `ksweep_term` each scale their input by a power of two
to max |a_ij| in [1/2, 1), with the exponent from `spectral.pow2_scaled`
(the library's one exponent chooser), and scale their values back.  So
every absolute tie band (the 1e-12 of the k-sweep's minimum and of the
ascent's stopping test) compares unit-scale numbers, no square overflows
or underflows, and a power-of-two multiple of the input gives the same
multiple of every value, bit for bit.

Values that are only correct up to universal constants carry
loose_constants=True; nothing here silently presents a surrogate as
sharp.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import EdgeSet, WeightMatrix, log_clamped, max_support_degree, off_diagonal
from .moments import hitczenko_surrogate, surrogate_sorted, water_fill_scale
# the benchmark tracer (perfbench/spans.py) wraps `bounds.water_fill` as its
# water-fill span, so the name stays bound here
from .moments import water_fill  # noqa: F401
from .spectral import (FULL_DECOMPOSITION_MAX, max_row_col_l2, pow2_scaled, power_pair,
                       top_pair, top_values)
from . import streams


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for the search-based estimators, one per `profile` flag.

    The CLI builds the flags from these fields, and their order is the
    order in which `profile` echoes the flags.  Out-of-range values raise
    ValueError here, whatever the input matrix, so every estimator can
    rely on them.
    """

    exact_threshold: int = 2000     # inner-min enumeration budget (subsets)
    budget_cap: int = 200_000       # branch-and-bound node budget
    seed: int = 0
    restarts: int = 3               # random ascent restarts

    def __post_init__(self):
        if self.exact_threshold < 0:
            raise ValueError("exact_threshold must be nonnegative")
        if self.budget_cap < 1:
            raise ValueError("budget_cap must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        streams.check_seed(self.seed)


EXACT_FULL_N = 16       # full estimator on every enumerated subset up to this n
GREEDY_STEP_CAP = 256   # greedy removal chain length cap
SHORTLIST_SIZE = 32     # candidate removals scored per greedy step


@dataclass(frozen=True, eq=False)
class RBracket:
    """Bracket [lower, upper] for R_A(p).

    exact01 mode: lower == upper == the exact subgraph-search value when
    certified; a search that runs out of node budget keeps lower at the
    best value found and upper at the cheap cap it searched against,
    certified=False.
    heuristic mode: lower is a surrogate value (constant-level only) and
    upper is the crude cap row + col + sqrt(p) max|a|; both carry
    loose_constants=True.
    """

    p: float
    lower: float
    upper: float
    mode: str
    certified: bool = True
    loose_constants: bool = False

    def __post_init__(self):
        if not (-1e-12 <= self.lower <= self.upper + 1e-9):
            raise ValueError(f"bracket disorder: [{self.lower}, {self.upper}]")

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "lower": self.lower,
            "upper": self.upper,
            "mode": self.mode,
            "certified": self.certified,
            "loose_constants": self.loose_constants,
        }


class BoundInputs(NamedTuple):
    """What the closed-form bounds read of a square matrix."""

    n: int
    row: float      # max row L2 norm
    col: float      # max column L2 norm
    max_abs: float
    off_max: float  # largest off-diagonal |a_ij|
    degree: int     # max degree of the support graph


def _unit_scaled(A: WeightMatrix) -> tuple:
    """(B, e) with A = 2^e B and max |b_ij| in [1/2, 1) (`pow2_scaled`; a
    zero matrix keeps e = 0): the input every profile estimator runs on
    before it scales its values back by 2^e (see the module docstring)."""
    scaled, shift = pow2_scaled(A.entries[None])
    return WeightMatrix(scaled[0], symmetric=A.symmetric), int(shift[0])


def bound_inputs(A: WeightMatrix | EdgeSet) -> BoundInputs:
    """The closed-form bounds' inputs of a square WeightMatrix, or of the
    0/1 matrix of an EdgeSet.

    An edge set's inputs are counts of its pairs (row and column L2 norms
    are square roots of `bincount` maxima, max |a| and the off-diagonal
    maximum are 1 or 0, the degree counts the symmetrized off-diagonal
    pairs), so they equal its indicator's bit for bit without building it.
    A dense matrix's two maxima share one |a| pass."""
    if isinstance(A, EdgeSet):
        n = A.n
        rows, cols = A.index_arrays()
        off = rows != cols
        r, c = rows[off], cols[off]
        sym = np.unique(np.concatenate((r * n + c, c * n + r)))
        return BoundInputs(n, math.sqrt(np.bincount(rows, minlength=n).max()),
                           math.sqrt(np.bincount(cols, minlength=n).max()),
                           float(rows.size > 0), float(r.size > 0),
                           int(np.bincount(sym // n, minlength=n).max()))
    if not A.is_square:
        raise ValueError("bound defined for square matrices")
    mag = np.abs(A.entries)
    return BoundInputs(A.n_rows, *max_row_col_l2(A), float(mag.max(initial=0.0)),
                       float(off_diagonal(mag).max(initial=0.0)), max_support_degree(A))


def seginer_bound(A: WeightMatrix | EdgeSet, inputs: BoundInputs | None = None) -> float:
    """(Log n)^{1/4} (max row L2 + max col L2); `inputs` is
    `bound_inputs(A)` when the caller already has it."""
    x = bound_inputs(A) if inputs is None else inputs
    return log_clamped(x.n) ** 0.25 * (x.row + x.col)


def bvh_bound(A: WeightMatrix | EdgeSet, inputs: BoundInputs | None = None) -> float:
    """max row L2 + max col L2 + sqrt(Log n) max |a_ij|; `inputs` as in
    `seginer_bound`."""
    x = bound_inputs(A) if inputs is None else inputs
    return x.row + x.col + math.sqrt(log_clamped(x.n)) * x.max_abs


def trivial_degree_bound(A: WeightMatrix | EdgeSet, inputs: BoundInputs | None = None) -> float:
    """d_A times the largest off-diagonal |a_ij| (support degree bound);
    `inputs` as in `seginer_bound`."""
    x = bound_inputs(A) if inputs is None else inputs
    return x.degree * x.off_max


# ---------------------------------------------------------------------------
# exact 0/1 subgraph search


def _compacted(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The 0/1 indicator of the pairs (rows[e], cols[e]), compacted to the
    rows and columns they use."""
    ur = np.unique(rows)
    uc = np.unique(cols)
    m = np.zeros((len(ur), len(uc)))
    m[np.searchsorted(ur, rows), np.searchsorted(uc, cols)] = 1.0
    return m


def _star_cap(rmax, cmax, m) -> tuple:
    """(star, cap) of searches over at most m pairs of supports with row
    and column degree maxima rmax and cmax (scalars or arrays alike): the
    star seed sqrt(min(max(rmax, cmax), m)), which m pairs of the densest
    row or column achieve, and the cap min(sqrt m, sqrt(min(rmax, m)
    min(cmax, m))), which no subset of at most m pairs can beat."""
    star = np.sqrt(np.minimum(np.maximum(rmax, cmax), m))
    cap = np.minimum(np.sqrt(m), np.sqrt(np.minimum(rmax, m) * np.minimum(cmax, m)))
    return star, cap


class _SearchStop(Exception):
    """Ends `_search_01` early; its one argument is True when the best
    value reached the cap and False when the node budget ran out."""


def r_exact_01(E: EdgeSet, p: float, budget_cap: int = 200_000) -> RBracket:
    """max over F subset of E, |F| <= floor(p), of ||1_F||.

    Branch and bound over connected subsets, seeded with the densest row
    or column and stopped as soon as the best value reaches the cap:
    sqrt(m) or the capped row and column degrees, lowered to the whole-set
    norm where that norm is smaller (see `_search_01` for when it is
    taken).  A search that exhausts `budget_cap` nodes returns the best
    value found with certified=False and the cap as upper.
    Runs as `_exact_01` on the pairs as row and column index arrays.
    """
    return _exact_01(*E.index_arrays(), p, budget_cap)


def _exact_01(rows: np.ndarray, cols: np.ndarray, p: float, budget_cap: int) -> RBracket:
    """`r_exact_01` on the pairs (rows[e], cols[e]), in row-major order.
    Only the order of the indices matters, so a support masked out of a
    larger one gives the bracket of its extracted submatrix.  lower is
    `_search_01`'s value, certified when the search completed."""
    if math.floor(p) < 1:
        raise ValueError("p must satisfy floor(p) >= 1")
    m = min(int(math.floor(p)), rows.size)
    if m == 0:
        return RBracket(float(p), 0.0, 0.0, "exact01")
    val, complete, cap = _search_01(rows, cols, m, budget_cap)
    return RBracket(float(p), val, val if complete else cap, "exact01",
                    certified=complete)


def _search_01(rows: np.ndarray, cols: np.ndarray, m: int, budget_cap: int) -> tuple:
    """(value, complete, cap) of the search over subsets of at most m >= 1
    of the pairs (rows[e], cols[e]): the best value found, whether the
    search ran to completion or reached the cap, and the cap searched
    against.

    The value is sqrt(size) for the star seed, `top_values` of a searched
    set, and `top_values` of the whole set when m covers it (then the cap
    is sqrt(max row degree * max col degree), which bounds any norm).
    Otherwise the search starts from the star seed and the degree cap of
    `_star_cap`, and returns the seed at once when it reaches the cap.
    Else, when both sides of the set are at most FULL_DECOMPOSITION_MAX,
    `top_values` of the whole set lowers the cap, unless a 3-step power
    bound on that norm (`power_pair`) already exceeds the cap by 1e-12
    relative: then the kernel's value, within 16 eps of the norm, could
    not lower it, and the eigensolve is skipped with no bit changed.

    The optimum is attained on a subset that is connected in the
    edge-adjacency sense (sharing a row or a column index), since the norm
    of a block-diagonal arrangement is the largest block norm.  The search
    enumerates those subsets by ESU (Wernicke, Efficient detection of
    network motifs, IEEE/ACM TCBB 2006): each subset once, grown from its
    smallest edge index, the root, by candidates adjacent to it with a
    larger index, children in candidate order.  A node is one recursion
    step (one call of `grow`), and a search that takes more than
    `budget_cap` nodes stops uncertified.  Each subset of m edges, or that
    cannot grow, is a leaf: it is scored unless its cheap bound cannot
    beat the best value, and the search stops as soon as the best value
    reaches the cap that no subset can beat.
    """
    row_deg = np.bincount(rows)
    col_deg = np.bincount(cols)
    rmax = int(row_deg.max())
    cmax = int(col_deg.max())
    if m >= rows.size:
        return float(top_values(_compacted(rows, cols))), True, math.sqrt(rmax * cmax)
    best, cap = (float(x) for x in _star_cap(rmax, cmax, m))

    # the whole-set norm can only lower the cap; 3 power steps give
    # ||A v|| for a unit v, a lower bound on it up to a few eps, and the
    # kernel's value is within 16 eps of it, so when the bound clears the
    # cap by 1e-12 relative, min(cap, value) is the cap: skip the eigensolve
    if (best < cap - 1e-12 and np.count_nonzero(row_deg) <= FULL_DECOMPOSITION_MAX
            and np.count_nonzero(col_deg) <= FULL_DECOMPOSITION_MAX):
        whole = _compacted(rows, cols)
        if power_pair(whole, 3)[0] < cap * (1 + 1e-12):
            cap = min(cap, float(top_values(whole)))
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
        # compacted from the counts: on sets of <= m pairs numpy's per-call
        # cost (`_compacted`) is larger than the work (2x slower searches)
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


# ---------------------------------------------------------------------------
# heuristic bracket for general weights

#: Elements (runs times r * c) of the surrogate ascent's runs stepped in
#: one batch, and the most any of its pair calls takes (one matrix at
#: least): about 256 KB of float64 per batch-sized array, so the seeds of
#: a stack share batches and the ascent's memory stays flat however many
#: matrices a k-sweep row keeps.
_ASCENT_BUDGET = 1 << 15


def _ascent_pair(stack: np.ndarray, sym: np.ndarray) -> tuple:
    """(u, v) of `top_pair` for each matrix of an (S, r, c) stack: the SVD
    pair where `sym` marks an exactly symmetric ascent input, the Gram pair
    elsewhere, at most _ASCENT_BUDGET elements per `top_pair` call (one
    matrix at least).

    On a symmetric input the mirrored entries of a o s t^T tie whenever
    s = t.  The clipped set of the water-filling (`_clipped`) takes the
    larger entry first and equal entries lowest index first, so which of
    two mirrored entries clips turns on the pair's last bits, which the
    two routes do not share; so symmetric inputs keep the SVD pair until
    the ascent is made label-free.  The gate is per matrix, so each keeps
    the pair a call on it alone gives."""
    u = np.empty(stack.shape[:2])
    v = np.empty((len(stack), stack.shape[2]))
    step = max(1, _ASCENT_BUDGET // (stack.shape[1] * stack.shape[2]))
    for lo in range(0, len(stack), step):
        for part, gram in ((sym[lo:lo + step], False), (~sym[lo:lo + step], True)):
            if part.any():
                rows = lo + np.flatnonzero(part)
                _, u[rows], v[rows] = top_pair(stack[rows], gram=gram)
    return u, v


def _stack_seeds(stack: np.ndarray, sym: np.ndarray, restarts: int, seed: int):
    """Yield the ascent's start pairs for a stack of nonzero matrices, one
    seed at a time as (rows, s, t): the indices of the matrices that take
    the seed and their (len(rows), r) and (len(rows), c) start vectors.
    The seeds are the top singular pair (`_ascent_pair`, with `sym` the
    matrices that are exactly symmetric), the basis pair at the largest
    |a_ij|, the heaviest row and the heaviest column with their normalized
    magnitudes (for the matrices whose row or column L2 norm does not
    underflow to 0), flat vectors on the row and column supports, then
    `restarts` random pairs that depend only on the shape."""
    count, nr, nc = stack.shape
    at = np.arange(count)

    def basis(size, index):
        e = np.zeros((len(index), size))
        e[np.arange(len(index)), index] = 1.0
        return e

    u, v = _ascent_pair(stack, sym)
    yield at, u, v
    flat = np.abs(stack).reshape(count, -1).argmax(axis=1)
    yield at, basis(nr, flat // nc), basis(nc, flat % nc)
    sq = stack * stack
    rnorm = np.sqrt(sq.sum(axis=2))
    cnorm = np.sqrt(sq.sum(axis=1))
    i0 = rnorm.argmax(axis=1)
    j0 = cnorm.argmax(axis=1)
    rows = np.flatnonzero(rnorm[at, i0] > 0)
    yield (rows, basis(nr, i0[rows]),
           np.abs(stack[rows, i0[rows], :]) / rnorm[rows, i0[rows]][:, None])
    rows = np.flatnonzero(cnorm[at, j0] > 0)
    yield (rows, np.abs(stack[rows, :, j0[rows]]) / cnorm[rows, j0[rows]][:, None],
           basis(nc, j0[rows]))
    rsup = (stack != 0).any(axis=2)
    csup = (stack != 0).any(axis=1)
    yield (at, rsup / np.sqrt(rsup.sum(axis=1))[:, None],
           csup / np.sqrt(csup.sum(axis=1))[:, None])
    for r in range(restarts):
        yield (at, np.broadcast_to(streams.unit_vector(seed, nr, 2 * r), (count, nr)),
               np.broadcast_to(streams.unit_vector(seed, nc, 2 * r + 1), (count, nc)))


def _reweighted(a: np.ndarray, s: np.ndarray, t: np.ndarray) -> tuple:
    """(c, |c|, star) for c = a o s t^T of each matrix of an (S, r, c)
    stack, flattened to one row per matrix; star is |c| sorted
    nonincreasing along each row."""
    # s[:, :, None] * t[:, None, :] is np.outer(s, t) per matrix; forming
    # it first keeps each product bit for bit equal to the 2-D path
    c = (a * (s[:, :, None] * t[:, None, :])).reshape(len(a), -1)
    abs_c = np.abs(c)
    return c, abs_c, np.sort(abs_c, axis=1)[:, ::-1]


def _clipped(abs_c: np.ndarray, star: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Mask of the m[i] cells of each row of abs_c that come first in its
    stable nonincreasing order (star is that row sorted): every cell above
    the m-th largest value, then the cells equal to it, lowest index
    first."""
    cut = np.where(m > 0, star[np.arange(len(m)), np.maximum(m - 1, 0)], np.inf)
    mask = abs_c >= cut[:, None]
    tied = np.flatnonzero(mask.sum(axis=1) > m)
    if tied.size:
        above = abs_c[tied] > cut[tied, None]
        at_cut = mask[tied] & ~above
        room = m[tied] - above.sum(axis=1)
        mask[tied] = above | (at_cut & (np.cumsum(at_cut, axis=1) <= room[:, None]))
    return mask


def _dual_weights(abs_c: np.ndarray, star: np.ndarray, p: float) -> np.ndarray:
    """`water_fill`'s weights of each row of abs_c, in abs_c's own cell
    order (star is each row sorted nonincreasing): scale * |c|, with the
    clipped cells (`_clipped`) set to 1."""
    m, scale, _ = water_fill_scale(star, p)
    b = scale[:, None] * abs_c
    b[_clipped(abs_c, star, m)] = 1.0
    return b


def _ascent(stack: np.ndarray, p: float, restarts: int, seed: int,
            max_iters: int = 20) -> np.ndarray:
    """Alternating surrogate ascent on every matrix of an (S, r, c) stack.

    Every matrix must have a nonzero entry.  From each start pair of
    `_stack_seeds` it alternates optimal dual weights (water-filling of
    the reweighted entries) with the top singular pair of the weighted
    matrix (`_ascent_pair`: the Gram pair, or the SVD pair when the input
    matrix is exactly symmetric), for at most `max_iters` steps, and stops
    a run once its objective s^T (a o b) t stops rising.  Every (matrix,
    seed) start pair of the stack is one run, and the runs go in batches
    of at most _ASCENT_BUDGET elements (one run at least), so several
    seeds of a matrix can share a batch and one seed of a large stack can
    span several; every step is one batched call over a batch's runs that
    still improve.  Each run depends only on its own matrix and start
    pair, so the batching changes no bit.  Each step sorts the reweighted
    magnitudes of its pair once, by value, for both the surrogate of that
    pair and the next step's water-filling, whose weights are built in
    cell order (`_dual_weights`).  Returns each matrix's best surrogate
    over all pairs visited: a value replaces the best only when it is
    strictly larger, so a NaN surrogate never does.
    """
    count, nr, nc = stack.shape
    best = np.zeros(count)

    def offer(idx, star):
        head, tail = surrogate_sorted(star, p)
        val = head + tail
        up = val > best[idx]
        # a matrix can hold several runs of a batch: keep the largest
        np.maximum.at(best, idx[up], val[up])

    # exactly symmetric inputs take the SVD pair (`_ascent_pair`)
    sym = np.zeros(count, dtype=bool)
    if nr == nc:
        sym = (stack == stack.transpose(0, 2, 1)).all(axis=(1, 2))
    runs, starts_s, starts_t = (np.concatenate(part) for part in
                                zip(*_stack_seeds(stack, sym, restarts, seed)))
    step = max(1, _ASCENT_BUDGET // (nr * nc))
    for lo in range(0, len(runs), step):
        idx, s, t = runs[lo:lo + step], starts_s[lo:lo + step], starts_t[lo:lo + step]
        a = stack[idx]
        c, abs_c, star = _reweighted(a, s, t)
        offer(idx, star)
        obj_prev = np.full(len(idx), -1.0)
        for _ in range(max_iters):
            weighted = a * (np.sign(c) * _dual_weights(abs_c, star, p)).reshape(a.shape)
            # the pair call holds the batch's memory peak: free what it does not need
            del c, abs_c, star
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


def r_heuristic(A: WeightMatrix, p: float, restarts: int = 3, seed: int = 0,
                max_iters: int = 20) -> RBracket:
    """Surrogate bracket for R_A(p) on general weights.

    lower: best head-plus-tail surrogate over unit pairs explored by
    alternating ascent (`_ascent` on a stack of one: optimal dual weights
    by water-filling, then the top singular pair of the reweighted
    matrix, from the Gram route unless A is exactly symmetric).  upper:
    the crude cap row_max + col_max + sqrt(p) max|a|.  Both are taken of A
    at unit scale (`_unit_scaled`) and scaled back.
    Both are constant-level values; loose_constants is always set.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    A, e = _unit_scaled(A)
    a = A.entries
    row, col = max_row_col_l2(A)
    upper = row + col + math.sqrt(p) * A.max_abs()
    lower = float(_ascent(a[None], p, restarts, seed, max_iters)[0]) if a.any() else 0.0
    return RBracket(float(p), float(np.ldexp(lower, e)), float(np.ldexp(upper, e)),
                    "heuristic", certified=False, loose_constants=True)


def _magnitude(stack: np.ndarray) -> np.ndarray:
    """The one value every nonzero |a_ij| of each matrix of an (S, r, c)
    stack takes: 0 when the matrix has no nonzero entry, NaN when they take
    several values."""
    mags = np.abs(stack).reshape(len(stack), -1)
    top = mags.max(axis=1)
    low = np.where(mags > 0.0, mags, np.inf).min(axis=1)
    return np.where(low == top, top, np.where(top > 0.0, np.nan, 0.0))


def r_estimate(A: WeightMatrix, p: float, config: EngineConfig = EngineConfig()) -> RBracket:
    """Dispatch: when every nonzero |a_ij| equals one c, the exact bracket
    of the 0/1 support scaled by c; surrogate ascent otherwise."""
    c = float(_magnitude(A.entries[None])[0]) if A.is_square else math.nan
    if not math.isnan(c):
        br = _exact_01(*np.nonzero(A.entries), p, config.budget_cap)
        return replace(br, lower=c * br.lower, upper=c * br.upper)
    return r_heuristic(A, p, restarts=config.restarts, seed=config.seed)


# ---------------------------------------------------------------------------
# k-sweep term


def _quick_r_lower(a: np.ndarray, p: float) -> float:
    """Cheap surrogate value of a o u v^T at the 6-power-step top pair
    (u, v) of `a` (for search only)."""
    sigma, u, v = power_pair(a, 6)
    if sigma == 0.0:
        return 0.0
    return hitczenko_surrogate((a * np.outer(u, v)).ravel(), p).total


def _first_min(scores: list) -> tuple:
    """(best, index) of the smallest score, scanning in order: a score
    replaces the best so far only when it lies more than 1e-12 below it,
    so near-ties keep the lowest index (index 0 when every score is inf
    or NaN)."""
    best, at = math.inf, 0
    for i, score in enumerate(scores):
        if score < best - 1e-12:
            best, at = score, i
    return best, at


def _shortlist_scores(a: np.ndarray, u: np.ndarray, v: np.ndarray, zs: list,
                      p: float) -> list:
    """For each z in `zs`, the surrogate of the square matrix `a` at its
    top pair (u, v) with coordinate z of u and of v zeroed and both
    renormalized, from one base c = |a o u v^T|.

    Removing z leaves the entries of c outside row z and column z, scaled
    by 1 / (||u_z|| ||v_z||) (u_z, v_z: u and v with coordinate z zeroed;
    a zero norm scores 0).  A row and a column hold 2n - 1 entries, so the
    top floor(p) entries that survive lie among the top floor(p) + 2n - 1
    of c, sorted once: the head is the first floor(p) of those outside row
    and column z.  The tail's squares are the rest of that sorted prefix
    outside row and column z plus the squares beyond it outside row and
    column z, each a sum of nonnegative terms, so no subtraction cancels.
    """
    n = len(a)
    zs = np.asarray(zs)
    out = np.ones((len(zs), n))
    out[np.arange(len(zs)), zs] = 0.0
    nu, nv = np.sqrt(out @ (u * u)), np.sqrt(out @ (v * v))
    flat = np.abs(a * np.outer(u, v)).ravel()
    m = min(int(math.floor(p)), flat.size)
    size = min(m + 2 * n - 1, flat.size)
    top = np.argpartition(-flat, size - 1)[:size]
    top = top[np.argsort(-flat[top], kind="stable")]
    vals = flat[top]
    ok = (top // n != zs[:, None]) & (top % n != zs[:, None])
    rank = np.cumsum(ok, axis=1)
    head = np.where(ok & (rank <= m), vals, 0.0).sum(axis=1)
    beyond = flat * flat
    beyond[top] = 0.0
    beyond = beyond.reshape(n, n)
    tail_sq = (np.where(ok & (rank > m), vals * vals, 0.0).sum(axis=1)
               + ((out @ beyond) * out).sum(axis=1))
    return np.divide(head + math.sqrt(p) * np.sqrt(tail_sq), nu * nv, out=np.zeros(len(zs)),
                     where=(nu > 0.0) & (nv > 0.0)).tolist()


def _support_lower(rows: np.ndarray, cols: np.ndarray, on: np.ndarray, p: float,
                   config: EngineConfig) -> float:
    """Search score of a 0/1 support: the exact bracket's lower value at
    moment p, with a reduced node budget, over the pairs (rows[e], cols[e])
    selected by the mask `on`.  The greedy chain calls it only for the
    removals its degree screen leaves open (`_support_scores`)."""
    budget = max(2000, config.budget_cap // 100)
    return _exact_01(rows[on], cols[on], p, budget).lower


def _support_scores(support: np.ndarray, zs: list, p: float, config: EngineConfig) -> list:
    """For each z in `zs`, the search score (`_support_lower`) of the
    square 0/1 `support` with row z and column z masked out, bit for bit.

    One degree screen serves every z: the row and column degree maxima
    and the number of pairs left after the removal give `_search_01`'s
    star seed and cap (`_star_cap`), and a z that leaves more than
    floor(p) pairs and whose star seed reaches its cap takes the star
    seed, the value its search would return at once.  Only the other z
    run the search."""
    rows, cols = np.nonzero(support)
    zs = np.asarray(zs)
    at = np.arange(len(zs))
    row_deg = support.sum(axis=1)
    col_deg = support.sum(axis=0)
    # degrees of the other rows without column z, and of the other columns
    # without row z; row z and column z themselves drop to 0
    rdeg = row_deg - support[:, zs].T
    rdeg[at, zs] = 0
    cdeg = col_deg - support[zs, :]
    cdeg[at, zs] = 0
    left = rows.size - row_deg[zs] - col_deg[zs] + support[zs, zs]
    m = np.minimum(math.floor(p), left)
    star, cap = _star_cap(rdeg.max(axis=1), cdeg.max(axis=1), m)
    screened = (m < left) & (star >= cap - 1e-12)
    return [float(star[i]) if screened[i] else
            _support_lower(rows, cols, (rows != z) & (cols != z), p, config)
            for i, z in enumerate(zs.tolist())]


def _full_estimates(A: WeightMatrix, keeps: list, p: float, config: EngineConfig) -> list:
    """The full R estimate at moment p of the submatrix on each kept index
    set in `keeps`, all of one size: 0 for an all-zero submatrix, c times
    the exact 0/1 value of its support when every nonzero |a_ij| equals
    c, and the surrogate ascent (restarts - 1 restarts, 8 steps) otherwise.
    The submatrices share one shape, so every general-weight one runs in
    one `_ascent` over their stack."""
    if not keeps[0]:
        return [0.0] * len(keeps)
    idx = np.array(keeps)
    stack = A.entries[idx[:, :, None], idx[:, None, :]]
    mags = _magnitude(stack)
    scores = [0.0] * len(keeps)
    for i in np.flatnonzero(mags > 0.0).tolist():
        br = _exact_01(*np.nonzero(stack[i]), p, config.budget_cap)
        scores[i] = float(mags[i]) * br.lower
    general = np.flatnonzero(np.isnan(mags))
    if general.size:
        values = _ascent(stack[general], p, max(1, config.restarts - 1),
                         config.seed, max_iters=8)
        for i, v in zip(general.tolist(), values.tolist()):
            scores[i] = v
    return scores


def _greedy_chain(A: WeightMatrix, p: float, steps: int, on_support: bool,
                  config: EngineConfig) -> list:
    """Deterministic chain of single-index removals, most-reducing first.

    Candidates are shortlisted by row-plus-column mass and scored by a
    cheap version of the R estimate after the removal, ties to the lowest
    index: with `on_support` (every nonzero |a_ij| equal) the search score
    of the step's support with row and column z masked out
    (`_support_scores`: one degree screen settles each z whose star seed
    meets its cap, and only the rest run the subgraph search), otherwise
    the surrogate at the step's 6-power-step top pair with coordinate z
    zeroed and the pair renormalized, every shortlisted z scored from one
    base |a o u v^T| and one partial sort of it (`_shortlist_scores`,
    within a few eps of scoring each zeroed pair on its own).  Returns the
    removal order: at most `steps` removals, except that once the
    remaining submatrix is zero every remaining index is appended.
    """
    n = A.n_rows
    keep = list(range(n))
    removed = []
    a = A.entries
    for _ in range(steps):
        if not keep:
            break
        sub = a[np.ix_(keep, keep)]
        if not sub.any():
            removed.extend(keep.copy())
            del keep[:]
            break
        if not on_support:
            sigma, u, v = power_pair(sub, 6)
        mass = (sub * sub).sum(axis=1) + (sub * sub).sum(axis=0)
        if len(keep) > SHORTLIST_SIZE:
            shortlist_local = np.argsort(-mass, kind="stable")[:SHORTLIST_SIZE]
            shortlist_local = sorted(int(z) for z in shortlist_local)
        else:
            shortlist_local = list(range(len(keep)))
        if on_support:
            scores = _support_scores(sub != 0, shortlist_local, p, config)
        elif sigma != 0.0:
            scores = _shortlist_scores(sub, u, v, shortlist_local, p)
        else:
            scores = [0.0] * len(shortlist_local)
        best_local = shortlist_local[_first_min(scores)[1]]
        removed.append(keep[best_local])
        del keep[best_local]
    return removed


def _complement(n: int, removed) -> list:
    """The indices of range(n) not in `removed`, in order."""
    dropped = set(removed)
    return [i for i in range(n) if i not in dropped]


def k_grid(n: int) -> list:
    """The doubling grid 1, 2, 4, ... below n, then n."""
    ks = []
    k = 1
    while k < n:
        ks.append(k)
        k *= 2
    ks.append(n)
    return ks


def ksweep_term(A: WeightMatrix, config: EngineConfig = EngineConfig()) -> tuple:
    """max over the doubling k-grid of min_{|I| <= k} R(submatrix, Log k).

    Returns (value, table); each table row records the grid point, the
    removal set it settled on (1-based), the published min, and how the
    min was obtained (exact, enumerated, greedy, greedy_truncated).  The
    published min for a given moment Log k never increases as k grows.
    Up to EXACT_FULL_N indices every enumerated subset gets the full
    estimate, the general-weight ones of a grid point as one batched
    surrogate ascent over their same-shape submatrices (`_full_estimates`);
    beyond, only the winner of the cheap search score does.  On a
    one-magnitude support that score is the best value of the exact search
    on the support's index arrays with the removed rows and columns masked
    out (`_support_lower`).  The sweep runs on A at unit scale
    (`_unit_scaled`), and each published min is scaled back.
    """
    if not A.is_square:
        raise ValueError("k-sweep needs a square matrix")
    A, e = _unit_scaled(A)
    n = A.n_rows
    on_support = not np.isnan(_magnitude(A.entries[None])[0])
    rows, cols = np.nonzero(A.entries)
    table = []
    published: dict = {}  # p -> best (smallest) value so far at that moment
    for k in k_grid(n):
        p = log_clamped(k)
        if k >= n:
            removed = list(range(n))
            value, mode = 0.0, "exact"
        elif math.comb(n, k) <= config.exact_threshold:
            combos = list(itertools.combinations(range(n), k))
            keeps = [_complement(n, combo) for combo in combos]
            if n <= EXACT_FULL_N:
                scores = _full_estimates(A, keeps, p, config)
            elif on_support:
                scores = [_support_lower(rows, cols,
                                         ~(np.isin(rows, combo) | np.isin(cols, combo)),
                                         p, config) for combo in combos]
            else:
                scores = [_quick_r_lower(A.entries[np.ix_(keep, keep)], p) for keep in keeps]
            best, at = _first_min(scores)
            removed = list(combos[at])
            if n <= EXACT_FULL_N:
                value, mode = best, "exact"
            else:
                value = _full_estimates(A, [_complement(n, removed)], p, config)[0]
                mode = "enumerated"
        else:
            steps = min(k, GREEDY_STEP_CAP)
            removed = _greedy_chain(A, p, steps, on_support, config)[:steps]
            keep = _complement(n, removed)
            value = _full_estimates(A, [keep], p, config)[0]
            mode = "greedy" if steps >= k else "greedy_truncated"
        if p in published:
            value = min(value, published[p])
        published[p] = value
        table.append(
            {
                "k": k,
                "moment": p,
                "removed": [i + 1 for i in removed],
                "value": float(np.ldexp(value, e)),
                "mode": mode,
            }
        )
    value = max(row["value"] for row in table)
    return value, table


# ---------------------------------------------------------------------------
# the assembled profile


@dataclass(frozen=True, eq=False)
class BoundProfile:
    """Every bound term for one matrix, plus the two-sided profile value.

    lower_profile and conjectured_upper_profile share the same right-hand
    side (row_max + col_max + k-sweep term); only the direction of the
    comparison with E||A o eps|| differs, and both hold up to universal
    constants only.
    """

    n: int
    row_max: float
    col_max: float
    max_abs: float
    degree: int
    seginer: float
    bvh: float
    trivial_degree: float
    r_logn: RBracket
    ksweep_value: float
    ksweep_table: list
    lower_profile: float
    conjectured_upper_profile: float
    loglog_degree_upper: float
    logloglog_upper: float
    mode: str
    loose_constants: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "row_max": self.row_max,
            "col_max": self.col_max,
            "max_abs": self.max_abs,
            "degree": self.degree,
            "seginer": self.seginer,
            "bvh": self.bvh,
            "trivial_degree": self.trivial_degree,
            "r_logn": self.r_logn.to_json_dict(),
            "ksweep": {"value": self.ksweep_value, "table": self.ksweep_table},
            "lower_profile": self.lower_profile,
            "conjectured_upper_profile": self.conjectured_upper_profile,
            "loglog_degree_upper": self.loglog_degree_upper,
            "logloglog_upper": self.logloglog_upper,
            "flags": {
                "mode": self.mode,
                "loose_constants": self.loose_constants,
                "grid": [row["k"] for row in self.ksweep_table],
            },
        }


def bound_profile(A: WeightMatrix, config: EngineConfig = EngineConfig()) -> BoundProfile:
    """Evaluate every named bound and the two-sided profile for A.

    The bounds are taken of A at unit scale, A = 2^e B with max |b_ij| in
    [1/2, 1) (`_unit_scaled`), and every magnitude is scaled back by 2^e,
    so the profile of 2^j A is 2^j times that of A, field by field, for
    every j that keeps each nonzero entry a normal float and every value
    finite.
    """
    if not A.is_square:
        raise ValueError("bound profiles are defined for square matrices")
    A, e = _unit_scaled(A)

    def up(x):
        return float(np.ldexp(x, e))

    n = A.n_rows
    inputs = bound_inputs(A)
    row, col = up(inputs.row), up(inputs.col)
    degree = inputs.degree
    r_logn = r_estimate(A, log_clamped(n), config)
    r_logn = replace(r_logn, lower=up(r_logn.lower), upper=up(r_logn.upper))
    ks_value, ks_table = ksweep_term(A, config)
    ks_value = up(ks_value)
    for entry in ks_table:
        entry["value"] = up(entry["value"])
    profile = row + col + ks_value
    loglog_d = log_clamped(log_clamped(degree))
    logloglog_n = log_clamped(log_clamped(log_clamped(n)))
    return BoundProfile(
        n=n,
        row_max=row,
        col_max=col,
        max_abs=up(inputs.max_abs),
        degree=degree,
        seginer=up(seginer_bound(A, inputs)),
        bvh=up(bvh_bound(A, inputs)),
        trivial_degree=up(trivial_degree_bound(A, inputs)),
        r_logn=r_logn,
        ksweep_value=ks_value,
        ksweep_table=ks_table,
        lower_profile=profile,
        conjectured_upper_profile=profile,
        loglog_degree_upper=loglog_d * (row + r_logn.upper),
        logloglog_upper=logloglog_n * (row + col + r_logn.upper),
        mode=r_logn.mode,
        loose_constants=r_logn.loose_constants or not r_logn.certified,
    )
