"""Monte Carlo estimation of the mean spectral norm of sign-modulated
matrices, with exact tiny-scale enumeration as the oracle counterpart.

Three modes: independent Rademacher signs per entry, symmetric Rademacher
signs (the lower triangle including the diagonal is drawn and mirrored),
and independent standard Gaussians.  All modes consume the same uniform
stream, so estimates across modes are paired sample by sample.

The per-sample norm exploits block structure: the spectral norm of a
matrix is the largest norm of the blocks on the connected components of
its bipartite support, and a block whose bracketed norm cannot reach its
sample's maximum is never decomposed (`spectral.top_value_max`).  The
blocks are built from cells, in row-major order: a WeightMatrix's nonzero
entries, or an EdgeSet's pairs with value 1, read from its index arrays
without building the dense 0/1 matrix.  Each cell (i, j) joins row i to
column j, and the components are labelled in numpy.  In symmetric mode
the two mirrored cells (i, j) and (j, i) read one shared sign column,
whether or not they land in the same block.

The plan lays every group of same-shape blocks out in full, r x c cells a
block, with a source column and a weight for each cell; a cell the block
does not hold reads one pad column, holding 1.0, appended to the sampled
values, with weight 0.  A group's stack is then one gather (`take`).  In
Gaussian mode the gather is multiplied by the padded weights.  In the
Rademacher modes the gather reads the uniforms themselves, less 1/2, and
puts each cell's sign on in the same pass, `copysign(|w|, u - 1/2)`:
u >= 1/2 gives +|w| as `streams.signs_from_uniform` gives +1, and one
masked negation then restores the cells of negative weight (0/1 and
nonnegative inputs skip it).  A pad cell comes out +0.0 either way.  A
product with +-1 and `copysign` are both exact, so the stack has the
bits of the signs times the weights.  In these modes a block's largest
|w_ij eps_ij| is its largest |w_ij|, so the plan stores the weights of
every block, whatever its shape, already scaled by its power of two (max
|w_ij| in [1/2, 1)) and hands the shifts to `spectral.top_value_max`,
which then neither scans nor scales a sample: the norms keep the bits of
scaling each sampled block.  Gaussian blocks keep their weights and are
scaled per sample.  Every group, 1x1 and vector blocks included, goes to
`spectral.top_value_max`, which alone picks a method per block shape.

A Rademacher block B o eps has the row and column L2 norms of B and its
Frobenius norm, whatever the signs, so before any draw the plan knows
max(row L2, col L2) <= ||B o eps|| <= min(||B||_F, sqrt(max row L1 *
max col L1)).  After each group every sample's running norm must lie
between the largest lower and the largest upper bound of the blocks so
far, up to a relative slack of (r + c + 32) eps for r x c blocks (the
kernel's 16 eps and the rounding of the bounds' sums); a norm outside
raises FloatingPointError, a defect in the kernel or the plan.

Uniform blocks are drawn lazily, one at a time.  Each block is cut into
equal row chunks, as many as a multiple of the thread count, and worker
threads take the chunks; the realization budget, _REALIZE_BUDGET = 2^18
elements (2 MB), is shared by all workers, so peak memory does not grow
with `threads` and a chunk's stack stays in cache.  A chunk holds two
samples at least when its block has two per thread, so even a sample past
the budget alone (one block of side above 362 at two threads) hands
`eigvalsh` two matrices a call (`spectral.top_value_max`): a one-matrix
call does not run in parallel with another thread's.  On a 400x400
Gaussian input, 40 Gaussian samples at two threads took 0.46-0.59 s
(CPU/wall 1.14-1.25) with one matrix an `eigvalsh` call and 0.36-0.38 s
(1.68-1.76) with two, the norms unchanged.  The budget was picked from
this sweep (`perfbench/run.py --seed 301 --seconds 12`, with the
two-sample floor; best unscaled round in s and peak RSS in MB; 2 cores,
OPENBLAS_NUM_THREADS=1):

    budget   mc_blocks         mc_dense
    2^16     0.196   65.5      0.898  110.2
    2^17     0.192   68.0      0.785  110.7
    2^18     0.196   69.5      0.778  113.0
    2^19     0.197   72.7      0.794  120.0
    2^20     0.217   79.3      0.807  129.1
    2^22     0.226   92.4      0.818  159.9
    2^24     0.236   92.5      0.781  208.1

`mc_blocks` is fastest from 2^16 to 2^19; at 2^16 `mc_dense`'s 128x128
samples come two a chunk and its rounds slow down, so 2^18 keeps a step
from that edge.  Gaussian mode's transform is picked (`streams.transform`)
on the calling thread before any worker starts, so its import of
scipy.special never runs on a worker; the Rademacher modes hand the
uniforms to the gather as they are.  Output is byte-identical for any
thread count.
"""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import streams
from .core import CapExceededError, EdgeSet, WeightMatrix, sign_patterns
from .moments import power_mean_estimate
from .spectral import pow2_scaled, top_value_max

#: The modes `exact_small_norm_expectation` can enumerate, and all modes.
EXACT_MODES = ("rademacher_iid", "rademacher_symmetric")
MODES = (*EXACT_MODES, "gaussian")

#: Element budget for the realization matrices of one block, shared by
#: the worker threads: 2 MB of float64, so a chunk's stack stays in cache.
_REALIZE_BUDGET = 1 << 18

#: Cap on independent signs in the exact-expectation enumeration.
EXACT_SIGNS_CAP = 24


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int
    mode: str
    p_moments: dict | None = None

    def to_json_dict(self) -> dict:
        d = {
            "mean": self.mean,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "mode": self.mode,
        }
        if self.p_moments is not None:
            d["p_moments"] = {
                str(p): {"estimate": est, "stderr": se}
                for p, (est, se) in sorted(self.p_moments.items())
            }
        return d

    def csv_row(self, matrix_id: str) -> str:
        """The CSV line (newline included) of matrix_id, mode, samples,
        seed, mean and stderr; an id holding a comma or quote is quoted."""
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(
            (matrix_id, self.mode, self.samples, self.seed, self.mean, self.stderr))
        return out.getvalue()


def _component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest vertex of each vertex's component in the graph on range(n)
    with edges (u[e], v[e]).

    Hook and compress (after Shiloach and Vishkin): hook every root to the
    smallest root it shares an edge with, then jump pointers until each
    vertex points at a root.  Each hook strictly lowers a root, so the
    rounds end; they stop once every edge's ends share a root.
    """
    parent = np.arange(n)
    while True:
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            return parent
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped


def _cells(A: WeightMatrix | EdgeSet) -> tuple:
    """(shape, rows, cols, values) of the nonzero cells of A, in row-major
    order: `np.nonzero` of a WeightMatrix, or an EdgeSet's index arrays
    with every value 1."""
    if isinstance(A, EdgeSet):
        rows, cols = A.index_arrays()
        return (A.n, A.n), rows, cols, np.ones(rows.size)
    a = A.entries
    rows, cols = np.nonzero(a)
    return a.shape, rows, cols, a[rows, cols]


def _norm_plan(shape: tuple, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
               mode: str) -> tuple:
    """(k, plan): the number of free signs and the scatter plan of the
    cells (rows[e], cols[e]) of weight values[e] in a matrix of `shape`,
    in row-major order (`_cells`).

    Each cell (i, j) joins row i to column j; the components of that
    bipartite graph are the blocks.  A cell reads sign column `pos`: its
    own index in iid and Gaussian mode, and in symmetric mode the index
    of its lower-triangle position (max(i, j), min(i, j)), so mirrored
    cells share a sign even when they fall in two blocks.  Blocks of one
    shape form one group (ascending shape, blocks in order of first cell)
    and share one `spectral.top_value_max` call, which eigensolves only
    the blocks that can hold a sample's maximum.  A group holds, for each
    of its g r c cells in block layout, `src`, the sign column it reads
    (k, the appended pad column, for a cell no block holds), and `w`, its
    weight (0 there).  In Gaussian mode `w` is the weight itself and
    `rademacher` is False; `neg`, `shift` and `bracket` are None.  In the
    Rademacher modes `w` is |weight|, `neg` marks the cells of negative
    weight (None when there are none), the weights are scaled per block
    by 2^-shift to a max |w| in [1/2, 1) (`spectral.pow2_scaled`), and
    `shift` holds the g exponents; `bracket` is (floor, cap), the largest
    lower and upper norm bounds (`_norm_range`) of the blocks of this
    group and the groups before it.
    """
    nr, nc = shape
    if mode in ("rademacher_iid", "gaussian"):
        pos = np.arange(rows.size)
        k = rows.size
    elif mode == "rademacher_symmetric":
        if nr != nc:
            raise ValueError("symmetric mode requires a square matrix")
        lower = np.maximum(rows, cols) * nr + np.minimum(rows, cols)
        free = np.unique(lower)
        pos = np.searchsorted(free, lower)
        k = free.size
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if k == 0:
        return 0, []
    # a block's root is its smallest row, so roots order blocks by first cell
    _, comp = np.unique(_component_roots(nr + nc, rows, nr + cols)[rows],
                        return_inverse=True)
    n_comp = int(comp.max()) + 1

    def local(index, size):
        """Each cell's index within its block, and each block's extent."""
        used, at = np.unique(comp * size + index, return_inverse=True)
        first = np.searchsorted(used, np.arange(n_comp) * size)
        return at - first[comp], np.diff(first, append=used.size)

    li, heights = local(rows, nr)
    lj, widths = local(cols, nc)
    sizes = (heights * (nc + 1) + widths)[comp]
    cells = np.lexsort((comp, sizes))
    keys, starts = np.unique(sizes[cells], return_index=True)
    plan = []
    floor = cap = 0.0
    for key, lo, hi in zip(keys.tolist(), starts.tolist(),
                           starts[1:].tolist() + [cells.size]):
        r, c = divmod(key, nc + 1)
        sel = cells[lo:hi]
        blocks, slot = np.unique(comp[sel], return_inverse=True)
        at = slot * (r * c) + li[sel] * c + lj[sel]
        src = np.full(blocks.size * r * c, k)
        src[at] = pos[sel]
        w = np.zeros(blocks.size * r * c)
        w[at] = values[sel]
        group = {"shape": (r, c), "count": blocks.size, "src": src, "w": w,
                 "rademacher": mode != "gaussian", "neg": None, "shift": None,
                 "bracket": None}
        if group["rademacher"]:
            scaled, shift = pow2_scaled(w.reshape(blocks.size, r, c))
            neg = np.signbit(w)
            np.abs(scaled, out=scaled)
            low, high = _norm_range(scaled, shift)
            floor, cap = max(floor, low), max(cap, high)
            group.update(w=scaled.ravel(), shift=shift, neg=neg if neg.any() else None,
                         bracket=(floor, cap))
        plan.append(group)
    return k, plan


def _norm_range(scaled: np.ndarray, shift: np.ndarray) -> tuple:
    """(lower, upper): the largest lower and the largest upper bound on
    ||B o eps|| over the blocks B = 2^shift[j] scaled[j] of a (g, r, c)
    stack of magnitudes, max scaled[j] in [1/2, 1), for every sign
    pattern eps.

    Each block's bounds are max(row L2, column L2) and min(Frobenius,
    sqrt(max row L1 * max column L1)).  They are taken on the scaled block,
    widened by a relative (r + c + 32) eps, which covers the kernel's
    16 eps and the rounding of these sums, and only then scaled back:
    rounding is monotone, so a norm the kernel scales back by the same
    power of two stays inside them, subnormal or not.
    """
    _, r, c = scaled.shape
    row_sq = np.einsum("grc,grc->gr", scaled, scaled)
    col_sq = np.einsum("grc,grc->gc", scaled, scaled)
    low = np.sqrt(np.maximum(row_sq.max(axis=1), col_sq.max(axis=1)))
    high = np.minimum(np.sqrt(row_sq.sum(axis=1)),
                      np.sqrt(scaled.sum(axis=2).max(axis=1) * scaled.sum(axis=1).max(axis=1)))
    slack = (r + c + 32) * np.finfo(float).eps
    with np.errstate(over="ignore", under="ignore"):
        return (float(np.ldexp(low * (1.0 - slack), shift).max()),
                float(np.ldexp(high * (1.0 + slack), shift).max()))


def _batch_norms(values: np.ndarray, plan: list) -> np.ndarray:
    """Per-sample spectral norms given sampled values (m, n_positions):
    the largest block norm of each sample, carried from group to group as
    the floor below which `top_value_max` skips a block.

    Each group's (m, g, r, c) stack, whatever its block shape, is one
    gather from the values with a pad column of 1.0 appended, and one
    `top_value_max` call.  In Gaussian mode the values are the
    draws and the gather is multiplied by the plan's padded weights.  In
    the Rademacher modes the values are uniforms, or +-1 patterns (s - 1/2
    has the sign of s), and each cell is copysign(|w|, u - 1/2), negated
    where its weight is negative.  After each Rademacher group the
    running norms are checked against the plan's bracket; one outside it
    raises FloatingPointError."""
    m, k = values.shape
    fold = plan[0]["rademacher"]
    centre = 0.5 if fold else 0.0
    ext = np.empty((m, k + 1))
    np.subtract(values, centre, out=ext[:, :k])
    ext[:, k] = 1.0 - centre
    out = np.zeros(m)
    for group in plan:
        r, c = group["shape"]
        # `take`, not ext[:, src]: the fancy index is not C-contiguous, and
        # its Gram products took another BLAS route that moved low bits
        block = ext.take(group["src"], axis=1)
        if fold:
            np.copysign(group["w"], block, out=block)
            if group["neg"] is not None:
                np.negative(block, out=block, where=group["neg"])
        else:
            # a product past the float range is inf, and so is its norm
            with np.errstate(over="ignore"):
                block *= group["w"]
        out = top_value_max(block.reshape(m, group["count"], r, c), out, group["shift"])
        if group["bracket"] is not None:
            floor, cap = group["bracket"]
            bad = ~((floor <= out) & (out <= cap))
            if bad.any():
                raise FloatingPointError(
                    f"sample norm {out[bad][0]!r} outside its bound range "
                    f"[{floor!r}, {cap!r}] after the {r}x{c} blocks: "
                    "a defect in the norm kernel or the sampling plan")
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _chunk_plan(rows: int, dense: int, threads: int) -> tuple:
    """Split a block of `rows` samples into equal row chunks for a pool.

    Returns (edges, workers): chunk c holds rows edges[c]:edges[c + 1].
    `threads` is first clamped to the usable CPUs.  Each chunk realizes at
    most _REALIZE_BUDGET // threads elements, so the budget covers all
    workers together, but holds two rows at least when the block has two
    per thread (one row otherwise): `top_value_max` then hands `eigvalsh`
    two matrices per call even on blocks of more than 2^17 elements.  The
    chunk count is a multiple of `threads`, unless that would leave a chunk
    below that floor.  `workers` never exceeds the chunk count.
    """
    threads = min(threads, _usable_cpus())
    least = 2 if rows >= 2 * threads else 1
    cap = max(least, _REALIZE_BUDGET // max(dense, 1) // threads)
    n_chunks = min(rows // least, threads * -(-rows // (threads * cap)))
    edges = [rows * c // n_chunks for c in range(n_chunks + 1)]
    return edges, min(threads, n_chunks)


def _sample_norms(A: WeightMatrix | EdgeSet, mode: str, samples: int, seed: int,
                  threads: int = 1) -> np.ndarray:
    """Norms of `samples` realizations, one stream block in memory at a time.

    Each block is split by _chunk_plan; a chunk's norms, and in Gaussian
    mode its transform, run on a worker thread (numpy's matrix products
    and batched eigensolves release the GIL).  Every sample's norm depends only on its own
    uniforms, so the result is bit-identical for any thread count.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    k, plan = _norm_plan(*_cells(A), mode)
    if k == 0:
        return np.zeros(samples)
    dense = sum(g["count"] * g["shape"][0] * g["shape"][1] for g in plan)
    # the Rademacher signs are read off the uniforms inside the gather
    transform = streams.transform(mode) if mode == "gaussian" else None

    def run(chunk):
        return _batch_norms(chunk if transform is None else transform(chunk), plan)

    norms = np.empty(samples)
    for start, u in streams.uniform_blocks(seed, k, samples):
        edges, workers = _chunk_plan(u.shape[0], dense, threads)
        chunks = [u[lo:hi] for lo, hi in zip(edges, edges[1:])]
        if workers == 1:
            parts = list(map(run, chunks))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(run, chunks))
        norms[start:start + u.shape[0]] = np.concatenate(parts)
    return norms


def _mean_stderr(norms: np.ndarray) -> tuple:
    """Mean and standard error of the mean of `norms`.

    Computed on the norms scaled by a power of two that brings the maximum
    into [1/2, 1) (`pow2_scaled`), then scaled back: exact at ordinary
    scales, and free of overflow and underflow at extreme ones, where the
    sum of finite norms would pass the float range.  A norm past the float
    range makes the mean inf and the standard error NaN.
    """
    if not np.isfinite(norms).all():
        return float(norms.max()), math.nan
    scaled, (e,) = pow2_scaled(norms[None])
    return (float(np.ldexp(scaled.mean(), e)),
            float(np.ldexp(scaled.std(ddof=1) / math.sqrt(norms.size), e)))


def mc_norm(A: WeightMatrix | EdgeSet, mode: str, samples: int, seed: int,
            threads: int = 1, p_list=()) -> McEstimate:
    """Monte Carlo mean and standard error of ||A o X|| in the given mode,
    and an estimate of (E ||A o X||^p)^{1/p} for each p in `p_list`; an
    EdgeSet stands for its 0/1 matrix.

    Every moment is read off the same sampled norms as the mean, so they
    share their random numbers.  Each p must lie in [1, 64].  The mean
    needs at least 16 samples, moments at least 100; without `p_list`,
    `p_moments` is None.  The seed must lie in [0, 2^64)
    (`streams.check_seed`).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    p_list = [float(p) for p in p_list]
    if not all(1.0 <= p <= 64.0 for p in p_list):
        raise ValueError("each p must lie in [1, 64]")
    least = 100 if p_list else 16
    if samples < least:
        raise ValueError(f"need at least {least} samples")
    streams.check_seed(seed)  # a matrix with no cells draws nothing
    norms = _sample_norms(A, mode, samples, seed, threads)
    moments = {p: power_mean_estimate(norms, p) for p in p_list} if p_list else None
    return McEstimate(*_mean_stderr(norms), samples, seed, mode, moments)


def exact_small_norm_expectation(A: WeightMatrix | EdgeSet, mode: str) -> float:
    """Exact E ||A o eps|| by exhausting every sign pattern.

    Only Rademacher modes enumerate; the cap is 24 independent signs.  The
    global sign flip preserves the norm, so half the patterns suffice.
    The norms are summed scaled by 2^-e, the exponent `pow2_scaled` takes
    to bring max |a_ij| into [1/2, 1), and the mean is scaled back: every
    norm is at least max |a_ij|, so no scaled norm underflows and their sum
    cannot overflow, and both scalings are exact wherever the unscaled sum
    is.  An EdgeSet's cells are its pairs, each of weight 1, as in `mc`.
    """
    if mode not in EXACT_MODES:
        raise ValueError("exact enumeration supports the Rademacher modes only")
    shape, rows, cols, values = _cells(A)
    k, plan = _norm_plan(shape, rows, cols, values, mode)
    if k == 0:
        return 0.0
    if k > EXACT_SIGNS_CAP:
        raise CapExceededError(f"{k} independent signs exceed the cap {EXACT_SIGNS_CAP}")
    _, (e,) = pow2_scaled(values[None])
    total = sum(float(np.ldexp(_batch_norms(signs, plan), -e).sum())
                for signs in sign_patterns(k))
    return float(np.ldexp(total / (1 << (k - 1)), e))
