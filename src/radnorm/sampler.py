"""Monte Carlo estimation of the mean spectral norm of sign-modulated
matrices, with exact tiny-scale enumeration as the oracle counterpart.

Three modes: independent Rademacher signs per entry, symmetric Rademacher
signs (the lower triangle including the diagonal is drawn and mirrored),
and independent standard Gaussians.  All modes consume the same uniform
stream, so estimates across modes are paired sample by sample.

The per-sample norm exploits block structure: the spectral norm of a
matrix splits over the connected components of its bipartite support, so
block-diagonal families cost only as much as their largest block.

Uniform blocks are drawn lazily, one at a time.  Each block is cut into
equal row chunks, as many as a multiple of the thread count, and worker
threads take the chunks; the realization budget is shared by all workers,
so peak memory does not grow with `threads`.  Output is byte-identical
for any thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import streams
from .core import WeightMatrix, sign_patterns
from .moments import power_mean_estimate
from .spectral import top_values

MODES = ("rademacher_iid", "rademacher_symmetric", "gaussian")

#: Element budget for one batch of realization matrices.
_REALIZE_BUDGET = 1 << 24

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
        return (
            f"{matrix_id},{self.mode},{self.samples},{self.seed},"
            f"{self.mean!r},{self.stderr!r}"
        )


def _positions(A: WeightMatrix, mode: str) -> list:
    """Free sign positions in row-major order.

    iid/gaussian: one position per nonzero entry.  symmetric: one position
    per lower-triangle cell (i >= j) whose mirrored pair touches support;
    the diagonal keeps its own independent signs.
    """
    a = A.entries
    if mode in ("rademacher_iid", "gaussian"):
        ii, jj = np.nonzero(a)
        return list(zip(ii.tolist(), jj.tolist()))
    if mode == "rademacher_symmetric":
        if not A.is_square:
            raise ValueError("symmetric mode requires a square matrix")
        mask = (a != 0.0) | (a.T != 0.0)
        ii, jj = np.nonzero(np.tril(mask))
        return list(zip(ii.tolist(), jj.tolist()))
    raise ValueError(f"unknown mode {mode!r}")


def _bipartite_components(A: WeightMatrix, positions: list, mode: str) -> list:
    """Connected components of the bipartite support touched by positions.

    Returns a list of dicts with local row/col index maps and the affected
    position indices, enough to scatter sampled values into compact blocks.
    """
    nr, nc = A.n_rows, A.n_cols
    parent = list(range(nr + nc))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    sym = mode == "rademacher_symmetric"
    for i, j in positions:
        union(i, nr + j)
        if sym:
            union(j, nr + i)
    groups: dict = {}
    for idx, (i, j) in enumerate(positions):
        groups.setdefault(find(i), []).append(idx)
    comps = []
    for pos_idx in groups.values():
        rows, cols = set(), set()
        for idx in pos_idx:
            i, j = positions[idx]
            rows.add(i)
            cols.add(j)
            if sym:
                rows.add(j)
                cols.add(i)
        rows = sorted(rows)
        cols = sorted(cols)
        rmap = {v: li for li, v in enumerate(rows)}
        cmap = {v: lj for lj, v in enumerate(cols)}
        scatter = []  # (position index, local i, local j, weight)
        a = A.entries
        for idx in pos_idx:
            i, j = positions[idx]
            if a[i, j] != 0.0:
                scatter.append((idx, rmap[i], cmap[j], float(a[i, j])))
            if sym and (i, j) != (j, i) and a[j, i] != 0.0:
                scatter.append((idx, rmap[j], cmap[i], float(a[j, i])))
        comps.append(
            {
                "shape": (len(rows), len(cols)),
                "pos": np.array([s[0] for s in scatter], dtype=np.intp),
                "li": np.array([s[1] for s in scatter], dtype=np.intp),
                "lj": np.array([s[2] for s in scatter], dtype=np.intp),
                "w": np.array([s[3] for s in scatter]),
            }
        )
    return comps


def _norm_plan(comps: list) -> list:
    """Group components by shape so same-shaped blocks share one batched
    decomposition; returns per-group concatenated scatter arrays."""
    groups: dict = {}
    for comp in comps:
        groups.setdefault(comp["shape"], []).append(comp)
    plan = []
    for (r, c), group in sorted(groups.items()):
        slot = np.concatenate(
            [np.full(cp["pos"].size, k, dtype=np.intp) for k, cp in enumerate(group)]
        )
        plan.append(
            {
                "shape": (r, c),
                "count": len(group),
                "slot": slot,
                "pos": np.concatenate([cp["pos"] for cp in group]),
                "flat": np.concatenate(
                    [cp["li"] * c + cp["lj"] for cp in group]
                ).astype(np.intp),
                "w": np.concatenate([cp["w"] for cp in group]),
            }
        )
    return plan


def _batch_norms(values: np.ndarray, plan: list) -> np.ndarray:
    """Per-sample spectral norms given sampled values (m, n_positions)."""
    m = values.shape[0]
    out = np.zeros(m)
    for group in plan:
        r, c = group["shape"]
        g = group["count"]
        vals = values[:, group["pos"]]
        vals *= group["w"]
        if r == 1 and c == 1:
            block = np.zeros((m, g))
            block[:, group["slot"]] = vals
            np.maximum(out, np.abs(block).max(axis=1), out=out)
            continue
        block = np.zeros((m, g, r * c))
        block[:, group["slot"], group["flat"]] = vals
        np.maximum(out, top_values(block.reshape(m, g, r, c)).max(axis=1), out=out)
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
    `threads` is first clamped to the usable CPUs.  The chunk count is a
    multiple of `threads`, unless that would leave a chunk empty, and each
    chunk realizes at most _REALIZE_BUDGET // threads elements (one row at
    least), so the budget covers all workers together.  `workers` never
    exceeds the chunk count.
    """
    threads = min(threads, _usable_cpus())
    cap = max(1, _REALIZE_BUDGET // max(dense, 1) // threads)
    n_chunks = min(rows, threads * -(-rows // (threads * cap)))
    edges = [rows * c // n_chunks for c in range(n_chunks + 1)]
    return edges, min(threads, n_chunks)


def _sample_norms(A: WeightMatrix, mode: str, samples: int, seed: int,
                  threads: int = 1) -> np.ndarray:
    """Norms of `samples` realizations, one stream block in memory at a time.

    Each block is split by _chunk_plan; a chunk's transform and norms run
    on a worker thread (the batched SVD releases the GIL).  Every sample's
    norm depends only on its own uniforms, so the result is bit-identical
    for any thread count.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    positions = _positions(A, mode)
    k = len(positions)
    if k == 0:
        return np.zeros(samples)
    plan = _norm_plan(_bipartite_components(A, positions, mode))
    dense = sum(g["count"] * g["shape"][0] * g["shape"][1] for g in plan)
    transform = (streams.gaussians_from_uniform if mode == "gaussian"
                 else streams.signs_from_uniform)

    def run(chunk):
        return _batch_norms(transform(chunk), plan)

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


def mc_norm(A: WeightMatrix, mode: str, samples: int, seed: int,
            threads: int = 1) -> McEstimate:
    """Monte Carlo mean and standard error of ||A o X|| in the given mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if samples < 16:
        raise ValueError("need at least 16 samples")
    norms = _sample_norms(A, mode, samples, seed, threads)
    stderr = float(norms.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return McEstimate(float(norms.mean()), stderr, samples, seed, mode)


def mc_norm_moments(A: WeightMatrix, p_list, samples: int, seed: int,
                    mode: str = "rademacher_iid", threads: int = 1) -> McEstimate:
    """mc_norm plus (E ||A o X||^p)^{1/p} estimates for each requested p.

    All moments are read off the same sampled norms, so the mean and every
    moment share their random numbers.
    """
    p_list = [float(p) for p in p_list]
    for p in p_list:
        if not 1.0 <= p <= 64.0:
            raise ValueError("each p must lie in [1, 64]")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    norms = _sample_norms(A, mode, samples, seed, threads)
    stderr = float(norms.std(ddof=1) / math.sqrt(samples))
    moments = {p: power_mean_estimate(norms, p) for p in p_list}
    return McEstimate(float(norms.mean()), stderr, samples, seed, mode, moments)


def exact_small_norm_expectation(A: WeightMatrix, mode: str) -> float:
    """Exact E ||A o eps|| by exhausting every sign pattern.

    Only Rademacher modes enumerate; the cap is 24 independent signs.  The
    global sign flip preserves the norm, so half the patterns suffice.
    """
    if mode not in ("rademacher_iid", "rademacher_symmetric"):
        raise ValueError("exact enumeration supports the Rademacher modes only")
    positions = _positions(A, mode)
    k = len(positions)
    if k == 0:
        return 0.0
    if k > EXACT_SIGNS_CAP:
        raise ValueError(f"{k} independent signs exceed the cap {EXACT_SIGNS_CAP}")
    plan = _norm_plan(_bipartite_components(A, positions, mode))
    total = sum(float(_batch_norms(signs, plan).sum()) for signs in sign_patterns(k))
    return total / (1 << (k - 1))
