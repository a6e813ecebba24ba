"""Brute-force computations of the proof-side quantities at tiny scale.

These are the independent second routes: the normalized sign-bilinear
maximum X over index set pairs, connected-subset enumeration with its
Catalan-style count bound, and the dumb exhaustive twin of the 0/1
subgraph search.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (CapExceededError, EdgeSet, GraphView, WeightMatrix, power_graph,
                   sign_patterns)

X_SIZE_CAP = 8
ENUM_CAP = 10 ** 6


def x_quantity(A_realized: WeightMatrix) -> float:
    """max over nonempty I, J and signs eta in {-1, +1}^I, eta' in {-1, +1}^J
    of (|I||J|)^{-1/2} sum_{i in I, j in J} b_ij eta_i eta'_j.

    The realized matrix (weights times signs) is supplied by the caller so
    one realization can feed several paired quantities.  For each I and
    each row-sign pattern the optimal J of size l collects the l largest
    column magnitudes, so J never needs explicit enumeration.
    """
    b = A_realized.entries
    if not A_realized.is_square:
        raise ValueError("the normalized bilinear maximum is defined for square input")
    n = b.shape[0]
    if n > X_SIZE_CAP:
        raise CapExceededError(f"n={n} exceeds the brute-force cap {X_SIZE_CAP}")
    if not b.any():
        return 0.0
    best = 0.0
    inv_sqrt = 1.0 / np.sqrt(np.arange(1, n + 1))
    for mask in range(1, 1 << n):
        rows = [i for i in range(n) if mask >> i & 1]
        sub = b[rows]
        for signs in sign_patterns(len(rows)):
            partial = np.abs(signs @ sub)  # (patterns, n)
            partial.sort(axis=1)
            prefixes = np.cumsum(partial[:, ::-1], axis=1)
            cand = float((prefixes * inv_sqrt).max()) / math.sqrt(len(rows))
            if cand > best:
                best = cand
    return best


def enumerate_connected(G: GraphView, v: int, k: int, r: int) -> list:
    """All size-k subsets containing v that are connected in the r-th
    distance power of G, each exactly once (as sorted tuples)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not 0 <= v < G.n:
        raise ValueError("v out of range")
    gr = power_graph(G, r)
    results: list = []

    def rec(cur: list, cand: list, seen: set):
        if len(cur) == k:
            results.append(tuple(sorted(cur)))
            if len(results) > ENUM_CAP:
                raise CapExceededError("connected-subset count exceeds the cap")
            return
        for idx, u in enumerate(cand):
            fresh = [w for w in gr.adjacency[u] if w not in seen]
            rec(cur + [u], cand[idx + 1:] + fresh, seen | set(fresh))

    init = list(gr.adjacency[v])
    rec([v], init, {v} | set(init))
    return results


def connected_count_bound(G: GraphView, k: int, r: int) -> float:
    """(4 d)^{k-1} with d the max degree of the r-th power graph."""
    d = power_graph(G, r).max_degree
    return float((4 * d) ** (k - 1)) if k >= 1 else 0.0


def top_singular_value(m: np.ndarray) -> float:
    """Largest singular value of one matrix by a plain values-only SVD: the
    independent route the spectral kernel is tested against."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def subgraph_norm_enum(E: EdgeSet, p: int) -> float:
    """Exhaustive max of ||1_F|| over F subset of E with |F| <= p.

    The dumb oracle twin of the engineered search: every subset of every
    size up to p, nothing clever.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    pairs = list(E.pairs)
    top = min(p, len(pairs))
    if top == 0:
        return 0.0
    total = sum(math.comb(len(pairs), s) for s in range(1, top + 1))
    if total > 2 * ENUM_CAP or math.comb(len(pairs), top) > ENUM_CAP:
        raise CapExceededError("subset count exceeds the enumeration cap")
    best = 0.0
    for size in range(1, top + 1):
        for combo in itertools.combinations(pairs, size):
            rows = sorted({i for i, _ in combo})
            cols = sorted({j for _, j in combo})
            m = np.zeros((len(rows), len(cols)))
            rmap = {x: i for i, x in enumerate(rows)}
            cmap = {x: i for i, x in enumerate(cols)}
            for i, j in combo:
                m[rmap[i], cmap[j]] = 1.0
            val = top_singular_value(m)
            if val > best:
                best = val
    return best
