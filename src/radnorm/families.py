"""Deterministic and seeded generators for the example families.

Each generator returns a FamilyInstance carrying the matrix (or edge set),
the parameters, and the closed-form predicted norm scale for the signed
model.  Generators are self-validating: the family predicate (regularity,
girth, tangle-freeness, block structure, circulant symmetry) is checked on
the output before it is returned.  Predicted scales carry no constants;
they exist for ratio reporting only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CapExceededError,
    EdgeSet,
    GraphView,
    MAX_SIZE,
    WeightMatrix,
    _cycle_space_dim,
    bfs_distances,
    girth,
    is_tangle_free,
    log_clamped,
)
from .spectral import pow2_scaled


#: Pairing-model restarts in random_regular; draws per n * d in _random_insertion.
_PAIRING_RESTARTS = 2000
_INSERTION_ATTEMPTS = 60


class GenerationError(RuntimeError):
    """A randomized construction stalled or exhausted its retry budget."""


@dataclass(frozen=True)
class FamilyInstance:
    matrix: object  # WeightMatrix or EdgeSet
    family: str
    params: dict
    predicted: float
    formula: str
    seed: int | None = None
    extra_scales: dict = field(default_factory=dict)

    def weight_matrix(self) -> WeightMatrix:
        if isinstance(self.matrix, WeightMatrix):
            return self.matrix
        return self.matrix.indicator()

    def to_json_dict(self) -> dict:
        from .matio import edges_to_dict, matrix_to_dict

        payload = (
            matrix_to_dict(self.matrix)
            if isinstance(self.matrix, WeightMatrix)
            else edges_to_dict(self.matrix)
        )
        return {
            "family": self.family,
            "params": self.params,
            "seed": self.seed,
            "predicted": self.predicted,
            "formula": self.formula,
            "extra_scales": self.extra_scales,
            "kind": "matrix" if isinstance(self.matrix, WeightMatrix) else "edges",
            "payload": payload,
        }


def _graph_edge_set(n: int, undirected_edges) -> EdgeSet:
    """Both orientations of each edge of a list or (k, 2) array of (v, w)."""
    vw = np.asarray(undirected_edges, dtype=np.int64).reshape(-1, 2)
    return EdgeSet(n, np.concatenate((vw, vw[:, ::-1])))


def _degrees(E: EdgeSet) -> np.ndarray:
    rows, cols = E.index_arrays()
    return np.bincount(rows[rows != cols], minlength=E.n)


def union_complete(m: int, d: int) -> FamilyInstance:
    """Disjoint union of m complete graphs on d+1 vertices."""
    if m < 1 or d < 1:
        raise ValueError("m and d must be positive")
    n = m * (d + 1)
    if n > MAX_SIZE:
        raise CapExceededError(f"n={n} exceeds the size cap")
    i, j = np.triu_indices(d + 1, 1)
    base = np.arange(0, n, d + 1)[:, None]
    E = _graph_edge_set(n, np.stack(((base + i).ravel(), (base + j).ravel()), axis=1))
    deg = _degrees(E)
    if not np.all(deg == d):
        raise GenerationError("complete-union block structure check failed")
    predicted = math.sqrt(d) + min(d, math.sqrt(log_clamped(n)))
    return FamilyInstance(
        E, "union_complete", {"m": m, "d": d, "n": n}, predicted,
        "sqrt(d) + min(d, sqrt(Log n))",
    )


def random_regular(n: int, d: int, seed: int) -> FamilyInstance:
    """Simple d-regular graph via the pairing model with full restarts.

    Half-edges are matched uniformly; any self-loop or repeated edge
    rejects the whole attempt.  Fine for small d at desk scale.
    """
    if n * d % 2 != 0:
        raise ValueError("n * d must be even")
    if not 0 < d < n:
        raise ValueError("need 0 < d < n")
    if n > MAX_SIZE:
        raise CapExceededError(f"n={n} exceeds the size cap")
    gen = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(_PAIRING_RESTARTS):
        points = np.repeat(np.arange(n), d)
        gen.shuffle(points)
        edges = set()
        ok = True
        for a in range(0, points.size, 2):
            v, w = int(points[a]), int(points[a + 1])
            if v == w or (min(v, w), max(v, w)) in edges:
                ok = False
                break
            edges.add((min(v, w), max(v, w)))
        if ok:
            E = _graph_edge_set(n, list(edges))
            if not np.all(_degrees(E) == d):
                raise GenerationError("pairing produced a non-regular graph")
            return FamilyInstance(
                E, "random_regular", {"n": n, "d": d}, math.sqrt(d), "sqrt(d)",
                seed=seed,
            )
    raise GenerationError(
        f"pairing model exhausted {_PAIRING_RESTARTS} restarts for n={n}, d={d}"
    )


def moore_bound(d: int, g: int) -> int:
    """Minimum vertex count admitting a d-regular graph of girth g."""
    if d < 2:
        return 1
    r = (g - 1) // 2
    if g % 2 == 1:
        total = 1 + sum(d * (d - 1) ** i for i in range(r))
    else:
        total = 2 * sum((d - 1) ** i for i in range(g // 2))
    return int(total)


def _random_insertion(n: int, d: int, seed: int, rejects) -> tuple:
    """(adj, deg, edges) of a graph of max degree <= d on [n], grown by
    inserting random pairs (v, w) unless `rejects(adj, v, w)` holds."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    adj = [set() for _ in range(n)]
    deg = [0] * n
    edges = []
    misses = 0
    for _ in range(_INSERTION_ATTEMPTS * n * max(d, 1)):
        if misses > 50 * n:
            break
        v, w = int(gen.integers(n)), int(gen.integers(n))
        if v == w or deg[v] >= d or deg[w] >= d or w in adj[v] or rejects(adj, v, w):
            misses += 1
            continue
        adj[v].add(w)
        adj[w].add(v)
        deg[v] += 1
        deg[w] += 1
        edges.append((v, w))
        misses = 0
    if not edges:
        raise GenerationError("random insertion produced no edges")
    return adj, deg, edges


def large_girth_instance(n: int, d: int, g_target: int, seed: int) -> FamilyInstance:
    """Graph with max degree <= d and girth >= g_target, by random edge
    insertion that rejects any edge closing a short cycle."""
    if d < 1 or g_target < 3:
        raise ValueError("need d >= 1 and g_target >= 3")
    if n > MAX_SIZE:
        raise CapExceededError(f"n={n} exceeds the size cap")
    if n < moore_bound(d, g_target) and d >= 2:
        raise ValueError(
            f"no d={d}-regular-degree graph of girth {g_target} fits in n={n} vertices"
        )

    def closes_short_cycle(adj, v, w):
        # adding (v, w) closes a cycle of length dist(v, w) + 1
        return w in bfs_distances(adj, v, g_target - 2)

    adj, deg, edges = _random_insertion(n, d, seed, closes_short_cycle)
    E = _graph_edge_set(n, edges)
    G = GraphView(n, tuple(tuple(sorted(s)) for s in adj))
    if girth(G) < g_target or max(deg) > d:
        raise GenerationError("girth construction failed its own predicate")
    return FamilyInstance(
        E, "large_girth", {"n": n, "d": d, "g_target": g_target},
        math.sqrt(d), "sqrt(d)", seed=seed,
    )


def one_cycle_neighborhood_instance(n: int, d: int, r: int, seed: int) -> FamilyInstance:
    """Graph of max degree <= d whose radius-r balls each hold at most one
    cycle, grown by insertion with a local tangle check."""
    if d < 1 or r < 1:
        raise ValueError("need d >= 1 and r >= 1")
    if n > MAX_SIZE:
        raise CapExceededError(f"n={n} exceeds the size cap")

    def tangles(adj, v, w):
        adj[v].add(w)
        adj[w].add(v)
        # a new tangle must involve the new edge, so only balls near it move
        affected = bfs_distances(adj, v, r).keys() | bfs_distances(adj, w, r).keys()
        bad = any(_cycle_space_dim(adj, bfs_distances(adj, u, r)) > 1 for u in affected)
        adj[v].discard(w)
        adj[w].discard(v)
        return bad

    adj, deg, edges = _random_insertion(n, d, seed, tangles)
    E = _graph_edge_set(n, edges)
    G = GraphView(n, tuple(tuple(sorted(s)) for s in adj))
    if not is_tangle_free(G, r) or max(deg) > d:
        raise GenerationError("tangle-free construction failed its own predicate")
    return FamilyInstance(
        E, "one_cycle_neighborhood", {"n": n, "d": d, "r": r},
        math.sqrt(d), "sqrt(d)", seed=seed,
    )


def expander_check(E: EdgeSet) -> tuple:
    """(d, lambda) for a d-regular graph: lambda is the largest eigenvalue
    magnitude after removing one copy of the top eigenvalue d."""
    if not E.is_symmetric() or any(i == j for i, j in E.pairs):
        raise ValueError("expected an undirected simple graph indicator")
    deg = _degrees(E)
    if E.n == 0 or not np.all(deg == deg[0]):
        raise ValueError("graph is not regular")
    d = int(deg[0])
    eig = np.linalg.eigvalsh(E.indicator().entries)
    idx = int(np.argmax(eig))
    rest = np.delete(eig, idx)
    lam = float(np.max(np.abs(rest))) if rest.size else 0.0
    return d, lam


def block_plus_singletons(n: int, d: int) -> FamilyInstance:
    """One d x d block of ones (diagonal included) plus singleton ones on
    the remaining diagonal; the family whose true norm sits a full
    min(d, sqrt(Log n)) below the one-sided upper scale."""
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    if n > MAX_SIZE:
        raise CapExceededError(f"n={n} exceeds the size cap")
    pairs = [(i, j) for i in range(d) for j in range(d)]
    pairs += [(i, i) for i in range(d, n)]
    E = EdgeSet(n, tuple(pairs))
    if len(E.pairs) != d * d + (n - d):
        raise GenerationError("block-plus-singletons structure check failed")
    upper_scale = math.sqrt(d) + min(d, math.sqrt(log_clamped(n)))
    return FamilyInstance(
        E, "block_plus_singletons", {"n": n, "d": d}, math.sqrt(d), "sqrt(d)",
        extra_scales={
            "one_sided_upper": {
                "value": upper_scale,
                "formula": "sqrt(d) + min(d, sqrt(Log n))",
            }
        },
    )


def circulant(b) -> FamilyInstance:
    """Circulant weights a_ij = b_{(i - j) mod n}; every row and column has
    L2 norm ||b||_2.

    ||b||_2 and the row and column norms of the self-check are taken of b
    scaled by a power of two to max |b_k| in [1/2, 1) (`pow2_scaled`), and
    scaled back: the squares then neither overflow nor underflow, and at
    ordinary scales the scaling is exact, so the values keep their bits."""
    b = np.asarray(b, dtype=float).ravel()
    n = b.size
    if n < 1:
        raise ValueError("b must be nonempty")
    if n > MAX_SIZE:
        raise CapExceededError(f"n={n} exceeds the size cap")
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    A = WeightMatrix(b[idx])
    unit, (e,) = pow2_scaled(b[None])
    scaled = unit[0][idx]
    rn = np.sqrt((scaled ** 2).sum(axis=1))
    cn = np.sqrt((scaled ** 2).sum(axis=0))
    norm = np.linalg.norm(unit[0])
    if not (np.allclose(rn, norm) and np.allclose(cn, norm)):
        raise GenerationError("circulant row/column norm check failed")
    target = float(np.ldexp(norm, e))
    return FamilyInstance(
        A, "circulant", {"n": n, "b": [float(x) for x in b]},
        max(target, 0.0), "||b||_2",
    )
