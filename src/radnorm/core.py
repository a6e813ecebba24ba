"""Core data types: weight matrices, edge sets, support graphs.

The objects here are the vocabulary shared by every other module: a dense
weighted matrix with an optional symmetry flag, a set of ordered index
pairs standing for a 0/1 matrix, and the support graph of a square matrix
with its BFS distance structure.

Indices are 0-based everywhere inside the library; file formats and
reports use 1-based indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Hard cap on matrix side length.  Everything here is desk scale; dense
#: storage beyond this is refused rather than silently thrashing.
MAX_SIZE = 8192

INFINITY = math.inf

#: Rows per block yielded by sign_patterns.
SIGN_BLOCK_ROWS = 8192


class CapExceededError(RuntimeError):
    """A size or enumeration budget was exceeded."""


def log_clamped(x: float) -> float:
    """ln(x or e, whichever is larger).  Written Log in reports."""
    return math.log(max(x, math.e))


def sign_patterns(k: int):
    """Yield the 2^(k-1) patterns in {-1, +1}^k whose first sign is +1.

    Blocks of at most SIGN_BLOCK_ROWS rows, in counting order: bit b of
    the pattern index sets sign b + 1 to -1.  Enough for any quantity
    invariant under a global sign flip.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    count = 1 << (k - 1)
    shifts = np.arange(k - 1, dtype=np.uint64)
    for lo in range(0, count, SIGN_BLOCK_ROWS):
        idx = np.arange(lo, min(lo + SIGN_BLOCK_ROWS, count), dtype=np.uint64)
        bits = (idx[:, None] >> shifts[None, :]) & 1
        yield np.concatenate(
            (np.ones((idx.size, 1)), np.where(bits == 0, 1.0, -1.0)), axis=1
        )


def off_diagonal(a: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of a square array as an (n - 1, n) array.

    Past its first entry, an n x n array holds n off-diagonal entries
    before each further diagonal entry in row-major order, so for a
    C-contiguous array this is a view and no entry is copied."""
    n = a.shape[0]
    return a.reshape(-1)[1:].reshape(max(n - 1, 0), n + 1)[:, :-1]


def _as_float_matrix(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"matrix entries must be 2-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Dense real matrix of weights a_ij with an optional symmetry flag.

    Invariants enforced at construction: all entries finite; when the
    symmetric flag is set the matrix is square and equal to its transpose.
    """

    entries: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        arr = _as_float_matrix(self.entries)
        if max(arr.shape) > MAX_SIZE:
            raise CapExceededError(
                f"matrix side {max(arr.shape)} exceeds the hard cap {MAX_SIZE}"
            )
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must all be finite")
        if self.symmetric:
            if arr.shape[0] != arr.shape[1]:
                raise ValueError("symmetric flag requires a square matrix")
            if not np.array_equal(arr, arr.T):
                raise ValueError("symmetric flag set but entries are not symmetric")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def max_abs(self) -> float:
        if self.entries.size == 0:
            return 0.0
        return float(np.max(np.abs(self.entries)))

    def is_zero_one(self) -> bool:
        """True iff every entry is exactly 0 or 1."""
        a = self.entries
        return bool(np.all((a == 0.0) | (a == 1.0)))

    def transpose(self) -> "WeightMatrix":
        return WeightMatrix(self.entries.T, symmetric=self.symmetric)


@dataclass(frozen=True)
class EdgeSet:
    """A set E of ordered index pairs inside [n] x [n], i.e. a 0/1 matrix.

    Pairs (a sequence of (i, j), or a (k, 2) index array) are stored
    0-based as a tuple of int pairs, sorted lexicographically, deduplicated.
    Diagonal pairs (i, i) are allowed; this is a set of matrix positions,
    not a simple graph.  The same pairs are kept once as two read-only
    index arrays (`index_arrays`).
    """

    n: int
    pairs: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.n > MAX_SIZE:
            raise CapExceededError(f"n={self.n} exceeds the hard cap {MAX_SIZE}")
        pairs = self.pairs if isinstance(self.pairs, np.ndarray) else list(self.pairs)
        try:
            ij = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        except OverflowError:  # an index beyond int64 is out of range
            ij = None
        if ij is not None and ij.shape[0] != len(pairs):
            raise ValueError("pairs must be (i, j) index pairs")
        if ij is None or not ((ij >= 0) & (ij < self.n)).all():
            i, j = min((int(i), int(j)) for i, j in pairs
                       if not (0 <= int(i) < self.n and 0 <= int(j) < self.n))
            raise ValueError(f"pair ({i}, {j}) out of range for n={self.n}")
        rows, cols = np.divmod(np.unique(ij[:, 0] * self.n + ij[:, 1]), self.n)
        object.__setattr__(self, "pairs", tuple(zip(rows.tolist(), cols.tolist())))
        rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
        rows.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "_index", (rows, cols))

    @classmethod
    def from_one_based(cls, n: int, pairs) -> "EdgeSet":
        return cls(n, tuple((i - 1, j - 1) for i, j in pairs))

    def to_one_based(self) -> list:
        return [[i + 1, j + 1] for i, j in self.pairs]

    def index_arrays(self) -> tuple:
        """(rows, cols): the stored pairs as two read-only index arrays, in
        row-major order."""
        return self._index

    def indicator(self) -> WeightMatrix:
        """The 0/1 matrix with ones exactly on the stored pairs."""
        a = np.zeros((self.n, self.n))
        a[self.index_arrays()] = 1.0
        return WeightMatrix(a, symmetric=self.is_symmetric())

    def is_symmetric(self) -> bool:
        rows, cols = self.index_arrays()
        # the pairs are stored in the order of rows * n + cols
        return bool(np.array_equal(np.sort(cols * self.n + rows), rows * self.n + cols))

    def __len__(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_matrix(cls, A: WeightMatrix) -> "EdgeSet":
        """Support of a square 0/1 matrix as an edge set."""
        if not A.is_square:
            raise ValueError("edge sets are defined for square matrices")
        if not A.is_zero_one():
            raise ValueError("matrix is not 0/1 valued")
        ii, jj = np.nonzero(A.entries)
        return cls(A.n_rows, tuple(zip(ii.tolist(), jj.tolist())))


@dataclass(frozen=True)
class GraphView:
    """Support graph of a square matrix: vertices [n], edges where a_ij != 0.

    Adjacency is built from the symmetrized support and never contains the
    diagonal, matching the convention that the support graph ignores both
    orientation and self-weights.
    """

    n: int
    adjacency: tuple  # tuple of sorted tuples of neighbor indices

    def __post_init__(self):
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length must equal n")
        adj = tuple(tuple(sorted(set(int(w) for w in nbrs))) for nbrs in self.adjacency)
        for v, nbrs in enumerate(adj):
            for w in nbrs:
                if not 0 <= w < self.n:
                    raise ValueError(f"neighbor {w} out of range")
                if w == v:
                    raise ValueError("self-loops are not part of a support graph")
                if v not in adj[w]:
                    raise ValueError("adjacency must be symmetric")
        object.__setattr__(self, "adjacency", adj)

    @property
    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adjacency), default=0)

    def edges(self):
        """Undirected edges as (v, w) with v < w."""
        for v, nbrs in enumerate(self.adjacency):
            for w in nbrs:
                if v < w:
                    yield (v, w)

    @classmethod
    def from_edges(cls, n: int, edges) -> "GraphView":
        adj = [set() for _ in range(n)]
        for v, w in edges:
            if v == w:
                continue
            adj[v].add(w)
            adj[w].add(v)
        return cls(n, tuple(tuple(sorted(s)) for s in adj))


def derive_graph(A: WeightMatrix) -> GraphView:
    """Support graph G_A of a square matrix: (i, j) adjacent iff i != j and
    a_ij != 0 or a_ji != 0 (symmetrized support)."""
    if not A.is_square:
        raise ValueError("support graph requires a square matrix")
    n = A.n_rows
    support = (A.entries != 0.0) | (A.entries.T != 0.0)
    np.fill_diagonal(support, False)
    adj = tuple(tuple(np.nonzero(support[v])[0].tolist()) for v in range(n))
    return GraphView(n, adj)


def max_support_degree(A: WeightMatrix) -> int:
    """Largest degree of the support graph G_A, counted in numpy: equal to
    `derive_graph(A).max_degree`, without building the adjacency."""
    if not A.is_square:
        raise ValueError("support graph requires a square matrix")
    support = A.entries != 0.0
    if not A.symmetric:  # the flag already guarantees a == a.T
        support |= A.entries.T != 0.0
    np.fill_diagonal(support, False)
    return int(support.sum(axis=1).max(initial=0))


def bfs_distances(adjacency, source: int, cutoff: int | None = None) -> dict:
    """BFS distances from source over `adjacency` (the neighbours of each
    vertex); vertices beyond cutoff are omitted."""
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        if cutoff is not None and d >= cutoff:
            break
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = d + 1
                    nxt.append(w)
        frontier = nxt
        d += 1
    return dist


def power_graph(G: GraphView, r: int) -> GraphView:
    """Graph with (i, j) adjacent iff their distance in G is between 1 and r."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    if r == 1:
        return G
    edges = []
    for v in range(G.n):
        dist = bfs_distances(G.adjacency, v, cutoff=r)
        for w, d in dist.items():
            if 1 <= d and v < w:
                edges.append((v, w))
    return GraphView.from_edges(G.n, edges)


def girth(G: GraphView) -> float:
    """Length of the shortest cycle; math.inf for forests.

    BFS from every vertex; the first non-tree edge seen from root v closes
    a cycle of length dist[u] + dist[w] + 1, and the minimum over all
    roots is the girth.
    """
    best = INFINITY
    for s in range(G.n):
        dist = {s: 0}
        parent = {s: -1}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                if 2 * dist[u] >= best:
                    continue
                for w in G.adjacency[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        cand = dist[u] + dist[w] + 1
                        if cand < best:
                            best = cand
            frontier = nxt
    return best


def ball(G: GraphView, v: int, r: int) -> frozenset:
    """Vertices within distance r of v (including v)."""
    return frozenset(bfs_distances(G.adjacency, v, cutoff=r))


def _cycle_space_dim(adjacency, vertices) -> int:
    """Dimension of the cycle space (|E| - |V| + components) of the induced
    subgraph on the given vertices, over `adjacency` (the neighbours of
    each vertex)."""
    vs = set(vertices)
    edges = 0
    for v in vs:
        for w in adjacency[v]:
            if w in vs and v < w:
                edges += 1
    seen = set()
    components = 0
    for v in vs:
        if v in seen:
            continue
        components += 1
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w in vs and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return edges - len(vs) + components


def is_tangle_free(G: GraphView, r: int) -> bool:
    """True iff every radius-r ball induces a subgraph with at most one
    independent cycle (cycle-space dimension <= 1)."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    for v in range(G.n):
        if _cycle_space_dim(G.adjacency, ball(G, v, r)) > 1:
            return False
    return True
