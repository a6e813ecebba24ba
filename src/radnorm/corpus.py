"""Deterministic matrix corpora for validation runs.

Three named corpora: a mixed one (families plus random weights), a
symmetric one, and a 0/1 one.  Everything is reproducible from the fixed
seeds below; scenario reports and the acceptance suite share these
instances.
"""

from __future__ import annotations

import numpy as np

from .core import WeightMatrix
from .families import block_plus_singletons, circulant, random_regular, union_complete


def _gen(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _zero_diag(a: np.ndarray) -> np.ndarray:
    np.fill_diagonal(a, 0.0)
    return a


def _random_dense(n: int, seed: int) -> WeightMatrix:
    a = _gen(seed).standard_normal((n, n))
    return WeightMatrix(_zero_diag(a))


def _random_sparse(n: int, density: float, seed: int) -> WeightMatrix:
    gen = _gen(seed)
    a = gen.standard_normal((n, n))
    mask = gen.random((n, n)) < density
    return WeightMatrix(_zero_diag(a * mask))


def _random_symmetric(n: int, seed: int) -> WeightMatrix:
    a = _gen(seed).standard_normal((n, n))
    a = (a + a.T) / 2.0
    return WeightMatrix(_zero_diag(a), symmetric=True)


def _band(n: int, width: int, seed: int) -> WeightMatrix:
    gen = _gen(seed)
    a = np.zeros((n, n))
    for k in range(1, width + 1):
        vals = gen.standard_normal(n - k)
        a[np.arange(n - k), np.arange(k, n)] = vals
        a[np.arange(k, n), np.arange(n - k)] = vals
    return WeightMatrix(a, symmetric=True)


def corpus_mixed() -> list:
    """30 matrices: example families plus random weights, sides <= 256."""
    items = []
    for m, d in [(2, 1), (4, 2), (8, 3), (16, 3), (8, 7), (4, 15)]:
        inst = union_complete(m, d)
        items.append((f"union_complete_m{m}_d{d}", inst.weight_matrix()))
    for n, d, seed in [(32, 3, 5), (64, 3, 6), (64, 4, 7)]:
        inst = random_regular(n, d, seed)
        items.append((f"random_regular_n{n}_d{d}", inst.weight_matrix()))
    for n, d in [(64, 3), (128, 5), (256, 7)]:
        inst = block_plus_singletons(n, d)
        items.append((f"block_singletons_n{n}_d{d}", inst.weight_matrix()))
    for n, seed in [(16, 21), (32, 22)]:
        b = _gen(seed).standard_normal(n)
        b[0] = 0.0
        items.append((f"circulant_n{n}", circulant(b).weight_matrix()))
    for n, seed in [(16, 31), (32, 32), (64, 33), (128, 34)]:
        items.append((f"dense_gauss_n{n}", _random_dense(n, seed)))
    for n, dens, seed in [(32, 0.2, 41), (64, 0.1, 42), (128, 0.05, 43), (256, 0.02, 44)]:
        items.append((f"sparse_gauss_n{n}", _random_sparse(n, dens, seed)))
    for n, seed in [(16, 51), (32, 52), (64, 53)]:
        items.append((f"sym_gauss_n{n}", _random_symmetric(n, seed)))
    for n, w, seed in [(64, 2, 61), (128, 3, 62)]:
        items.append((f"band_n{n}_w{w}", _band(n, w, seed)))
    # heavy-tailed weights and a rank-structured case round out the mix
    gen = _gen(71)
    a = gen.standard_cauchy((24, 24))
    a = np.clip(a, -20, 20)
    items.append(("cauchy_n24", WeightMatrix(_zero_diag(a))))
    u = _gen(72).standard_normal((48, 2))
    v = _gen(73).standard_normal((2, 48))
    items.append(("low_rank_n48", WeightMatrix(_zero_diag(u @ v))))
    x = np.abs(_gen(74).standard_normal((40, 40))) ** 3
    items.append(("heavy_n40", WeightMatrix(_zero_diag(x))))
    assert len(items) == 30
    assert all(m.n_rows <= 256 for _, m in items)
    return items


def corpus_symmetric() -> list:
    """10 symmetric matrices, K_8 included."""
    items = []
    items.append(("complete_k8", union_complete(1, 7).weight_matrix()))
    items.append(("union_k4x4", union_complete(4, 3).weight_matrix()))
    for n, d, seed in [(24, 3, 81), (48, 3, 82)]:
        items.append((f"regular_n{n}_d{d}", random_regular(n, d, seed).weight_matrix()))
    for n, seed in [(12, 91), (24, 92), (48, 93)]:
        items.append((f"sym_gauss_n{n}", _random_symmetric(n, seed)))
    for n, w, seed in [(32, 2, 94), (64, 3, 95)]:
        items.append((f"band_n{n}_w{w}", _band(n, w, seed)))
    b = np.zeros(16)
    b[1] = b[-1] = 1.0
    b[8] = 1.0
    items.append(("circulant_sym_n16", circulant(b).weight_matrix()))
    assert len(items) == 10
    assert all(m.n_rows <= 64 for _, m in items)
    for _, m in items:
        assert np.array_equal(m.entries, m.entries.T)
    return items


def corpus_zero_one() -> list:
    """0/1 matrices with sides <= 128."""
    items = []
    for m, d in [(4, 2), (8, 3), (16, 7)]:
        items.append((f"union_complete_m{m}_d{d}", union_complete(m, d).weight_matrix()))
    for n, d, seed in [(32, 3, 101), (64, 4, 102), (128, 3, 103)]:
        items.append((f"random_regular_n{n}_d{d}", random_regular(n, d, seed).weight_matrix()))
    for n, d in [(64, 4), (128, 6)]:
        items.append((f"block_singletons_n{n}_d{d}", block_plus_singletons(n, d).weight_matrix()))
    gen = _gen(111)
    a = (gen.random((48, 48)) < 0.08).astype(float)
    items.append(("bernoulli_n48", WeightMatrix(_zero_diag(a))))
    b = np.zeros(32)
    b[1] = b[2] = 1.0
    items.append(("circulant01_n32", circulant(b).weight_matrix()))
    assert all(m.is_zero_one() and m.n_rows <= 128 for _, m in items)
    return items
