"""Reproducible counter-style random streams for Monte Carlo work.

Samples are laid out in fixed-size blocks.  Block b of a run with seed s
is generated by a Philox generator keyed with (s, b).  A seed lies in
[0, 2^64) and any other raises ValueError (`check_seed`), so no two seeds
share a stream.  Each sample owns a fixed slice of the block's uniform
matrix.  The layout depends only on
(seed, entries-per-sample), never on chunking or worker count, so serial
and parallel runs agree bit for bit.

All randomness is derived from uniforms in [0, 1):
  * signs:     +1 where u >= 1/2, else -1
  * gaussians: inverse normal CDF of u (scipy.special.ndtri)
Using the same uniforms for both transforms pairs the Rademacher and
Gaussian modes sample by sample (common random numbers).  The Monte
Carlo sampler applies the sign map inside its gather, as the sign of
u - 1/2 (`sampler._batch_norms`), and calls `transform` for Gaussian mode
only; `signs_from_uniform` is the reference map that route must equal.

scipy is imported here only, and only for the Gaussian transform: the
first Gaussian draw loads `scipy.special`, so everything else in the
package runs on numpy alone.  `transform(mode)` makes that import on the
calling thread, before any worker thread applies the map.
"""

from __future__ import annotations

import functools

import numpy as np

#: Upper bound on uniforms generated per block; the per-block sample count
#: shrinks for wide matrices so block buffers stay modest.
_BLOCK_BUDGET = 1 << 22

_MAX_BLOCK_SAMPLES = 4096


def block_samples(entries_per_sample: int) -> int:
    """Samples per block for a given per-sample entry count."""
    if entries_per_sample <= 0:
        return _MAX_BLOCK_SAMPLES
    return max(1, min(_MAX_BLOCK_SAMPLES, _BLOCK_BUDGET // entries_per_sample))


def check_seed(seed: int) -> int:
    """seed as an int; ValueError unless it lies in [0, 2^64), the half of
    the Philox key that a stream's seed fills."""
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    key = check_seed(seed) | ((block_index + 1) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_blocks(seed: int, entries_per_sample: int, n_samples: int):
    """Yield (start_sample, uniforms) pairs covering samples [0, n_samples).

    uniforms has shape (samples_in_block, entries_per_sample).  The stream
    is a pure function of (seed, entries_per_sample, block index).
    """
    bs = block_samples(entries_per_sample)
    n_blocks = (n_samples + bs - 1) // bs
    for b in range(n_blocks):
        start = b * bs
        count = min(bs, n_samples - start)
        gen = _block_generator(seed, b)
        u = gen.random((count, max(entries_per_sample, 1)))
        yield start, u[:, :entries_per_sample]


def transform(mode: str):
    """The map from uniforms to a sampling mode's values: Gaussian mode
    gets `gaussians_from_uniform`, with `scipy.special` loaded by this
    call, and every other mode `signs_from_uniform`."""
    if mode == "gaussian":
        _ndtri()
        return gaussians_from_uniform
    return signs_from_uniform


@functools.cache
def _ndtri():
    """scipy.special.ndtri, imported on first use."""
    from scipy.special import ndtri
    return ndtri


def signs_from_uniform(u: np.ndarray) -> np.ndarray:
    """Rademacher +-1 values; u = 1/2 maps to +1."""
    return np.where(u < 0.5, -1.0, 1.0)


def gaussians_from_uniform(u: np.ndarray) -> np.ndarray:
    """Standard normals via the inverse CDF, clipped away from 0 and 1."""
    v = np.clip(u, 1e-300, 1.0 - 1e-16)
    return _ndtri()(v, out=v)


def unit_vector(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """Deterministic random unit vector (for restart seeds)."""
    gen = _block_generator(seed, 1_000_003 + stream)
    v = gen.standard_normal(n)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = np.ones(n)
        norm = np.linalg.norm(v)
    return v / norm
