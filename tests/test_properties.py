"""Metamorphic properties of the Monte Carlo sampler, checked with hypothesis.

Sampled norms must not depend on how a run is split into chunks and
threads, and scaling the weights by a power of two must scale every norm
exactly: both hold bit for bit, so the checks use array equality.  The
block plan must also give the norm of the whole dense realization.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from radnorm import sampler, streams
from radnorm.core import WeightMatrix
from radnorm.sampler import MODES, _sample_norms
from radnorm.spectral import top_values

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


@PROPERTY_SETTINGS
@given(run=sampling_runs(), j=st.integers(-40, 40))
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
