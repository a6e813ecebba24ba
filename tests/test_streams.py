import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radnorm
from radnorm import streams


def collect(seed, k, n):
    out = np.empty((n, k))
    for start, u in streams.uniform_blocks(seed, k, n):
        out[start:start + u.shape[0]] = u
    return out


def test_prefix_stability():
    # asking for fewer samples yields a prefix of the longer run
    long = collect(7, 5, 10000)
    short = collect(7, 5, 3000)
    assert np.array_equal(short, long[:3000])


def test_seed_and_width_separate_streams():
    assert not np.array_equal(collect(1, 4, 256), collect(2, 4, 256))
    a = collect(1, 4, 256)
    b = collect(1, 3, 256)
    assert not np.array_equal(a[:, :3], b)


def test_seeds_outside_64_bits_are_rejected():
    # the Philox key holds the seed in its low 64 bits; reducing the seed
    # mod 2^64 made 2^64 and -2^64 draw seed 0's stream
    assert streams.check_seed(0) == 0
    assert streams.check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    for seed in (-1, 2**64, -(2**64), 2**65 + 3):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            next(streams.uniform_blocks(seed, 3, 10))
        with pytest.raises(ValueError):
            streams.unit_vector(seed, 4)
    assert not np.array_equal(collect(2**64 - 1, 4, 16), collect(0, 4, 16))


def test_block_size_shrinks_for_wide_rows():
    assert streams.block_samples(1) == 4096
    assert streams.block_samples(1 << 22) == 1
    assert streams.block_samples(0) == 4096


def test_sign_transform():
    u = np.array([0.0, 0.499, 0.5, 0.51, 0.999])
    assert streams.signs_from_uniform(u).tolist() == [-1.0, -1.0, 1.0, 1.0, 1.0]


def test_gaussian_transform_pairs_with_signs():
    # common random numbers: the gaussian carries the sign of u - 1/2
    u = collect(3, 8, 500)
    g = streams.gaussians_from_uniform(u)
    s = streams.signs_from_uniform(u)
    assert np.all(np.sign(g)[u != 0.5] == s[u != 0.5])
    assert np.all(np.isfinite(g))
    # moments of the inverse-CDF transform look standard normal
    assert abs(g.mean()) < 0.05
    assert abs(g.std() - 1.0) < 0.05


def test_unit_vector_deterministic():
    a = streams.unit_vector(5, 12, stream=2)
    b = streams.unit_vector(5, 12, stream=2)
    c = streams.unit_vector(5, 12, stream=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_transform_loads_scipy_for_gaussians_only():
    # in a fresh interpreter: only asking for the Gaussian map imports
    # scipy.special, on the calling thread
    script = ("import sys\n"
              "from radnorm import streams\n"
              "assert streams.transform('rademacher_iid') is streams.signs_from_uniform\n"
              "assert streams.transform('rademacher_symmetric') is streams.signs_from_uniform\n"
              "assert 'scipy' not in sys.modules\n"
              "assert streams.transform('gaussian') is streams.gaussians_from_uniform\n"
              "assert 'scipy.special' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(radnorm.__file__).parent.parent))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
