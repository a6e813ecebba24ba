"""How fast the host runs right now, from a fixed calibration task.

The box this benchmark was tuned on shares its physical CPUs with other
tenants.  Each of its two CPUs moves on its own between speeds up to 1.9x
apart, for seconds to minutes at a time (README.md, Host speed).
`factor()` times a small fixed task that uses no radnorm code and returns
the geometric mean of its parts' times over `REFERENCE`, their times on
that box when it ran fast.  It reads about 1 on a quiet host and higher on
a busy one.  run.py divides each operation's time by the mean factor
measured just before and just after it.

The task is made of the kinds of work the single-threaded workloads do:
a pure-Python loop, numpy calls on length-16 arrays, a batch of 8x8 SVDs
and a 96x96 SVD.  It takes about 45 ms at the reference speed.  By
default it runs on the calling thread's CPU, where the next operation
will most likely run too.  Work that may run on either CPU, such as a
child process, is scaled by the task run pinned to each usable CPU in
turn and averaged over the CPUs (`every_cpu=True`).
"""

import os
import time

import numpy as np

# Bound at import, before a tracer patches numpy.linalg: the task must not
# show up as spans.
_svd = np.linalg.svd

#: Seconds of each part on the baseline box when it ran fast: the tenth
#: percentile over 394 calibrations taken between the operations of
#: profile_enum, profile_search and mc_blocks (2-core x86_64 VM,
#: 2026-10-17).
REFERENCE = {"python": 0.0118, "numpy_small": 0.0063, "svd_8x8": 0.0106,
             "svd_96x96": 0.0062}

_gen = np.random.default_rng(0)
_X16, _Y16 = _gen.standard_normal(16), _gen.standard_normal(16)
_SMALL = _gen.standard_normal((300, 8, 8))
_MID = _gen.standard_normal((96, 96))


def _python() -> None:
    total, counts = 0, {}
    for i in range(150_000):
        total += i * i
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + 1


def _numpy_small() -> None:
    for _ in range(1_500):
        a = _X16 * 2.0 + _Y16
        np.maximum(a, 0.0).sum()
        np.sort(a)


def _svd_small() -> None:
    for _ in range(5):
        _svd(_SMALL, compute_uv=False)


def _svd_mid() -> None:
    for _ in range(4):
        _svd(_MID)


_PARTS = {"python": _python, "numpy_small": _numpy_small, "svd_8x8": _svd_small,
          "svd_96x96": _svd_mid}


def _slowness() -> float:
    log_sum = 0.0
    for name, part in _PARTS.items():
        t0 = time.perf_counter()
        part()
        log_sum += np.log((time.perf_counter() - t0) / REFERENCE[name])
    return float(np.exp(log_sum / len(_PARTS)))


def factor(every_cpu: bool = False) -> float:
    """Host slowness now: 1 at the reference speed, 2 at half of it."""
    if not every_cpu:
        return _slowness()
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_slowness())
    finally:
        os.sched_setaffinity(0, cpus)  # threads started later inherit it
    return sum(per_cpu) / len(per_cpu)
