"""Two-sided L_p surrogates for Rademacher sums, plus empirical moments.

For coefficients a and p >= 1 the head-plus-tail surrogate

    sum_{k <= floor(p)} a*_k  +  sqrt(p) (sum_{k > floor(p)} (a*_k)^2)^{1/2}

(a* the nonincreasing rearrangement of |a|) is equivalent to the L_p norm
of sum_k a_k eps_k up to universal constants.  The dual form is the exact
maximum of <a, b> over the box-ball body {||b||_inf <= 1, ||b||_2 <=
sqrt(p)}, computed by water-filling.  Both are surrogates: none of the
universal constants are pinned down, and callers must treat them as
constant-level estimates only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .core import sign_patterns


@dataclass(frozen=True)
class SurrogateResult:
    head: float
    tail: float
    total: float
    p: float

    def __post_init__(self):
        if self.head < 0 or self.tail < 0:
            raise ValueError("head and tail are nonnegative")


def rearrange_desc(a) -> np.ndarray:
    """Nonincreasing rearrangement of the absolute values."""
    a = np.asarray(a, dtype=float)
    return np.sort(np.abs(a.ravel()))[::-1]


def hitczenko_surrogate(a, p: float) -> SurrogateResult:
    """Head-plus-tail L_p surrogate with the cut at floor(p)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    star = rearrange_desc(a)
    m = min(int(math.floor(p)), star.size)
    head = float(star[:m].sum())
    tail = float(math.sqrt(p) * math.sqrt(float((star[m:] ** 2).sum())))
    return SurrogateResult(head, tail, head + tail, float(p))


def water_fill(star: np.ndarray, p: float) -> tuple:
    """Maximize <star, b> over {||b||_inf <= 1, ||b||_2 <= sqrt(p)}.

    star must be nonnegative nonincreasing.  Returns (value, b).  The
    optimum clips the m largest coordinates to 1 and spreads the leftover
    budget p - m proportionally over the rest; m grows until the spread
    fits inside the box.
    """
    n = star.size
    if n == 0:
        return 0.0, np.zeros(0)
    if n <= p:
        return float(star.sum()), np.ones(n)
    suffix_sq = np.concatenate((np.cumsum((star ** 2)[::-1])[::-1], [0.0]))
    m = 0
    while True:
        t = math.sqrt(float(suffix_sq[m]))  # L2 mass of the unclipped part
        budget = p - m
        if t == 0.0 or budget <= 0.0:
            value = float(star[:m].sum())
            b = np.zeros(n)
            b[:m] = 1.0
            return value, b
        if math.sqrt(budget) * float(star[m]) <= t:
            value = float(star[:m].sum()) + math.sqrt(budget) * t
            b = np.zeros(n)
            b[:m] = 1.0
            b[m:] = math.sqrt(budget) / t * star[m:]
            return value, b
        m += 1


def dual_surrogate(a, p: float) -> float:
    """Exact value of sup{<a, b> : ||b||_inf <= 1, ||b||_2 <= sqrt(p)}."""
    if p < 1:
        raise ValueError("p must be at least 1")
    star = rearrange_desc(a)
    value, _ = water_fill(star, float(p))
    return value


def power_mean_estimate(values: np.ndarray, p: float) -> tuple:
    """(mean values^p)^{1/p} with a delta-method standard error.

    values must be nonnegative.  They are divided by their maximum before
    the power is taken, so no p in [1, 64] overflows or underflows the
    mean, whatever the scale of the values.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0 or not values.any():
        return 0.0, 0.0
    if np.all(values == values[0]):
        return float(values[0]), 0.0
    top = float(values.max())
    y = (values / top) ** p
    mean_y = float(y.mean())
    sd_y = float(y.std(ddof=1))
    est = top * mean_y ** (1.0 / p)
    return est, est / (p * mean_y) * sd_y / math.sqrt(n)


def empirical_lp(a, p: float, samples: int, seed: int) -> tuple:
    """Monte Carlo estimate of || sum_k a_k eps_k ||_p with its standard error.

    Plain Monte Carlo over independent sign vectors from the counter
    stream; the estimate is (mean |S|^p)^{1/p} and the standard error
    comes from the delta method.
    """
    if p < 1 or p > 64:
        raise ValueError("p must lie in [1, 64]")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    a = np.asarray(a, dtype=float).ravel()
    if a.size == 0 or not a.any():
        return 0.0, 0.0
    abs_s = np.empty(samples)
    for start, u in streams.uniform_blocks(seed, a.size, samples):
        eps = streams.signs_from_uniform(u)
        abs_s[start:start + eps.shape[0]] = np.abs(eps @ a)
    return power_mean_estimate(abs_s, p)


def exact_lp_enumeration(a, p: float) -> float:
    """Exact || sum a_k eps_k ||_p by summing over all 2^n sign patterns.

    Test oracle; refuses more than 2^22 patterns.  The global sign flip
    halves the enumeration, and |S|^p is summed one pattern block at a time.
    """
    a = np.asarray(a, dtype=float).ravel()
    n = a.size
    if n == 0:
        return 0.0
    if n > 22:
        raise ValueError("exact enumeration is capped at 22 coefficients")
    total = sum(float((np.abs(signs @ a) ** p).sum()) for signs in sign_patterns(n))
    return (total / (1 << (n - 1))) ** (1.0 / p)
