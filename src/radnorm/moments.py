"""Two-sided L_p surrogates for Rademacher sums.

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


def hitczenko_surrogate(a, p: float) -> SurrogateResult:
    """Head-plus-tail L_p surrogate with the cut at floor(p)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    head, tail = surrogate_rows(np.asarray(a, dtype=float).ravel()[None], p)
    return SurrogateResult(float(head[0]), float(tail[0]), float(head[0] + tail[0]), float(p))


def surrogate_rows(rows: np.ndarray, p: float) -> tuple:
    """(head, tail) of the head-plus-tail surrogate of each row of a 2-D
    array, cut at floor(p); head + tail is the surrogate total.  p >= 1."""
    star = np.sort(np.abs(rows), axis=-1)[:, ::-1]
    m = min(int(math.floor(p)), star.shape[1])
    head = star[:, :m].sum(axis=1)
    tail = math.sqrt(p) * np.sqrt((star[:, m:] ** 2).sum(axis=1))
    return head, tail


def water_fill(star: np.ndarray, p: float) -> tuple:
    """Maximize <star, b> over {||b||_inf <= 1, ||b||_2 <= sqrt(p)}.

    star must be nonnegative and nonincreasing along its last axis.  For
    1-D star returns (value, b); for a 2-D stack of rows returns (values,
    b) with one value and one row of b per row, each equal bit for bit to
    the 1-D result.  The optimum clips the m largest coordinates to 1 and
    spreads the leftover budget p - m proportionally over the rest; m is
    the smallest count whose spread fits inside the box.  The budget runs
    out at m = ceil(p), so m is found among 0..min(n, ceil(p)) at once.
    """
    star = np.asarray(star, dtype=float)
    if star.ndim == 1:
        values, b = water_fill(star[None], p)
        return float(values[0]), b[0]
    rows, n = star.shape
    if n == 0:
        return np.zeros(rows), np.zeros((rows, 0))
    if n <= p:
        return star.sum(axis=1), np.ones((rows, n))
    top = min(n, math.ceil(p))
    suffix_sq = np.cumsum((star ** 2)[:, ::-1], axis=1)[:, ::-1]
    # t[:, m] is the L2 mass of the unclipped part when m coordinates clip
    t = np.sqrt(np.concatenate((suffix_sq, np.zeros((rows, 1))), axis=1)[:, :top + 1])
    budget = p - np.arange(top + 1)
    root = np.sqrt(np.maximum(budget, 0.0))
    nxt = np.concatenate((star, np.zeros((rows, 1))), axis=1)[:, :top + 1]
    clip = (t == 0.0) | (budget <= 0.0)
    m = (clip | (root * nxt <= t)).argmax(axis=1)
    at = np.arange(rows)
    spread = ~clip[at, m]
    t_m = np.where(spread, t[at, m], 1.0)
    head = np.empty(rows)
    for k in np.unique(m).tolist():
        head[m == k] = star[m == k, :k].sum(axis=1)
    values = head + np.where(spread, root[m] * t_m, 0.0)
    scale = np.where(spread, root[m] / t_m, 0.0)
    b = np.where(np.arange(n) < m[:, None], 1.0, scale[:, None] * star)
    return values, b


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
