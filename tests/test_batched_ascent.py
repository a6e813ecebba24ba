"""The batched forms behind the exact k-sweep rows equal their one-matrix
forms bit for bit, checked with hypothesis.

A stacked `top_pair` gives each matrix the pair a call on it alone gives,
on the SVD, Gram and power routes; row-wise `water_fill` gives each row
the result of the scalar clip-count loop it replaced (kept below as the
reference); and `_ascent` over a stack gives each matrix the value
`r_heuristic` finds for it, also when the stack mixes exactly
symmetric matrices, which take the SVD pair, with matrices that take the
Gram pair.  All comparisons use exact equality: the batched code performs
the same floating-point operations in the same order.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from radnorm.bounds import _ascent, r_heuristic
from radnorm.core import WeightMatrix
from radnorm.moments import hitczenko_surrogate, surrogate_rows, water_fill
from radnorm.spectral import top_pair

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, database=None)

#: A few repeated magnitudes, so ties and exact zeros are common.
TIE_VALUES = [0.0, 0.5, 1.0, 1.0, 2.0, -1.0, -2.0, 3.0]

MOMENTS = st.one_of(st.sampled_from([1.0, 2.0, 3.0, math.log(3), 4.5, 9.0]),
                    st.floats(1.0, 12.0, allow_nan=False))


@st.composite
def stacks(draw, max_side=6, max_count=5):
    """(S, r, c) stacks mixing tied and continuous entries, with whole
    rows and columns zeroed in some matrices."""
    count = draw(st.integers(1, max_count))
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    if draw(st.booleans()):
        elements = st.sampled_from(TIE_VALUES)
    else:
        elements = st.floats(-4.0, 4.0, allow_subnormal=False)
    a = draw(arrays(np.float64, (count, rows, cols), elements=elements))
    for m in range(count):
        if draw(st.booleans()):
            a[m, draw(st.integers(0, rows - 1)), :] = 0.0
        if draw(st.booleans()):
            a[m, :, draw(st.integers(0, cols - 1))] = 0.0
    return a


def water_fill_loop(star, p):
    """The scalar clip-count search the row-wise form replaced."""
    n = star.size
    if n == 0:
        return 0.0, np.zeros(0)
    if n <= p:
        return float(star.sum()), np.ones(n)
    suffix_sq = np.concatenate((np.cumsum((star ** 2)[::-1])[::-1], [0.0]))
    m = 0
    while True:
        t = math.sqrt(float(suffix_sq[m]))
        budget = p - m
        if t == 0.0 or budget <= 0.0:
            b = np.zeros(n)
            b[:m] = 1.0
            return float(star[:m].sum()), b
        if math.sqrt(budget) * float(star[m]) <= t:
            b = np.zeros(n)
            b[:m] = 1.0
            b[m:] = math.sqrt(budget) / t * star[m:]
            return float(star[:m].sum()) + math.sqrt(budget) * t, b
        m += 1


@PROPERTY_SETTINGS
@given(a=stacks(max_side=8), steps=st.sampled_from([None, 1, 6]), gram=st.booleans())
@example(a=np.stack([np.zeros((3, 5)), np.ones((3, 5))]), steps=None, gram=True)
@example(a=np.stack([np.ones((5, 3)), np.zeros((5, 3))]), steps=None, gram=False)
def test_stacked_top_pair_equals_per_matrix(a, steps, gram):
    # the SVD, Gram and power routes alike, zero matrices included
    sigma, u, v = top_pair(a, steps, gram)
    assert sigma.shape == (len(a),) and u.shape == a.shape[:2]
    assert v.shape == (len(a), a.shape[2])
    for m in range(len(a)):
        s1, u1, v1 = top_pair(a[m], steps, gram)
        assert sigma[m] == s1
        assert np.array_equal(u[m], u1) and np.array_equal(v[m], v1)


@PROPERTY_SETTINGS
@given(a=stacks(max_side=5), p=MOMENTS)
@example(a=np.zeros((2, 1, 3)), p=2.0)       # all-zero rows
@example(a=np.ones((1, 2, 2)), p=4.0)        # n <= p, integer p
@example(a=np.ones((2, 3, 3)), p=3.0)        # ties, the budget runs out at m = p
def test_row_wise_water_fill_equals_loop(a, p):
    rows = -np.sort(-np.abs(a.reshape(len(a), -1)), axis=1)
    values, b = water_fill(rows, p)
    for m, star in enumerate(rows):
        want_value, want_b = water_fill_loop(star, p)
        assert values[m] == want_value and np.array_equal(b[m], want_b)
        got_value, got_b = water_fill(star, p)
        assert isinstance(got_value, float)
        assert got_value == want_value and np.array_equal(got_b, want_b)


@PROPERTY_SETTINGS
@given(a=stacks(max_side=5), p=MOMENTS)
def test_surrogate_rows_equal_one_row(a, p):
    flat = a.reshape(len(a), -1)
    head, tail = surrogate_rows(flat, p)
    for m in range(len(a)):
        one = hitczenko_surrogate(flat[m], p)
        assert (head[m], tail[m], head[m] + tail[m]) == (one.head, one.tail, one.total)


#: Stacks that mix exactly symmetric matrices (SVD pair) with non-symmetric
#: ones (Gram pair), so the per-matrix gate of `_ascent_pair` is pinned.
_SYM = np.array([[2.0, -1.0, 0.5], [-1.0, 1.0, 3.0], [0.5, 3.0, -2.0]])
_MIXED = [
    np.stack([_SYM, _SYM + np.triu(np.full((3, 3), 0.25), 1)]),
    np.stack([np.arange(9.0).reshape(3, 3) - 4.0, np.ones((3, 3)), _SYM,
              np.eye(3) + np.eye(3, k=1)]),
    np.stack([np.where(np.eye(4) > 0, 0.0, 1.0), np.tril(np.ones((4, 4))),
              np.diag([3.0, 1.0, 1.0, 2.0])]),
]


@PROPERTY_SETTINGS
@given(a=stacks(), p=MOMENTS, restarts=st.integers(1, 3), seed=st.integers(0, 9),
       max_iters=st.sampled_from([1, 8, 20]))
@example(a=_MIXED[0], p=2.0, restarts=3, seed=0, max_iters=20)
@example(a=_MIXED[1], p=math.log(3), restarts=1, seed=4, max_iters=8)
@example(a=_MIXED[2], p=4.5, restarts=2, seed=7, max_iters=20)
def test_ascent_equals_per_matrix_r_heuristic(a, p, restarts, seed, max_iters):
    a[:, 0, 0] = np.where(a.reshape(len(a), -1).any(axis=1), a[:, 0, 0], 1.5)
    values = _ascent(a, p, restarts, seed, max_iters)
    for m in range(len(a)):
        br = r_heuristic(WeightMatrix(a[m]), p, restarts, seed, max_iters)
        assert values[m] == br.lower
