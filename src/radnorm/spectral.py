"""The spectral kernel: largest singular values and pairs, plus the
trace-power cross-check.

Every top singular value or pair the library needs comes from here.
`top_values` takes a (..., r, c) stack and returns each matrix's largest
singular value: a vector 2-norm when a side is 1 (max-scaled where the
squares would overflow or underflow), and otherwise the square root of
the top eigenvalue of the Gram matrix on the smaller side (numpy's
`eigvalsh`).  A matrix whose max |a_ij| lies beyond 2^(+-200) is scaled
by a power of two first, so the squares neither overflow nor underflow
and the scaling adds no rounding.  The stated tolerance is 16 eps
relative to an SVD; on Gaussian, +-1, Cauchy, graded, nearly-rank-1,
rectangular and 1e+-300-scaled stacks of sides 2 to 254 the worst
measured error was 7.7 eps.  The stack is solved _GRAM_SLICE elements
(1 MB) at a time, so each matrix's value depends on that matrix alone
(Monte Carlo output stays byte-identical for any thread count) and the
kernel's extra memory per call is about one slice's worth of Gram
matrices, scaled copy and eigenvalues, next to the sampler's
_REALIZE_BUDGET of 2^24 elements (128 MB) per block.  Measured on a
2-core box with OPENBLAS_NUM_THREADS=1, best of 9 calls, values-only SVD
-> Gram route:

    22,000 of 3x3     44 -> 27 ms        50 of 64x64      14 -> 12 ms
     8,000 of 5x5     45 -> 27 ms        12 of 128x128    16 -> 12 ms
     2,500 of 9x9     30 -> 20 ms         3 of 254x254    19 -> 12 ms
       800 of 16x16   21 -> 16 ms         1 of 512x512    44 -> 25 ms
       200 of 32x32   17 -> 13 ms         1 of 1024x1024 394 -> 153 ms

The Gram route wins at every side, so there is no size switch.

`top_pair` returns (sigma, u, v) for one matrix or for each matrix of a
stack: the full SVD up to side FULL_DECOMPOSITION_MAX, and beyond that
(or when the caller asks for a cheap pair) a fixed number of power steps
on A^T A from a fixed ramped start.  Beyond side FULL_DECOMPOSITION_MAX
the pair is therefore a 40-step lower estimate, never a certified value.
The pair stays on the SVD: a Gram `eigh` pair was faster but gave other
witnesses, so the heuristic ascent took other paths on symmetric inputs
(`sym_gauss_n64` `r_logn.lower` 4.6276 -> 4.6060, one k-sweep `removed`
set changed); that waits for a label-free ascent.
Only `top_pair` takes power steps (`_power_pair`); `spectral_norm` is
`top_values` at every side.  Choosing a different method per shape is a
change to this module only.

The brute-force oracles in `oracles` keep a plain SVD of their own on
purpose (`oracles.top_singular_value`): they are the independent route
the kernel is tested against.  The trace-power estimator
(tr A^{2k})^{1/2k} is another independent route, used to sanity-check
the kernel on symmetric inputs.
"""

from __future__ import annotations

import numpy as np

from .core import WeightMatrix

#: Side length up to which the full decomposition is used.
FULL_DECOMPOSITION_MAX = 512

#: Power steps top_pair takes beyond FULL_DECOMPOSITION_MAX.
_PAIR_STEPS = 40

#: Vector norms outside [1 / this, this] are recomputed with max scaling.
_SQUARE_SAFE = 2.0 ** 500

#: A matrix whose max |a_ij| lies outside [1 / this, this] is scaled by a
#: power of two before its Gram matrix is formed.
_GRAM_SAFE = 2.0 ** 200

#: Elements of the (..., r, c) stack `top_values` takes per Gram eigensolve:
#: about 1 MB of float64, which also bounds each slice's Gram matrices.
_GRAM_SLICE = 1 << 17


def _start_vector(n: int) -> np.ndarray:
    # all-ones with a small index ramp so the start is never orthogonal to
    # the leading singular space of sign-structured matrices
    v = 1.0 + 1e-3 * np.arange(n) / max(n - 1, 1)
    return v / np.linalg.norm(v)


def top_values(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., r, c) stack.

    Sides both >= 2: sqrt of the top eigenvalue of the Gram matrix on the
    smaller side, within 16 eps relative of the SVD value.  Each matrix's
    value depends on that matrix alone, never on the rest of the stack.
    """
    r, c = stack.shape[-2:]
    if r > 1 and c > 1:
        return _gram_top(stack.reshape(-1, r, c)).reshape(stack.shape[:-2])
    flat = stack.reshape(-1, r * c)
    with np.errstate(over="ignore", under="ignore"):
        out = np.sqrt((flat * flat).sum(axis=1))
        # far from 1 the squares overflow or lose bits: redo those rows scaled
        far = ~(out < _SQUARE_SAFE) | (out < 1.0 / _SQUARE_SAFE)
        if far.any():
            top = np.abs(flat[far]).max(axis=1, keepdims=True)
            top[top == 0.0] = 1.0
            out[far] = top[:, 0] * np.sqrt(((flat[far] / top) ** 2).sum(axis=1))
    return out.reshape(stack.shape[:-2])


def _gram_top(stack: np.ndarray) -> np.ndarray:
    """sqrt(max(eigvalsh(G)[-1], 0)) of each matrix of an (S, r, c) stack,
    G the Gram matrix on the smaller side, _GRAM_SLICE elements at a time.

    A matrix with max |a_ij| outside [1/_GRAM_SAFE, _GRAM_SAFE] is first
    scaled into [1/2, 1) by a power of two (exact), so its squares neither
    overflow nor lose bits; squares of entries far below a matrix's max can
    still underflow, which changes its value by far less than an ulp.
    """
    s, r, c = stack.shape
    out = np.empty(s)
    step = max(1, _GRAM_SLICE // (r * c))
    with np.errstate(under="ignore"):
        for lo in range(0, s, step):
            a = stack[lo:lo + step]
            top = np.maximum(a.max(axis=(1, 2)), -a.min(axis=(1, 2)))
            far = ~(top <= _GRAM_SAFE) | (top < 1.0 / _GRAM_SAFE)
            shift = np.where(far, np.frexp(top)[1], 0) if far.any() else None
            if shift is not None:
                a = np.ldexp(a, -shift[:, None, None])
            at = a.transpose(0, 2, 1)
            gram = a @ at if r < c else at @ a
            vals = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
            out[lo:lo + step] = vals if shift is None else np.ldexp(vals, shift)
    return out


def top_pair(a: np.ndarray, steps: int | None = None) -> tuple:
    """(sigma, u, v): top singular value of `a` with unit witnesses.

    `a` is one (r, c) matrix, giving a float sigma and vectors u (r,) and
    v (c,), or an (S, r, c) stack, giving sigma (S,), u (S, r) and v (S, c)
    with each matrix's pair bit for bit equal to a call on it alone.
    Exact (full SVD) up to side FULL_DECOMPOSITION_MAX.  Beyond that side,
    or when `steps` is given, it takes `steps` power steps (40 by default)
    on each matrix with no convergence test (`_power_pair`): sigma is then
    a lower estimate, never a certified value.  sigma is 0 only for a zero
    matrix, with u = 0.
    """
    if a.ndim == 2:
        sigma, u, v = top_pair(a[None], steps)
        return float(sigma[0]), u[0], v[0]
    if steps is None and max(a.shape[1:]) <= FULL_DECOMPOSITION_MAX:
        u, sv, vt = np.linalg.svd(a)
        return sv[:, 0].copy(), u[:, :, 0].copy(), vt[:, 0, :].copy()
    # sides beyond FULL_DECOMPOSITION_MAX: one matrix at a time costs
    # nothing next to the matrix products
    sigma, u, v = zip(*(_power_pair(m, steps or _PAIR_STEPS) for m in a))
    return np.array(sigma), np.stack(u), np.stack(v)


def _power_pair(a: np.ndarray, steps: int) -> tuple:
    """(sigma, u, v): exactly `steps` power steps on A^T A from
    _start_vector, then sigma = ||a v|| and u = a v / sigma.

    No convergence test: sigma is a lower estimate.  When the start vector
    of a nonzero matrix maps to zero, the first step restarts from the
    heaviest column's basis vector: sigma is 0 only for a zero matrix
    (u = 0, v the start vector).
    """
    v = _start_vector(a.shape[1])
    for it in range(1, steps + 1):
        w = a.T @ (a @ v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0 and it == 1 and a.any():
            v = np.eye(1, a.shape[1], int(np.argmax(np.abs(a).sum(axis=0))))[0]
            w = a.T @ (a @ v)
            norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            break
        v = w / norm_w
    u = a @ v
    sigma = float(np.linalg.norm(u))
    if sigma > 0.0:
        u = u / sigma
    return sigma, u, v


def spectral_norm(A: WeightMatrix) -> float:
    """Largest singular value of A: the values-only SVD (`top_values`) at
    every side, 0 for an empty or zero matrix."""
    if A.entries.size == 0:
        return 0.0
    return float(top_values(A.entries))


def trace_power_norm(A: WeightMatrix, k: int) -> float:
    """(tr A^{2k})^{1/(2k)} for symmetric A.

    Always sandwiched in [||A||, n^{1/(2k)} ||A||].  Computed from the
    eigenvalues with max-abs scaling so large powers cannot overflow.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not A.symmetric and not np.array_equal(A.entries, A.entries.T):
        raise ValueError("trace-power norm requires a symmetric matrix")
    eig = np.linalg.eigvalsh(A.entries)
    m = float(np.max(np.abs(eig))) if eig.size else 0.0
    if m == 0.0:
        return 0.0
    scaled = np.abs(eig) / m
    return m * float(np.sum(scaled ** (2 * k)) ** (1.0 / (2 * k)))


def max_row_col_l2(A: WeightMatrix) -> tuple:
    """Largest row L2 norm and largest column L2 norm."""
    a = A.entries
    if a.size == 0:
        return 0.0, 0.0
    row = float(np.sqrt((a * a).sum(axis=1).max()))
    col = float(np.sqrt((a * a).sum(axis=0).max()))
    return row, col
