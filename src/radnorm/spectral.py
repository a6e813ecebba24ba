"""The spectral kernel: largest singular values, the largest of each row
of a stack, and singular pairs.

Every top singular value or pair the library needs comes from here.
`top_values` takes a (..., r, c) stack and returns each matrix's largest
singular value: a vector 2-norm when a side is 1 (max-scaled where the
squares would overflow or underflow), and otherwise the square root of
the top eigenvalue of the Gram matrix on the smaller side (numpy's
`eigvalsh`).  Every matrix is first scaled by a power of two so that its
max |a_ij| lies in [1/2, 1): the squares neither overflow nor underflow,
the scaling adds no rounding, and a matrix and its power-of-two
multiples give `eigvalsh` the same Gram matrix, so their values scale
exactly (`eigvalsh` itself does not: on some sign-structured Gram
matrices, scaling by 2^60 moved the top eigenvalue's low bits).  The
stated tolerance is 16 eps relative to an SVD; on Gaussian, +-1, Cauchy,
graded, nearly-rank-1, rectangular and 1e+-300-scaled stacks of sides 2
to 254 the worst measured error was 7.7 eps.  The stack is solved
_GRAM_SLICE elements (1 MB) at a time, so each matrix's value depends on
that matrix alone (Monte Carlo output stays byte-identical for any thread
count) and the kernel's extra memory per call is about one slice's worth
of Gram matrices, scaled copy and eigenvalues, next to the sampler's
_REALIZE_BUDGET of 2^24 elements (128 MB) per block.  Measured on a
2-core box with OPENBLAS_NUM_THREADS=1, best of 9 calls, values-only SVD
-> Gram route:

    22,000 of 3x3     44 -> 27 ms        50 of 64x64      14 -> 12 ms
     8,000 of 5x5     45 -> 27 ms        12 of 128x128    16 -> 12 ms
     2,500 of 9x9     30 -> 20 ms         3 of 254x254    19 -> 12 ms
       800 of 16x16   21 -> 16 ms         1 of 512x512    44 -> 25 ms
       200 of 32x32   17 -> 13 ms         1 of 1024x1024 394 -> 153 ms

The Gram route wins at every side, so there is no size switch.

`top_value_max(stack, floor, shift=None)` is the Monte Carlo sampler's
entry: the largest value in each row of an (m, g, r, c) stack of
same-shape blocks, at least `floor`, bit for bit equal to taking
`top_values` of the whole stack.  It eigensolves only the blocks that can
hold a row's maximum.  Each block's sigma is bracketed from its scaled
Gram matrix G by sqrt(tr G^5 / tr G^4) <= sigma <= (tr G^8)^(1/16), and a
block whose upper bound falls below max(floor, best lower bound in its
row) by more than _PRUNE_MARGIN (1e-9 relative) is skipped; the kept ones
go through the same eigensolve as `top_values`.  Groups of one block per
row (dense inputs) and vector shapes skip the bracket.  On `verify
union_complete_regimes` (--n-cap 1024, 200 samples) the share of blocks
eigensolved is 50% of the 3x3 blocks of d = 2 (half of their sign
patterns have norm 2, every row's maximum, and ties are kept), 3.4% at
d = 3 and 0.8-1.9% at d = 4 to 8; the d = 1 blocks are 1x1 and never
reach the kernel.  In the Rademacher modes a block's largest
|w_ij eps_ij| is its largest |w_ij|, so its power-of-two shift is known
before any sample is drawn: the sampler's plan scales the weights once
and passes the shifts, and `top_value_max` skips the per-matrix max/min
scan and the scaled copy.  Multiplying by +-1 is exact and ldexp rounds
w and -w alike, so every Gram matrix keeps its bits, subnormal corners
included.  Gaussian blocks are scaled here, per sample.

Every Gram product (`_gram`) multiplies by a contiguous copy of the
transpose while both sides are at most CONTIGUOUS_T_MAX = 11, and by the
transposed view beyond: on the view numpy takes another product routine,
about twice as slow on tiny matrices (68,200 3x3 matrices: 19.5 ->
9.7 ms, 2-core box, OPENBLAS_NUM_THREADS=1, best of 7).  Up to side 11
the copy gave the same bits at every shape; at sides 12 to 16 it moved
low bits of some products, and a gate at 16 changed 10 golden outputs.

`top_pair` returns (sigma, u, v) for one matrix or for each matrix of a
stack.  Up to side FULL_DECOMPOSITION_MAX it is the full SVD's pair, or
with `gram=True` the Gram route's: the top eigenvector of the same
power-of-two scaled Gram matrix `top_values` uses, and the other side from
one product with the scaled matrix.  The Gram pair agrees with the SVD
pair up to a joint sign and rounding (sigma within 16 eps, each vector
within 256 eps / relative gap on gapped stacks; 43 eps / gap was the worst
of 20,000 measured).  Beyond FULL_DECOMPOSITION_MAX, or when the caller
asks for a cheap pair, both take a fixed number of power steps on A^T A
from a fixed ramped start, so the pair is then a lower estimate, never a
certified value.  Measured on a 2-core box with OPENBLAS_NUM_THREADS=1,
best of 21 interleaved calls on Gaussian matrices, SVD pair -> Gram pair
with `eigh` at every side:

    120 of 15x15   7.59 -> 4.92 ms        1 of 128x128   3.11 -> 1.82 ms
      1 of 16x16   0.09 -> 0.10 ms        1 of 256x256  14.96 -> 8.04 ms
      1 of 64x64   0.91 -> 0.66 ms

The surrogate ascent's weighted Gram matrices are nearly rank one (over
the 477 of the `sparse_gauss_n128` profile, lambda_2 / lambda_1 had median
5.1e-5, upper quartile 0.091 and 90th percentile 0.21), so from Gram side
POWER_PAIR_MIN the Gram route first takes power steps (`_certified_top`)
and keeps the vector only when a Davis-Kahan bound certifies it: sin(angle to the top eigenvector) <=
||G x - rho x|| / (rho - lambda_2^+) <= 64 eps, with rho = x^T G x and
lambda_2^+ = sqrt(||G||_F^2 - rho^2 + slack) >= lambda_2.  A matrix that
does not certify within _CERTIFY_STEPS steps, or whose bound shows it
cannot, is solved by `eigh`; a zero matrix or a tied top never certifies.
Each matrix of a stack takes its own route, so its pair keeps the bits of
a call on it alone.  On the ascent's Gram matrices from nine general-
weight corpus profiles (n = 16 to 128), best of 5 runs per side on the
same box, per matrix, `eigh` -> certified steps with the `eigh` fallback:

    side      matrices  certified   eigh      route
      8          103       92%     0.014   0.054 ms   (0.26x)
     14-16       381       91%     0.031   0.058 ms   (0.53x)
     20-24       400       86%     0.058   0.067 ms   (0.87x)
     28-31       306       76%     0.076   0.067 ms   (1.13x)
     32          400       86%     0.099   0.103 ms   (0.96x)
     36-40       329       79%     0.159   0.079 ms   (2.0x)
     44-48       398       92%     0.192   0.062 ms   (3.1x)
     56-64       400       84%     0.272   0.136 ms   (2.0x)
     96           51       88%     1.018   0.251 ms   (4.1x)
    112-128      387       93%     1.874   0.220 ms   (8.5x)

Below side 28 a few power steps in Python cost more than LAPACK's whole
eigensolve, and sides 28-32 break even (0.96-1.22x over two runs), so
POWER_PAIR_MIN is 32: the exact k-sweep rows' stacks (sides <= 16) stay on
`eigh`, and every side from 36 gains.  On the `sparse_gauss_n128` profile
435 of its 477 Gram matrices certified and 42 fell back.

The surrogate ascent (`bounds._ascent`) takes the Gram pair for every
matrix that is not exactly symmetric.  Exactly symmetric matrices stay on
the SVD pair: there the mirrored entries of a o s t^T tie whenever s = t.
Water-filling clips the m largest entries, and at the cut equal values
clip lowest index first, so which of two mirrored entries clips turns on
the pair's last bits; the Gram pair's last bits are not the SVD's, so the
ascent took other paths (ungated, 15 goldens moved beyond 1e-12, `sym_gauss_n64`
`r_logn.lower` by -0.47% and one k-sweep `removed` set changed).  A
label-free ascent on |A|, whose weighted matrices have a nonnegative
Perron pair, would remove that cause.  That symmetric gate is the SVD
pair's only user: the exact 0/1 bracket is a value (`top_values`) and the
k-sweep's cheap pairs take power steps.
Only `top_pair` takes power steps (`_power_pair`); `spectral_norm` is
`top_values` at every side.  Choosing a different method per shape is a
change to this module only.

The brute-force oracles in `oracles` keep a plain SVD of their own on
purpose (`oracles.top_singular_value`): they are the independent route
the kernel is tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .core import WeightMatrix

#: Side length up to which the full decomposition is used.
FULL_DECOMPOSITION_MAX = 512

#: Power steps top_pair takes beyond FULL_DECOMPOSITION_MAX.
_PAIR_STEPS = 40

#: Smallest Gram side at which `_gram_pair` tries certified power steps
#: before `eigh`: below it `eigh` is cheaper (see the module docstring).
POWER_PAIR_MIN = 32

#: Power steps `_certified_top` takes at most on one Gram matrix.
_CERTIFY_STEPS = 24

#: The bound on sin(angle to the top eigenvector) `_certified_top` accepts.
_CERTIFY_SIN = 64 * np.finfo(float).eps

#: Largest side at which `_gram` multiplies by a contiguous copy of the
#: transpose, not the transposed view: up to it the copy is faster and
#: keeps the bits (see the module docstring).
CONTIGUOUS_T_MAX = 11

#: Vector norms outside [1 / this, this] are recomputed with max scaling.
_SQUARE_SAFE = 2.0 ** 500

#: Elements of the (..., r, c) stack `top_values` takes per Gram eigensolve:
#: about 1 MB of float64, which also bounds each slice's Gram matrices.
_GRAM_SLICE = 1 << 17

#: Relative slack with which `top_value_max` prunes a matrix: it drops one
#: only when its upper bound is below the threshold by this factor.  The
#: dropped value and the value that set the threshold are each within the
#: kernel's 16 eps of their sigmas, and each bound is a root of a ratio of
#: traces of Gram powers, rounded by a few eps: on rank-one matrices, where
#: both bounds equal sigma, the computed bounds lay within 12 eps of the
#: kernel's value up to side 256.  1e-9 (4.5e6 eps) covers the sum many
#: times over, so a matrix that could hold the maximum is never dropped.
_PRUNE_MARGIN = 1e-9


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
    """
    s, r, c = stack.shape
    out = np.empty(s)
    step = max(1, _GRAM_SLICE // (r * c))
    with np.errstate(under="ignore"):
        for lo in range(0, s, step):
            out[lo:lo + step] = _gram_eig_top(*_scaled_gram(stack[lo:lo + step]))
    return out


def _scaled_gram(a: np.ndarray) -> tuple:
    """(gram, shift) of an (S, r, c) stack: each matrix scaled by 2^-shift
    so that its max |a_ij| lies in [1/2, 1) (a zero matrix keeps shift 0),
    and the Gram matrix of the scaled matrix on its smaller side (`_gram`).

    The scaling is exact, so the squares neither overflow nor lose bits and
    a matrix and its power-of-two multiples give eigvalsh the same Gram
    matrix (eigvalsh itself is not exactly power-of-two equivariant);
    squares of entries far below a matrix's max can still underflow, which
    changes its value by far less than an ulp.
    """
    flat = a.reshape(a.shape[0], -1)
    shift = np.frexp(np.maximum(flat.max(axis=1), -flat.min(axis=1)))[1]
    return _gram(np.ldexp(a, -shift[:, None, None])), shift


def _gram(a: np.ndarray) -> np.ndarray:
    """The Gram matrix on the smaller side of each matrix of an (S, r, c)
    stack, by a contiguous copy of the transpose while both sides are at
    most CONTIGUOUS_T_MAX (faster, same bits; see the module docstring).
    The product runs on a C-contiguous `a` (a copy only of a strided or
    F-ordered stack), so its bits never depend on the input's layout."""
    a = np.ascontiguousarray(a)
    at = a.transpose(0, 2, 1)
    if max(a.shape[1:]) <= CONTIGUOUS_T_MAX:
        at = np.ascontiguousarray(at)
    return a @ at if a.shape[1] < a.shape[2] else at @ a


def _gram_eig_top(gram: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """2^shift sqrt(max(top eigenvalue, 0)) of each Gram matrix."""
    return np.ldexp(np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0)), shift)


def _bracket(gram: np.ndarray, shift: np.ndarray) -> tuple:
    """(lower, upper) on each sigma = 2^shift sqrt(lambda_max(gram)):
    2^shift sqrt(<G^4, G> / <G^2, G^2>) and 2^shift <G^4, G^4>^(1/16)."""
    g2 = gram @ gram
    g4 = g2 @ g2
    num = np.einsum("sij,sij->s", g4, gram)
    den = np.einsum("sij,sij->s", g2, g2)
    lower = np.sqrt(np.divide(num, den, out=np.zeros_like(num), where=den > 0))
    upper = np.einsum("sij,sij->s", g4, g4) ** (1.0 / 16.0)
    return np.ldexp(lower, shift), np.ldexp(upper, shift)


def top_value_max(stack: np.ndarray, floor: np.ndarray, shift=None) -> np.ndarray:
    """max(floor, top_values(stack).max(axis=1)) of an (m, g, r, c) stack,
    bit for bit, eigensolving only the matrices that can reach the maximum.

    `floor` (m,) is each row's running maximum.  With `shift` (g,) given,
    the sides are both at least 2 and the stack is pre-scaled: block j of
    every row is its matrix times 2^-shift[j], with max |a_ij| in
    [1/2, 1), and the result is that of the unscaled stack (the Monte
    Carlo sampler folds the shifts of its Rademacher blocks into their
    weights, `sampler._norm_plan`).  Without it each matrix is scaled here
    (`_scaled_gram`).  Per _GRAM_SLICE elements, each matrix's sigma =
    sqrt(lambda_max(G)) is bracketed from its scaled Gram matrix G by

        sqrt(<G^4, G> / <G^2, G^2>)  <=  sigma  <=  <G^4, G^4>^(1/16),

    that is sqrt(tr G^5 / tr G^4) (a lambda^4-weighted mean of the
    eigenvalues) and (tr G^8)^(1/16); a zero matrix gets 0 for both.  A
    row's threshold is max(floor, its best lower bound), and only matrices
    whose upper bound reaches threshold * (1 - _PRUNE_MARGIN) are
    eigensolved, by the same `_gram_eig_top` as `top_values`, so every
    value that can be the maximum has the bits it has there.  Groups of one
    matrix per row solve every matrix without the bracket, and vector
    shapes go straight to `top_values`.
    """
    m, g, r, c = stack.shape
    if r == 1 or c == 1:
        return np.maximum(floor, top_values(stack).max(axis=1))
    out = np.empty(m)
    step = max(1, _GRAM_SLICE // (g * r * c))
    with np.errstate(under="ignore"):
        for lo in range(0, m, step):
            a = stack[lo:lo + step].reshape(-1, r, c)
            rows = a.shape[0] // g
            if shift is None:
                gram, sh = _scaled_gram(a)
            else:
                gram, sh = _gram(a), np.tile(shift, rows)
            if g == 1:
                vals = _gram_eig_top(gram, sh)
            else:
                lower, upper = (b.reshape(rows, g) for b in _bracket(gram, sh))
                cut = np.maximum(floor[lo:lo + step], lower.max(axis=1))
                # NaN in a bound or threshold keeps the matrix
                keep = ~(upper < (cut * (1.0 - _PRUNE_MARGIN))[:, None]).ravel()
                vals = np.zeros(rows * g)
                vals[keep] = _gram_eig_top(gram[keep], sh[keep])
            out[lo:lo + step] = np.maximum(floor[lo:lo + step],
                                           vals.reshape(rows, g).max(axis=1))
    return out


def top_pair(a: np.ndarray, steps: int | None = None, gram: bool = False) -> tuple:
    """(sigma, u, v): top singular value of `a` and its unit singular vectors.

    `a` is one (r, c) matrix, giving a float sigma and vectors u (r,) and
    v (c,), or an (S, r, c) stack, giving sigma (S,), u (S, r) and v (S, c)
    with each matrix's pair bit for bit equal to a call on it alone.
    Up to side FULL_DECOMPOSITION_MAX the pair is the full SVD's, or with
    `gram` the Gram route's (`_gram_pair`: the top eigenvector of the
    smaller side's Gram matrix, from certified power steps or `eigh`, and
    one product for the other side), which is cheaper and agrees with the
    SVD pair up to a joint sign and rounding: sigma within 16 eps, each
    vector within 256 eps / relative gap of the top two squared values.  Beyond that side, or when `steps`
    is given, it takes `steps` power steps (40 by default) on each matrix
    with no convergence test (`_power_pair`): sigma is then a lower
    estimate, never a certified value.  sigma is 0 only for a zero matrix,
    and every route gives it u = 0 and v = `_start_vector`.  The SVD route
    serves only the surrogate ascent's exactly symmetric inputs
    (`bounds._ascent_pair`).
    """
    if a.ndim == 2:
        sigma, u, v = top_pair(a[None], steps, gram)
        return float(sigma[0]), u[0], v[0]
    if steps is None and max(a.shape[1:]) <= FULL_DECOMPOSITION_MAX:
        if gram:
            sigma, u, v = _gram_pair(a)
        else:
            u, sv, vt = np.linalg.svd(a)
            sigma, u, v = sv[:, 0].copy(), u[:, :, 0].copy(), vt[:, 0, :].copy()
        zero = sigma == 0.0
        if zero.any():
            u[zero] = 0.0
            v[zero] = _start_vector(a.shape[2])
        return sigma, u, v
    # sides beyond FULL_DECOMPOSITION_MAX: one matrix at a time costs
    # nothing next to the matrix products
    sigma, u, v = zip(*(_power_pair(m, steps or _PAIR_STEPS) for m in a))
    return np.array(sigma), np.stack(u), np.stack(v)


def _gram_pair(a: np.ndarray) -> tuple:
    """(sigma, u, v) of each matrix of an (S, r, c) stack: the top
    eigenvector of the power-of-two scaled Gram matrix on the smaller side
    (`_scaled_gram`), the other side from one product with the scaled
    matrix, and sigma the norm of that product, scaled back.  From Gram
    side POWER_PAIR_MIN each matrix first tries certified power steps
    (`_certified_top`); the rest take `eigh`.  A zero matrix gives sigma 0
    (the caller sets its vectors)."""
    r, c = a.shape[1:]
    gram, shift = _scaled_gram(a)
    with np.errstate(under="ignore"):
        top = np.empty(gram.shape[:2])
        todo = np.ones(len(gram), dtype=bool)
        if gram.shape[1] >= POWER_PAIR_MIN:
            for k, g in enumerate(gram):
                x = _certified_top(g)
                if x is not None:
                    top[k], todo[k] = x, False
        if todo.any():
            top[todo] = np.linalg.eigh(gram[todo])[1][:, :, -1]
        scaled = np.ldexp(a, -shift[:, None, None])
        if r < c:
            other = (top[:, None, :] @ scaled)[:, 0, :]
        else:
            other = (scaled @ top[:, :, None])[:, :, 0]
        norm = np.sqrt((other * other).sum(axis=1))
        other = other / np.where(norm > 0.0, norm, 1.0)[:, None]
        sigma = np.ldexp(norm, shift)
    return (sigma, top, other) if r < c else (sigma, other, top)


def _certified_top(gram: np.ndarray):
    """The top eigenvector of one symmetric positive semidefinite Gram
    matrix by certified power steps, or None when they cannot certify it.

    From the heaviest column x of G, normalized, each step takes y = G x,
    rho = x^T y <= lambda_1 and the residual r = ||y - rho x||.  Since
    lambda_1^2 + lambda_2^2 <= ||G||_F^2, lambda_2 <= lam2 =
    sqrt(||G||_F^2 - rho^2 + slack), the slack covering the rounding of
    both sums, and by Davis-Kahan sin(x, top eigenvector) <= r / (rho -
    lam2).  x is accepted once that bound is at most _CERTIFY_SIN.  The
    run gives up, returning None, as soon as the bound times
    (lam2 / rho)^(steps left) still exceeds it: lam2 / rho bounds the
    contraction per step, so the bound cannot fall far enough within
    _CERTIFY_STEPS.  A zero matrix, or one whose top eigenvalue is tied
    or not separated from lam2, never certifies.
    """
    col2 = (gram * gram).sum(axis=0)
    j = int(np.argmax(col2))
    if col2[j] == 0.0:
        return None
    fro2 = float(col2.sum())
    slack = 2 * len(gram) * np.finfo(float).eps * fro2
    x = gram[:, j] / math.sqrt(col2[j])
    for left in range(_CERTIFY_STEPS - 1, -1, -1):
        y = gram @ x
        rho = float(x @ y)
        res = y - rho * x
        r = math.sqrt(float(res @ res))
        lam2 = math.sqrt(max(fro2 - rho * rho, 0.0) + slack)
        gap = rho - lam2
        if gap <= 0.0:
            return None
        if r <= _CERTIFY_SIN * gap:
            return x
        if r / gap * (lam2 / rho) ** left > _CERTIFY_SIN:
            return None
        x = y / math.sqrt(float(y @ y))
    return None


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


def max_row_col_l2(A: WeightMatrix) -> tuple:
    """Largest row L2 norm and largest column L2 norm."""
    a = A.entries
    if a.size == 0:
        return 0.0, 0.0
    sq = a * a
    return float(np.sqrt(sq.sum(axis=1).max())), float(np.sqrt(sq.sum(axis=0).max()))
