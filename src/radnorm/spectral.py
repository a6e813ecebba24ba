"""The spectral kernel: largest singular values, the largest of each row
of a stack, and singular pairs.

Every top singular value or pair the library needs comes from here.
`top_values` takes a (..., r, c) stack and returns each matrix's largest
singular value: a vector 2-norm when a side is 1, and otherwise the
square root of the top eigenvalue of the Gram matrix on the smaller side
(numpy's `eigvalsh`).  Every matrix, vectors included, is first scaled by
a power of two so that its max |a_ij| lies in [1/2, 1): the squares
neither overflow nor underflow, the scaling adds no rounding, and a
matrix and its power-of-two multiples give `eigvalsh` the same Gram
matrix, so their values scale exactly (`eigvalsh` itself does not: on
some sign-structured Gram matrices, scaling by 2^60 moved the top
eigenvalue's low bits).  The stated tolerance is 16 eps relative to an
SVD; on Gaussian, +-1, Cauchy, graded, nearly-rank-1, rectangular and
1e+-300-scaled stacks of sides 2 to 254 the worst measured error was
7.7 eps.  The stack is solved
_GRAM_SLICE elements (1 MB) at a time, so each matrix's value depends on
that matrix alone (Monte Carlo output stays byte-identical for any thread
count) and the kernel's extra memory per call is about one slice's worth
of Gram matrices, scaled copy and eigenvalues, next to the sampler's
_REALIZE_BUDGET of 2^18 elements (2 MB) per block.  Measured on a
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
hold a row's maximum.  Its slices hold two rows at least, and a lone last
row joins the slice before it, so blocks past _GRAM_SLICE elements still
reach `eigvalsh` two a call.  A one-matrix call does not run in parallel
with another thread's: on a 2-core box with OPENBLAS_NUM_THREADS=1, 16
Gram matrices (best of 5, two runs), two threads ran 0.83-0.95x as fast
as one at side 253 and 0.87-0.94x at side 400 with one matrix a call, and
1.85-1.92x and 1.26-1.94x as fast with two.  Each block's sigma is bracketed
from its scaled Gram matrix G by sqrt(tr G^5 / tr G^4) <= sigma <= (tr
G^8)^(1/16), and a block whose upper bound falls below max(floor, best
lower bound in its row) by more than _PRUNE_MARGIN (1e-9 relative) is
skipped; the kept ones go through the same eigensolve as `top_values`.
Groups of one block per row (dense inputs) and vector shapes skip the
bracket.  On `verify union_complete_regimes` (--n-cap 1024, 200 samples)
the share of blocks eigensolved is 50% of the 3x3 blocks of d = 2 (half of
their sign patterns have norm 2, every row's maximum, and ties are kept),
3.4% at d = 3 and 0.8-1.9% at d = 4 to 8; the d = 1 blocks are 1x1 and
never reach the kernel.  In the Rademacher modes a block's largest |w_ij
eps_ij| is its largest |w_ij|, so its power-of-two shift is known before
any sample is drawn: the sampler's plan scales the weights once and passes
the shifts, and `top_value_max` skips the per-matrix max/min scan and the
scaled copy.  Multiplying by +-1 is exact and ldexp rounds w and -w alike,
so every Gram matrix keeps its bits, subnormal corners included.  Gaussian
blocks are scaled here, per sample.

Every Gram product (`_gram`) multiplies by a contiguous copy of the
transpose while both sides are at most CONTIGUOUS_T_MAX = 11, and by the
transposed view beyond: on the view numpy takes another product routine,
about twice as slow on tiny matrices (68,200 3x3 matrices: 19.5 ->
9.7 ms, 2-core box, OPENBLAS_NUM_THREADS=1, best of 7).  Up to side 11
the copy gave the same bits at every shape; at sides 12 to 16 it moved
low bits of some products, and a gate at 16 changed 10 golden outputs.

`top_pair` returns (sigma, u, v) for each matrix of an (S, r, c) stack.
Up to side FULL_DECOMPOSITION_MAX it is the full SVD's pair, or with
`gram=True` the Gram route's: the top eigenvector of the same
power-of-two scaled Gram matrix `top_values` uses, and the other side from
one product with the scaled matrix.  The Gram pair agrees with the SVD
pair up to a joint sign and rounding (sigma within 16 eps, each vector
within 256 eps / relative gap on gapped stacks; 43 eps / gap was the worst
of 20,000 measured).  Beyond FULL_DECOMPOSITION_MAX both take a fixed
number of power steps on A^T A from a fixed ramped start (`power_pair`),
so the pair is then a lower estimate, never a certified value.  A caller
that wants a cheap pair of one matrix calls `power_pair` with its own step
count: the k-sweep's greedy chain and enumerated rows take 6 steps.
Measured on a 2-core box with OPENBLAS_NUM_THREADS=1,
best of 21 interleaved calls on Gaussian matrices, SVD pair -> Gram pair
with `eigh` at every side:

    120 of 15x15   7.59 -> 4.92 ms        1 of 128x128   3.11 -> 1.82 ms
      1 of 16x16   0.09 -> 0.10 ms        1 of 256x256  14.96 -> 8.04 ms
      1 of 64x64   0.91 -> 0.66 ms

The surrogate ascent's weighted Gram matrices are nearly rank one (over
the 477 of the `sparse_gauss_n128` profile, lambda_2 / lambda_1 had median
5.1e-5, upper quartile 0.091 and 90th percentile 0.21), so from Gram side
POWER_PAIR_MIN the Gram route first takes power steps on the whole stack
at once (`_certified_top`) and keeps a matrix's vector only when a
Davis-Kahan bound certifies it: sin(angle to the top eigenvector) <=
||G x - rho x|| / (rho - lambda_2^+) <= 64 eps, with rho = x^T G x and
lambda_2^+ = sqrt(||G||_F^2 - rho^2 + slack) >= lambda_2.  A matrix that
does not certify within _CERTIFY_STEPS steps, or whose bound shows it
cannot, is solved by `eigh`; a zero matrix or a tied top never certifies.
A matrix leaves the stepped stack when it accepts or gives up, and every
step acts on each matrix alone, so its pair keeps the bits of a call on it
alone.  The surrogate ascent (`bounds._ascent`) feeds the route batches of
at most `bounds._ASCENT_BUDGET` elements holding every seed of a stack:
the exact k-sweep rows of an n <= 16 profile give stacks of 100 to 230
matrices, greedy rows and `r_logn` give a few.  On the stacks the batched
ascent handed `_gram_pair` in 15 general-weight corpus profiles (n = 16 to
128; the n = 16 ones at the default and at --exact-threshold 150), up to
120 calls per row timed, best of 5 interleaved calls each on a 2-core box
with OPENBLAS_NUM_THREADS=1, per matrix, `eigh` -> certified steps with
the `eigh` fallback:

    side     matrices/call  certified   eigh      route
     12          227           83%     0.013   0.008 ms   (1.63x)
     14-16       138           79%     0.020   0.015 ms   (1.35x)
      8            5.7         93%     0.031   0.120 ms   (0.26x)
     12           12.6         84%     0.030   0.066 ms   (0.45x)
     14-16         5.9         83%     0.053   0.113 ms   (0.46x)
     20-24         5.6         89%     0.075   0.121 ms   (0.62x)
     28-32         5.9         85%     0.080   0.086 ms   (0.93x)
     36-40         5.7         78%     0.136   0.112 ms   (1.21x)
     44-48         6.0         90%     0.197   0.124 ms   (1.59x)
     56-64         5.7         88%     0.322   0.167 ms   (1.92x)
     96            2.0         92%     1.018   0.444 ms   (2.29x)
    112-128        1.6         89%     1.778   0.558 ms   (3.18x)

A step costs about 25 numpy calls however few matrices it holds, so the
steps lose on a few small matrices and win on large stacks or large
sides.  The gate is a side, never a stack size: a matrix's pair must not
depend on the stack it sits in.  Summing every `_gram_pair` call's time
per gate: the benchmark's n = 16 profiles (--exact-threshold 150) took
200, 192, 184 and 261 ms at gates 8, 12, 14 and 16 or more; the default
n = 16 profiles, whose k = 4 row keeps 1,820 12x12 submatrices, 1976,
1968 and 3079-3161 ms at gates 8, 12 and 14 or more; six profiles of
n = 24 to 48 335-344 ms at gates 8 to 16 and 277 ms at 36.  So
POWER_PAIR_MIN is 12: the exact k-sweep rows from side 12 on take the
steps, at the cost of the few-matrix stacks at sides 12 to 32.

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
Power steps live in `power_pair` alone; `spectral_norm` is `top_values` at
every side.  Choosing a different method per shape is a change to this
module only.

`pow2_scaled` is the library's one exponent chooser: every power-of-two
scale, one exponent per array, comes from it.  `top_values` (both
routes), `top_value_max` and the Gram pair scale through it; so do the
sampler's plan for its Rademacher blocks, its mean and its exact-expectation
sum, the circulant family's self-check, and the profile engine
(`bounds.bound_profile`, `r_heuristic` and `ksweep_term` each work on their
input at unit scale and scale their values back).  `frexp` appears in this
module alone (`tests/test_structure.py`).

The brute-force oracles in `oracles` keep a plain SVD of their own on
purpose (`oracles.top_singular_value`): they are the independent route
the kernel is tested against.
"""

from __future__ import annotations

import numpy as np

from .core import WeightMatrix

#: Side length up to which the full decomposition is used.
FULL_DECOMPOSITION_MAX = 512

#: Power steps `top_pair` takes beyond FULL_DECOMPOSITION_MAX.
_PAIR_STEPS = 40

#: Smallest Gram side at which `_gram_pair` tries certified power steps
#: before `eigh`: measured on the batched ascent's stacks (see the module
#: docstring).
POWER_PAIR_MIN = 12

#: Power steps `_certified_top` takes at most on one Gram matrix.
_CERTIFY_STEPS = 24

#: The bound on sin(angle to the top eigenvector) `_certified_top` accepts.
_CERTIFY_SIN = 64 * np.finfo(float).eps

#: Largest side at which `_gram` multiplies by a contiguous copy of the
#: transpose, not the transposed view: up to it the copy is faster and
#: keeps the bits (see the module docstring).
CONTIGUOUS_T_MAX = 11

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
    scaled, shift = pow2_scaled(stack.reshape(-1, r * c))
    with np.errstate(under="ignore"):
        out = np.ldexp(np.sqrt((scaled * scaled).sum(axis=1)), shift)
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


def pow2_scaled(stack: np.ndarray) -> tuple:
    """(scaled, shift) of a stack of S arrays: each array times 2^-shift,
    shift (S,) chosen so that its max |a_ij| lies in [1/2, 1) (a zero array
    keeps shift 0).

    The scaling is exact, so the squares of the scaled entries neither
    overflow nor lose bits and an array and its power-of-two multiples
    scale to the same bits; squares of entries far below an array's max
    can still underflow, which changes its norm by far less than an ulp.
    """
    flat = stack.reshape(len(stack), -1)
    shift = np.frexp(np.maximum(flat.max(axis=1), -flat.min(axis=1)))[1]
    return np.ldexp(stack, -shift.reshape((-1,) + (1,) * (stack.ndim - 1))), shift


def _scaled_gram(a: np.ndarray) -> tuple:
    """(gram, shift) of an (S, r, c) stack: the Gram matrix on the smaller
    side (`_gram`) of each matrix scaled by `pow2_scaled`, so a matrix and
    its power-of-two multiples give eigvalsh the same Gram matrix (eigvalsh
    itself is not exactly power-of-two equivariant)."""
    scaled, shift = pow2_scaled(a)
    return _gram(scaled), shift


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
    (`_scaled_gram`).  Per _GRAM_SLICE elements (two rows at least, and a
    lone last row joins the slice before), each matrix's sigma =
    sqrt(lambda_max(G)) is bracketed from its scaled Gram matrix G by

        sqrt(<G^4, G> / <G^2, G^2>)  <=  sigma  <=  <G^4, G^4>^(1/16),

    that is sqrt(tr G^5 / tr G^4) (a lambda^4-weighted mean of the
    eigenvalues) and (tr G^8)^(1/16); a zero matrix gets 0 for both.  A
    row's threshold is max(floor, its best lower bound), and only matrices
    whose upper bound reaches threshold * (1 - _PRUNE_MARGIN) are
    eigensolved, by the same `_gram_eig_top` as `top_values`, so every
    value that can be the maximum has the bits it has there.  Groups of one
    matrix per row solve every matrix without the bracket, and vector
    shapes go straight to `top_values`.  Without `shift`, a matrix holding
    inf or NaN gets the value inf and never reaches `eigvalsh`.
    """
    m, g, r, c = stack.shape
    if r == 1 or c == 1:
        return np.maximum(floor, top_values(stack).max(axis=1))
    out = np.empty(m)
    # two rows a slice at least, and a lone last row joins the slice before:
    # a one-matrix eigvalsh call does not overlap with another thread's
    step = max(2, _GRAM_SLICE // (g * r * c))
    edges = [*range(0, max(m - 1, 1), step), m]
    # a value past the float range comes out inf
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        for lo, hi in zip(edges, edges[1:]):
            a = stack[lo:hi].reshape(-1, r, c)
            rows = a.shape[0] // g
            if shift is None:
                gram, sh = _scaled_gram(a)
                # an inf entry (a Gaussian product past the float range)
                # leaves a non-finite Gram matrix: it is solved as zero,
                # so eigvalsh never sees it, and its value set to inf
                big = ~np.isfinite(gram).all(axis=(1, 2))
                gram[big] = 0.0
            else:
                gram, sh, big = _gram(a), np.tile(shift, rows), None
            if g == 1:
                vals = _gram_eig_top(gram, sh)
            else:
                lower, upper = (b.reshape(rows, g) for b in _bracket(gram, sh))
                cut = np.maximum(floor[lo:hi], lower.max(axis=1))
                # NaN in a bound or threshold keeps the matrix
                keep = ~(upper < (cut * (1.0 - _PRUNE_MARGIN))[:, None]).ravel()
                vals = np.zeros(rows * g)
                vals[keep] = _gram_eig_top(gram[keep], sh[keep])
            if big is not None:
                vals[big] = np.inf
            out[lo:hi] = np.maximum(floor[lo:hi], vals.reshape(rows, g).max(axis=1))
    return out


def top_pair(stack: np.ndarray, gram: bool = False) -> tuple:
    """(sigma, u, v): the top singular value and unit singular vectors of
    each matrix of an (S, r, c) stack, sigma (S,), u (S, r) and v (S, c),
    each matrix's pair bit for bit equal to that of a stack of it alone.

    Up to side FULL_DECOMPOSITION_MAX the pair is the full SVD's, or with
    `gram` the Gram route's (`_gram_pair`: the top eigenvector of the
    smaller side's Gram matrix, from certified power steps or `eigh`, and
    one product for the other side), which is cheaper and agrees with the
    SVD pair up to a joint sign and rounding: sigma within 16 eps, each
    vector within 256 eps / relative gap of the top two squared values.
    Beyond that side both take _PAIR_STEPS power steps on each matrix with
    no convergence test (`power_pair`): sigma is then a lower estimate,
    never a certified value.  sigma is 0 only for a zero matrix, and every
    route gives it u = 0 and v = `_start_vector`.  The SVD route serves
    only the surrogate ascent's exactly symmetric inputs
    (`bounds._ascent_pair`).
    """
    if max(stack.shape[1:]) > FULL_DECOMPOSITION_MAX:
        # one matrix at a time costs nothing next to the matrix products
        sigma, u, v = zip(*(power_pair(m, _PAIR_STEPS) for m in stack))
        return np.array(sigma), np.stack(u), np.stack(v)
    if gram:
        sigma, u, v = _gram_pair(stack)
    else:
        u, sv, vt = np.linalg.svd(stack)
        sigma, u, v = sv[:, 0].copy(), u[:, :, 0].copy(), vt[:, 0, :].copy()
    zero = sigma == 0.0
    if zero.any():
        u[zero] = 0.0
        v[zero] = _start_vector(stack.shape[2])
    return sigma, u, v


def _gram_pair(a: np.ndarray) -> tuple:
    """(sigma, u, v) of each matrix of an (S, r, c) stack: the top
    eigenvector of the Gram matrix on the smaller side of the power-of-two
    scaled matrix (`pow2_scaled`), the other side from one product with
    that scaled matrix, and sigma the norm of that product, scaled back.
    From Gram side POWER_PAIR_MIN the stack first takes certified power
    steps (`_certified_top`); the matrices they do not certify take
    `eigh`.  A zero matrix gives sigma 0 (the caller sets its vectors)."""
    r, c = a.shape[1:]
    scaled, shift = pow2_scaled(a)
    gram = _gram(scaled)
    with np.errstate(under="ignore"):
        if gram.shape[1] >= POWER_PAIR_MIN:
            top, todo = _certified_top(gram)
        else:
            top, todo = np.empty(gram.shape[:2]), np.ones(len(gram), dtype=bool)
        if todo.any():
            top[todo] = np.linalg.eigh(gram[todo])[1][:, :, -1]
        if r < c:
            other = (top[:, None, :] @ scaled)[:, 0, :]
        else:
            other = (scaled @ top[:, :, None])[:, :, 0]
        norm = np.sqrt((other * other).sum(axis=1))
        other = other / np.where(norm > 0.0, norm, 1.0)[:, None]
        sigma = np.ldexp(norm, shift)
    return (sigma, top, other) if r < c else (sigma, other, top)


def _certified_top(gram: np.ndarray) -> tuple:
    """(top, todo) of an (S, n, n) stack of symmetric positive semidefinite
    Gram matrices: certified power steps on every matrix at once.  Where
    `todo` is False, top holds that matrix's certified top eigenvector;
    where it is True the steps could not certify one and top is unset.

    From the heaviest column x of G, normalized, each step takes y = G x,
    rho = x^T y <= lambda_1 and the residual r = ||y - rho x||.  Since
    lambda_1^2 + lambda_2^2 <= ||G||_F^2, lambda_2 <= lam2 =
    sqrt(||G||_F^2 - rho^2 + slack), the slack covering the rounding of
    both sums, and by Davis-Kahan sin(x, top eigenvector) <= r / (rho -
    lam2).  x is accepted once that bound is at most _CERTIFY_SIN.  A
    matrix gives up as soon as the bound times (lam2 / rho)^(steps left)
    still exceeds it: lam2 / rho bounds the contraction per step, so the
    bound cannot fall far enough within _CERTIFY_STEPS.  A zero matrix, or
    one whose top eigenvalue is tied or not separated from lam2, never
    certifies.  The matrices still stepping are kept in one compacted
    stack, cut down only on a step where one accepts or gives up; every
    operation acts on each matrix alone, so its result does not depend on
    the rest of the stack.
    """
    count, n = gram.shape[:2]
    top = np.empty((count, n))
    todo = np.ones(count, dtype=bool)
    col2 = (gram * gram).sum(axis=1)
    j = col2.argmax(axis=1)
    head = col2[np.arange(count), j]
    act = np.flatnonzero(head > 0.0)
    g = gram if act.size == count else gram[act]
    fro2 = col2[act].sum(axis=1)
    slack = 2 * n * np.finfo(float).eps * fro2
    x = gram[act, :, j[act]] / np.sqrt(head[act])[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for left in range(_CERTIFY_STEPS - 1, -1, -1):
            if not act.size:
                break
            y = (g @ x[:, :, None])[:, :, 0]
            rho = (x[:, None, :] @ y[:, :, None])[:, 0, 0]
            res = y - rho[:, None] * x
            r = np.sqrt((res[:, None, :] @ res[:, :, None])[:, 0, 0])
            lam2 = np.sqrt(np.maximum(fro2 - rho * rho, 0.0) + slack)
            gap = rho - lam2
            accept = (gap > 0.0) & (r <= _CERTIFY_SIN * gap)
            stop = accept | (gap <= 0.0) | (r / gap * (lam2 / rho) ** left > _CERTIFY_SIN)
            if stop.any():
                top[act[accept]] = x[accept]
                todo[act[accept]] = False
                go = ~stop
                act, g, y, fro2, slack = act[go], g[go], y[go], fro2[go], slack[go]
            x = y / np.sqrt((y[:, None, :] @ y[:, :, None])[:, 0])
    return top, todo


def power_pair(a: np.ndarray, steps: int) -> tuple:
    """(sigma, u, v) of one (r, c) matrix: exactly `steps` power steps on
    A^T A from _start_vector, then sigma = ||a v|| and u = a v / sigma.

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
