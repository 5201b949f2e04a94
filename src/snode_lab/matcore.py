"""Dense complex-matrix kernel: Hermitian checks, Cholesky (of one matrix and
of every leading block at once), square roots, determinants, norms,
products of constant matrices with a stack, block assembly.

All helpers operate on plain ``numpy`` arrays of complex dtype and never
mutate their inputs.  Sizes in this library stay below ~64, so everything
favours determinism and clarity over asymptotic speed.  The Hermitian,
Cholesky, inverse, square-root and spectral-norm helpers take one matrix
or a stack of them along the first axis, treat each matrix on its own (so
a stack's values are bitwise those of one call per matrix), and name the
first matrix of a stack that fails a guard.  The Cholesky, square-root and
inverse helpers check their input once (finite, square, Hermitian within
:func:`default_tol`) before they factor it.  At p <= 2 the adjugate, the
extreme singular values, the extreme Hermitian eigenvalues and the inverse,
square root and inverse square root of a Hermitian positive-definite
matrix (:func:`hpd_powers`) are closed forms over a stack, with no LAPACK
call.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidToleranceScale,
    NonFiniteEntries,
    NotHermitian,
    NotPositiveDefinite,
)


def tolerance_scale() -> float:
    """Global tolerance multiplier, read from the SNODELAB_TOL env var (default 1);
    raises :class:`InvalidToleranceScale` unless it is a finite number > 0."""
    raw = os.environ.get("SNODELAB_TOL", "1")
    try:
        scale = float(raw)
    except ValueError:
        scale = np.nan
    if not 0.0 < scale < np.inf:
        raise InvalidToleranceScale(f"SNODELAB_TOL={raw!r} is not a finite number > 0")
    return scale


def as_points(z_or_zs) -> np.ndarray:
    """A scalar or a 1-d array of points as a 1-d complex array (a scalar is
    one point).  Batched evaluators return ``out if np.ndim(z_or_zs) else
    out[0]``: a stack of matrices for an array, one matrix for a scalar."""
    zs = np.asarray(z_or_zs, dtype=complex)
    if zs.ndim > 1:
        raise DimensionMismatch(f"expected a scalar or a 1-d array of points, got shape {zs.shape}")
    return zs.reshape(-1)


# Batched evaluators work on at most this many points at a time, so their
# intermediate stacks stay bounded however long the array of points is.
CHUNK = 2048


def in_chunks(fn, points: np.ndarray, width: int = 1) -> np.ndarray:
    """``fn(points)`` for a 1-d array of points, evaluated on consecutive
    chunks and written into one preallocated output.  ``fn`` stacks
    ``width`` items per point (say one per chain of a batch), so a chunk
    takes ``max(1, CHUNK // width)`` points and at most :data:`CHUNK` items
    are alive at once; up to that many points it is the single call
    ``fn(points)``.

    ``fn`` must be pointwise (row k of its output depends on point k alone),
    as every batched evaluator here is: each LAPACK call in a stack, and each
    :func:`sandwich` product, treats its matrix on its own, so the values are
    bitwise those of one call.  The chunks run in order, so a guard names
    the first offending point.
    """
    step = max(1, CHUNK // width)
    if points.size <= step:
        return fn(points)
    first = fn(points[:step])
    out = np.empty((points.size, *first.shape[1:]), dtype=first.dtype)
    out[:step] = first
    del first
    for start in range(step, points.size, step):
        out[start : start + step] = fn(points[start : start + step])
    return out


def sandwich(A, stack, B) -> np.ndarray:
    """(A @ stack[k]) @ B for every matrix of a stack (any leading shape, or
    one matrix) as two 2-d matrix products, where numpy's stacked ``@`` makes
    one BLAS call per matrix; a factor of None is left out.  A factor may
    also be a batch: a stack of one matrix per entry of the stack's first
    axis, each applied to its own entry by two 2-d products of its own.

    The left product is taken transposed, stack[k]^T A^T, so that the
    matrices of the stack run down the rows of both products: a matrix's
    value then does not depend on its place in the stack, on the stack's
    size or on the batch, as :func:`in_chunks` requires.  That holds for
    a stack of one row too, such as one point's p x 2p rows at p = 1,
    which goes in as two rows.
    """
    stack = np.asarray(stack)
    lead, (r, c) = stack.shape[:-2], stack.shape[-2:]
    if (A is not None and A.ndim == 3) or (B is not None and B.ndim == 3):
        batch, size = lead[0], math.prod(lead[1:])
    else:
        batch, size = 1, math.prod(lead)
    X = stack.reshape(batch, size, r, c)
    if A is not None:
        X = _gemm(X.transpose(0, 1, 3, 2).reshape(batch, size * c, r), A.swapaxes(-1, -2))
        X = X.reshape(batch, size, c, A.shape[-2]).transpose(0, 1, 3, 2)
    if B is not None:
        rows = X.shape[2]
        X = _gemm(X.reshape(batch, size * rows, X.shape[3]), B).reshape(batch, size, rows, B.shape[-1])
    return X.reshape(*lead, *X.shape[2:])


def _gemm(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X @ B for a (batch, m, k) stack X, by BLAS's matrix product at every
    m: numpy takes a product with one row to a vector kernel, whose
    rounding differs, so one row goes in twice."""
    if X.shape[1] == 1:
        return (np.concatenate((X, X), axis=1) @ B)[:, :1]
    return X @ B


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-d complex array; raises :class:`NonFiniteEntries` for an
    entry that is not finite."""
    out = np.asarray(M, dtype=complex)
    if out.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise NonFiniteEntries("matrix entries must be finite")
    return out


def as_matrix_or_stack(M) -> np.ndarray:
    """A matrix or a stack of matrices as a complex array with finite entries;
    raises :class:`NonFiniteEntries` naming the first matrix that has another."""
    out = np.asarray(M, dtype=complex)
    if out.ndim not in (2, 3):
        raise DimensionMismatch(f"expected a matrix or a stack of matrices, got shape {out.shape}")
    if not np.isfinite(out).all():
        _, where = first_failure(~np.isfinite(out).all(axis=(-2, -1)))
        raise NonFiniteEntries(f"{where}matrix entries must be finite")
    return out


def first_failure(flags: np.ndarray) -> tuple[int | None, str]:
    """The first matrix flagged in ``flags`` (a boolean array with one flag
    per matrix: 0-d for one matrix, 1-d for a stack) or None, and an
    error-message prefix naming it in a stack ('' for one matrix)."""
    if not flags.any():
        return None, ""
    k = int(np.flatnonzero(flags)[0])
    return k, (f"matrix {k} of the stack: " if flags.ndim else "")


def _conj_t(M: np.ndarray) -> np.ndarray:
    """M* of every matrix of a matrix or a stack."""
    return M.conj().swapaxes(-1, -2)


def default_tol(M):
    """Default Hermitian tolerance 1e-10 * (1 + max|entry|), times the global
    scale; one per matrix of a stack.

    Inputs in this library come from exact formulas, so deviations beyond
    this indicate bugs rather than conditioning.
    """
    return _tol_of_peak(_peaks(np.asarray(M)))


def _peaks(M: np.ndarray):
    """The largest entry modulus of every matrix of a matrix or a stack."""
    return np.abs(M).max(axis=(-2, -1), initial=0.0)


def _tol_of_peak(peak):
    return 1e-10 * (1.0 + peak) * tolerance_scale()


def assert_hermitian(M, tol: float | None = None, names=None) -> np.ndarray:
    """Raise :class:`NotHermitian` unless max|M - M*| <= tol entrywise, for
    every matrix of a stack; the error names the first matrix that fails,
    by its entry of ``names`` when given.  Returns M as the complex array
    checked: finite (:func:`as_matrix_or_stack`), square, and Hermitian
    within ``tol``, the :func:`default_tol` when None."""
    M = as_matrix_or_stack(M)
    return _assert_hermitian(M, _tol_of_peak(_peaks(M)) if tol is None else tol, names)


def _assert_hermitian(M: np.ndarray, tol, names=None) -> np.ndarray:
    """:func:`assert_hermitian` of a finite matrix or stack M, with its tolerance."""
    if M.shape[-2] != M.shape[-1]:
        raise DimensionMismatch(f"square matrix required, got shape {M.shape}")
    dev = np.abs(M - _conj_t(M)).max(axis=(-2, -1), initial=0.0)  # max |M - M*| per matrix
    k, where = first_failure(dev > tol)
    if k is not None:
        worst = float(np.ravel(dev)[k])
        what = f"{where}matrix" if names is None else names[k]
        raise NotHermitian(worst, f"{what} is not Hermitian (max deviation {worst:.3e})")
    return M


def as_block_stack(blocks, p: int, count: int, what: str) -> np.ndarray:
    """``count`` p x p blocks as one read-only (count, p, p) complex stack
    with finite entries, from one :func:`as_matrix_or_stack` call; raises
    :class:`DimensionMismatch`, naming the blocks ``what``, unless there are
    ``count`` of them, each p x p."""
    if len(blocks) != count:
        raise DimensionMismatch(f"need {count} blocks {what}, got {len(blocks)}")
    try:
        stack = np.asarray(blocks, dtype=complex)
    except ValueError:  # blocks of unequal shapes
        stack = None
    if stack is None or stack.shape != (count, p, p):
        raise DimensionMismatch(f"every block must be {p} x {p}")
    stack = as_matrix_or_stack(stack)
    stack.setflags(write=False)
    return stack


def hermitian_part(M) -> np.ndarray:
    return _half_sum(as_matrix_or_stack(M))


def _half_sum(M: np.ndarray) -> np.ndarray:
    """(M + M*) / 2 of a checked matrix or stack."""
    return (M + _conj_t(M)) / 2.0


def frobenius(M):
    """Frobenius norm; one per matrix of a stack, bitwise that of the matrix
    alone (both sum the squared real and imaginary parts by dot products)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 3:
        return float(np.linalg.norm(M))
    rows = M.reshape(len(M), 1, M.shape[-2] * M.shape[-1])
    re, im = rows.real, rows.imag
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


def spectral_norm(M):
    """Largest singular value, from :func:`singular_extremes`; one per matrix
    of a stack."""
    M = np.asarray(M, dtype=complex)
    return singular_extremes(M.reshape(-1, *M.shape[-2:]))[1].reshape(M.shape[:-2])[()]


def singular_extremes(stack: np.ndarray):
    """``(sigma_min, sigma_max)``, (N,) arrays of the smallest and largest
    singular value of every matrix of an (N, p, p) stack.

    Above p = 2 they come from LAPACK's SVD; at p <= 2 from closed forms
    with no LAPACK call.  At p = 2 one QR step, with the longer column
    first, takes M = [[a, b], [c, d]] to a triangle [[f, g], [0, h]] with
    the same singular values:

        f = max(|(a, c)|, |(b, d)|),  g = |conj(a) b + conj(c) d| / f,
        h = |ad - bc| / f,

    whose singular values are those of LAPACK's dlas2 (Demmel & Kahan,
    SIAM J. Sci. Stat. Comput. 11, 1990), with hypot doing its scaling:

        sigma_max = (hypot(f + h, g) + hypot(f - h, g)) / 2,
        sigma_min = f h / sigma_max.

    Neither subtracts, so on the triangle both are accurate to a few eps
    relative; forming g and h adds a few eps sigma_max, so sigma_min is
    accurate to a few eps sigma_max, as LAPACK's is.  The textbook
    ``sigma^2 = (s +- sqrt(s^2 - 4 |det|^2)) / 2`` (s the squared Frobenius
    norm) loses half the digits of both where they are close: a scaled
    unitary reads 1 + 1e-8.
    """
    p = stack.shape[-1]
    if stack.shape[-2] != p:
        raise DimensionMismatch(f"square matrices required, got shape {stack.shape}")
    if p > 2:
        sv = np.linalg.svd(stack, compute_uv=False)
        return sv[:, -1], sv[:, 0]
    if p == 1:
        sv = np.abs(stack[:, 0, 0])
        return sv, sv
    a, b, c, d = stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0], stack[:, 1, 1]
    f = np.maximum(np.hypot(np.abs(a), np.abs(c)), np.hypot(np.abs(b), np.abs(d)))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.abs(np.conj(a) * b + np.conj(c) * d) / f
        h = np.abs(a * d - b * c) / f
        smax = (np.hypot(f + h, g) + np.hypot(f - h, g)) / 2.0
        smin = f / smax * h
    zero = f == 0.0  # the zero matrix
    return np.where(zero, 0.0, smin), np.where(zero, 0.0, smax)


def hermitian_extremes(stack: np.ndarray):
    """``(lambda_min, lambda_max)``, (N,) arrays of the smallest and largest
    eigenvalue of every matrix of an (N, p, p) stack of Hermitian matrices,
    read from the diagonal and the lower triangle as ``eigvalsh`` reads
    them.

    Above p = 2 they come from LAPACK's ``eigvalsh``; at p <= 2 from the
    closed form ``(a + d)/2 -+ hypot((a - d)/2, |c|)`` of [[a, *], [c, d]],
    with no LAPACK call: each is accurate to a few eps max |lambda|.
    """
    p = stack.shape[-1]
    if p > 2:
        w = np.linalg.eigvalsh(stack)
        return w[:, 0], w[:, -1]
    a = stack[:, 0, 0].real
    if p == 1:
        return a, a
    d = stack[:, 1, 1].real
    mean = a / 2.0 + d / 2.0
    radius = np.hypot(a / 2.0 - d / 2.0, np.abs(stack[:, 1, 0]))
    return mean - radius, mean + radius


def min_eig_hermitian(M):
    """Smallest eigenvalue of a (numerically) Hermitian matrix; one per matrix
    of a stack."""
    w = np.linalg.eigvalsh(hermitian_part(M))[..., 0]
    return float(w) if w.ndim == 0 else w


def adjugate(stack: np.ndarray):
    """``(adj, det)`` of every matrix M of an (N, p, p) stack at p <= 2,
    entry by entry, with M^{-1} = adj / det: ``adj[i][j]`` is an (N,) array
    (the number 1 at p = 1) and ``det`` the (N,) array M at p = 1 and
    ad - bc at p = 2.  No LAPACK call; for 2 x 2 matrices this explicit
    inverse is forward stable (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed. 2002, sec. 1.10.1)."""
    if stack.shape[-1] == 1:
        return [[1.0]], stack[:, 0, 0]
    a, b, c, d = stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0], stack[:, 1, 1]
    return [[d, -b], [-c, a]], a * d - b * c


def power_of_two_scale(stack: np.ndarray) -> np.ndarray:
    """Powers of two s, one per matrix of an (N, m, n) stack, that bring the
    largest entry modulus of ``s[k] * stack[k]`` into [1/2, 1) (s = 1 for a
    zero matrix, and at most 2**1023).

    Multiplying by a power of two is exact, so a formula homogeneous of
    degree k in the entries, evaluated on ``s * stack`` and multiplied by
    ``s**-k``, gives bitwise its direct value wherever nothing overflows or
    underflows, and a finite value where only the direct one overflows.
    """
    peak = reduce(np.maximum, np.abs(stack).reshape(len(stack), -1).T)
    return np.ldexp(1.0, -np.maximum(np.frexp(peak)[1], -1023))


def entries(stack: np.ndarray) -> list:
    """The entries of an (N, m, n) stack as nested lists of (N,) arrays:
    ``entries(stack)[i][j]`` is ``stack[:, i, j]``."""
    return [[stack[:, i, j] for j in range(stack.shape[2])] for i in range(stack.shape[1])]


def from_entries(rows, size: int) -> np.ndarray:
    """The (size, m, n) complex stack whose entry (i, j) is ``rows[i][j]``,
    an (size,) array or a number."""
    out = np.empty((size, len(rows), len(rows[0])), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[:, i, j] = entry
    return out


def entry_adjoint(A) -> list:
    """The conjugate transpose of A, given by its entries (nested lists; an
    entry is an array over the points or a number)."""
    return [[np.conj(row[j]) for row in A] for j in range(len(A[0]))]


def entry_product(A, B) -> list:
    """The matrix product of A and B, each given by its entries (nested
    lists or a 2-d array; an entry is an array over the points or a number):
    entry (i, j) is ``A[i][0] B[0][j] + A[i][1] B[1][j] + ...``, added left
    to right."""
    inner = range(len(B))
    return [[_dot(row, [B[k][j] for k in inner]) for j in range(len(B[0]))] for row in A]


def _dot(xs, ys):
    """xs[0] ys[0] + xs[1] ys[1] + ..., added left to right; one term is
    returned as it is."""
    return reduce(operator.add, map(operator.mul, xs, ys))


@dataclass(frozen=True)
class HermPD:
    """A Hermitian positive-definite matrix, or a stack of them, together with
    its Cholesky factor.

    ``factor`` is lower triangular with ``factor @ factor* = matrix``.
    """

    matrix: np.ndarray
    factor: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[-1]

    def det(self):
        """Determinant; one per matrix of a stack."""
        # product of squared pivots; never cofactor expansion
        return np.prod(np.abs(np.diagonal(self.factor, axis1=-2, axis2=-1)) ** 2, axis=-1)

    def solve(self, rhs) -> np.ndarray:
        """matrix^{-1} rhs by two triangular solves."""
        rhs = np.asarray(rhs, dtype=complex)
        y = np.linalg.solve(self.factor, rhs)
        return np.linalg.solve(_conj_t(self.factor), y)

    def inv(self) -> np.ndarray:
        # one identity per matrix: numpy < 2 reads an (n, n) right-hand side
        # against an (n, n, n) stack as n vectors, not as one matrix
        return self.solve(np.broadcast_to(np.eye(self.n), self.matrix.shape))


def cholesky_pd(M) -> HermPD:
    """Factor a Hermitian positive-definite matrix or a stack of them.

    Raises :class:`NotHermitian` when M deviates from M* beyond the
    :func:`default_tol` and :class:`NotPositiveDefinite` when a pivot fails.
    """
    return _cholesky(_half_sum(assert_hermitian(M)))


def _cholesky(H: np.ndarray) -> HermPD:
    """:func:`cholesky_pd` of a checked Hermitian part H."""
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        # a stacked call does not say which matrix failed: find the first
        _, where = first_failure(np.array([_cholesky_fails(h) for h in H] if H.ndim == 3 else True))
        raise NotPositiveDefinite(where + (str(exc) or "cholesky pivot failed")) from exc
    return HermPD(matrix=H, factor=L)


def _cholesky_fails(H: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return True
    return False


def first_failing_order(H: np.ndarray, p: int) -> int | None:
    """The first order k whose leading block H[:kp, :kp] of a Hermitian H
    has no Cholesky factor, or None; one factorization per order tried."""
    return next((k for k in range(1, H.shape[0] // p + 1) if _cholesky_fails(H[: k * p, : k * p])), None)


def diagonal_inverses(L: np.ndarray, p: int) -> np.ndarray:
    """The (n, p, p) stack of the inverses of the p x p diagonal blocks of
    an np x np matrix L, from one batched inverse."""
    n = L.shape[0] // p
    diag = np.arange(n)
    return np.linalg.inv(L.reshape(n, p, n, p)[diag, :, diag])


def block_forward(L: np.ndarray, Dinv: np.ndarray, B) -> np.ndarray:
    """L^{-1} B for a lower-triangular L whose p x p diagonal blocks have the
    inverses ``Dinv`` (see :func:`diagonal_inverses`), by block forward
    substitution X_k = L_kk^{-1} (B_k - L_{k,<k} X_{<k}): forward stable
    whatever the conditioning of L L* (Higham 2002, ch. 8), where a pivoted
    solve with L is not.  Block row k of X reads only the leading k + 1
    block rows of L and B, by the same products, so the leading block rows
    of X are bitwise those of the substitution with the leading blocks of L
    and B."""
    n, p = Dinv.shape[:2]
    X = np.empty(np.shape(B), dtype=complex)
    # block views: row k of each is block row k of L, B and X
    L_rows, B_rows, X_rows = (np.reshape(M, (n, p, -1)) for M in (L, B, X))
    X_rows[0] = Dinv[0] @ B_rows[0]
    for k in range(1, n):
        X_rows[k] = Dinv[k] @ (B_rows[k] - L_rows[k, :, : k * p] @ X[: k * p])
    return X


def leading_chain(L: np.ndarray, Dinv: np.ndarray, Pi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-order data (t, rows, G) of every leading block S(k) = S[:kp, :kp],
    read off the Cholesky factor S = L L*, whose leading blocks factor every
    S(k), and the (n, p, p) inverses ``Dinv`` of its diagonal blocks (see
    :func:`diagonal_inverses`), as read-only stacks: t (n, p, p), rows and
    G (n, p, 2p).  For k = 1..n: t_k = (L_kk L_kk*)^{-1} is the
    bottom-right block of S(k)^{-1}; G_k is the k-th block row of L^{-1} Pi,
    by :func:`block_forward`; row_k = L_kk^{-*} G_k is the bottom block row
    of S(k)^{-1} Pi(k), so row_k* t_k^{-1} row_k = G_k* G_k.
    """
    n, p = Dinv.shape[:2]
    G = block_forward(L, Dinv, Pi).reshape(n, p, -1)
    Dinv_h = _conj_t(Dinv)
    out = hermitian_part(Dinv_h @ Dinv), Dinv_h @ G, G
    for stack in out:
        stack.setflags(write=False)
    return out


def sqrtm_hpd(M) -> np.ndarray:
    """Hermitian square root R > 0 with R @ R = M, for Hermitian M > 0 or a
    stack of them: :func:`hpd_powers` at 1/2, so closed forms at p <= 2 and
    an eigendecomposition above."""
    return hpd_powers(M, (0.5,))[0]


def sqrtm_psd(M) -> np.ndarray:
    """Hermitian square root of a positive SEMI-definite matrix.

    Eigenvalues in [-tol, 0), tol the :func:`default_tol`, are clipped to
    zero; anything below -tol raises :class:`NotPositiveDefinite`.
    """
    M = as_matrix(M)
    tol = default_tol(M)
    w, V = np.linalg.eigh(_half_sum(assert_hermitian(M, tol)))
    if w.size and w[0] < -tol:
        raise NotPositiveDefinite(f"smallest eigenvalue {w[0]:.3e} below -tol")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.conj().T


def inv_hpd(M) -> np.ndarray:
    """Inverse of a Hermitian positive-definite matrix, or of each matrix of a
    stack: :func:`hpd_powers` at -1, so closed forms at p <= 2 and the
    Cholesky factor above."""
    return hpd_powers(M, (-1,))[0]


# numpy's text for a failed Cholesky pivot, which the closed forms keep
_PIVOT_FAILED = "Matrix is not positive definite"
# M^q from the eigenvalues w of M, above p = 2
_EIG_POWERS = {-1: np.reciprocal, 0.5: np.sqrt, -0.5: lambda w: 1.0 / np.sqrt(w)}
# the closed forms' square root, frexp, ldexp, maximum and any for one matrix's
# entries (Python numbers) and for a stack's (N,) entry arrays: both round
# every operation as IEEE arithmetic does, so they give the same bits
_SCALAR_OPS = (math.sqrt, math.frexp, math.ldexp, max, bool)
_ARRAY_OPS = (np.sqrt, np.frexp, np.ldexp, np.maximum, np.any)


def hpd_powers(M, powers) -> tuple:
    """M^q for each q of ``powers`` (each -1, 1/2 or -1/2), for a Hermitian
    positive-definite M or a stack of them, from one factorization of each
    matrix: a tuple of matrices or stacks shaped like M.  A power's value
    does not depend on the others asked for, nor on a matrix's place in a
    stack: one matrix is bitwise a stack of one.

    M is checked once (finite, square, Hermitian within :func:`default_tol`)
    and its Hermitian part is used.  A matrix that is not positive definite
    raises :class:`NotPositiveDefinite` naming the first such matrix of a
    stack: with numpy's Cholesky text for the inverse alone, as
    :func:`inv_hpd` always had, and with its smallest eigenvalue when a
    root is asked for, as :func:`sqrtm_hpd` had.

    At p <= 2 every power is a closed form (:func:`_hpd_closed_forms`),
    with no LAPACK call, on the entries of one matrix as Python numbers or
    on the (N,) entry arrays of a stack; an inverse or inverse root past the
    largest double raises :class:`NonFiniteEntries`, as the inverse always
    did.  Above, the inverse alone comes from the Cholesky factor and, with
    a root, every power from one ``eigh``.
    """
    M = as_matrix_or_stack(M)
    peak = _peaks(M)
    _assert_hermitian(M, _tol_of_peak(peak))
    n = M.shape[-1]
    roots = any(q != -1 for q in powers)
    if n > 2:
        H = _half_sum(M)
        if not roots:
            inverse = hermitian_part(_cholesky(H).inv())
            return tuple(inverse for _ in powers)
        w, V = np.linalg.eigh(H)
        k, where = first_failure(w[..., 0] <= 0.0)
        if k is not None:
            raise NotPositiveDefinite(f"{where}smallest eigenvalue {np.ravel(w[..., 0])[k]:.3e} is not positive")
        return tuple((V * _EIG_POWERS[q](w)[..., None, :]) @ _conj_t(V) for q in powers)
    if M.ndim == 2:
        bad, values = _hpd_closed_forms(M.tolist(), float(peak), powers, _SCALAR_OPS)
        if bad:
            _refuse(M[None], np.array(True), roots)
        if not all(math.isfinite(x) for xs in values for x in xs):
            raise NonFiniteEntries("matrix entries must be finite")
        if n == 1:
            return tuple(np.array([[x]], dtype=complex) for (x,) in values)
        return tuple(np.array([[x00, complex(re, -im)], [complex(re, im), x11]]) for x00, x11, re, im in values)
    with np.errstate(over="ignore"):
        bad, values = _hpd_closed_forms(entries(M), peak, powers, _ARRAY_OPS)
    if bad.any():
        _refuse(M, bad, roots)
    if n == 1:
        out = tuple(x.astype(complex).reshape(-1, 1, 1) for (x,) in values)
    else:
        out = tuple(_hermitian_stack(*xs) for xs in values)
    for q, X in zip(powers, out):
        if q != 0.5:  # a root is at most 2^512
            as_matrix_or_stack(X)
    return out


def _hermitian_stack(x00, x11, re, im) -> np.ndarray:
    """The (N, 2, 2) stack [[x00, re - i im], [re + i im, x11]] of real (N,)
    arrays x00, x11, re and im."""
    parts = np.zeros((len(x00), 8))  # the real and imaginary parts of the four entries
    parts[:, 0], parts[:, 6] = x00, x11
    parts[:, 2] = parts[:, 4] = re
    parts[:, 3], parts[:, 5] = -im, im
    return parts.view(complex).reshape(-1, 2, 2)


def _refuse(stack: np.ndarray, flags, roots: bool):
    """Raise :class:`NotPositiveDefinite` for the first matrix of an (N, p, p)
    stack flagged in ``flags`` (0-d for one matrix), in the text of
    :func:`hpd_powers`."""
    k, where = first_failure(flags)
    if not roots:
        raise NotPositiveDefinite(where + _PIVOT_FAILED)
    smallest = hermitian_extremes(_half_sum(stack[k : k + 1]))[0][0]
    raise NotPositiveDefinite(f"{where}smallest eigenvalue {smallest:.3e} is not positive")


def _hpd_closed_forms(m, peak, powers, ops):
    """The closed forms of :func:`hpd_powers` at p <= 2 on the entries
    ``m[i][j]`` of a Hermitian matrix M, Python numbers or the (N,) arrays
    of a stack (:func:`entries`), whose largest entry moduli are ``peak``;
    ``ops`` is :data:`_SCALAR_OPS` or :data:`_ARRAY_OPS`.  Returns the flags
    of the matrices that are not positive definite, and, unless one is
    flagged, for each power its entries: (x,) at p = 1, and at p = 2 the
    real diagonal x00, x11 and the real and imaginary parts of entry (1, 0),
    with entry (0, 1) its conjugate.

    At p = 1, M = [[a]] with a > 0: 1/a, sqrt(a) and 1/sqrt(a).  At p = 2
    M is first multiplied by the power of four 4^-k that brings its largest
    entry modulus into about [1/4, 1), which is exact, so that nothing
    overflows or underflows before the results are scaled back.  For the
    scaled M = [[a, conj c], [c, d]] (c the mean of entry (1, 0) and the
    conjugate of entry (0, 1)), the pivot a and det M = a d - |c|^2 =
    a (d - |c|^2 / a), a times the Schur complement, must be positive; with
    s = sqrt(det M) and t = sqrt(tr M + 2 s), since (M + s I)^2 = t^2 M,

        M^{-1} = adj M / s^2,  M^{1/2} = (M + s I) / t,
        M^{-1/2} = (adj M + s I) / (s t),  adj M = [[d, -conj c], [-c, a]]

    (Higham, *Functions of Matrices*, SIAM 2008, ch. 6), scaled back by
    4^-k, 2^k and 2^-k.  Nothing subtracts but det M, whose cancellation is
    the conditioning's, as in a Cholesky pivot.  Every operation is a real
    IEEE operation on one matrix's numbers, so a matrix's values do not
    depend on the stack it is in.
    """
    sqrt, frexp, ldexp, maximum, any_of = ops
    a = m[0][0].real
    if len(m) == 1:
        bad = a <= 0.0
        if any_of(bad):
            return bad, ()
        forms = {-1: lambda: (1.0 / a,), 0.5: lambda: (sqrt(a),), -0.5: lambda: (1.0 / sqrt(a),)}
        return bad, tuple(forms[q]() for q in powers)
    # peak = mu^2 4^k with mu in [1/2, 1); 4^-k is at most 2^1022
    r = ldexp(1.0, maximum(frexp(sqrt(peak))[1], -511))  # 2^k
    f = 1.0 / (r * r)  # 4^-k
    c = (m[1][0] + m[0][1].conjugate()) / 2.0
    a, d, re, im = a * f, m[1][1].real * f, c.real * f, c.imag * f
    det = a * d - (re * re + im * im)
    bad = (a <= 0.0) | (det <= 0.0)
    if any_of(bad):
        return bad, ()
    values = {}
    if -1 in powers:
        values[-1] = (d / det * f, a / det * f, -re / det * f, -im / det * f)
    if 0.5 in powers or -0.5 in powers:
        s = sqrt(det)
        t = sqrt(a + d + 2.0 * s)
        if 0.5 in powers:
            values[0.5] = ((a + s) / t * r, (d + s) / t * r, re / t * r, im / t * r)
        if -0.5 in powers:
            st = s * t
            values[-0.5] = ((d + s) / st / r, (a + s) / st / r, -re / st / r, -im / st / r)
    return bad, tuple(values[q] for q in powers)


def block(rows) -> np.ndarray:
    """Assemble a matrix from a 2-d nested list of blocks (complex dtype)."""
    return np.block([[np.asarray(b, dtype=complex) for b in row] for row in rows])


def blocks2x2(M, p: int):
    """Split a 2p x 2p matrix into its four p x p blocks (11, 12, 21, 22)."""
    M = np.asarray(M, dtype=complex)
    if M.shape != (2 * p, 2 * p):
        raise DimensionMismatch(f"expected shape {(2 * p, 2 * p)}, got {M.shape}")
    return M[:p, :p], M[:p, p:], M[p:, :p], M[p:, p:]


@lru_cache(maxsize=16)
def exchange_J(p: int) -> np.ndarray:
    """The 2p x 2p block exchange [[0, I], [I, 0]] (cached, read-only)."""
    Ip = np.eye(p, dtype=complex)
    Z = np.zeros((p, p), dtype=complex)
    J = block([[Z, Ip], [Ip, Z]])
    J.setflags(write=False)
    return J


@lru_cache(maxsize=16)
def signature_j(p: int) -> np.ndarray:
    """The 2p x 2p signature diag(I, -I) (cached, read-only)."""
    Ip = np.eye(p, dtype=complex)
    j = block([[Ip, np.zeros((p, p))], [np.zeros((p, p)), -Ip]])
    j.setflags(write=False)
    return j
