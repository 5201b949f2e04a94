"""Finite symmetric S-nodes {A, S, Pi}: identity verification, transfer
matrices and frames, the node chain and its elementary factors, the rho
characteristic, property-J parameter pairs, linear-fractional Weyl
functions, and the Weyl matrix ball.

Conventions used throughout:

* the node identity is  A S - S A* = i Pi J Pi*,  Pi = [Phi1 Phi2],
  J = [[0, I], [I, 0]],  A = c I + a N (I - b N)^{-1}  (:class:`SNode`);
* the transfer matrix is  w_A(lam) = I - i J Pi* S^{-1} (A - lam I)^{-1} Pi;
* the chain of a node (:func:`node_chain`) holds the data t_k, rows_k and G_k
  of its leading orders, read off the node's one Cholesky factor
  ``SNode.S_chol`` (which serves every S solve too), and its elementary
  factors w_k(lam) = I - i (c - lam)^{-1} J G_k* G_k  (:func:`chain_factors`)
  multiply, w_n ... w_1, to the transfer matrix of either node family;
* the frame is  Frm(z) = w_A(1/conj(z))*, evaluated in the equivalent
  pole-free form  I - i z Pi* (I - z A*)^{-1} S^{-1} Pi J (a polynomial if c = 0);
* a Weyl function is  phi = i (F11 R + F12 Q)(F21 R + F22 Q)^{-1}  for a
  nonsingular pair {R, Q} with R*R + Q*Q > 0 and R*Q + Q*R >= 0.

The evaluators (:func:`transfer_matrix`, :func:`frame`, :func:`lft`) take a
scalar point, giving one matrix, or a 1-d array of points, giving a stack of
matrices; a guard that fails raises the same typed error either way and
names the first offending point.  :func:`ball_membership` and
:func:`ball_value` take one p x p matrix or a stack of them.  :func:`rho`
and :func:`leading_rho` take one point off the real axis: the value at
conj z is the reversed value rho(conj z, z), so their callers check the
half-plane they need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import matcore, serialization
from .errors import (
    DimensionMismatch,
    EvaluationFailure,
    InvalidPair,
    NotInUpperHalfPlane,
    NotPositiveDefinite,
    PoleAtLambda,
    SingularDenominator,
    SingularResolvent,
)

_SINGULAR_RCOND = 1e-13

# a pole where |d| < this on the diagonal of alpha I + beta A, and, as the same
# absolute test, where |c - lam| < this for the factors of chain_factors
_POLE_TOL = 1e-12

# tolerance of the property-J conditions checked by validate_pair
_PAIR_TOL = 1e-9


@dataclass(frozen=True)
class SNode:
    """The triple {A, S, Pi = [Phi1 Phi2]} with block size p, where
    A = c I + a N (I - b N)^{-1} for ``shift = (c, a, b)`` and the block
    down-shift N.  ``S`` is Hermitian; positive definiteness is required by
    most operations and checked where it is used.
    """

    p: int
    shift: tuple
    S: np.ndarray
    Phi1: np.ndarray
    Phi2: np.ndarray

    def __post_init__(self):
        S = matcore.as_matrix(self.S)
        Phi1 = np.asarray(self.Phi1, dtype=complex)
        Phi2 = np.asarray(self.Phi2, dtype=complex)
        m = S.shape[0]
        if S.shape != (m, m) or m % self.p:
            raise DimensionMismatch(f"S must be square with a size divisible by p = {self.p}")
        if Phi1.shape != (m, self.p) or Phi2.shape != (m, self.p):
            raise DimensionMismatch(f"Phi1/Phi2 must have shape {(m, self.p)}")
        object.__setattr__(self, "shift", tuple(map(complex, self.shift)))
        for name, arr in (("S", S), ("Phi1", Phi1), ("Phi2", Phi2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.S.shape[0]

    @cached_property
    def A(self) -> np.ndarray:
        """Read-only m x m A: c I in the diagonal blocks, a b^(i-j-1) I in block (i, j) below."""
        c, a, b = self.shift
        k = np.arange(self.m // self.p)
        coef = np.array([c, *(a * b**j for j in k[:-1]), 0])  # by i - j; -1 reads the 0
        out = np.kron(coef[np.maximum(k[:, None] - k, -1)], np.eye(self.p, dtype=complex))
        out.setflags(write=False)
        return out

    @cached_property
    def Pi(self) -> np.ndarray:
        """Read-only [Phi1 Phi2]."""
        out = np.hstack([self.Phi1, self.Phi2])
        out.setflags(write=False)
        return out

    @property
    def J(self) -> np.ndarray:
        return matcore.exchange_J(self.p)

    # S is read-only, so its factorization can be computed once per node; its
    # leading blocks factor every S(k), and a failure names the first order
    @cached_property
    def S_chol(self) -> matcore.HermPD:
        try:
            return matcore.cholesky_pd(self.S)
        except NotPositiveDefinite as exc:
            order = matcore.first_failing_order(matcore.hermitian_part(self.S), self.p)
            raise NotPositiveDefinite("leading block not positive definite", order=order) from exc

    @cached_property
    def S_diag_inv(self) -> np.ndarray:
        """The (n, p, p) inverses of the diagonal blocks of ``S_chol``'s
        factor (read-only), for :func:`matcore.block_forward` and
        :func:`matcore.leading_chain`."""
        out = matcore.diagonal_inverses(self.S_chol.factor, self.p)
        out.setflags(write=False)
        return out

    @cached_property
    def SinvPi(self) -> np.ndarray:
        """S^{-1} Pi (read-only)."""
        out = self.S_chol.solve(self.Pi)
        out.setflags(write=False)
        return out

    @cached_property
    def frame_coefs(self) -> np.ndarray:
        """The (n, 2p, 2p) coefficients C_j J, C_j = Pi* (A*)^j S^{-1} Pi, of
        the frame polynomial of a node whose A is nilpotent (c = 0), from
        ``SinvPi`` (read-only); the product by J is the column-block swap."""
        p, X = self.p, self.SinvPi
        Pi_h, A_h = self.Pi.conj().T, self.A.conj().T
        coefs = []
        for _ in range(self.m // p):
            C = Pi_h @ X
            coefs.append(np.concatenate((C[:, p:], C[:, :p]), axis=1))
            X = A_h @ X
        out = np.stack(coefs)
        out.setflags(write=False)
        return out


def identity_residual(node: SNode) -> float:
    """Frobenius norm of A S - S A* - i Pi J Pi*."""
    Pi = node.Pi
    gap = node.A @ node.S - node.S @ node.A.conj().T - 1j * Pi @ node.J @ Pi.conj().T
    return matcore.frobenius(gap)


def _resolvent(node: SNode, alpha, beta, rhs: np.ndarray, points: np.ndarray, adjoint: bool = False):
    """(alpha I + beta A)^{-1} rhs, or (alpha I + beta A)^{-*} rhs, at the N points
    of the (N,) array alpha + beta.  As alpha I + beta A = (I - b N)^{-1} (d I + e N),
    d = alpha + beta c, e = beta a - b d, this is one pass of I - b N (none at
    b = 0) and one block forward substitution, backward stable whatever the
    conditioning (Higham 2002, ch. 8), in reversed block order for the adjoint.
    Raises SingularResolvent where |d| < :data:`_POLE_TOL` or the solution overflows."""
    c, a, b = node.shift
    d = alpha + beta * c
    e = beta * a - b * d
    y = rhs.reshape(node.m // node.p, node.p, -1)
    out = np.empty(d.shape + y.shape, dtype=complex)
    x = out
    if adjoint:
        d, e, b, y, x = d.conj(), e.conj(), b.conjugate(), y[::-1], out[:, ::-1]
    if b != 0:
        y = np.concatenate((y[:1], y[1:] - b * y[:-1]))
    d, e = d[:, None, None], e[:, None, None]
    with np.errstate(all="ignore"):
        x[:, 0] = y[0] / d
        for k in range(1, len(y)):
            x[:, k] = (y[k] - e * x[:, k - 1]) / d
    if not (np.isfinite(out).all() and np.abs(d).min() >= _POLE_TOL):
        bad = (np.abs(d[:, 0, 0]) < _POLE_TOL) | ~np.isfinite(out).all(axis=(1, 2, 3))
        raise SingularResolvent(points[np.argmax(bad)])
    return out.reshape(len(points), node.m, -1)


def transfer_matrix(node: SNode, lam_or_lams) -> np.ndarray:
    """w_A(lam) = I - i J Pi* S^{-1} (A - lam I)^{-1} Pi, solved with S itself,
    not from the cached S^{-1} Pi that :func:`frame` uses: the verify-hankel
    H7 row compares the two routes."""
    lams = matcore.as_points(lam_or_lams)
    Sinv_res = node.S_chol.solve(_resolvent(node, -lams, 1.0, node.Pi, lams))
    out = np.eye(2 * node.p, dtype=complex) - 1j * node.J @ node.Pi.conj().T @ Sinv_res
    return out if np.ndim(lam_or_lams) else out[0]


@dataclass(frozen=True)
class NodeChain:
    """The per-order data of a node's leading blocks, read off the node's
    one Cholesky factor ``S_chol`` by :func:`matcore.leading_chain`:
    t_k > 0, the bottom block row rows_k of S(k)^{-1} Pi(k) ([X_k Y_k] for
    a Toeplitz node, omega_k for a Hankel node) and G_k with
    G_k* G_k = rows_k* t_k^{-1} rows_k; ``c`` is the diagonal of A."""

    p: int
    c: complex
    t: tuple
    rows: tuple
    G: tuple


def node_chain(node: SNode) -> NodeChain:
    """The chain of a node, read off its one Cholesky factor ``node.S_chol``
    and the inverses ``node.S_diag_inv`` of its diagonal blocks; raises
    :class:`NotPositiveDefinite` at the first order whose leading block
    fails."""
    ts, rows, Gs = matcore.leading_chain(node.S_chol.factor, node.S_diag_inv, node.Pi)
    return NodeChain(p=node.p, c=node.shift[0], t=ts, rows=rows, G=Gs)


def chain_factors(chain: NodeChain, lam_or_lams) -> list[np.ndarray]:
    """Elementary factors w_k(lam) = I - i (c - lam)^{-1} J G_k* G_k, whose
    product w_n ... w_1 is the node's transfer matrix at lam.  A 1-d array of
    points gives each factor as a stack over them.  Raises
    :class:`PoleAtLambda` where |c - lam| < :data:`_POLE_TOL`."""
    lams = matcore.as_points(lam_or_lams)
    if np.any(np.abs(chain.c - lams) < _POLE_TOL):
        raise PoleAtLambda(f"every factor has its pole at lam = {chain.c}")
    J = matcore.exchange_J(chain.p)
    scale = (1j / (lams - chain.c))[:, None, None]
    G = np.stack(chain.G)[:, None]
    factors = np.eye(2 * chain.p) + (scale * J) @ G.conj().swapaxes(-1, -2) @ G
    return list(factors if np.ndim(lam_or_lams) else factors[:, 0])


def frame(node: SNode, z_or_zs) -> np.ndarray:
    """Frame value  I - i z Pi* (I - z A*)^{-1} S^{-1} Pi J  (equals w_A(1/conj z)*),
    evaluated in chunks of at most :data:`matcore.CHUNK` points: for a
    nilpotent A (c = 0) as the polynomial  I - i sum_{j<n} z^{j+1} C_j J  on
    ``node.frame_coefs`` by Horner (backward stable; Higham 2002, sec. 5.1),
    otherwise by the resolvent.  A value that is not finite raises
    :class:`SingularResolvent` naming the first such point."""
    stack = _frame_horner if node.shift[0] == 0 else _frame_stack
    out = matcore.in_chunks(lambda zs: stack(node, zs), matcore.as_points(z_or_zs))
    return out if np.ndim(z_or_zs) else out[0]


def _frame_stack(node: SNode, zs: np.ndarray) -> np.ndarray:
    X = _resolvent(node, 1.0, -zs.conj(), node.SinvPi, zs, adjoint=True)
    step = 1j * zs[:, None, None] * node.Pi.conj().T @ X
    del X  # as large as the frames: free it before the output
    # for finite values step @ J only swaps the two column blocks of step, so
    # subtracting the swapped copy gives the bits of I - step @ J
    p = node.p
    return np.eye(2 * p, dtype=complex) - np.concatenate((step[:, :, p:], step[:, :, :p]), axis=2)


def _frame_horner(node: SNode, zs: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        out = _horner(node.frame_coefs, np.eye(2 * node.p, dtype=complex), zs)
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        raise SingularResolvent(zs[np.argmin(finite)])
    return out


def _horner(coefs, const: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """const - i sum_{j<n} z^{j+1} coefs[j] at every point of the 1-d array
    zs, by Horner: a stack of matrices shaped like const."""
    w = zs[:, None, None]
    acc = coefs[-1] * w
    for C in coefs[-2::-1]:
        acc += C
        acc *= w
    acc *= -1j
    acc += const
    return acc


@dataclass(frozen=True)
class Frame:
    """Evaluation closure z -> 2p x 2p frame matrix (a 1-d array of points
    gives a stack of them) with block accessors, and the p x p LFT
    denominator F = Frm21 R + Frm22 Q of a constant pair.

    ``realization(R, Q)`` takes (N, p, p) stacks of pairs and returns
    (A, B, C), each broadcastable over the pairs, with Q + z C (I - z A)^{-1} B
    equal to F, or to F times a power of 1 - z/pole: the zeros of det F
    come from its pencil (:func:`hankel.weyl_densities`).

    ``pole`` is the one pole of det F that the realization carries or
    clears, as (pole, order): the determinant of the pencil is det F times
    (1 - z / pole)^order.  It is None when the pencil's determinant is det F
    itself, as for a Hankel node's frame, whose det F is then a polynomial
    with the pencil's zeros.

    ``make_denominator(R, Q)``, when given, returns an evaluator of F that
    never forms the frame (F is a p x p polynomial for a nilpotent A), for
    one pair or a stack of pairs as :meth:`denominator` describes; by
    default F is taken from the lower block row of the frame.

    The frame keeps one value: its matrix at the last single point asked
    of :meth:`at`, read-only, in ``last_point``.  :meth:`blocks` reads it,
    so the helpers that each need the frame at one lambda
    (:func:`rho_from_frame`, :func:`extremal_pair` and the outer factor)
    share one evaluation.
    """

    p: int
    fn: Callable[..., np.ndarray]
    realization: Callable
    make_denominator: Callable | None = None
    pole: tuple[complex, int] | None = None
    last_point: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, z_or_zs) -> np.ndarray:
        return self.fn(z_or_zs)

    def at(self, z: complex) -> np.ndarray:
        """The frame at one point, read-only: evaluated once for a run of
        calls at the same point (the bits of z, so -0.0 is not 0.0)."""
        key = np.complex128(z).tobytes()
        if key not in self.last_point:
            value = self.fn(complex(z))
            value.setflags(write=False)
            self.last_point.clear()
            self.last_point[key] = value
        return self.last_point[key]

    def denominator(self, R: np.ndarray, Q: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Evaluator of F(t) = Frm21(t) R + Frm22(t) Q over a 1-d array of T
        points: a (T, p, p) stack for one pair, an (N, T, p, p) stack for
        (N, p, p) stacks R and Q, each pair's values bitwise its own."""
        if self.make_denominator is not None:
            return self.make_denominator(R, Q)
        p = self.p
        R, Q = R[..., None, :, :], Q[..., None, :, :]

        def denominators(ts):
            frames = self.fn(np.asarray(ts, dtype=complex))
            return frames[:, p:, :p] @ R + frames[:, p:, p:] @ Q

        return denominators

    def blocks(self, z: complex):
        return matcore.blocks2x2(self.at(z), self.p)


def node_frame(node: SNode) -> Frame:
    """The :class:`Frame` of a node.  The LFT denominator of a pair,
    F(z) = Q - i z Phi2* (I - z A*)^{-1} S^{-1} Pi J [R; Q], has the
    realization (A*, S^{-1} Pi J [R; Q], -i Phi2*), whose resolvent carries
    det(I - z A*) = (1 - z conj(c))^m: the pole 1/conj(c) of order m (2i for
    a Toeplitz node), none for c = 0.  For a nilpotent A (c = 0) F is a
    p x p polynomial, by Horner on coefficients computed once per pair,
    with no 2p x 2p frame."""
    p, c = node.p, node.shift[0]

    def horner_denominator(R, Q):
        # the lower block rows of the coefficients times [R; Q], as (n, ..., 1, p, p)
        lower = node.frame_coefs[:, p:] @ np.concatenate((R, Q), axis=-2)[..., None, :, :]
        lower = np.moveaxis(lower, -3, 0)[..., None, :, :]
        Q = Q[..., None, :, :]
        return lambda ts: _horner(lower, Q, np.asarray(ts))

    def realization(R, Q):
        # S^{-1} Pi J [R; Q] = S^{-1} Pi [Q; R]
        return node.A.conj().T, node.SinvPi @ np.concatenate((Q, R), axis=-2), -1j * node.Phi2.conj().T

    return Frame(
        p=p,
        fn=lambda z_or_zs: frame(node, z_or_zs),
        realization=realization,
        make_denominator=horner_denominator if c == 0 else None,
        pole=None if c == 0 else (c / abs(c) ** 2, node.m),  # 1 / conj(c)
    )


def rho_from_frame(frm: Frame, z: complex) -> np.ndarray:
    """rho(z, conj z) recovered from the frame blocks alone:
    F21(z) F22(z)* + F22(z) F21(z)*."""
    _, _, F21, F22 = frm.blocks(z)
    return matcore.hermitian_part(F21 @ F22.conj().T + F22 @ F21.conj().T)


def leading_rho(node: SNode, z: complex) -> np.ndarray:
    """The (n, p, p) stack of rho_k(z, conj z) of every leading order k = 1..n,
    the characteristic i(conj z - z) Phi2(k)* (I - z A(k)*)^{-1} S(k)^{-1}
    (I - conj(z) A(k))^{-1} Phi2(k) of the node's leading compression of order k.

    A is lower triangular and S = L L* (``node.S_chol``), so with
    y = L^{-1} (I - conj(z) A)^{-1} Phi2 every order is
    rho_k = i(conj z - z) y[:kp]* y[:kp], the running sum of the block
    rows' y_j* y_j: one resolvent and one :func:`matcore.block_forward`
    substitution serve all orders, and order k's value is bitwise the last
    entry of the call on its compression with the leading block of L as its
    factor."""
    w = np.array([z])
    V = _resolvent(node, 1.0, -w.conj(), node.Phi2, w)[0]
    y = matcore.block_forward(node.S_chol.factor, node.S_diag_inv, V).reshape(-1, node.p, node.p)
    grams = np.cumsum(y.conj().swapaxes(1, 2) @ y, axis=0)
    return matcore.hermitian_part(1j * (np.conj(z) - z) * grams)


def rho(node: SNode, z: complex) -> np.ndarray:
    """The characteristic rho(z, conj z) of the node, the last entry of
    :func:`leading_rho`: positive definite for z above the real axis,
    negative definite below it, so rho(conj z, z) is ``rho(node, conj(z))``."""
    return leading_rho(node, z)[-1]


@dataclass(frozen=True)
class ParamPair:
    """A constant parameter pair {R, Q}: read-only p x p matrices.

    Meromorphic pairs of the theory are not sampled; every Weyl function of
    the lab comes from a constant pair.
    """

    R: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        self._keep(matcore.as_matrix(self.R), matcore.as_matrix(self.Q))

    def _keep(self, R: np.ndarray, Q: np.ndarray) -> None:
        """Keep R and Q, complex and checked finite, as the pair's read-only
        matrices: every rule of a pair but finiteness is checked here, for
        the pairs of :meth:`from_stacks` too."""
        if R.shape != Q.shape or R.shape[0] != R.shape[1]:
            raise DimensionMismatch("R and Q must be square and equal-sized")
        for name, M in (("R", R), ("Q", Q)):
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @classmethod
    def constant(cls, R, Q) -> "ParamPair":
        return cls(R, Q)

    @classmethod
    def from_stacks(cls, R, Q) -> list["ParamPair"]:
        """The pairs (R[k], Q[k]) of two (N, p, p) stacks, bitwise those of
        N :meth:`constant` calls.  Each stack is checked once, as a whole:
        :class:`NonFiniteEntries` names the first matrix with an entry that
        is not finite.  The pairs hold read-only views of the stacks."""
        R, Q = (matcore.as_matrix_or_stack(M) for M in (R, Q))
        if R.ndim != 3 or R.shape != Q.shape:
            raise DimensionMismatch("R and Q must be equal-sized stacks of square matrices")
        pairs = [object.__new__(cls) for _ in range(len(R))]
        for pair, r, q in zip(pairs, R, Q):
            pair._keep(r, q)
        return pairs

    @property
    def p(self) -> int:
        return self.R.shape[0]

    @property
    def constant_value(self) -> tuple[np.ndarray, np.ndarray]:
        return self.R, self.Q


def validate_pair(pair: ParamPair) -> None:
    """Check the nonsingular property-J conditions R*R + Q*Q > 0 and
    R*Q + Q*R >= 0, within :data:`_PAIR_TOL`; raise InvalidPair on failure."""
    R, Q = pair.R, pair.Q
    g = matcore.min_eig_hermitian(R.conj().T @ R + Q.conj().T @ Q)
    if not g > _PAIR_TOL:
        raise InvalidPair(f"R*R + Q*Q not positive definite (min eig {g:.3e})")
    jf = matcore.min_eig_hermitian(R.conj().T @ Q + Q.conj().T @ R)
    if not jf >= -_PAIR_TOL:
        raise InvalidPair(f"property-J fails (min eig {jf:.3e})")


def guard_pairs(R: np.ndarray, Q: np.ndarray, zs: np.ndarray) -> None:
    """Raise :class:`InvalidPair` where R*R + Q*Q is degenerate (its smallest
    eigenvalue at most 1e-12 (1 + its largest)), naming the first such point
    of zs: R and Q are (N, p, p) stacks of pairs taken at the N points, or
    (1, p, p) stacks of one pair taken at every point, checked once and named
    at the first point (with no points there is nothing to check).

    R*R + Q*Q comes from :func:`matcore.entry_product` on the entry arrays,
    its extremes from :func:`matcore.hermitian_extremes`."""
    RQ = [*matcore.entries(R), *matcore.entries(Q)]  # the rows of [R; Q]
    gram = matcore.from_entries(matcore.entry_product(matcore.entry_adjoint(RQ), RQ), len(R))
    lo, hi = matcore.hermitian_extremes(gram)
    bad = np.flatnonzero(lo <= 1e-12 * (1.0 + hi))
    if bad.size and zs.size:
        raise InvalidPair(f"degenerate pair at z = {zs[bad[0]]}")


def lft_blocks(num: np.ndarray, den: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """i num den^{-1} over (N, p, p) stacks of the blocks [num; den] = F [R; Q]
    of frames F and pairs (R, Q) taken at the points zs: the Weyl functions
    i (F11 R + F12 Q)(F21 R + F22 Q)^{-1}.

    Raises :class:`SingularDenominator` where den is singular,
    sigma_min <= 1e-13 max(sigma_max, 1), naming the first such point: the
    floor is absolute, so the blocks must carry every scalar factor of the
    frame.

    At p <= 2 every step works on the (N,) entry arrays, with no LAPACK call
    or stacked product: the guard comes from
    :func:`matcore.singular_extremes` and the inverse from
    :func:`matcore.adjugate`.  The denominator is scaled by
    :func:`matcore.power_of_two_scale` first, so that frames far out on the
    axis do not overflow it; the guard undoes the scale exactly.  Above
    p = 2 LAPACK does each step.
    """
    if den.shape[-1] > 2:
        return _lft_blocks_lapack(num, den, zs)
    s = matcore.power_of_two_scale(den)
    den = den * s[:, None, None]
    # sigma(den) = sigma(s den) / s, so this is sigma_min <= rcond max(sigma_max, 1)
    smin, smax = matcore.singular_extremes(den)
    bad = np.flatnonzero(smin <= _SINGULAR_RCOND * np.maximum(smax, s))
    if bad.size:
        raise SingularDenominator(zs[bad[0]])
    adj, det = matcore.adjugate(den)
    # i num (s den)^{-1} s = i num den^{-1}
    weight = 1j * s / det
    return matcore.from_entries(
        [[entry * weight for entry in row] for row in matcore.entry_product(matcore.entries(num), adj)], len(den)
    )


def _lft_blocks_lapack(num: np.ndarray, den: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """:func:`lft_blocks` at any p, by LAPACK's SVD and inverse."""
    sv = np.linalg.svd(den, compute_uv=False)
    bad = np.flatnonzero(sv[:, -1] <= _SINGULAR_RCOND * np.maximum(sv[:, 0], 1.0))
    if bad.size:
        raise SingularDenominator(zs[bad[0]])
    return 1j * num @ np.linalg.inv(den)


def lft_stack(F: np.ndarray, R: np.ndarray, Q: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """i (F11 R + F12 Q)(F21 R + F22 Q)^{-1} over stacks of frame values F
    and pairs (R, Q) taken at the points zs: (N, p, p) stacks, or (1, p, p)
    stacks of one pair.  The blocks F [R; Q] come from
    :func:`matcore.entry_product` on the entry arrays.

    Raises :class:`DimensionMismatch` when there are no points,
    :class:`InvalidPair` where R*R + Q*Q is degenerate (:func:`guard_pairs`)
    and :class:`SingularDenominator` where F21 R + F22 Q is singular
    (:func:`lft_blocks`), naming the first such point.
    """
    if not len(zs):
        raise DimensionMismatch("zs is empty: an LFT needs at least one point")
    guard_pairs(R, Q, zs)
    p = R.shape[-1]
    cols = matcore.from_entries(matcore.entry_product(matcore.entries(F), [*matcore.entries(R), *matcore.entries(Q)]), len(F))
    return lft_blocks(cols[:, :p], cols[:, p:], zs)


def _lft_stack_lapack(F: np.ndarray, R: np.ndarray, Q: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """:func:`lft_stack` at any p, each step a LAPACK call or a stacked
    product; the reference of the p <= 2 path."""
    p = R.shape[-1]
    eig = np.linalg.eigvalsh(np.swapaxes(R, 1, 2).conj() @ R + np.swapaxes(Q, 1, 2).conj() @ Q)
    bad = np.flatnonzero(eig[:, 0] <= 1e-12 * (1.0 + eig[:, -1]))
    if bad.size:
        raise InvalidPair(f"degenerate pair at z = {zs[bad[0]]}")
    num = F[:, :p, :p] @ R + F[:, :p, p:] @ Q
    den = F[:, p:, :p] @ R + F[:, p:, p:] @ Q
    return _lft_blocks_lapack(num, den, zs)


def lft(frm: Frame, pair: ParamPair, z_or_zs) -> np.ndarray:
    """phi(z) = i (F11 R + F12 Q)(F21 R + F22 Q)^{-1} for the frame ``frm``;
    the constant pair is checked once (:func:`guard_pairs`), and an empty
    array of points raises :class:`DimensionMismatch` (:func:`lft_stack`)."""
    zs = matcore.as_points(z_or_zs)
    out = lft_stack(frm(zs), pair.R[None], pair.Q[None], zs)
    return out if np.ndim(z_or_zs) else out[0]


@dataclass(frozen=True)
class MatrixBall:
    """Weyl disk at a point: {center - L u Rr : ||u|| <= 1} with L, Rr HPD."""

    z: complex
    center: np.ndarray
    left_radius: np.ndarray
    right_radius: np.ndarray
    aleph: np.ndarray
    rho_value: np.ndarray      # rho(z, conj z) > 0
    rho_reversed: np.ndarray   # rho(conj z, z) < 0
    rho_inverse: np.ndarray    # rho(z, conj z)^{-1}, read-only

    @property
    def p(self) -> int:
        return self.center.shape[0]

    # the fields are fixed, so the square root is computed once per ball
    @cached_property
    def rho_half(self) -> np.ndarray:
        """rho(z, conj z)^{1/2}."""
        out = matcore.sqrtm_hpd(matcore.hermitian_part(self.rho_value))
        out.setflags(write=False)
        return out

    def to_json(self) -> dict:
        return {
            "z": serialization.complex_to_json(self.z),
            "center": serialization.matrix_to_json(self.center),
            "left_radius": serialization.matrix_to_json(self.left_radius),
            "right_radius": serialization.matrix_to_json(self.right_radius),
            "rho": serialization.matrix_to_json(self.rho_value),
            "rho_bar": serialization.matrix_to_json(self.rho_reversed),
        }


def matrix_ball(node: SNode, z: complex) -> MatrixBall:
    """The value set of all Weyl functions at z, as a matrix ball.

    The coefficient matrix is aleph = (Frm^{-1})* J Frm^{-1} with
    Frm^{-1} = J Frm(conj z)* J; the center is i (-rho(conj z, z))^{-1}
    aleph_12, and the radii are the inverse Hermitian square roots of
    -rho(conj z, z) and rho(z, conj z).
    """
    if np.imag(z) <= 0.0:
        raise NotInUpperHalfPlane(f"z = {z} must lie in the open upper half-plane")
    J = node.J
    F_bar = frame(node, np.conj(z))
    finv = J @ F_bar.conj().T @ J
    aleph = finv.conj().T @ J @ finv
    rho_val = rho(node, z)
    rho_rev = rho(node, np.conj(z))
    p = node.p
    a12 = aleph[:p, p:]
    neg_rev_inv = matcore.inv_hpd(matcore.hermitian_part(-rho_rev))
    center = 1j * neg_rev_inv @ a12
    left = matcore.sqrtm_hpd(neg_rev_inv)
    rho_inv = matcore.inv_hpd(rho_val)
    rho_inv.setflags(write=False)
    return MatrixBall(
        z=complex(z),
        center=center,
        left_radius=left,
        right_radius=matcore.sqrtm_hpd(rho_inv),
        aleph=aleph,
        rho_value=rho_val,
        rho_reversed=rho_rev,
        rho_inverse=rho_inv,
    )


def ball_membership(ball: MatrixBall, value_or_values):
    """Contraction u with value = center - L u Rr, and its spectral norm; a
    stack of values gives a stack of contractions and an array of norms.

    u = L (rho_rev value + i aleph_12) rho^{1/2},  L = (-rho_rev)^{-1/2}, in
    that association, by two :func:`matcore.sandwich` calls over the stack.
    Raises :class:`EvaluationFailure` where eps (|center| + |L| |Rr|), |M| the
    largest entry modulus, exceeds 1 + max |value|: no digit of the values
    survives, as next to the real axis, where both grow like 1 / Im z.
    """
    values = matcore.as_matrix_or_stack(value_or_values)
    radius = float(np.max(np.abs(ball.left_radius)) * np.max(np.abs(ball.right_radius)))
    centre, size = float(np.max(np.abs(ball.center))), float(np.max(np.abs(values)))
    if np.finfo(float).eps * (centre + radius) > 1.0 + size:
        raise EvaluationFailure(
            f"the ball at z = {ball.z} has degenerated: its radius scale {radius:.3e} and centre "
            f"{centre:.3e} hold no digit of values of size {size:.3e}"
        )
    p = ball.p
    a12 = ball.aleph[:p, p:]
    inner = matcore.sandwich(ball.rho_reversed, values, None) + 1j * a12
    u = matcore.sandwich(ball.left_radius, inner, ball.rho_half)
    norms = matcore.spectral_norm(u)
    return u, (norms if u.ndim == 3 else float(norms))


def ball_value(ball: MatrixBall, u_or_us) -> np.ndarray:
    """Point of the ball for a given contraction, or a stack of points for a
    stack of contractions: center - (L u) Rr, one :func:`matcore.sandwich`
    call."""
    us = matcore.as_matrix_or_stack(u_or_us)
    return ball.center - matcore.sandwich(ball.left_radius, us, ball.right_radius)


def extremal_pair(frm: Frame, lam: complex) -> ParamPair:
    """The constant pair R = Frm22(lam)*, Q = Frm21(lam)* of the frame.

    It is the unique parameter achieving entropy equality at lam and
    satisfies R*Q + Q*R = rho(lam, conj lam) > 0.
    """
    _, _, F21, F22 = frm.blocks(lam)
    return ParamPair.constant(F22.conj().T, F21.conj().T)
