"""Leading compressions of a node, monotone rho trajectories, frame
factorization across nesting, outer-modulus integrals, the entropy bound with
its equality case, the order-by-order convergence harness, and the two
appendix-style numerical lemmas (strict determinant growth, limit of
log-determinant integrals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matcore, quadrature
from .densities import DensityFn
from .errors import (
    IndexOutOfRange,
    NotInUpperHalfPlane,
    QuadratureNotConverged,
    SingularDenominator,
    SzegoViolated,
    Unsupported,
)
from .hankel import HankelSpec, build_hankel_node, moments_from_density, weyl_densities
from .snode import (
    _SINGULAR_RCOND,
    Frame,
    SNode,
    frame,
    leading_rho,
    node_chain,
    rho_from_frame,
)


# ---------------------------------------------------------------------------
# nested compressions


def leading_node(node: SNode, k: int) -> SNode:
    """The leading compression of order k of a node: S, Phi1 and Phi2 are
    leading slices, and its ``S_chol`` is the leading block of the node's
    Cholesky factor, as in :func:`quotient_node`, so it factors nothing.  The
    node itself at its own order; raises :class:`IndexOutOfRange` unless
    1 <= k <= its order."""
    if not 1 <= k <= node.m // node.p:
        raise IndexOutOfRange(f"leading order {k} outside 1..{node.m // node.p}")
    mk = k * node.p
    if mk == node.m:
        return node
    small = SNode(node.p, node.shift, node.S[:mk, :mk], node.Phi1[:mk], node.Phi2[:mk])
    pd = node.S_chol
    small.__dict__["S_chol"] = matcore.HermPD(matrix=pd.matrix[:mk, :mk], factor=pd.factor[:mk, :mk])
    return small


def hankel_family_from_density(density: DensityFn, max_order: int) -> tuple[SNode, HankelSpec]:
    """Moment blocks of ``density`` up to order 2*max_order - 2, and the node
    of order max_order they give."""
    blocks = tuple(moments_from_density(density, 2 * max_order - 1))
    spec = HankelSpec(p=density.p, n=max_order, H=blocks)
    return build_hankel_node(spec), spec


@dataclass(frozen=True)
class QuotientFrame:
    """Frame of the node that a leading compression leaves inside a node."""

    value: np.ndarray
    product_residual: float
    j_expansion_min_eig: float


def quotient_node(node: SNode, k: int) -> SNode:
    """The node that the leading compression of order k leaves inside a node
    of order n, 1 <= k < n: a generalized Schur step (Kailath & Sayed 1995)
    read off the node's factor S = L L* and chain G = L^{-1} Pi.
    S22 - S21 S11^{-1} S12 = L22 L22* and Pi2 - S21 S11^{-1} Pi1 = L22 G2,
    with no inverse; A22 keeps A's shift form."""
    n = node.m // node.p
    if not 1 <= k < n:
        raise IndexOutOfRange(f"need 1 <= k < {n}, got k = {k}")
    mk = k * node.p
    L22 = node.S_chol.factor[mk:, mk:]
    Pi_breve = L22 @ np.concatenate(node_chain(node).G)[mk:]
    quotient = SNode(node.p, node.shift, L22 @ L22.conj().T, *np.hsplit(Pi_breve, 2))
    # L22 is the Cholesky factor of the quotient's S: fill the cached S_chol
    # with it, so no solve with S factors S again
    quotient.__dict__["S_chol"] = matcore.HermPD(matrix=matcore.hermitian_part(quotient.S), factor=L22)
    return quotient


def frame_quotient(node: SNode, k: int, z: complex) -> QuotientFrame:
    """Frame of the quotient node plus the factorization and J-expansion checks.

    The product identity Frm(S, z) = Frm(S_k, z) Frm_breve(z), with S_k the
    leading compression of order k, holds exactly; the J-form expands,
    Frm_breve J Frm_breve* >= J, for z in the upper half-plane.  The identity
    at k = n; raises :class:`IndexOutOfRange` unless 1 <= k <= n.
    """
    if k == node.m // node.p:
        eye = np.eye(2 * node.p, dtype=complex)
        return QuotientFrame(value=eye, product_residual=0.0, j_expansion_min_eig=0.0)
    breve = frame(quotient_node(node, k), z)
    big = frame(node, z)
    small = frame(leading_node(node, k), z)
    residual = matcore.frobenius(big - small @ breve) / (1.0 + matcore.frobenius(big))
    J = matcore.exchange_J(node.p)
    defect = matcore.min_eig_hermitian(breve @ J @ breve.conj().T - J)
    return QuotientFrame(value=breve, product_residual=residual, j_expansion_min_eig=defect)


# ---------------------------------------------------------------------------
# the outer modulus

# node budget of every log-determinant integral on the line (the pair
# (24, 48) per graded panel) and their agreement tolerance
_LOG_QUAD = 512
_LOG_TOL = 1e-7


def _finite_log_det(P: DensityFn, ts: np.ndarray) -> np.ndarray:
    """ln det P(ts); raises :class:`SzegoViolated` where det P vanishes."""
    ld = P.log_det_at(ts)
    if not np.isfinite(ld).all():
        raise SzegoViolated("density vanishes on a set of positive measure")
    return ld


def poisson_weight(lam: complex) -> Callable[[np.ndarray], np.ndarray]:
    """ts -> Im(lam) / |t - lam|^2 (integrates to pi over the line) at an
    array of real points, in real arithmetic, in place on one new array."""
    re, im = float(np.real(lam)), float(np.imag(lam))

    def w(ts):
        d = ts - re
        d *= d
        d += im * im
        return np.divide(im, d, out=d)

    return w


def poisson_normalization(lam: complex) -> float:
    """The Poisson normalization integral of Im(lam)/|t-lam|^2 over the
    line, as accepted by the doubled-node check; raises
    :class:`QuadratureNotConverged` unless it is pi to 1e-9."""
    if np.imag(lam) <= 0.0:
        raise NotInUpperHalfPlane(f"lam = {lam} must lie in the open upper half-plane")
    norm = quadrature.integrate_with_check(
        poisson_weight(lam), (-np.inf, np.inf), (), _LOG_QUAD, 1e-10, "poisson normalization"
    )
    if abs(norm - np.pi) > 1e-9:
        raise QuadratureNotConverged(f"poisson normalization {norm:.3e} != pi")
    return float(norm)


def outer_modulus(P: DensityFn, lam: complex) -> float:
    """|det G(lam)| = exp[(1/2pi) integral Im(lam) ln det P(t) / |t-lam|^2 dt]
    for the outer spectral factor G of P, integrated on the graded rule of
    the density's breaks.

    Verifies the :func:`poisson_normalization` first, and raises
    :class:`SzegoViolated` when the log-det integral diverges to -inf.
    """
    poisson_normalization(lam)
    return _outer_moduli([P], lam)[0]


def _outer_moduli(dens, lam: complex) -> list[float]:
    """:func:`outer_modulus` of each density of a list, without its
    normalization check, in one :func:`quadrature.integrate_lines` batch."""
    w = poisson_weight(lam)

    def integrand(P: DensityFn):
        return lambda ts: w(ts) * _finite_log_det(P, ts)

    fns, breaks = [integrand(P) for P in dens], [P.breaks for P in dens]
    values = quadrature.integrate_lines(fns, breaks, _LOG_QUAD, _LOG_TOL, ["outer modulus integral"] * len(dens))
    if not np.all(np.isfinite(values)):
        raise SzegoViolated("log-determinant integral diverges")
    return [float(np.exp(value / (2.0 * np.pi))) for value in values]


def outer_factor(frm: Frame, pairs, z: complex) -> np.ndarray:
    """G(z) = jform^{1/2} F(z)^{-1}, jform = (R*Q + Q*R) / (2 pi) and
    F = Frm21 R + Frm22 Q: the outer factor (F is invertible on the upper
    half-plane; Wiener & Masani, Acta Math. 98, 1957) of a constant pair's
    boundary density, mu'(t) = G(t)* G(t).  A sequence of N pairs gives an
    (N, p, p) stack from one frame evaluation; :class:`SingularDenominator`
    names the first pair whose F(z) is singular."""
    R = np.stack([pair.R for pair in pairs])
    Q = np.stack([pair.Q for pair in pairs])
    _, _, F21, F22 = frm.blocks(z)
    F = F21 @ R + F22 @ Q
    smin, smax = matcore.singular_extremes(F)
    k, _ = matcore.first_failure(smin <= _SINGULAR_RCOND * np.maximum(smax, 1.0))
    if k is not None:
        raise SingularDenominator(z, f"F(z) singular at z = {z} for pair {k}")
    RQ = np.swapaxes(R, 1, 2).conj() @ Q
    return matcore.sqrtm_hpd((RQ + np.swapaxes(RQ, 1, 2).conj()) / (2.0 * np.pi)) @ np.linalg.inv(F)


@dataclass(frozen=True)
class EntropyBound:
    """lhs = 2 pi G(lam)* G(lam) against rhs = rho(lam, conj lam)^{-1};
    ``normalization`` is the :func:`poisson_normalization` at lam that the
    check accepted, ``modulus`` the pair's :func:`outer_modulus` at lam."""

    lhs: np.ndarray
    rhs: np.ndarray
    normalization: float
    modulus: float

    @property
    def slack(self) -> float:
        """min eig(rhs - lhs); >= -tol certifies the bound, ~0 the equality."""
        return float(bound_slacks([self])[0])

    @property
    def relative_slack(self) -> float:
        """min eig of rhs^{-1/2} (rhs - lhs) rhs^{-1/2}: c^2 for the pair whose
        Weyl value at lam is the point c I of the Weyl ball, 0 at its centre."""
        half_inv = np.linalg.inv(matcore.sqrtm_hpd(self.rhs))
        return matcore.min_eig_hermitian(half_inv @ (self.rhs - self.lhs) @ half_inv)

    @property
    def modulus_gap(self) -> float:
        """|ln|det G(lam)| - ln modulus|: the closed-form lhs against its quadrature."""
        return float(modulus_gaps([self])[0])


def bound_slacks(bounds) -> np.ndarray:
    """:attr:`EntropyBound.slack` of each bound, from one stacked ``eigvalsh``."""
    return matcore.min_eig_hermitian(np.stack([bound.rhs - bound.lhs for bound in bounds]))


def modulus_gaps(bounds) -> np.ndarray:
    """:attr:`EntropyBound.modulus_gap` of each bound, from one stacked ``slogdet``."""
    lhs = np.stack([bound.lhs for bound in bounds])
    moduli = np.array([bound.modulus for bound in bounds])
    return np.abs(0.5 * np.linalg.slogdet(lhs / (2.0 * np.pi))[1] - np.log(moduli))


def entropy_bound_check(frm: Frame, pairs, lam: complex) -> list[EntropyBound]:
    """Check 2 pi G(lam)* G(lam) <= rho(lam, conj lam)^{-1} for the measure
    generated by each pair of a sequence, giving one :class:`EntropyBound`
    per pair; ``rhs`` and the Poisson normalization, which every bound
    carries, are computed once per call.  The frame must be holomorphic
    across the closed upper half-plane for the outer-function representation
    behind the bound (Hankel nodes and coefficient-chain frames qualify; the
    generic frame of a Toeplitz node does not, since its A* resolvent has an
    upper-half-plane pole): a frame whose det F has its :attr:`Frame.pole`
    there raises :class:`Unsupported` naming the pole.  The lhs comes from
    :func:`outer_factor`; the outer-modulus quadrature of each pair's
    boundary density (all from one :func:`weyl_densities` call, one pencil
    solve for the zeros of det F) certifies it, and runs first, so a pair
    with singular R*Q + Q*R raises :class:`SzegoViolated`.  The moduli of
    all pairs are one :func:`quadrature.integrate_lines` batch, bitwise the
    values of :func:`outer_modulus`."""
    if np.imag(lam) <= 0.0:
        raise NotInUpperHalfPlane(f"lam = {lam} must lie in the open upper half-plane")
    if frm.pole is not None and np.imag(frm.pole[0]) >= 0.0:
        pole, order = frm.pole
        raise Unsupported(
            f"det F has a pole of order {order} at z = {complex(pole)}, in the closed upper half-plane: "
            "the entropy bound needs a frame holomorphic there"
        )
    rhs = matcore.inv_hpd(rho_from_frame(frm, lam))
    norm = poisson_normalization(lam)
    dens, _ = weyl_densities(frm, pairs)
    moduli = _outer_moduli(dens, lam)
    G = outer_factor(frm, pairs, lam)
    lhss = matcore.hermitian_part(2.0 * np.pi * np.swapaxes(G, 1, 2).conj() @ G)
    return [EntropyBound(lhs=lhs, rhs=rhs, normalization=norm, modulus=m) for lhs, m in zip(lhss, moduli)]


# ---------------------------------------------------------------------------
# convergence harness


def _psd_margin(lower, upper) -> float:
    """min over k of min eig(upper[k] - lower[k]); inf when there is no k."""
    worst = np.inf
    for a, b in zip(lower, upper):
        worst = min(worst, matcore.min_eig_hermitian(b - a))
    return float(worst)


@dataclass(frozen=True)
class TrajectoryReport:
    lam: complex
    orders: tuple
    rho: tuple               # rho_k(lam, conj lam), nondecreasing in PSD order
    rho_inv: tuple           # inverses of rho, nonincreasing in PSD order
    det_rho_inv: tuple
    conds: tuple             # condition numbers of the S blocks
    target: float | None     # det(2 pi G* G) when the reference admits it (p = 1)
    szego_finite: bool       # the reference's log-det integral is finite

    @property
    def gaps(self) -> tuple:
        if self.target is None:
            return tuple(None for _ in self.det_rho_inv)
        return tuple(d - self.target for d in self.det_rho_inv)

    def monotone_margin(self) -> float:
        """min over k of min eig(rho_{k+1} - rho_k); >= -tol certifies growth."""
        return _psd_margin(self.rho, self.rho[1:])

    def psd_nonincreasing_margin(self) -> float:
        return _psd_margin(self.rho_inv[1:], self.rho_inv)

    def det_positive(self) -> bool:
        return all(d > 0.0 for d in self.det_rho_inv)

    def gap_strictly_decreasing(self) -> bool:
        gaps = self.gaps
        if any(g is None for g in gaps):
            return False
        return all(b < a for a, b in zip(gaps, gaps[1:]))


def convergence_run(
    node: SNode, lam: complex, reference: DensityFn | None = None
) -> TrajectoryReport:
    """Trajectory of rho_k(lam, conj lam) over the orders k = 1..n of a node
    and its leading compressions, and its inverse with condition numbers,
    and the reference's outer modulus at lam: the
    log-det integral is finite (Szego's condition) exactly when
    :func:`outer_modulus` does not raise :class:`SzegoViolated`, and in the
    scalar case it gives the target 2 pi |G(lam)|^2 the inverse decreases
    toward.  A reference whose support is not the whole line vanishes on a
    set of positive measure, so it fails the condition with no quadrature.

    Every order's rho comes from one :func:`snode.leading_rho` call on the
    node; the inverses come from one stacked :func:`matcore.inv_hpd` and
    their determinants from one stacked ``eigvalsh``."""
    if np.imag(lam) <= 0.0:
        raise NotInUpperHalfPlane(f"lam = {lam} must lie in the open upper half-plane")
    orders = tuple(range(1, node.m // node.p + 1))
    rhos = leading_rho(node, lam)
    rho_inv = matcore.inv_hpd(rhos)
    dets = np.prod(np.linalg.eigvalsh(rho_inv), axis=-1)
    conds = [float(np.linalg.cond(node.S[: k * node.p, : k * node.p])) for k in orders]
    target = None
    szego_finite = False
    if reference is not None and reference.support == (-np.inf, np.inf):
        try:
            modulus = outer_modulus(reference, lam)
        except SzegoViolated:
            pass
        else:
            szego_finite = True
            if node.p == 1:
                target = float(2.0 * np.pi * modulus**2)
    return TrajectoryReport(
        lam=complex(lam),
        orders=orders,
        rho=tuple(rhos),
        rho_inv=tuple(rho_inv),
        det_rho_inv=tuple(map(float, dets)),
        conds=tuple(conds),
        target=target,
        szego_finite=szego_finite,
    )


# ---------------------------------------------------------------------------
# appendix-style numerical lemmas


def det_strict_lemma(A, B):
    """det(A + B) > det(A) strictly for A > 0, B >= 0, B != 0; equality when
    B is 0 to the default tolerance of A.  Stacks of A and B give one flag
    per pair."""
    A = matcore.as_matrix_or_stack(A)
    B = matcore.as_matrix_or_stack(B)
    det_a = matcore.cholesky_pd(A).det()
    det_ab = matcore.cholesky_pd(A + B).det()
    vanishing = np.abs(B).max(axis=(-2, -1)) <= matcore.default_tol(A)
    holds = np.where(vanishing, abs(det_ab - det_a) <= 1e-10 * (1.0 + det_a), det_ab > det_a * (1.0 + 1e-12))
    return holds if holds.ndim else bool(holds)


def minkowski_det_margin(B1, B2):
    """det(B1 + B2)^{1/p} - det(B1)^{1/p} - det(B2)^{1/p}; >= 0 for PSD inputs.
    Stacks of B1 and B2 give one margin per pair."""
    B1 = matcore.as_matrix_or_stack(B1)
    B2 = matcore.as_matrix_or_stack(B2)
    p = B1.shape[-1]

    def root_det(M):
        w = np.clip(np.linalg.eigvalsh(matcore.hermitian_part(M)), 0.0, None)
        # an array power even for one pair: numpy's scalar power rounds differently
        return np.prod(w, axis=-1, keepdims=True) ** (1.0 / p)

    margin = (root_det(B1 + B2) - root_det(B1) - root_det(B2))[..., 0]
    return margin if margin.ndim else float(margin)


@dataclass(frozen=True)
class LimitInequalityReport:
    integrals: tuple
    limsup_estimate: float
    extrapolated: float | None
    rhs: float


# the frequency schedule k of the family and the cells of the weak-limit grid
_DEMO_KS = (64, 128, 256, 512, 1024)
_DEMO_CELLS = 100


def limit_inequality_demo(p_seq: Callable[[int], DensityFn]) -> LimitInequalityReport:
    """Log-det integrals of an oscillating density family and the integral
    of its weak limit, the two sides of limsup I_k <= integral ln det (weak
    limit).

    Computes I_k = integral_a^b ln det P_k dt/(1+t^2) along the schedule
    :data:`_DEMO_KS`, on the bounded support (a, b) of the last P_k, its
    limsup over the last three and its extrapolation 2 I_K - I_{K/2} (None
    unless both are finite), and identifies the weak-limit density by
    differencing the cumulative integrals of that P_k; ``rhs`` is -inf where
    the weak limit vanishes on a cell.
    """
    ks = _DEMO_KS
    members = [p_seq(k) for k in ks]
    if not members[-1].bounded_support:
        raise Unsupported(f"the family must have a bounded support, got {members[-1].support}")
    a, b = members[-1].support

    def weighted_logdet(P: DensityFn, k: int) -> float:
        # composite GL on panels fine enough for oscillation at frequency
        # ~ k, also cut at the breaks of P, accepted where 8 and 16 nodes
        # per panel agree
        panels = max(64, int(4 * k * (b - a) / (2.0 * np.pi)))
        cuts = (*np.linspace(a, b, panels + 1)[1:-1], *P.breaks)

        def integrand(ts):
            return _finite_log_det(P, ts) / (1.0 + ts * ts)

        try:
            value = quadrature.integrate_with_check(integrand, (a, b), cuts, 8, _LOG_TOL, f"I_{k}")
        except SzegoViolated:
            return -np.inf
        return float(value)

    integrals = tuple(weighted_logdet(P, k) for P, k in zip(members, ks))
    limsup_estimate = max(integrals[-3:])

    # weak limit on the grid from the cumulative integrals of the last member;
    # sub-panels per cell resolve the fastest oscillation in the family
    edges = np.linspace(a, b, _DEMO_CELLS + 1)
    sub = max(1, int(np.ceil(ks[-1] * (b - a) / _DEMO_CELLS / 4.0)))
    sub_edges = np.linspace(edges[:-1], edges[1:], sub + 1, axis=1)
    t, w = quadrature.gauss_legendre(sub_edges[:, :-1, None], sub_edges[:, 1:, None], 8)
    values = members[-1](t.ravel())
    values = values.reshape(*t.shape, *values.shape[1:])
    dxi = np.arctan(edges[1:]) - np.arctan(edges[:-1])
    cell_avgs = np.einsum("csi,csi...->c...", w / (1.0 + t * t), values) / dxi[:, None, None]
    dets = np.real(np.linalg.det(cell_avgs))
    rhs = -np.inf if np.any(dets <= 1e-300) else float(np.sum(np.log(dets) * dxi))
    finite = np.isfinite(integrals[-1]) and np.isfinite(integrals[-2])
    return LimitInequalityReport(
        integrals=integrals,
        limsup_estimate=float(limsup_estimate),
        extrapolated=2.0 * integrals[-1] - integrals[-2] if finite else None,
        rhs=rhs,
    )
