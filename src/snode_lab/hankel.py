"""Block Hankel S-nodes for the truncated power-moment problem.

A spec (p, n, H_0..H_{2n-2}) assembles H(n) = {H_{i+j-2}}.  The node uses
the block down-shift A, Phi2 = [I; 0; ...; 0] and
Phi1 = -i (0, H_0, ..., H_{n-2})^T, the unique column making the identity
A H - H A* = i Pi J Pi* hold.

The node's chain (:func:`snode.node_chain`) has for rows the p x 2p
coefficients omega_k with

    omega_k J omega_k* = 0,   i omega_k J omega_{k-1}* = t_{k+1} > 0,
    omega_0 = [0  t_1],

and its elementary factors (:func:`snode.chain_factors` with c = 0)
w_{k+1}(lam) = I + (i/lam) J omega_k* t_{k+1}^{-1} omega_k multiply to the
node's transfer matrix.

Moment recovery runs two independent routes for a Weyl function phi of the
node: the expansion coefficients of -phi at infinity, by the trapezoid rule
on a full circle outside the poles of phi, and quadrature of t^k against the
boundary density of phi.  The same circle rule and density give the
interpolation data (gamma, theta, mu) of the Weyl function of a node with
invertible A, from which :func:`interp_residual` rebuilds S and Phi1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import matcore, quadrature, serialization
from .densities import DensityFn
from .errors import MissingMoment, SingularDenominator, Unsupported
from .snode import Frame, ParamPair, SNode, _resolvent, lft, node_frame


@dataclass(frozen=True)
class HankelSpec:
    """Block size p, block order n, and the 2n-1 Hermitian moment blocks
    (kept as one read-only (2n-1, p, p) stack)."""

    p: int
    n: int
    H: np.ndarray

    def __post_init__(self):
        count = 2 * self.n - 1
        blocks = matcore.as_block_stack(self.H, self.p, count, f"H_0..H_{count - 1}")
        matcore.assert_hermitian(blocks, names=[f"H_{k}" for k in range(count)])
        object.__setattr__(self, "H", blocks)

    def matrix(self) -> np.ndarray:
        p, n = self.p, self.n
        k = np.arange(n)
        blocks = self.H[k[:, None] + k]
        return blocks.swapaxes(1, 2).reshape(n * p, n * p)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "H": serialization.matrix_to_json(self.H),
        }

    @classmethod
    def from_json(cls, data: dict) -> "HankelSpec":
        return cls(
            p=serialization.int_from_json(data["p"]),
            n=serialization.int_from_json(data["n"]),
            H=serialization.matrix_from_json(data["H"]),
        )


def build_hankel_node(spec: HankelSpec) -> SNode:
    p, n = spec.p, spec.n
    Phi2 = np.eye(n * p, p, dtype=complex)
    Phi1 = np.zeros((n * p, p), dtype=complex)
    Phi1[p:] = -1j * np.reshape(spec.H[: n - 1], (-1, p))
    return SNode(p=p, shift=(0, 1, 0), S=spec.matrix(), Phi1=Phi1, Phi2=Phi2)


# _MOMENT_QUAD: node budget of every moment and interpolation integral ((32, 64)
# per graded panel, a ladder up to (2048, 4096) on an interval); _RECOVER_MARGIN:
# the circle |z| = R of both lies this factor outside the farthest pole of phi
_MOMENT_QUAD = 2048
_RECOVER_MARGIN = 1.5


def moments_from_density(density: DensityFn, count: int) -> np.ndarray:
    """H_k = integral t^k P(t) dt for k = 0..count-1, stacked.

    The density is evaluated once per rule for all orders, and the
    integrand returns it as :class:`quadrature.Powers` of the nodes t: the
    rule contracts the one stack P(t) against one running weight row per
    order, w t^k = (w t^(k-1)) t, with no stack of t^k P(t).  The row of
    order 1 is bitwise numpy's w * t; that of order k has a relative error
    of at most gamma_k = k u / (1 - k u), u = 2^-53, against the exact
    w t^k (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 3.1), with bits that do not depend on the sign of t, and it is the
    same row however many orders are asked for.  Each order has its own
    doubled-node convergence check; the lowest order that fails raises.
    The rule follows from the density's support and :data:`_MOMENT_QUAD`
    (see :func:`quadrature.integrate_with_check`), cut or graded at the
    density's breaks.  On the full line each order must be absolutely
    integrable: the smooth majorant (1 + t^2)^(k/2) tr P(t) of |t|^k |P(t)|
    gets its own check, ahead of the order's value, so a divergent moment
    raises naming the lowest divergent order; its rows run from w tr P(t),
    multiplied by (1 + t^2)^(1/2) from order to order.  A density that
    declares how many absolute moments it has (``DensityFn.moments``)
    refuses a larger ``count`` first, with :class:`MissingMoment`, and no
    quadrature runs.
    """
    if density.moments is not None and count > (k := density.moments):
        raise MissingMoment(f"the {density.name} density has no moment {k}: its absolute moments end at order {k - 1}")
    names = [f"moment {k}" for k in range(count)]
    if density.bounded_support:

        def integrand(ts):
            return quadrature.Powers(count, ((ts, density(ts)),))

    else:

        def integrand(ts):
            values = density(ts)
            root = ts * ts
            root += 1.0
            np.sqrt(root, out=root)
            # tr P as the real parts of the diagonal added in order (at p = 1 a view)
            trace = sum((values[:, i, i].real for i in range(1, density.p)), values[:, 0, 0].real)
            return quadrature.Powers(count, ((root, trace), (ts, values)))

        names = [item for name in names for item in (f"{name} absolute", name)]
    blocks = quadrature.integrate_with_check(integrand, density.support, density.breaks, _MOMENT_QUAD, 1e-8, names)
    if not density.bounded_support:
        blocks = blocks[1::2]
    return np.stack([matcore.hermitian_part(b) for b in blocks])


def weyl_densities(frm: Frame, pairs) -> tuple[list[DensityFn], list[np.ndarray]]:
    """Boundary densities of the Weyl functions of a frame and a sequence of
    pairs, one per pair, with the zeros of det F that gave each its breaks:

        mu'(t) = F(t)^{-*} jform F(t)^{-1},   jform = (R*Q + Q*R) / (2 pi),

    with the p x p LFT denominator F(t) = Frm21(t) R + Frm22(t) Q from
    :meth:`Frame.denominator` (a matrix polynomial in t for a Hankel node).
    The values evaluate it directly on the axis (the frames in use are
    J-unitary there), on chunks of at most :data:`matcore.CHUNK` points.
    At p <= 2 a value is adj(F)* jform adj(F) / |det F|^2, formed entry by
    entry from :func:`matcore.adjugate` (at p = 1, jform / |F|^2) of F scaled
    by :func:`matcore.power_of_two_scale`, so that entries of F past 1e154
    do not overflow it; above, F is inverted by LAPACK.  The values raise
    :class:`SingularDenominator` only where they are not finite, naming the
    first such point: where F is exactly singular or the value overflows.
    A nearly singular F is not refused there: for a pair singular at
    infinity the value can read 1.4e19 near t = -1e17, where it is 1/pi,
    and only the doubled-node check of an integral downstream stops it;
    certifying the values is ROADMAP item 1b.

    The density carries an exact log-determinant,

        ln det mu'(t) = ln det(R*Q + Q*R) - p ln(2 pi) - 2 ln|det F(t)|,

    which stays numerically meaningful at any |t| (the direct imaginary part
    does not) and is -inf everywhere for a pair with singular R*Q + Q*R.
    It evaluates no F on the points: with the zeros z_k = x_k + i y_k of
    det F and the frame's :attr:`Frame.pole` (pole, M),

        ln|det F(t)| = c + sum_k (1/2) ln((t - x_k)^2 + y_k^2) - M ln|1 - t/pole|,

    in real arithmetic, a few passes over the points per zero, with c
    anchored by ln|det F(i)|.  It is +inf at an exact real zero.

    The set-up runs on stacks over the pairs: their jforms and ln det jform,
    F at the one point t = i for all of them from one :meth:`Frame.denominator`
    call with ln|det F(i)| from one ``slogdet``, and ln|i - z_k| of all
    their zeros in one pass.  Each pair's values are bitwise those of a
    batch of one.  A density's values build the pair's own evaluator of F
    at their first call; the log-det needs none.

    The zeros of det F within 2 of the axis are the density's breaks, as
    complex numbers: each is the pole of a Lorentzian feature as wide as its
    distance from the axis.  The zeros of all pairs are the eigenvalues of
    the pencils of the frame's realization, from one stacked solve
    (:func:`_denominator_zeros`).
    """
    R, Q = (np.stack(ms) for ms in zip(*(pair.constant_value for pair in pairs)))
    roots = _denominator_zeros(frm, R, Q)
    # every pair's jform, ln det jform and ln|det F(i)| as stacks, one slogdet each
    RQ = np.swapaxes(R, 1, 2).conj() @ Q
    jforms = (RQ + np.swapaxes(Q, 1, 2).conj() @ R) / (2.0 * np.pi)
    log_nums = np.linalg.slogdet(jforms)[1]
    at_i = np.linalg.slogdet(frm.denominator(R, Q)(np.array([1j]))[:, 0])[1]
    # anchors c = ln|det F(i)| - sum_k ln|i - z_k| + M ln|i - pole|, the logs of
    # all zeros in one pass, each pair's summed alone
    logs = np.log(np.abs(1j - np.concatenate(roots)))
    ends = np.cumsum([0, *(r.size for r in roots)])
    anchors = at_i - np.array([np.sum(logs[a:b]) for a, b in zip(ends[:-1], ends[1:])])
    if frm.pole is not None:
        anchors += frm.pole[1] * float(np.log(abs(1j - frm.pole[0])))
    constants = log_nums - 2.0 * anchors
    dens = [
        _weyl_density(frm, pair, jform, float(log_num), float(c), r)
        for pair, jform, log_num, c, r in zip(pairs, jforms, log_nums, constants, roots)
    ]
    return dens, roots


def _weyl_density(frm: Frame, pair: ParamPair, jform: np.ndarray, log_num: float, constant: float, roots: np.ndarray):
    """The density of :func:`weyl_densities` of one pair, with its jform, its
    ln det jform ``log_num``, the zeros of its det F and the constant
    ``constant`` = ln det jform - 2 c of its log-det.  The log-det is the
    constant, less ln|t - z|^2 for each zero z, plus M ln|t - pole|^2 for
    the frame's :attr:`Frame.pole`.  The values build the pair's own
    evaluator of F at their first call."""
    p, pole = frm.p, frm.pole
    denominator = functools.cache(lambda: frm.denominator(pair.R, pair.Q))

    def values(ts):
        F = denominator()(ts)
        if p > 2:
            try:
                Finv = np.linalg.inv(F)
            except np.linalg.LinAlgError:
                _raise_at_first(np.isneginf(np.linalg.slogdet(F)[1]), ts)
                raise
            return np.swapaxes(Finv, 1, 2).conj() @ jform @ Finv
        # adj* (jform adj) / |det F|^2 from the (N,) entry arrays of s F,
        # times s^2: the density is homogeneous of degree -2 in F
        s = matcore.power_of_two_scale(F)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            adj, det = matcore.adjugate(F * s[:, None, None])
            abs_det2 = det.real * det.real + det.imag * det.imag
            rows = matcore.entry_product(matcore.entry_adjoint(adj), matcore.entry_product(jform, adj))
            out = matcore.from_entries(rows, ts.size) / abs_det2[:, None, None] * (s * s)[:, None, None]
        _raise_at_first(~np.isfinite(out).all(axis=(1, 2)), ts)
        return out

    def fn(ts):
        return matcore.in_chunks(values, np.asarray(ts, dtype=float))

    def log_det(ts):
        ts = np.asarray(ts, dtype=float)
        if log_num == -np.inf:  # a singular jform: det mu' = 0 wherever F is invertible
            return np.full(ts.size, -np.inf)
        out = np.full(ts.size, constant)
        with np.errstate(divide="ignore"):  # ln 0 = -inf at an exact real zero
            for z in roots:
                out -= _log_square_distance(ts, z)
            if pole is not None:
                out += pole[1] * _log_square_distance(ts, pole[0])
        return out

    # the near-axis zeros of det F are the poles of the density's narrow
    # Lorentzian features; the graded rule resolves each to its width
    breaks = tuple(complex(r) for r in roots if abs(r.imag) < 2.0 and abs(r) < 1e6)
    return DensityFn("weyl", fn, p=p, log_det=log_det, breaks=breaks)


def _log_square_distance(ts: np.ndarray, z: complex) -> np.ndarray:
    """ln|t - z|^2 = ln((t - x)^2 + y^2) at the real points ts, z = x + i y,
    in real arithmetic."""
    d = ts - z.real
    d *= d
    d += z.imag * z.imag
    return np.log(d, out=d)


def _raise_at_first(singular: np.ndarray, ts: np.ndarray) -> None:
    """Raise :class:`SingularDenominator` at the first point flagged."""
    bad = np.flatnonzero(singular)
    if bad.size:
        raise SingularDenominator(ts[bad[0]])


def _denominator_zeros(frm: Frame, R: np.ndarray, Q: np.ndarray) -> list[np.ndarray]:
    """Zeros of det F for every pair of the (N, p, p) stacks R and Q,
    F = Q + z C (I - z A)^{-1} B by the
    frame's :attr:`Frame.realization`: the finite eigenvalues z of the pencil
    E0 + z E1, E0 = [[I, -B], [0, Q]], E1 = [[-A, 0], [C, 0]], of determinant
    det(I - z A) det F(z) (Emami-Naeini & Van Dooren, Automatica 18, 1982).
    They are z = i + 1/mu for the eigenvalues mu of -(E0 + i E1)^{-1} E1
    (F(i) is invertible for a Weyl function), from one stacked ``solve`` and
    ``eigvals`` in which LAPACK takes each pair on its own, so a pair's zeros
    are those of a batch of one.  |mu| <= 1e-12 max(1, max |mu|) is a zero
    at infinity and goes: p of them, and one per degree that det F loses."""
    A, B, C = frm.realization(R, Q)
    m, p = A.shape[-1], frm.p
    E0, E1 = np.zeros((2, len(R), m + p, m + p), dtype=complex)
    E0[:, :m, :m], E0[:, :m, m:], E0[:, m:, m:] = np.eye(m), -B, Q
    E1[:, :m, :m], E1[:, m:, :m] = -A, C
    mus = np.linalg.eigvals(-np.linalg.solve(E0 + 1j * E1, E1))
    scale = np.maximum(1.0, np.max(np.abs(mus), axis=1, initial=0.0))
    return [1j + 1.0 / mu[np.abs(mu) > 1e-12 * s] for mu, s in zip(mus, scale)]


@dataclass(frozen=True)
class MomentReport:
    """Two-route moment recovery plus the top-order inequality certificate."""

    orders: tuple
    laurent: tuple          # coefficients of w^{k+1} in -phi(1/w), by the circle rule
    measure: tuple          # from quadrature of t^k against the density
    reference: tuple        # the input blocks H_k being certified
    tail_order: int
    tail_integral: np.ndarray
    tail_reference: np.ndarray

    def max_error(self) -> float:
        worst = 0.0
        for lau, mea, ref in zip(self.laurent, self.measure, self.reference):
            scale = 1.0 + float(np.max(np.abs(ref)))
            worst = max(worst, float(np.max(np.abs(lau - ref))) / scale)
            worst = max(worst, float(np.max(np.abs(mea - ref))) / scale)
        return worst

    def tail_slack(self) -> float:
        """Largest eigenvalue of (integral t^m dmu - H_m) at m = 2n-2; <= 0 up
        to tolerance certifies the inequality."""
        gap = matcore.hermitian_part(self.tail_integral - self.tail_reference)
        return float(np.linalg.eigvalsh(gap)[-1])


def recover_moments(spec: HankelSpec, pair: ParamPair) -> MomentReport:
    """Recover H_k (k <= 2n-3) from the Weyl function of the node and certify
    integral t^{2n-2} dmu <= H_{2n-2}.

    The expansion route reads H_k as the coefficient of w^{k+1} in
    -phi(1/w) = sum_k H_k w^{k+1}, by the trapezoid rule of
    :func:`quadrature.circle_coefficients` on |w| = 1/R, with
    R = :data:`_RECOVER_MARGIN` * max(1, max |zero of det F|): the poles of
    phi lie inside |z| = R, so -phi(1/w) is analytic on and inside the
    circle.  Each coefficient is accepted at a doubled-node drift of at most
    1e-8 (1 + its size), and the terms in negative powers of w must vanish
    to 1e-8 of max |phi| on the circle.  The measure route integrates t^k
    against the boundary density.
    """
    n = spec.n
    node = build_hankel_node(spec)
    max_known = 2 * n - 3

    frm = node_frame(node)
    [density], [roots] = weyl_densities(frm, [pair])
    radius = _RECOVER_MARGIN * max(1.0, float(np.max(np.abs(roots), initial=0.0)))
    expansion = quadrature.circle_coefficients(
        lambda ws: -lft(frm, pair, 1.0 / ws), 1.0 / radius, max_known + 2, "expansion coefficient"
    )
    laurent = [matcore.hermitian_part(c) for c in expansion[1:]]

    tail_order = 2 * n - 2
    *measure, tail = moments_from_density(density, tail_order + 1)
    return MomentReport(
        orders=tuple(range(max_known + 1)),
        laurent=tuple(laurent),
        measure=tuple(measure),
        reference=tuple(spec.H[: max_known + 1]),
        tail_order=tail_order,
        tail_integral=tail,
        tail_reference=spec.H[tail_order],
    )


def interp_residual(node: SNode, pair: ParamPair):
    """Rebuild (S, Phi1) from the interpolation data of the Weyl function
    phi = lft(node_frame(node), pair) and report both residuals.

    The data are those of the representation
    phi(z) = gamma z + theta + integral (1 + t z)/((t - z)(1 + t^2)) mu'(t) dt.
    One :func:`weyl_densities` call gives the density mu' and the zeros of
    det F.  gamma is coefficient 0 of w phi(1/w), by
    :func:`quadrature.circle_coefficients` on |w| = 1/R with
    R = :data:`_RECOVER_MARGIN` * max(1, |1/c|, max |zero of det F|), which
    clears every pole of phi and the frame's pole at 1/conj(c); a pole left
    outside |z| = R fails the rule's negative-power check.  theta is the
    Hermitian part of phi(i).  The rebuilt data are

        S~    = integral (I - tA)^{-1} Phi2 mu'(t) Phi2* (I - tA*)^{-1} dt + F F*,
        Phi1~ = -i integral (A (I - tA)^{-1} + t/(1+t^2) I) Phi2 mu'(t) dt
                + i (Phi2 theta + F gamma^{1/2}),

    where A F = Phi2 gamma^{1/2}; the integrals run over the full line on
    the graded rule of the density's breaks, as full-line moments do.
    Returns (||S - S~||, ||Phi1 - Phi1~||).  Requires A invertible (c != 0,
    not so for a Hankel node); raises :class:`Unsupported` otherwise.
    """
    m, p = node.m, node.p
    c = node.shift[0]
    if c == 0:
        raise Unsupported("A has a zero eigenvalue")
    frm = node_frame(node)
    [density], [roots] = weyl_densities(frm, [pair])
    radius = _RECOVER_MARGIN * max(1.0, 1.0 / abs(c), float(np.max(np.abs(roots), initial=0.0)))
    [gamma] = quadrature.circle_coefficients(
        lambda ws: ws[:, None, None] * lft(frm, pair, 1.0 / ws), 1.0 / radius, 1, "gamma coefficient"
    )
    gamma_half = matcore.sqrtm_psd(matcore.hermitian_part(gamma))
    theta = matcore.hermitian_part(lft(frm, pair, 1j))
    F = _resolvent(node, np.zeros(1), 1.0, node.Phi2 @ gamma_half, np.zeros(1))[0]

    def pieces(ts):
        mu = density(ts)
        V = _resolvent(node, 1.0, -ts, node.Phi2, ts)
        s_terms = V @ mu @ np.swapaxes(V, 1, 2).conj()
        tail = (ts / (1.0 + ts * ts))[:, None, None] * node.Phi2
        phi_terms = -1j * ((node.A @ V + tail) @ mu)
        return np.concatenate([s_terms.reshape(ts.size, -1), phi_terms.reshape(ts.size, -1)], axis=1)

    flat = quadrature.integrate_with_check(
        pieces, (-np.inf, np.inf), density.breaks, _MOMENT_QUAD, 1e-8, "interpolation integrals"
    )
    S_tilde = flat[: m * m].reshape(m, m) + F @ F.conj().T
    Phi1_tilde = flat[m * m :].reshape(m, p) + 1j * (node.Phi2 @ theta + F @ gamma_half)
    return (
        matcore.frobenius(node.S - S_tilde),
        matcore.frobenius(node.Phi1 - Phi1_tilde),
    )
