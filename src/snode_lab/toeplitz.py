"""Block Toeplitz S-nodes and their coefficient machinery.

A spec (p, n, s_0..s_{1-n}, nu) assembles the Hermitian block Toeplitz
matrix S(n) = {s_{j-i}} with s_k = s_{-k}*.  The module provides:

* the node {A, S, Pi} satisfying A S - S A* = i Pi J Pi*, where A is block
  lower triangular with i/2 on the diagonal and i below;
* the positive coefficients C_k (C_k j C_k = j) with their strict
  contractions rho_k, read off the node's chain (:func:`snode.node_chain`,
  whose rows are [X_k Y_k]) by :func:`dirac_chain` as (L, 2p, 2p) and
  (L, p, p) stacks; the chain's elementary factors are
  :func:`snode.chain_factors` with c = i/2;
* the fundamental solution W_k(z) of the one-step recursion
  W_{k+1} = (I + i z j C_k) W_k (:func:`dirac_sweep`, on a stack of
  coefficient stacks) and the frames built from it;
* Taylor-series recovery of the blocks from a Weyl function, and the
  head/tail composition check for split coefficient sequences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import matcore, quadrature, serialization
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotContractive,
    NotHermitian,
    NotPositiveDefinite,
    PoleAtZ,
)
from .snode import Frame, NodeChain, ParamPair, SNode, guard_pairs, lft_blocks


@lru_cache(maxsize=16)
def unitary_K(p: int) -> np.ndarray:
    """(1/sqrt 2) [[I, -I], [I, I]]; unitary with K* J K = diag(I, -I)
    (cached, read-only)."""
    Ip = np.eye(p, dtype=complex)
    K = matcore.block([[Ip, -Ip], [Ip, Ip]]) / np.sqrt(2.0)
    K.setflags(write=False)
    return K


@lru_cache(maxsize=16)
def frame_basis(p: int) -> np.ndarray:
    """M = J j K, the unitary that turns W* into a frame, M W* M* (cached,
    read-only)."""
    M = matcore.exchange_J(p) @ matcore.signature_j(p) @ unitary_K(p)
    M.setflags(write=False)
    return M


@dataclass(frozen=True)
class ToeplitzSpec:
    """Block size p, block order n, blocks s_0, s_{-1}, ..., s_{1-n}, and the
    Hermitian normalizer nu."""

    p: int
    n: int
    s: tuple
    nu: np.ndarray

    def __post_init__(self):
        blocks = matcore.as_block_stack(self.s, self.p, self.n, f"s_0..s_{1 - self.n}")
        nu = matcore.as_matrix(self.nu)
        if nu.shape != (self.p, self.p):
            raise DimensionMismatch(f"nu must be {self.p} x {self.p}")
        # s_0 and nu, each at its own tolerance
        matcore.assert_hermitian(np.stack((blocks[0], nu)), names=("s_0", "nu"))
        nu.setflags(write=False)
        object.__setattr__(self, "s", tuple(blocks))
        object.__setattr__(self, "nu", nu)

    def matrix(self) -> np.ndarray:
        """Assemble S(n) = {s_{j-i}} with s_k = s_{-k}* for k > 0: block (i, j)
        is s_{-(i-j)} on and below the diagonal, its adjoint above."""
        p, n = self.p, self.n
        k = np.arange(n)
        gap = k[:, None] - k
        lower = np.asarray(self.s)[np.abs(gap)]
        blocks = np.where((gap >= 0)[:, :, None, None], lower, lower.conj().swapaxes(-1, -2))
        return blocks.swapaxes(1, 2).reshape(n * p, n * p)

    def leading(self, k: int) -> "ToeplitzSpec":
        if not 1 <= k <= self.n:
            raise IndexOutOfRange(f"leading order {k} outside 1..{self.n}")
        return ToeplitzSpec(p=self.p, n=k, s=self.s[:k], nu=self.nu)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "s": serialization.matrix_to_json(self.s),
            "nu": serialization.matrix_to_json(self.nu),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ToeplitzSpec":
        return cls(
            p=serialization.int_from_json(data["p"]),
            n=serialization.int_from_json(data["n"]),
            s=tuple(serialization.matrix_from_json(data["s"])),
            nu=serialization.matrix_from_json(data["nu"]),
        )


def build_toeplitz_node(spec: ToeplitzSpec) -> SNode:
    """The node {A, S(n), [Phi1 Phi2]}: A = i/2 I + i N (I - N)^{-1}, lower
    triangular with i/2 on the diagonal and i below, Phi1 a column of
    identities, Phi2 the running sums s_0/2 + s_{-1} + ... + i Phi1 nu."""
    p, n = spec.p, spec.n
    Phi1 = np.tile(np.eye(p, dtype=complex), (n, 1))
    s = np.array(spec.s)
    s[0] = s[0] / 2.0
    partial = s.cumsum(axis=0).reshape(n * p, p)
    Phi2 = partial + 1j * Phi1 @ spec.nu
    return SNode(p=p, shift=(0.5j, 1j, 1), S=spec.matrix(), Phi1=Phi1, Phi2=Phi2)


def halmos(rho_or_rhos) -> np.ndarray:
    """Positive extension C of a strict contraction rho:

        C = diag((I - rho rho*)^{-1/2}, (I - rho* rho)^{-1/2}) [[I, rho], [rho*, I]]

    satisfying C > 0 and C j C = j.  A stack of contractions gives the stack
    of their extensions; a guard that fails names the first contraction it
    fails on."""
    rho = matcore.as_matrix_or_stack(rho_or_rhos)
    p = rho.shape[-1]
    if rho.shape[-2] != p:
        raise DimensionMismatch("rho must be square")
    norms = matcore.spectral_norm(rho)
    k, where = matcore.first_failure(norms >= 1.0 - 1e-12)
    if k is not None:
        raise NotContractive(f"{where}spectral norm {np.ravel(norms)[k]:.6f} not < 1")
    Ip = np.eye(p, dtype=complex)
    rho_star = np.swapaxes(rho, -1, -2).conj()
    # both diagonal blocks of every contraction as one stack, I - rho rho*
    # and I - rho* rho of contraction k at 2k and 2k + 1: each matrix is
    # factored on its own, so the blocks are bitwise those of two calls
    sides = np.stack((Ip - rho @ rho_star, Ip - rho_star @ rho), axis=-3).reshape(-1, p, p)
    try:
        roots = matcore.sqrtm_hpd(matcore.inv_hpd(sides)).reshape(*rho.shape[:-2], 2, p, p)
    except (NotHermitian, NotPositiveDefinite) as exc:
        # name contraction k // 2 of the caller's stack, or none for one contraction
        k, rest = re.fullmatch(r"matrix (\d+) of the stack: (.*)", str(exc), re.S).groups()
        exc.args = (f"matrix {int(k) // 2} of the stack: {rest}" if rho.ndim == 3 else rest,)
        raise
    D = np.zeros(rho.shape[:-2] + (2 * p, 2 * p), dtype=complex)
    D[..., :p, :p] = roots[..., 0, :, :]
    D[..., p:, p:] = roots[..., 1, :, :]
    F = np.empty_like(D)
    F[..., :p, :p] = F[..., p:, p:] = Ip
    F[..., :p, p:] = rho
    F[..., p:, :p] = rho_star
    return matcore.hermitian_part(D @ F)


def contraction_from_dirac(C: np.ndarray) -> np.ndarray:
    """Left inverse of :func:`halmos`: rho = (C_11)^{-1} C_12, for one C or a
    stack of them."""
    C = matcore.as_matrix_or_stack(C)
    p = C.shape[-1] // 2
    return np.linalg.solve(C[..., :p, :p], C[..., :p, p:])


def dirac_chain(chain: NodeChain) -> tuple[np.ndarray, np.ndarray]:
    """The (L, 2p, 2p) stack of coefficients C_k = 2 K* G_k* G_k K - j, C_k > 0
    with C_k j C_k = j, and the (L, p, p) stack of their contractions
    rho_k = (C_11)^{-1} C_12, of the chain of a Toeplitz node (see
    :func:`snode.node_chain`)."""
    K, j = unitary_K(chain.p), matcore.signature_j(chain.p)
    G = np.stack(chain.G)
    Cs = matcore.hermitian_part(2.0 * K.conj().T @ G.conj().swapaxes(1, 2) @ G @ K - j)
    return Cs, contraction_from_dirac(Cs)


def frames_of(W: np.ndarray, zs: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The frames (1 - i z/2)^{-n} M W* M* of the orders n at the points zs,
    M = J j K, for W[k] = W_n(-conj(z)/2) with n = orders[k] (shape
    (orders, points, 2p, 2p)); M W* M* is one :func:`matcore.sandwich` call
    over the whole stack.  Order 0 gives the identity and needs no prefactor,
    so only a nonzero order raises :class:`PoleAtZ`, at the first point where
    1 - i z/2 vanishes."""
    p = W.shape[-1] // 2
    scale = np.ones((orders.size, zs.size), dtype=complex)
    if orders.any():
        pref = 1.0 - 0.5j * zs
        bad = np.flatnonzero(np.abs(pref) < 1e-12)
        if bad.size:
            raise PoleAtZ(f"frame prefactor vanishes at z = {zs[bad[0]]} (pole at -2i)")
        # one integer power per order: numpy rounds pref ** -1 differently
        # when the exponent is an array
        for n in set(orders.tolist()) - {0}:
            scale[orders == n] = pref ** (-n)
    M = frame_basis(p)
    out = scale[..., None, None] * matcore.sandwich(M, np.swapaxes(W, -1, -2).conj(), M.conj().T)
    out[orders == 0] = np.eye(2 * p)
    return out


def _indices(values, L: int, what: str) -> np.ndarray:
    """The sequence ``values`` as an int array, each an integer in 0..L (an
    integral float such as 2.0 is one), else :class:`IndexOutOfRange`
    naming the first that is not."""
    out = []
    for v in values:
        if not (0 <= v <= L and float(v).is_integer()):
            raise IndexOutOfRange(f"{what} {v} is not an integer in 0..{L}")
        out.append(int(v))
    return np.array(out, dtype=int)


def dirac_sweep(Cs: np.ndarray, zs: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """Heads and tails of the one-step factors I + i z j C_m at the points zs,
    for any starts s in 0..L (repeats allowed), of a (count, L, 2p, 2p)
    stack of chains' coefficients: ``heads[c, k]`` is chain c's W_s, the
    product of its first s = starts[k] factors, and ``tails[c, k]`` the
    product of those of C_s, ..., C_{L-1}, both of shape
    (count, starts, points, 2p, 2p).  A start that is not an integer in
    0..L raises :class:`IndexOutOfRange`.

    Heads go forward, W_{m+1} = W_m + i z (j C_m W_m), from W_0 = I up to the
    largest start; tails go backward, T_m = T_{m+1} + i z (T_{m+1} j C_m),
    from T_L = I down to the smallest.  Each step is one
    :func:`matcore.sandwich` call over all points of all chains, with the
    chains as its batch, so the starts 0..L cost 2L calls.  One chain C is
    the stack C[None], and each chain's products are bitwise those of its
    own.
    """
    count, L, size = Cs.shape[0], Cs.shape[1], Cs.shape[-1]
    starts = _indices(starts, L, "start")
    jCs = matcore.signature_j(size // 2) @ Cs
    iz = 1j * zs[:, None, None]
    heads = np.empty((count, starts.size, zs.size, size, size), dtype=complex)
    eye = np.broadcast_to(np.eye(size, dtype=complex), (count, zs.size, size, size))
    W, top = eye, starts.max(initial=0)
    for m in range(top + 1):
        heads[:, starts == m] = W[:, None]
        if m < top:
            W = W + iz * matcore.sandwich(jCs[:, m], W, None)
    # T_m is the running product of the factors of C_{L-1}, ..., C_m
    return heads, _running_products(eye, jCs[:, ::-1], iz, L - starts)


def _running_products(first: np.ndarray, steps: np.ndarray, iz: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The running products X_k = first (I + iz steps[:, 0]) ... (I + iz
    steps[:, k-1]) of a (count, K, m, m) stack of chains' steps, from a
    (count, points, r, m) stack ``first`` (X_0): ``out[:, i]`` is X_k for
    k = at[i], shape (count, at, points, r, m).  Each step
    X_{k+1} = X_k + iz (X_k steps[:, k]) is one :func:`matcore.sandwich`
    call over all points of all chains, with the chains as its batch, and
    the steps stop at the largest k asked for."""
    out = np.empty((first.shape[0], at.size, *first.shape[1:]), dtype=complex)
    X, top = first, at.max(initial=0)
    for k in range(top + 1):
        out[:, at == k] = X[:, None]
        if k < top:
            X = X + iz * matcore.sandwich(None, X, steps[:, k])
    return out


def dirac_frame(C: np.ndarray) -> Frame:
    """Frame closure of a chain's (n, 2p, 2p) coefficient stack C (a head is
    the slice C[:k]),

        (1 - i z/2)^{-n} J j K W_n(-conj(z)/2)* K* j J,

    the identity at n = 0, from one :func:`dirac_sweep` and one
    :func:`frames_of` call per evaluation.

    Holomorphic in the closed upper half-plane (the only pole is at -2i),
    which is what the entropy machinery requires on the Toeplitz side.  The
    cleared denominator (1 - i z/2)^n F(z) = sum_k z^k P_k, P_0 = Q, is
    realized by the block down-shift, [I; 0; ...] and [P_1 ... P_n], so the
    frame's ``pole`` is -2i of order n p.
    """
    order, p = len(C), C.shape[-1] // 2

    def fn(z_or_zs):
        zs = matcore.as_points(z_or_zs)
        heads, _ = dirac_sweep(C[None], -np.conj(zs) / 2.0, [order])
        out = frames_of(heads[0], zs, np.array([order]))[0]
        return out if np.ndim(z_or_zs) else out[0]

    def realization(R, Q):
        M = frame_basis(p)
        # coefficients of z^0..z^order of prod_k (I + (i z/2) C_k j) M* [R; Q], M = J j K
        Y = np.zeros((order + 1, *R.shape[:-2], 2 * p, p), dtype=complex)
        Y[0] = M.conj().T @ np.concatenate((R, Q), axis=-2)
        for Cj in 0.5j * C[::-1] @ matcore.signature_j(p):
            Y[1:] = Y[1:] + Cj @ Y[:-1]
        P = np.moveaxis(M[p:] @ Y[1:], 0, -2)
        return np.eye(order * p, k=-p), np.eye(order * p, p), P.reshape(*P.shape[:-2], order * p)

    return Frame(p=p, fn=fn, realization=realization, pole=(-2j, order * p) if order else None)


def taylor_recover(phi, count: int) -> list[np.ndarray]:
    """First ``count`` Taylor coefficients at 0 of g(zeta) = -i phi(2i (1-zeta)/(1+zeta)).

    Coefficient 0 is s_0/2 + i nu and coefficients 1..n-1 reproduce the
    generating blocks s_{-k}.  They come from the trapezoid rule of
    :func:`quadrature.circle_coefficients` on |zeta| = 1/2, whose image is a
    circle inside the upper half-plane, where phi is analytic; ``phi`` is
    called once per rule, on the array of its points.  Each coefficient is
    accepted at a doubled-node drift of at most 1e-8 (1 + its size), and
    the terms in negative powers must vanish to 1e-8 of max |g|.
    """

    def g(zeta):
        return -1j * np.asarray(phi(2j * (1.0 - zeta) / (1.0 + zeta)), dtype=complex)

    return list(quadrature.circle_coefficients(g, 0.5, count, "taylor coefficient"))


def khrushchev_check(rhos: np.ndarray, splits, pair: ParamPair, zgrid) -> float:
    """Max residual over the grid, the splits n and the chains of the
    head/tail composition identity; ``rhos`` is a (count, L, p, p) stack of
    count chains' contractions (one chain's are ``rhos[None]``).

    phi is the Weyl function of the full chain with the given pair,
    phi~ the Weyl function of the tail chain (coefficients n, n+1, ...)
    with the same pair, and the identity states

        phi(z) = i (F11 (-i phi~) + F12)(F21 (-i phi~) + F22)^{-1}

    with F the frame of the head chain (first n coefficients).  A split
    that is not an integer in 0..L raises :class:`IndexOutOfRange`, and an
    empty list of splits or an empty grid :class:`DimensionMismatch`.

    An LFT reads a frame only through its columns F [R; Q], so no 2p x 2p
    frame stack is formed (:func:`_composition_gaps` gives the route): the
    tails run on p x 2p rows, and only the heads, each of which composes
    its own [-i phi~; I], stay 2p x 2p.  One :func:`halmos` call extends all
    the contractions of a stack, 2L stacked steps give every tail and every
    head of every chain however many splits and chains there are, and one
    :func:`snode.lft_blocks` call each takes every tail and every
    composition.  The points go in chunks of at most :data:`matcore.CHUNK`
    (chain, point) pairs, and each chain's residuals are bitwise those of
    its own call.
    """
    count, L, p, _ = np.shape(rhos)
    Cs = halmos(np.reshape(rhos, (count * L, p, p))).reshape(count, L, 2 * p, 2 * p)
    splits = _indices(splits, L, "split")
    zs = np.asarray(zgrid, dtype=complex).ravel()
    for name, values in (("splits", splits), ("zgrid", zs)):
        if not values.size:
            raise DimensionMismatch(f"{name} is empty: the composition check needs at least one")
    M = frame_basis(p)
    steps = M @ matcore.signature_j(p) @ Cs @ M.conj().T
    adjoints = steps.conj().swapaxes(-1, -2)
    gaps = matcore.in_chunks(lambda chunk: _composition_gaps(steps, adjoints, splits, pair, chunk), zs, count)
    return float(gaps.max(initial=0.0))


def _composition_gaps(
    steps: np.ndarray, adjoints: np.ndarray, splits: np.ndarray, pair: ParamPair, zs: np.ndarray
) -> np.ndarray:
    """Worst gap over the chains and splits, at each point, of
    :func:`khrushchev_check`, from the (count, L, 2p, 2p) steps
    S_m = M j C_m M* and their adjoints, M = J j K (:func:`frame_basis`).

    The frame of order n is (1 - i z/2)^{-n} M W_n* M*, and a factor
    I + i w j C_m of W at w = -conj(z)/2 becomes I + i w S_m.  The tail of
    start s gives F [R; Q] = (1 - i z/2)^{-(L-s)} Z_s* from the rows
    Z_s = Z_{s+1} (I + i w S_s), Z_L = [R; Q]*.  The head of order n is
    G_n = M W_n* M* = G_{n-1} (I + i w S_{n-1})*, and split n composes
    G_n [-i phi~; I] as G_{n-1} Y* with Y = [-i phi~; I]* (I + i w S_{n-1}):
    the head's last factor is taken by the tails' row step, so at L = 1 the
    split at 1 repeats the full chain's operations, and with the unit pair
    its residual is exactly 0.  The prefactors cancel in the LFT but stay
    on the columns: the singular-denominator floor is absolute.
    """
    count, L, size = steps.shape[0], steps.shape[1], zs.size
    p = steps.shape[-1] // 2
    pref = 1.0 - 0.5j * zs
    bad = np.flatnonzero(np.abs(pref) < 1e-12)
    if L and bad.size:  # start 0 has order L: an order-0 frame has no prefactor
        raise PoleAtZ(f"frame prefactor vanishes at z = {zs[bad[0]]} (pole at -2i)")
    guard_pairs(pair.R[None], pair.Q[None], zs)
    # (1 - i z/2)^{-n} for n = 0..L, one integer power each (1 exactly at n = 0)
    scale = pref ** -np.arange(L + 1)[:, None]
    iw = 1j * (-np.conj(zs) / 2.0)[:, None, None]
    starts = np.array([0, *splits])
    rows = np.broadcast_to(_adjoint(pair.R, pair.Q), (count, size, p, 2 * p))
    tails = _running_products(rows, steps[:, ::-1], iw, L - starts)
    cols = np.conj(tails).reshape(-1, p, 2 * p).swapaxes(1, 2)
    phi = _weyl_values(cols, scale[L - starts], np.tile(zs, count * starts.size))
    phi = phi.reshape(count, starts.size, size, p, p)

    # every split composes its tail's pair (-i phi~, I), checked at every point
    R = -1j * phi[:, 1:].reshape(-1, p, p)
    Q = np.broadcast_to(np.eye(p, dtype=complex), R.shape)
    zs_splits = np.tile(zs, count * splits.size)
    guard_pairs(R, Q, zs_splits)
    # the last factor of every head on the rows: none at split 0, whose head is I
    last = np.concatenate((np.zeros((count, 1, 2 * p, 2 * p)), steps), axis=1)[:, splits]
    Y = _adjoint(R, Q).reshape(count * splits.size, size, p, 2 * p)
    Y = Y + iw * matcore.sandwich(None, Y, last.reshape(-1, 2 * p, 2 * p))
    identity = np.broadcast_to(np.eye(2 * p, dtype=complex), (count, size, 2 * p, 2 * p))
    heads = _running_products(identity, adjoints, np.conj(iw), np.maximum(splits - 1, 0))
    G = matcore.entries(heads.reshape(-1, 2 * p, 2 * p))
    cols = matcore.entry_product(G, matcore.entry_adjoint(matcore.entries(Y.reshape(-1, p, 2 * p))))
    composed = _weyl_values(matcore.from_entries(cols, len(zs_splits)), scale[splits], zs_splits)
    gaps = np.linalg.norm(phi[:, :1] - composed.reshape(count, splits.size, size, p, p), axis=(-2, -1))
    return gaps.max(axis=(0, 1), initial=0.0)


def _adjoint(R: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The p x 2p rows [R; Q]* of a pair or of stacks of pairs."""
    return np.concatenate((R, Q), axis=-2).conj().swapaxes(-1, -2)


def _weyl_values(cols: np.ndarray, scale: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """:func:`snode.lft_blocks` of an (N, 2p, p) stack of columns F [R; Q]
    without their frames' prefactors, which ``scale`` holds as a
    (k, points) array for N = chains k points; ``cols`` is scaled in
    place."""
    p = cols.shape[-1]
    blocks = cols.reshape(-1, *scale.shape, 2 * p, p)
    blocks *= scale[..., None, None]
    return lft_blocks(cols[:, :p], cols[:, p:], zs)
