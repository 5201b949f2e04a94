"""Block Toeplitz S-nodes and their coefficient machinery.

A spec (p, n, s_0..s_{1-n}, nu) assembles the Hermitian block Toeplitz
matrix S(n) = {s_{j-i}} with s_k = s_{-k}*.  The module provides:

* the node {A, S, Pi} satisfying A S - S A* = i Pi J Pi*, where A is block
  lower triangular with i/2 on the diagonal and i below;
* the positive coefficients C_k (C_k j C_k = j) with their strict
  contractions rho_k, read off the node's chain (:func:`snode.node_chain`,
  whose rows are [X_k Y_k]) by :func:`dirac_chain`; the chain's elementary
  factors are :func:`snode.chain_factors` with c = i/2;
* the fundamental solution W_k(z) of the one-step recursion
  W_{k+1} = (I + i z j C_k) W_k and the frames built from it;
* Taylor-series recovery of the blocks from a Weyl function, and the
  head/tail composition check for split coefficient sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import matcore, quadrature, serialization
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotContractive,
    PoleAtZ,
)
from .snode import Frame, NodeChain, ParamPair, SNode, lft_stack


@lru_cache(maxsize=16)
def unitary_K(p: int) -> np.ndarray:
    """(1/sqrt 2) [[I, -I], [I, I]]; unitary with K* J K = diag(I, -I)
    (cached, read-only)."""
    Ip = np.eye(p, dtype=complex)
    K = matcore.block([[Ip, -Ip], [Ip, Ip]]) / np.sqrt(2.0)
    K.setflags(write=False)
    return K


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


@dataclass(frozen=True)
class DiracChain:
    """Coefficients C_k > 0 with C_k j C_k = j and their contractions rho_k."""

    p: int
    C: tuple
    rho: tuple

    def __len__(self) -> int:
        return len(self.C)

    def shifted(self, n: int) -> "DiracChain":
        """The tail chain starting at coefficient n."""
        if not 0 <= n <= len(self):
            raise IndexOutOfRange(f"shift {n} outside 0..{len(self)}")
        return DiracChain(p=self.p, C=self.C[n:], rho=self.rho[n:])

    def head(self, n: int) -> "DiracChain":
        if not 0 <= n <= len(self):
            raise IndexOutOfRange(f"head {n} outside 0..{len(self)}")
        return DiracChain(p=self.p, C=self.C[:n], rho=self.rho[:n])


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
    D = np.zeros(rho.shape[:-2] + (2 * p, 2 * p), dtype=complex)
    D[..., :p, :p] = matcore.sqrtm_hpd(matcore.inv_hpd(Ip - rho @ rho_star))
    D[..., p:, p:] = matcore.sqrtm_hpd(matcore.inv_hpd(Ip - rho_star @ rho))
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


def chain_from_contractions(rhos) -> DiracChain:
    """Build a chain directly from contractions via their positive extensions,
    all taken in one :func:`halmos` call."""
    rhos = tuple(matcore.as_matrix(r) for r in rhos)
    if not rhos:
        raise DimensionMismatch("need at least block size; pass p via a nonempty list")
    if any(r.shape != rhos[0].shape for r in rhos):
        raise DimensionMismatch("every contraction must have the same shape")
    return DiracChain(p=rhos[0].shape[0], C=tuple(halmos(np.stack(rhos))), rho=rhos)


def dirac_chain(chain: NodeChain) -> DiracChain:
    """The coefficients C_k = 2 K* G_k* G_k K - j and rho_k = (C_11)^{-1} C_12
    of the chain of a Toeplitz node (see :func:`snode.node_chain`)."""
    K, j = unitary_K(chain.p), matcore.signature_j(chain.p)
    G = np.stack(chain.G)
    Cs = matcore.hermitian_part(2.0 * K.conj().T @ G.conj().swapaxes(1, 2) @ G @ K - j)
    return DiracChain(p=chain.p, C=tuple(Cs), rho=tuple(contraction_from_dirac(Cs)))


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
    M = matcore.exchange_J(p) @ matcore.signature_j(p) @ unitary_K(p)
    out = scale[..., None, None] * matcore.sandwich(M, np.swapaxes(W, -1, -2).conj(), M.conj().T)
    out[orders == 0] = np.eye(2 * p)
    return out


def _indices(values, L: int, what: str) -> np.ndarray:
    """``values`` (one or a sequence) as an int array, each an integer in
    0..L (an integral float such as 2.0 is one), else
    :class:`IndexOutOfRange` naming the first that is not."""
    out = []
    for v in np.ravel(values):
        if not (0 <= v <= L and float(v).is_integer()):
            raise IndexOutOfRange(f"{what} {v} is not an integer in 0..{L}")
        out.append(int(v))
    return np.array(out, dtype=int)


def _coefficient_stack(chain: DiracChain) -> np.ndarray:
    """The coefficients of one chain as a (1, L, 2p, 2p) stack of chains."""
    return np.array(chain.C, dtype=complex).reshape(1, len(chain), 2 * chain.p, 2 * chain.p)


def dirac_sweep(chains, zs: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """Heads and tails of the one-step factors I + i z j C_m at the points zs,
    for any starts s in 0..L (repeats allowed), of one chain or of a
    (count, L, 2p, 2p) stack of chains' coefficients: ``heads[k]`` is W_s,
    the product of the first s = starts[k] factors, and ``tails[k]`` the
    product of those of C_s, ..., C_{L-1}, both of shape
    (starts, points, 2p, 2p) for a chain and (count, starts, points, 2p, 2p)
    for a stack.  A start that is not an integer in 0..L raises
    :class:`IndexOutOfRange`.

    Heads go forward, W_{m+1} = W_m + i z (j C_m W_m), from W_0 = I up to the
    largest start; tails go backward, T_m = T_{m+1} + i z (T_{m+1} j C_m),
    from T_L = I down to the smallest.  Each step is one
    :func:`matcore.sandwich` call over all points of all chains, with the
    chains as its batch, so the starts 0..L cost 2L calls.  One chain is a
    stack of one, and each chain's products are bitwise those of its own.
    """
    Cs = _coefficient_stack(chains) if isinstance(chains, DiracChain) else chains
    count, L, size = Cs.shape[0], Cs.shape[1], Cs.shape[-1]
    starts = _indices(starts, L, "start")
    jCs = matcore.signature_j(size // 2) @ Cs
    iz = 1j * zs[:, None, None]
    heads = np.empty((count, starts.size, zs.size, size, size), dtype=complex)
    tails = np.empty_like(heads)
    W = np.broadcast_to(np.eye(size, dtype=complex), (count, zs.size, size, size))
    T = W
    top, bottom = starts.max(initial=0), starts.min(initial=L)
    for m in range(top + 1):
        heads[:, starts == m] = W[:, None]
        if m < top:
            W = W + iz * matcore.sandwich(jCs[:, m], W, None)
    for m in range(L, bottom - 1, -1):
        tails[:, starts == m] = T[:, None]
        if m > bottom:
            T = T + iz * matcore.sandwich(None, T, jCs[:, m - 1])
    return (heads[0], tails[0]) if isinstance(chains, DiracChain) else (heads, tails)


def dirac_fundamental(chain: DiracChain, z_or_zs, k: int) -> np.ndarray:
    """W_k(z) from W_0 = I and W_{m+1}(z) = (I + i z j C_m) W_m(z)."""
    if not 0 <= k <= len(chain):
        raise IndexOutOfRange(f"step {k} outside 0..{len(chain)}")
    zs = matcore.as_points(z_or_zs)
    W = dirac_sweep(chain.head(k), zs, [k])[0][0]
    return W if np.ndim(z_or_zs) else W[0]


def frame_toeplitz(chain: DiracChain, n: int, z_or_zs) -> np.ndarray:
    """Frame value (1 - i z/2)^{-n} J j K W_n(-conj(z)/2)* K* j J; identity at n = 0."""
    if not 0 <= n <= len(chain):
        raise IndexOutOfRange(f"order {n} outside 0..{len(chain)}")
    zs = matcore.as_points(z_or_zs)
    out = frames_of(dirac_fundamental(chain, -np.conj(zs) / 2.0, n)[None], zs, np.array([n]))[0]
    return out if np.ndim(z_or_zs) else out[0]


def dirac_frame(chain: DiracChain, n: int | None = None) -> Frame:
    """Frame closure for the first n coefficients (all of them by default).

    Holomorphic in the closed upper half-plane (the only pole is at -2i),
    which is what the entropy machinery requires on the Toeplitz side.
    """
    order = len(chain) if n is None else n
    p = chain.p
    return Frame(
        p=p,
        fn=lambda z_or_zs: frame_toeplitz(chain, order, z_or_zs),
        # the frame is (1 - i z/2)^(-order) times a polynomial of degree order
        pole_clear=lambda ts: (1.0 - 0.5j * np.asarray(ts, dtype=complex)) ** (order * p),
        clear_degree=p * order,
    )


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

    return list(quadrature.circle_coefficients(g, 0.5, count, 1e-8, "taylor coefficient"))


def khrushchev_check(rhos, split_or_splits, pair: ParamPair, zgrid) -> float:
    """Max residual over the grid, and over the splits n when a sequence of
    them is given, of the head/tail composition identity; ``rhos`` is one
    chain (a :class:`DiracChain` or its contractions) or a (count, L, p, p)
    stack of count chains' contractions, whose residuals are maxed too.

    phi is the Weyl function of the full chain with the given pair,
    phi~ the Weyl function of the tail chain (coefficients n, n+1, ...)
    with the same pair, and the identity states

        phi(z) = i (F11 (-i phi~) + F12)(F21 (-i phi~) + F22)^{-1}

    with F the frame of the head chain (first n coefficients).  A split
    that is not an integer in 0..L raises :class:`IndexOutOfRange`.

    Every chain is one pass: one :func:`halmos` call extends all the
    contractions of a stack, and one :func:`dirac_sweep` gives every frame
    of every chain, the heads forward and the tails backward, 2L stacked
    steps however many splits and chains there are.  phi is the tail Weyl
    function of split 0, so one :func:`frames_of` and one :func:`lft_stack`
    call take every tail and one more of each every composition.  The
    points go in chunks of at most :data:`matcore.CHUNK` (chain, point)
    pairs, and each chain's residuals are bitwise those of its own call.
    """
    if isinstance(rhos, DiracChain):
        Cs = _coefficient_stack(rhos)
    elif np.ndim(rhos) == 4:
        count, L, p, _ = np.shape(rhos)
        Cs = halmos(np.reshape(rhos, (count * L, p, p))).reshape(count, L, 2 * p, 2 * p)
    else:
        Cs = _coefficient_stack(chain_from_contractions(rhos))
    splits = _indices(split_or_splits, Cs.shape[1], "split")
    zs = np.asarray(zgrid, dtype=complex).ravel()
    gaps = matcore.in_chunks(lambda chunk: _composition_gaps(Cs, splits, pair, chunk), zs, len(Cs))
    return float(gaps.max(initial=0.0))


def _composition_gaps(Cs: np.ndarray, splits: np.ndarray, pair: ParamPair, zs: np.ndarray) -> np.ndarray:
    """Worst gap over the chains and splits, at each point, of
    :func:`khrushchev_check`."""
    count, L, p, size = Cs.shape[0], Cs.shape[1], Cs.shape[-1] // 2, zs.size
    # start 0 and every split: tails[c, k] is W of chain c's coefficients
    # from starts[k] on, heads[c, k] W of the ones before it
    starts = np.array([0, *splits])
    heads, tails = dirac_sweep(Cs, -np.conj(zs) / 2.0, starts)

    def frames(W, orders):
        W = W.reshape(-1, size, 2 * p, 2 * p)
        return frames_of(W, zs, np.tile(orders, count)).reshape(-1, 2 * p, 2 * p)

    R, Q = (np.broadcast_to(M, (count * starts.size, size, p, p)).reshape(-1, p, p) for M in pair.at(zs))
    phi = lft_stack(frames(tails, L - starts), R, Q, np.tile(zs, count * starts.size))
    phi = phi.reshape(count, starts.size, size, p, p)
    ns = starts[1:]
    Ip = np.broadcast_to(np.eye(p, dtype=complex), (count * ns.size * size, p, p))
    composed = lft_stack(frames(heads[:, 1:], ns), -1j * phi[:, 1:].reshape(-1, p, p), Ip, np.tile(zs, count * ns.size))
    gaps = np.linalg.norm(phi[:, :1] - composed.reshape(count, ns.size, size, p, p), axis=(-2, -1))
    return gaps.max(axis=(0, 1), initial=0.0)
