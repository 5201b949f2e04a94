"""Seeded random generators for specs, contractions, and parameter pairs.

Used by the property sweeps in the test suite and by the CLI scenarios;
every function takes an explicit ``numpy.random.Generator`` so runs are
reproducible from a recorded seed.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .hankel import HankelSpec
from .snode import ParamPair
from .toeplitz import ToeplitzSpec


def random_complex(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hermitian(rng: np.random.Generator, p: int, scale: float = 1.0) -> np.ndarray:
    return matcore.hermitian_part(random_complex(rng, (p, p), scale))


def random_hpd(rng: np.random.Generator, p: int, scale: float = 1.0) -> np.ndarray:
    return _gram_hpd(random_complex(rng, (p, p), scale), scale)


def _gram_hpd(M: np.ndarray, scale: float) -> np.ndarray:
    """M M* + (scale / 20) I, for a matrix or a stack of them."""
    return M @ np.swapaxes(M, -1, -2).conj() + scale * 0.05 * np.eye(M.shape[-1])


def random_toeplitz_spec(rng: np.random.Generator, p: int, n: int) -> ToeplitzSpec:
    """A positive-definite spec: identity-dominant s_0, decaying off blocks."""
    s0 = np.eye(p, dtype=complex) + random_hermitian(rng, p, 0.1)
    offs = [random_complex(rng, (p, p), 0.25 / (n * (k + 1))) for k in range(n - 1)]
    nu = random_hermitian(rng, p, 0.3)
    return ToeplitzSpec(p=p, n=n, s=(s0, *offs), nu=nu)


def random_hankel_spec(rng: np.random.Generator, p: int, n: int) -> HankelSpec:
    """Moments of a random discrete matrix measure with n + 2 mass points.

    With more distinct points than the order and positive-definite weights,
    the assembled block Hankel matrix is positive definite.
    """
    count = n + 2
    points = np.sort(rng.uniform(-2.0, 2.0, size=count))
    weights = [random_hpd(rng, p, 0.6) for _ in range(count)]
    blocks = []
    for k in range(2 * n - 1):
        Hk = np.zeros((p, p), dtype=complex)
        for t, W in zip(points, weights):
            Hk = Hk + (t**k) * W
        blocks.append((Hk + Hk.conj().T) / 2.0)
    return HankelSpec(p=p, n=n, H=blocks)


def random_contractions(rng: np.random.Generator, p: int, count: int, max_norm: float = 0.85) -> np.ndarray:
    """A (count, p, p) stack of matrices with spectral norms uniformly below
    ``max_norm``.

    Each matrix draws its entries and then its norm, so this is the stream
    of ``count`` calls of :func:`random_contraction`, which this returns
    bitwise; the norms to scale by come from one SVD call for the stack.
    """
    M = np.empty((count, p, p), dtype=complex)
    targets = np.empty(count)
    for k in range(count):
        M[k] = random_complex(rng, (p, p))
        targets[k] = max_norm * rng.uniform(0.1, 1.0)
    tops = np.linalg.svd(M, compute_uv=False)[:, 0]
    return (targets / tops)[:, None, None] * M


def random_contraction(rng: np.random.Generator, p: int, max_norm: float = 0.85) -> np.ndarray:
    """A p x p matrix with spectral norm uniformly below ``max_norm``."""
    return random_contractions(rng, p, 1, max_norm)[0]


def random_constant_pairs(rng: np.random.Generator, p: int, count: int):
    """Stacks (R, Q) of ``count`` strictly nondegenerate constant pairs:
    R = I, Q = P + iK with P = random_hpd(0.8) and K = random_hermitian(0.8).

    The one draw of ``count`` x 4 p x p normals is the stream of ``count``
    calls of :func:`random_constant_pair`, which this returns bitwise.
    """
    draws = rng.standard_normal((count, 4, p, p))
    P = _gram_hpd(0.8 * (draws[:, 0] + 1j * draws[:, 1]), 0.8)
    K = matcore.hermitian_part(0.8 * (draws[:, 2] + 1j * draws[:, 3]))
    R = np.broadcast_to(np.eye(p, dtype=complex), (count, p, p))
    return R, P + 1j * K


def random_constant_pair(rng: np.random.Generator, p: int) -> ParamPair:
    """A strictly nondegenerate constant pair: R = I, Q = P + iK with P > 0."""
    R, Q = random_constant_pairs(rng, p, 1)
    return ParamPair.constant(R[0], Q[0])


def random_upper_points(
    rng: np.random.Generator, count: int, re_span: float = 3.0, im_range=(0.3, 2.5)
) -> np.ndarray:
    return rng.uniform(-re_span, re_span, count) + 1j * rng.uniform(*im_range, count)
