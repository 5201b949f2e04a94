"""High-precision references for the moments workload (mpmath).

The asymptotics command reports, for each order k, det rho_k(lam, conj lam)^{-1}
of the Hankel node built from the density's moments, and for exp_sqrt also
the outer-factor target 2 pi |G(lam)|^2.  Both have references that need no
quadrature of the library's own:

* moments: exp(-sqrt|t|)/4 has moment (4m+1)! at order 2m and 0 at odd
  orders; the uniform density on [a, b] has (b^{k+1} - a^{k+1}) / ((k+1)(b-a));
* rho_k(lam, conj lam) = 2 Im(lam) v* H(k)^{-1} v with v = (1, conj lam, ...,
  conj lam^{k-1}) (scalar case);
* ln |G(lam)|^2 = (1/pi) integral Im(lam) ln P(t) / |t - lam|^2 dt, which for
  exp_sqrt is -ln 4 - (1/pi) integral Im(lam) sqrt|t| / |t - lam|^2 dt.
"""

from __future__ import annotations

import mpmath as mp

_DPS = 40

# Tolerances of the comparisons, carried with each oracle.  A determinant goes
# through a solve with H(k), so its attainable relative accuracy is about
# cond(H(k)) * eps; the bound allows 100 times that (the largest factor seen
# over 300 random uniform cases was 5) on top of a floor 2000 times above
# the worst well-conditioned error seen (5e-13).  The target integral is
# certified by the library to a doubled-node drift of 1e-7.
DET_FLOOR = 1e-9
DET_COND_FACTOR = 100 * 2.220446049250313e-16
TARGET_RTOL = 1e-7


def exact_moments(density: dict, count: int) -> list:
    """Moments of order 0..count-1 as mpmath numbers."""
    if density["name"] == "exp_sqrt":
        return [mp.factorial(2 * k + 1) if k % 2 == 0 else mp.mpf(0) for k in range(count)]
    if density["name"] == "uniform":
        a = mp.mpf(density["params"]["a"])
        b = mp.mpf(density["params"]["b"])
        return [(b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a)) for k in range(count)]
    raise ValueError(f"no oracle for density {density['name']!r}")


def asymptotics_oracle(density: dict, max_order: int, lam: complex) -> dict:
    """Reference ``det_rho_inv`` per order 1..max_order and, for exp_sqrt, the
    target, each with the relative tolerance of its comparison."""
    with mp.workdps(_DPS):
        moments = exact_moments(density, 2 * max_order - 1)
        lam_mp = mp.mpc(lam.real, lam.imag)
        dets = []
        tols = []
        for k in range(1, max_order + 1):
            H = mp.matrix(k, k)
            for i in range(k):
                for j in range(k):
                    H[i, j] = moments[i + j]
            v = mp.matrix([mp.conj(lam_mp) ** i for i in range(k)])
            x = mp.lu_solve(H, v)
            rho = 2 * lam_mp.imag * sum(mp.conj(v[i]) * x[i] for i in range(k))
            dets.append(float(1 / mp.re(rho)))
            eigs = mp.eigsy(H, eigvals_only=True)
            tols.append(DET_FLOOR + DET_COND_FACTOR * float(max(eigs) / min(eigs)))
        target = None
        if density["name"] == "exp_sqrt":
            a, b = mp.mpf(lam.real), mp.mpf(lam.imag)
            cuts = sorted({mp.mpf(0), a})
            integral = mp.quad(
                lambda t: b * mp.sqrt(abs(t)) / ((t - a) ** 2 + b**2), [-mp.inf, *cuts, mp.inf]
            )
            log_g2 = -mp.log(4) - integral / mp.pi
            target = float(2 * mp.pi * mp.exp(log_g2))
    return {"det_rho_inv": dets, "det_rtol": tols, "target": target,
            "target_rtol": TARGET_RTOL}
