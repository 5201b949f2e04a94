"""Matrix-valued densities on the real line, with support and log-det metadata.

A :class:`DensityFn` wraps a vectorized callable t -> stack of p x p PSD
matrices.  The optional ``log_det`` closure avoids underflow when the
density decays fast (for example exp(-sqrt|t|) at t ~ 1e19); entropy-type
integrals use it instead of log(det(values)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidDensity


@dataclass(frozen=True)
class DensityFn:
    """A p x p matrix density t -> P(t) >= 0 plus integration metadata.

    ``support`` is the closed interval outside of which the density is
    exactly zero; (-inf, inf) for full-line densities.  ``log_det`` returns
    ln det P(t) (elementwise over a t array), -inf where P vanishes.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    p: int = 1
    support: tuple[float, float] = (-np.inf, np.inf)
    log_det: Callable[[np.ndarray], np.ndarray] | None = None
    # interior points where the density is not smooth (real), or, on the full
    # line, poles x + i d of narrow features near x (complex)
    breaks: tuple = ()
    # how many absolute moments it has, of orders 0, 1, ...; None for all
    moments: int | None = None

    def __call__(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.asarray(self.fn(t))

    @property
    def bounded_support(self) -> bool:
        return np.isfinite(self.support[0]) and np.isfinite(self.support[1])

    def log_det_at(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.log_det is not None:
            return np.asarray(self.log_det(t), dtype=float)
        vals = self(t)
        dets = np.linalg.det(vals).real
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(dets > 0.0, np.log(np.maximum(dets, 1e-300)), -np.inf)
        return out


def _as_stack(scalars: np.ndarray) -> np.ndarray:
    return scalars[:, None, None].astype(complex)


def uniform_density(a: float = -1.0, b: float = 1.0) -> DensityFn:
    """Constant 1/(b-a) on [a, b], zero outside."""
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise InvalidDensity(f"uniform density needs finite a < b, got a={a!r}, b={b!r}")
    height = 1.0 / (b - a)

    def fn(t):
        inside = (t >= a) & (t <= b)
        return _as_stack(np.where(inside, height, 0.0))

    def log_det(t):
        inside = (t >= a) & (t <= b)
        return np.where(inside, np.log(height), -np.inf)

    return DensityFn("uniform", fn, support=(a, b), log_det=log_det)


def cauchy_density(scale: float = 1.0) -> DensityFn:
    """scale / (pi (t^2 + scale^2)); the standard case is scale = 1.  Its one
    absolute moment is its mass: |t| P(t) decays like 1/|t|."""
    if not (np.isfinite(scale) and scale > 0.0):
        raise InvalidDensity(f"cauchy density needs a finite scale > 0, got {scale!r}")

    def fn(t):
        return _as_stack(scale / (np.pi * (t * t + scale * scale)))

    def log_det(t):
        return np.log(scale / np.pi) - np.log(t * t + scale * scale)

    return DensityFn("cauchy", fn, log_det=log_det, moments=1)


def exp_sqrt_density() -> DensityFn:
    """exp(-sqrt|t|)/4; even moments are (4m+1)!."""

    def fn(t):
        return _as_stack(np.exp(-np.sqrt(np.abs(t))) / 4.0)

    def log_det(t):
        return -np.sqrt(np.abs(t)) - np.log(4.0)

    return DensityFn("exp_sqrt", fn, log_det=log_det, breaks=(0.0,))


def table_density(ts, values) -> DensityFn:
    """Piecewise-linear scalar density through sampled (t, value) pairs, zero outside.

    The interior grid points are its breaks: the density has a kink at each.
    Raises :class:`InvalidDensity` unless ``ts`` is a strictly increasing
    grid of at least 2 finite points and ``values`` matches it with finite
    nonnegative numbers.
    """
    try:
        ts = np.asarray(ts, dtype=float)
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidDensity(f"table density needs numeric grids: {exc}") from None
    if ts.ndim != 1 or ts.shape != values.shape or ts.size < 2:
        raise InvalidDensity(
            "table density needs matching 1-d grids of at least 2 points, "
            f"got t of shape {ts.shape} and v of shape {values.shape}"
        )
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(values))):
        raise InvalidDensity("table density grid and values must be finite")
    if np.any(np.diff(ts) <= 0.0):
        raise InvalidDensity("table density grid t must be strictly increasing")
    if np.any(values < 0.0):
        raise InvalidDensity("table density values must be nonnegative")

    def fn(t):
        return _as_stack(np.interp(t, ts, values, left=0.0, right=0.0))

    return DensityFn(
        "table",
        fn,
        support=(float(ts[0]), float(ts[-1])),
        breaks=tuple(float(t) for t in ts[1:-1]),
    )


_BY_NAME = {
    "uniform": uniform_density,
    "cauchy": cauchy_density,
    "exp_sqrt": exp_sqrt_density,
}


def density_by_name(name: str, params: dict | None = None) -> DensityFn:
    """Construct a named density; ``table`` expects {"t": [...], "v": [...]}.

    Raises :class:`InvalidDensity` for an unknown name or invalid parameters.
    """
    if params is not None and not isinstance(params, dict):
        raise InvalidDensity(f"density params must be an object, got {params!r}")
    params = dict(params or {})
    if name == "table":
        missing = sorted({"t", "v"} - set(params))
        if missing:
            raise InvalidDensity(f"table density needs params 't' and 'v'; missing {missing}")
        return table_density(params["t"], params["v"])
    try:
        maker = _BY_NAME[name]
    except (KeyError, TypeError):
        raise InvalidDensity(
            f"unknown density {name!r}; available: {sorted(_BY_NAME)} + ['table']"
        ) from None
    try:
        return maker(**params)
    except TypeError as exc:
        raise InvalidDensity(f"{name} density: {exc}") from None
