"""Quadrature helpers for moment and entropy-type integrals.

Two rules, both built on Gauss-Legendre nodes:

* :func:`integrate_interval` cuts a bounded interval at the declared breaks
  inside it (points where the integrand is not smooth) and puts n nodes on
  every piece.  With no breaks it is a single panel.
* :func:`integrate_line_graded` covers the whole line through the
  substitution t = tan(theta) and splits theta into geometric panels that
  accumulate at the images of the breaks and at +-pi/2.  Right for
  integrands whose t-form grows like ln|t| or |t|^a (a < 1) near infinity,
  for example weighted log-density integrals.  A real break is a cusp,
  graded dyadically to machine precision; a complex break x + i d is a pole
  near x, graded dyadically only down to its distance from the axis.  Toward
  +-pi/2 the panels are dyadic for ten levels and 4:1 beyond, down to the
  same last panel as at a cusp.

A graded rule whose breaks are all real (a density's declared cusps, or
none, as for the Poisson normalization) is built once per node count and
break set and then shared, as read-only arrays.  A rule with a complex
break is built afresh on every call: its breaks are the poles of one drawn
Weyl density, which no later integral repeats.

Each rule calls its integrand once, on the nodes of every panel, and adds
the panel sums in panel order.  An integrand returns an array whose leading
axis matches its nodes, or an iterable of such arrays (a list, or a
generator that yields them), one per integral; those are reduced item by
item, as they come, and the rule returns a list.

Integrals are taken through :func:`integrate_with_check`.  It is given
the range and a node budget ``quad``, never a rule or node counts; it
picks the rule itself and returns only a value that passed the doubled-node
agreement check, so the check is enforced by the API, not by a convention
its callers follow.

:func:`circle_coefficients` is the third rule: the trapezoid rule on a
circle, for the expansion coefficients of an analytic function.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import EvaluationFailure, QuadratureNotConverged, Unsupported


@lru_cache(maxsize=64)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre(a, b, n: int):
    """Gauss-Legendre nodes and weights on the interval (a, b); array ends
    (shaped to broadcast against the n nodes) give one rule per interval."""
    x, w = _gl_nodes(n)
    half = (b - a) / 2.0
    return a + half * (x + 1.0), half * w


def _reduce(w, vals, panel: int):
    """sum_i w_i vals_i over the leading axis, taken over runs of ``panel``
    nodes and added up run by run; any other iterable of arrays (a list, a
    generator) reduces item by item, each item as it comes."""
    if not isinstance(vals, np.ndarray):
        return [_reduce(w, v, panel) for v in vals]
    k = w.size // panel
    if vals.ndim == 1:
        pieces = np.sum((w * vals).reshape(k, panel), axis=1)
    else:
        stacked = vals.reshape(k, panel, *vals.shape[1:])
        pieces = np.einsum("ki,ki...->k...", w.reshape(k, panel), stacked)
    # the panel sums in one pass, then added one after another in panel order
    # (a copy, so the partial sums are not kept alive by a view)
    return np.add.accumulate(pieces)[-1].copy()


def integrate_interval(fn, a: float, b: float, n: int, breaks=()):
    """GL integral of a vectorized scalar- or matrix-valued fn over (a, b),
    with n nodes on each piece between the ``breaks`` that lie inside it."""
    cuts = sorted({float(c) for c in breaks if a < c < b})
    edges = np.array([a, *cuts, b], dtype=float)
    t, w = gauss_legendre(edges[:-1, None], edges[1:, None], n)
    return _reduce(w.ravel(), fn(t.ravel()), n)


@lru_cache(maxsize=None)
def _unit_edges(levels: int) -> np.ndarray:
    """0 < 2^-levels < ... < 1/2 < 1: dyadic panel edges accumulating at 0."""
    return np.concatenate(([0.0], np.ldexp(1.0, np.arange(-levels, 1))))


def _dyadic_edges(width: float, levels: int) -> np.ndarray:
    """Offsets 0 < ... < width/2 < width accumulating geometrically at 0 (each
    a power-of-two multiple of width, so exact)."""
    return width * _unit_edges(levels)


# dyadic panels per side toward a cusp (a real break); the last reaches 2^-54
_LEVELS = 54
# dyadic levels toward +-pi/2 before the panels there widen to 4:1
_END_LEVELS = 10
# levels a pole's grading runs past its width: the last panel is 2^-4 of it
_POLE_MARGIN = 4


@lru_cache(maxsize=None)
def _end_edges() -> np.ndarray:
    """0 < 2^-54 < 2^-52 < ... < 2^-12 < 2^-10 < 2^-9 < ... < 1/2 < 1: panel
    edges toward +-pi/2, dyadic for :data:`_END_LEVELS` levels, then 4:1 down
    to the same last panel as :func:`_unit_edges` ``(_LEVELS)``."""
    fine = np.arange(-_LEVELS, -_END_LEVELS, 2)
    return np.concatenate(([0.0], np.ldexp(1.0, np.concatenate((fine, np.arange(-_END_LEVELS, 1))))))


def _depth(half: float, width: float) -> int:
    """Dyadic levels toward a feature of theta-width ``width`` from a side of
    half-width ``half``: until the panel at the feature is
    :data:`_POLE_MARGIN` halvings below its width, at least 1 and at most
    :data:`_LEVELS`, which a cusp (width 0) always takes."""
    if not 0.0 < half < width * 2.0 ** (_LEVELS - _POLE_MARGIN):
        return _LEVELS
    return max(math.ceil(math.log2(half / width)) + _POLE_MARGIN, 1)


def _graded_rule(n: int, breaks):
    """Nodes t and weights w of :func:`_build_graded_rule`, from the memo
    :func:`_real_rule` when every break is real (see
    :func:`integrate_line_graded`)."""
    breaks = tuple(breaks)
    if all(complex(b).imag == 0.0 for b in breaks):
        return _real_rule(n, breaks)
    return _build_graded_rule(n, breaks)


# one entry per (n, real breaks) key: a density's cusps, or none for the
# Poisson normalization; at n = 64 a break-free rule is 68 KB, one with a
# cusp 180 KB
@lru_cache(maxsize=16)
def _real_rule(n: int, breaks: tuple):
    """The rule of :func:`_build_graded_rule` as read-only arrays, shared by
    every caller with these real breaks."""
    t, w = _build_graded_rule(n, breaks)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _build_graded_rule(n: int, breaks):
    """Nodes t and weights w of the graded rule, n nodes per panel.

    A break x or x + i d cuts theta at arctan(x); each side of a cut grades
    :func:`_depth` dyadic levels toward it, with the width |d| / (1 + x^2) of
    the narrowest break there (0 for a real one).  A side at +-pi/2 takes the
    panels of :func:`_end_edges`.  Panel order: theta segments
    left to right, within a segment the panels grading toward its left end,
    then those grading toward its right end, each run outward from its end.
    The weights include the Jacobian 1 + t^2 of t = tan(theta).  A break
    whose real part is past about 5.8e15, where arctan rounds to +-pi/2 and
    the cut would leave an empty segment, raises :class:`Unsupported`.
    """
    widths = {}  # theta cut -> narrowest feature there, 0 for a cusp
    for b in breaks:
        b = complex(b)
        cut = float(np.arctan(b.real))
        if abs(cut) >= np.pi / 2.0:
            raise Unsupported(f"break {b}: arctan of its real part rounds to +-pi/2, so no panel can end there")
        widths[cut] = min(abs(b.imag) / (1.0 + b.real * b.real), widths.get(cut, np.inf))
    anchors = [(-np.pi / 2.0, 0.0), *sorted(widths.items()), (np.pi / 2.0, 0.0)]
    ts, ws = [], []
    for (left, left_width), (right, right_width) in zip(anchors[:-1], anchors[1:]):
        half = (right - left) / 2.0
        rules = {}  # depth (None at +-pi/2) -> panel nodes and weights, once per segment
        for anchor, sign, width in ((left, 1.0, left_width), (right, -1.0, right_width)):
            at_end = abs(abs(anchor) - np.pi / 2.0) < 1e-15
            depth = None if at_end else _depth(half, width)
            if depth not in rules:
                offsets = half * _end_edges() if at_end else _dyadic_edges(half, depth)
                rules[depth] = gauss_legendre(offsets[:-1, None], offsets[1:, None], n)
            delta, w = rules[depth]
            if at_end:
                # theta = anchor + sign*delta; tan(theta) = +-1/tan(delta)
                t = np.sign(anchor) / np.tan(delta)
            else:
                t = np.tan(anchor + sign * delta)
            ts.append(t.ravel())
            ws.append(w.ravel())
    t = np.concatenate(ts)
    return t, np.concatenate(ws) * (1.0 + t * t)


def integrate_line_graded(fn, n: int, breaks=()):
    """Integral of fn over the line; graded tan-substitution composite GL.

    The theta axis (-pi/2, pi/2) is cut at the images of ``breaks`` and
    panels shrink geometrically toward every cut and toward +-pi/2.  A real
    break is a point where fn is not smooth, for example a |t|^(1/2) cusp:
    panels halve :data:`_LEVELS` times toward it, so interior cusps are
    resolved to near machine precision.  A complex break x + i d is a pole
    of fn (or of its continuation) off the axis: Gauss-Legendre on a panel
    converges at a rate set by the nearest pole (Trefethen, Approximation
    Theory and Approximation Practice, 2013, ch. 19), so the panels toward
    x stop a few halvings below the pole's width |d| / (1 + x^2) in theta
    (:func:`_depth`).

    Toward +-pi/2 the panels halve :data:`_END_LEVELS` times, out to |t| of
    about 1e3, where features of fn that are not declared as breaks still
    meet dyadic panels; beyond, they shrink 4:1 to the same last panel as
    at a cusp, 2^-54 of the side.  On a 4:1 panel whose only nearby
    singularity is its end, Gauss-Legendre converges like 3^(-2n) (1e-23 at
    n = 24), so integrable endpoint growth of fn(tan(theta)) sec(theta)^2
    (log- or sqrt-type) is resolved to near machine precision on 33 panels
    per end.  There points are parametrized by the distance delta from the
    endpoint and evaluated as t = +-1/tan(delta) to avoid cancellation.

    ``fn`` is called once, on the nodes of every panel; the panel sums are
    then added in panel order, so the value does not depend on how the
    integrand batches its work.

    With real breaks only, the rule comes from a memo (:func:`_real_rule`)
    and ``fn`` receives its read-only nodes: an integrand that writes into
    them raises.  The rule of complex breaks is not kept: their poles come
    from drawn Weyl densities, they never repeat, and each such rule, up to
    a few hundred KB, would push the repeating real-break rules out.
    """
    t, w = _graded_rule(n, breaks)
    return _reduce(w, fn(t), n)


def _ladder(cap: int) -> list[int]:
    """Node counts 16, 32, ... below cap, then cap and 2 * cap."""
    sizes = []
    m = 16
    while m < cap:
        sizes.append(m)
        m *= 2
    return [*sizes, cap, 2 * cap]


def integrate_with_check(fn, support, breaks, quad: int, rel_tol: float, what="integral"):
    """Integral of ``fn`` over ``support``, cut or graded at ``breaks``,
    accepted at the first two consecutive rules whose values agree.

    A bounded ``(a, b)`` runs :func:`integrate_interval` with the node
    counts of :func:`_ladder` ``(quad)`` in turn; the full line
    ``(-inf, inf)`` runs :func:`integrate_line_graded` with m and then 2m
    nodes per panel, m = max(24, quad // 64).  Any other range raises
    :class:`Unsupported`.

    Two values agree when the drift max |fine - coarse| is at most
    ``rel_tol`` * (1 + max |fine|); the accepted value is the finer one.
    When ``fn`` returns a list of arrays, each item is its own integral
    with its own check and its own accepted count, and ``what`` may be a
    list with one name per item.

    Raises :class:`QuadratureNotConverged` for the first integral, in list
    order, whose values still disagree at the last two counts.
    """
    a, b = support
    if np.isfinite(a) and np.isfinite(b):
        sizes = _ladder(quad)

        def rule(n):
            return integrate_interval(fn, a, b, n, breaks=breaks)

    elif a == -np.inf and b == np.inf:
        m = max(24, quad // 64)
        sizes = (m, 2 * m)

        def rule(n):
            return integrate_line_graded(fn, n, breaks=breaks)

    else:
        raise Unsupported("the range must be the full line or a finite interval")
    coarse = rule(sizes[0])
    many = isinstance(coarse, list)
    coarse = coarse if many else [coarse]
    names = [what] * len(coarse) if isinstance(what, str) else list(what)
    accepted = [None] * len(coarse)
    for n in sizes[1:]:
        fine = rule(n)
        fine = fine if many else [fine]
        failures = []
        for i, (c, f) in enumerate(zip(coarse, fine)):
            if accepted[i] is not None:
                continue
            miss = _drift(names[i], c, f, rel_tol)
            if miss is None:
                accepted[i] = f
            else:
                failures.append(miss)
        if not failures:
            return accepted if many else accepted[0]
        coarse = fine
    raise failures[0]


def _drift(name: str, coarse, fine, rel_tol: float):
    """The doubled-node agreement test: None when the drift max |fine - coarse|
    is at most ``rel_tol`` * (1 + max |fine|), else the error naming ``name``."""
    fine = np.asarray(fine)
    drift = np.max(np.abs(fine - np.asarray(coarse)))
    scale = 1.0 + np.max(np.abs(fine))
    if not drift <= rel_tol * scale:  # a NaN drift fails too
        return QuadratureNotConverged(
            f"{name}: doubled-node drift {drift:.3e} exceeds {rel_tol:.1e} * {scale:.3e}"
        )
    return None


# trapezoid nodes of the coarse circle rule (the fine rule has twice as many),
# and the relative tolerance of its agreement and negative-power tests
_CIRCLE_NODES = 128
_CIRCLE_TOL = 1e-8


def circle_coefficients(fn, radius: float, count: int, what="coefficient"):
    """Taylor coefficients c_0..c_{count-1} at 0, stacked, of ``fn``, analytic
    on and inside |w| = ``radius``.

    The trapezoid rule c_k = (1/N) sum_j fn(w_j) w_j^{-k} on N equally spaced
    points of the circle (an FFT) converges geometrically in N, at the rate
    radius / (distance of the nearest singularity from 0).  It runs at
    N = :data:`_CIRCLE_NODES` and 2N, calling ``fn`` once on each rule's
    points, and accepts each coefficient by the agreement test of
    :func:`integrate_with_check`, else raises :class:`QuadratureNotConverged`
    naming the first that drifts (a singularity near the circle).  One well
    inside would pass that test with an annulus's coefficients, so the fine
    rule's terms in w^-1..w^-count, zero for an analytic ``fn``, must also
    stay below :data:`_CIRCLE_TOL` * max |fn| (in units of radius^k).  A value of
    ``fn`` that is not finite raises :class:`EvaluationFailure`.
    """

    def rule(n: int):
        values = np.asarray(fn(radius * np.exp(2j * np.pi * np.arange(n) / n)), dtype=complex)
        if not np.all(np.isfinite(values)):
            raise EvaluationFailure(f"{what}s: non-finite values on the circle |w| = {radius:.3e}")
        return np.fft.fft(values, axis=0) / n, np.max(np.abs(values))

    (coarse, _), (fine, top) = rule(_CIRCLE_NODES), rule(2 * _CIRCLE_NODES)
    units = (radius ** -np.arange(count, dtype=float)).reshape(-1, *[1] * (fine.ndim - 1))
    coarse, coefs = coarse[:count] * units, fine[:count] * units
    for k in range(count):
        miss = _drift(f"{what} {k}", coarse[k], coefs[k], _CIRCLE_TOL)
        if miss is not None:
            raise miss
    inside = np.max(np.abs(fine[2 * _CIRCLE_NODES - count :]), initial=0.0)
    if inside > _CIRCLE_TOL * top:
        raise QuadratureNotConverged(
            f"{what}s: terms in negative powers {inside:.3e} exceed {_CIRCLE_TOL:.1e} * max |fn| "
            f"{top:.3e} on |w| = {radius:.3e}: a singularity lies inside the circle"
        )
    return coefs
