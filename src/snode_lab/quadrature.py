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
none, as for the Poisson normalization) is built once per pair of node
counts and break set and then shared, as read-only arrays.  A rule with a
complex break is built together with the rest of its batch and not kept:
its breaks are the poles of one drawn Weyl density, which no later
integral repeats.

Each rule calls its integrand once, on the nodes of every panel, and adds
the panel sums in panel order; on the line, the call takes the nodes of
both rules of the doubled-node check, panel by panel.  An integrand
returns an array whose leading axis matches its nodes, a list of such
arrays, one per integral, or :class:`Powers`, the integrals of the powers
of its bases against its arrays; for a list or :class:`Powers` the rule
returns a list.  A scalar integrand's panel sums are numpy's sums of its
weighted values; a matrix integrand is contracted as its float view
(N, 2 p^2 for a complex p x p one) against the weight row, one real
product per node count (:func:`_reduce`).

Integrals are taken through :func:`integrate_with_check`, or through
:func:`integrate_lines` for a list of line integrals.  Each is given a node
budget ``quad``, never a rule or node counts; it picks the rule itself and
returns only values that passed the doubled-node agreement check, so the
check is enforced by the API, not by a convention its callers follow.

:func:`circle_coefficients` is the third rule: the trapezoid rule on a
circle, for the expansion coefficients of an analytic function.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

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


class Powers(NamedTuple):
    """An integrand's value standing for the integrals of b^k v, k = 0..
    ``count`` - 1, of each pair (b, v) of ``terms``, order by order (every
    pair's order 0, then every pair's order 1, ...).  Each pair has one
    weight row, w for a matrix v and w v for a scalar one (a value per
    node), multiplied by b in place from one order to the next: the row of
    order k is w b^k (or w v b^k), rounded k more times."""

    count: int
    terms: tuple


def _reduce(w, vals, sizes: tuple):
    """sum_i w_i vals_i over the leading axis, one sum per node count n of
    ``sizes``: each panel holds the nodes of the rules at those counts in
    turn, and each rule is summed panel by panel, the panel sums added up in
    panel order.  A list reduces item by item, and it and :class:`Powers`
    give one list of items per count.

    A scalar integrand is folded into its row, w v, which numpy sums per
    panel.  A matrix one is taken as its float view, (N, 2m) for N complex
    values of m entries, and each count's panel sums are one real product
    of the row against it, each panel's the product of its slice of the row
    with its (n, 2m) block: no stack of weighted values is formed."""
    if isinstance(vals, list):
        items = [_reduce(w, v, sizes) for v in vals]
        return [[item[i] for item in items] for i in range(len(sizes))]
    count, terms = vals if isinstance(vals, Powers) else (1, ((None, vals),))
    cols = [*accumulate(sizes, initial=0)]
    panels = w.size // cols[-1]
    rows = [w * v if v.ndim == 1 else w.copy() for _, v in terms]
    blocks = [None if v.ndim == 1 else _float_view(v).reshape(panels, cols[-1], -1) for _, v in terms]
    out = [[] for _ in sizes]
    for k in range(count):
        for row, (base, v), block in zip(rows, terms, blocks):
            if k:
                row *= base
            panel_rows = row.reshape(panels, cols[-1])
            for per_count, c0, c1 in zip(out, cols, cols[1:]):
                if block is None:
                    pieces = np.sum(panel_rows[:, c0:c1], axis=1)
                else:
                    pieces = np.matmul(panel_rows[:, None, c0:c1], block[:, c0:c1])[:, 0]
                # the panel sums added one after another in panel order (a
                # copy, so the partial sums are not kept alive by a view)
                total = np.add.accumulate(pieces)[-1].copy()
                if block is not None:  # the float view read back as the values' entries
                    total = (total.view(np.complex128) if np.iscomplexobj(v) else total).reshape(v.shape[1:])
                per_count.append(total)
    return out if isinstance(vals, Powers) else [items[0] for items in out]


def _float_view(v: np.ndarray) -> np.ndarray:
    """Values (N, ...) as an (N, M) float64 array, a complex entry as its
    real and imaginary parts side by side; no copy for contiguous values."""
    v = np.ascontiguousarray(v, dtype=np.complex128 if np.iscomplexobj(v) else np.float64)
    return v.reshape(len(v), -1).view(np.float64)


def integrate_interval(fn, a: float, b: float, n: int, breaks=()):
    """GL integral of a vectorized scalar- or matrix-valued fn over (a, b),
    with n nodes on each piece between the ``breaks`` that lie inside it."""
    cuts = sorted({float(c) for c in breaks if a < c < b})
    edges = np.array([a, *cuts, b], dtype=float)
    t, w = gauss_legendre(edges[:-1, None], edges[1:, None], n)
    return _reduce(w.ravel(), fn(t.ravel()), (n,))[0]


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


def _sides(breaks) -> list:
    """The sides of the graded rule of ``breaks`` in panel order, each as
    (edges, shift, scale, flip): a panel (lo, hi) of its edges has the nodes
    delta = lo + (hi - lo) / 2 (x + 1), x the Gauss-Legendre nodes on
    [-1, 1], at t = tan(shift + scale delta) on a side of a cut (flip 0),
    and at t = flip / tan(delta) on a side at +-pi/2 (shift 0, scale 1, flip
    +-1).

    A break x or x + i d cuts theta at arctan(x); each side of a cut grades
    :func:`_depth` dyadic levels toward it, with the width |d| / (1 + x^2) of
    the narrowest break there (0 for a real one).  A side at +-pi/2 takes the
    panels of :func:`_end_edges`.  Panel order: theta segments left to right,
    within a segment the panels grading toward its left end, then those
    grading toward its right end, each run outward from its end.  A break
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
    sides = []
    for (left, left_width), (right, right_width) in zip(anchors[:-1], anchors[1:]):
        half = (right - left) / 2.0
        for anchor, sign, width in ((left, 1.0, left_width), (right, -1.0, right_width)):
            if abs(abs(anchor) - np.pi / 2.0) < 1e-15:
                sides.append((half * _end_edges(), 0.0, 1.0, np.sign(anchor)))
            else:
                sides.append((_dyadic_edges(half, _depth(half, width)), anchor, sign, 0.0))
    return sides


def _panel_count(sides) -> int:
    return sum(edges.size - 1 for edges, *_ in sides)


@lru_cache(maxsize=None)
def _gl_rows(sizes: tuple):
    """x + 1 and the weights w of the Gauss-Legendre rules at each n of
    ``sizes``, one after another, as read-only rows."""
    x1, gw = (np.concatenate([_gl_nodes(n)[k] for n in sizes]) for k in (0, 1))
    x1 += 1.0
    x1.setflags(write=False)
    gw.setflags(write=False)
    return x1, gw


def _build_graded_rules(sizes: tuple, side_lists) -> list:
    """Nodes t and weights w (with the Jacobian 1 + t^2) of the graded rule
    of each item of ``side_lists`` (see :func:`_sides`): panel by panel, the
    panel's nodes of the rule with n nodes per panel for each n of ``sizes``
    in turn.  All are built in one Gauss-Legendre map, one tan pass and one
    Jacobian product, each value bitwise that of its rule built alone.

    Row p of the work arrays holds panel p, so an item's rules are a block
    of rows, read off with no copy, and each side's map runs on its own
    rows: t = tan(shift + scale delta) on the side of a cut, and
    t = flip / tan(delta) on a side at +-pi/2, with no shift, scale or mask."""
    sides = [side for item in side_lists for side in item]
    lo = np.concatenate([edges[:-1] for edges, *_ in sides])
    half = (np.concatenate([edges[1:] for edges, *_ in sides]) - lo) / 2.0
    x1, gw = _gl_rows(sizes)
    # in place: t = lo + half (x + 1), each side's map in its rows, and
    # w = (half gw) (1 + t^2)
    t = half[:, None] * x1
    t += lo[:, None]
    ends, stop = [], 0
    for edges, shift, scale, flip in sides:
        start, stop = stop, stop + edges.size - 1
        if flip == 0.0:
            rows = t[start:stop]
            rows *= scale
            rows += shift
        else:
            ends.append((t[start:stop], flip))
    np.tan(t, out=t)
    for rows, flip in ends:
        np.divide(flip, rows, out=rows)
    w = t * t
    w += 1.0
    w *= half[:, None] * gw
    bounds = [*accumulate(map(_panel_count, side_lists), initial=0)]
    return [(t[a:b].reshape(-1), w[a:b].reshape(-1)) for a, b in zip(bounds, bounds[1:])]


# one entry per (sizes, real breaks) key: a density's cusps, or none for the
# Poisson normalization; at (32, 64) a break-free rule is 101 KB, one with a
# cusp 270 KB
@lru_cache(maxsize=16)
def _real_rule(sizes: tuple, breaks: tuple):
    """The rule of :func:`_build_graded_rules` as read-only arrays, shared by
    every caller with these node counts and real breaks."""
    [(t, w)] = _build_graded_rules(sizes, [_sides(breaks)])
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


# the most nodes of complex-break rules built together (one rule alone may
# have more): every node array of a build then stays below 128 KiB, which
# the C allocator serves from memory it reuses; a larger array can be mapped
# afresh and fault its pages in on every build
_GROUP_NODES = 16000


def _graded_rules(sizes: tuple, break_sets):
    """The rule (t, w) of :func:`_build_graded_rules` at ``sizes`` of each
    break set in turn: from the memo :func:`_real_rule` when every break of
    the set is real, else built together with the next such sets, up to
    :data:`_GROUP_NODES` nodes at a time."""
    group, nodes = [], 0
    for breaks in map(tuple, break_sets):
        sides = None if all(complex(b).imag == 0.0 for b in breaks) else _sides(breaks)
        size = 0 if sides is None else _panel_count(sides) * sum(sizes)
        if group and (sides is None or nodes + size > _GROUP_NODES):
            yield from _build_graded_rules(sizes, group)
            group, nodes = [], 0
        if sides is None:
            yield _real_rule(sizes, breaks)
        else:
            group.append(sides)
            nodes += size
    if group:
        yield from _build_graded_rules(sizes, group)


def integrate_line_graded(fn, rule, sizes: tuple) -> list:
    """Integrals of fn over the line on the graded rules at the node counts
    of ``sizes``, one value per count, from one call of fn on their nodes,
    panel by panel: ``rule`` = (t, w) of :func:`_graded_rules`.

    The substitution t = tan(theta) maps the line onto (-pi/2, pi/2), cut at
    the images of the breaks; the panels shrink geometrically toward every
    cut and toward +-pi/2.  A real break is a point where fn is not smooth,
    for example a |t|^(1/2) cusp: panels halve :data:`_LEVELS` times toward
    it, so interior cusps are resolved to near machine precision.  A complex
    break x + i d is a pole of fn (or of its continuation) off the axis:
    Gauss-Legendre on a panel converges at a rate set by the nearest pole
    (Trefethen, Approximation Theory and Approximation Practice, 2013, ch.
    19), so the panels toward x stop a few halvings below the pole's width
    |d| / (1 + x^2) in theta (:func:`_depth`).

    Toward +-pi/2 the panels halve :data:`_END_LEVELS` times, out to |t| of
    about 1e3, where features of fn that are not declared as breaks still
    meet dyadic panels; beyond, they shrink 4:1 to the same last panel as
    at a cusp, 2^-54 of the side.  On a 4:1 panel whose only nearby
    singularity is its end, Gauss-Legendre converges like 3^(-2n) (1e-23 at
    n = 24), so integrable endpoint growth of fn(tan(theta)) sec(theta)^2
    (log- or sqrt-type) is resolved to near machine precision on 33 panels
    per end.  There points are parametrized by the distance delta from the
    endpoint and evaluated as t = +-1/tan(delta) to avoid cancellation.

    Each rule's panel sums are added in panel order, so its value does not
    depend on how the integrand batches its work, nor on the other rules it
    shares the call with.  A memoized rule gives fn read-only nodes: an
    integrand that writes into them raises.
    """
    t, w = rule
    return _reduce(w, fn(t), sizes)


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
    ``(-inf, inf)`` is :func:`integrate_lines` of this one integrand.  Any
    other range raises :class:`Unsupported`.

    Two values agree when the drift max |fine - coarse| is at most
    ``rel_tol`` * (1 + max |fine|); the accepted value is the finer one.
    When ``fn`` returns a list of arrays or :class:`Powers`, each item is
    its own integral with its own check and its own accepted count, and
    ``what`` may be a list with one name per item.

    Raises :class:`QuadratureNotConverged` for the first integral, in list
    order, whose values still disagree at the last two counts.
    """
    a, b = support
    if a == -np.inf and b == np.inf:
        return integrate_lines([fn], [breaks], quad, rel_tol, [what])[0]
    if not (np.isfinite(a) and np.isfinite(b)):
        raise Unsupported("the range must be the full line or a finite interval")
    return _accept((integrate_interval(fn, a, b, n, breaks=breaks) for n in _ladder(quad)), what, rel_tol)


def integrate_lines(fns, break_sets, quad: int, rel_tol: float, whats) -> list:
    """Integrals over the line of the integrands ``fns``, each on the graded
    rules of its item of ``break_sets``, named by its item of ``whats`` and
    accepted by the check of :func:`integrate_with_check`, in list order:
    the first that fails raises.  Each integrand is called once, on the
    nodes of its rules with m and 2m nodes per panel, m = max(24, quad //
    64); the rules of the list are built together (:func:`_graded_rules`).
    """
    m = max(24, quad // 64)
    sizes = (m, 2 * m)
    rules = _graded_rules(sizes, break_sets)
    return [_accept(integrate_line_graded(fn, rule, sizes), what, rel_tol) for fn, rule, what in zip(fns, rules, whats)]


def _accept(values, what, rel_tol: float):
    """The accepted value of the rule values ``values``, coarse to fine, item
    by item for a list integrand (see :func:`integrate_with_check`)."""
    values = iter(values)
    coarse = next(values)
    many = isinstance(coarse, list)
    coarse = coarse if many else [coarse]
    names = [what] * len(coarse) if isinstance(what, str) else list(what)
    accepted = [None] * len(coarse)
    for fine in values:
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
    is at most ``rel_tol`` * (1 + max |fine|), else the error naming ``name``.
    A real scalar integral is tested on Python floats, with the same bits."""
    if isinstance(fine, float):  # numpy's float64 too
        fine = float(fine)
        drift, scale = abs(fine - float(coarse)), 1.0 + abs(fine)
    else:
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
