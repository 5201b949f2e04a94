import dataclasses
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snode_lab import densities, hankel, matcore, quadrature, sampling, snode
from snode_lab.errors import EvaluationFailure, QuadratureNotConverged, Unsupported

from conftest import pair_stacks


def graded_depth(half, width):
    """Levels of the reference rule toward a feature of theta-width ``width``
    (0 for a real break and for +-pi/2) from a side of half-width ``half``."""
    if width == 0.0:
        return 54
    return int(np.clip(np.ceil(np.log2(half / width)) + 4, 1, 54))


def panel_product(weights, vals):
    """One panel's sum of a matrix integrand as the rules take it: the
    weight row times the values' float view, real and imaginary parts side
    by side, read back as the values' shape."""
    flat = np.ascontiguousarray(vals).reshape(len(vals), -1)
    if np.iscomplexobj(flat):
        return (weights @ flat.view(np.float64)).view(np.complex128).reshape(vals.shape[1:])
    return (weights @ flat).reshape(vals.shape[1:])


def graded_per_panel(fn, n, breaks=()):
    """Reference graded rule: one fn call per panel, panel sums added in
    panel order.  A real break x is cut at arctan(x) and graded 54 dyadic
    levels from each side; a complex break x + i d is cut there too and
    graded :func:`graded_depth` levels, with width |d| / (1 + x^2).  Toward
    +-pi/2 the panels are dyadic for 10 levels, then 4:1 down to 2^-54 of
    the side."""
    total = None
    widths = {}
    for b in breaks:
        b = complex(b)
        cut = float(np.arctan(b.real))
        widths[cut] = min(widths.get(cut, np.inf), abs(b.imag) / (1.0 + b.real**2))
    anchors = [-np.pi / 2.0, *sorted(widths), np.pi / 2.0]
    for left, right in zip(anchors[:-1], anchors[1:]):
        half = (right - left) / 2.0
        for anchor, sign in ((left, 1.0), (right, -1.0)):
            at_infinity = abs(abs(anchor) - np.pi / 2.0) < 1e-15
            if at_infinity:
                offsets = half * np.concatenate(([0.0], 2.0 ** np.arange(-54, -10, 2), 2.0 ** np.arange(-10, 1)))
            else:
                offsets = quadrature._dyadic_edges(half, graded_depth(half, widths[anchor]))
            for lo, hi in zip(offsets[:-1], offsets[1:]):
                delta, w = quadrature.gauss_legendre(lo, hi, n)
                if at_infinity:
                    t = np.sign(anchor) / np.tan(delta)
                else:
                    t = np.tan(anchor + sign * delta)
                vals = np.asarray(fn(t))
                jac = w * (1.0 + t * t)
                piece = np.sum(jac * vals) if vals.ndim == 1 else panel_product(jac, vals)
                total = piece if total is None else total + piece
    return total


def line_rule(n, breaks=()):
    """Nodes and weights of the graded rule of ``breaks`` at n nodes per
    panel, on its own."""
    [rule] = quadrature._graded_rules((n,), [breaks])
    return rule


def graded(fn, n, breaks=()):
    """The integral of fn on the graded rule of ``breaks`` at n nodes per
    panel, on its own."""
    [value] = quadrature.integrate_line_graded(fn, line_rule(n, breaks), (n,))
    return value


[_WEYL], _ = hankel.weyl_densities(
    snode.node_frame(
        hankel.build_hankel_node(
            hankel.HankelSpec(p=1, n=2, H=(np.array([[1.0]]), np.array([[0.0]]), np.array([[2.0]])))
        )
    ),
    *pair_stacks(snode.ParamPair.constant(np.array([[0.8]]), np.array([[1.3 + 0.4j]]))),
)
_M = np.array([[1.0, 0.3j], [-0.3j, 2.0]])
CASES = {
    "scalar cusp": (lambda t: np.exp(-np.sqrt(np.abs(t))), (0.0,)),
    "scalar smooth": (lambda t: 1.0 / (1.0 + t * t) ** 2, ()),
    "complex scalar": (lambda t: np.exp(1j * t) / (1.0 + t * t), (-2.0,)),
    "matrix": (lambda t: np.exp(-np.abs(t))[:, None, None] * _M, (-1.0, 0.5)),
    "matrix smooth": (lambda t: (1.0 / (1.0 + t**4))[:, None, None] * _M, ()),
    "weyl moment": (lambda t: t[:, None, None] ** 3 * _WEYL(t), _WEYL.breaks),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("n", [24, 48])
def test_graded_rule_equals_per_panel_loop(case, n):
    fn, breaks = CASES[case]
    want = graded_per_panel(fn, n, breaks=breaks)
    got = graded(fn, n, breaks)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("x", [0.0, 3.0, -40.0])
@pytest.mark.parametrize("d", [1e-8, 1e-4, 0.1, 1.9])
def test_a_pole_is_graded_to_its_width(x, d):
    # the Lorentzian of the pole x + i d has unit mass; graded as a pole its
    # (24, 48) pair passes the check on fewer points than as a cusp at x
    lorentzian = lambda t: d / (np.pi * ((t - x) ** 2 + d * d))
    sizes = []

    def counted(t):
        sizes.append(t.size)
        return lorentzian(t)

    # t = tan(theta) near x is rounded by about eps (1 + x^2) in either rule,
    # which a pole of width d feels as a relative node error of that over d
    floor = np.finfo(float).eps * (1.0 + x * x) / d
    line, pole_break = (-np.inf, np.inf), (complex(x, d),)
    pole = quadrature.integrate_with_check(counted, line, pole_break, 1536, 1e-14 + floor)
    cusp = graded(lorentzian, 48, (x,))
    assert abs(pole - 1.0) <= max(1e-14, 2.0 * abs(cusp - 1.0))
    # one call on the nodes of both rules, the 24-node rule and the 48-node one
    coarse = line_rule(24, pole_break)[0].size
    assert sizes == [3 * coarse] and 2 * coarse < line_rule(48, (x,))[0].size
    assert np.array_equal(graded(lorentzian, 24, pole_break), graded_per_panel(lorentzian, 24, pole_break))


@pytest.mark.parametrize("width, depth", [(0.0, 54), (2.0**-60, 54), (2.0**-10, 14), (1.0, 4), (100.0, 1)])
def test_pole_depth_is_clamped_between_1_and_54(width, depth):
    assert quadrature._depth(1.0, width) == graded_depth(1.0, width) == depth


@pytest.mark.parametrize("n", [24, 48])
def test_the_ends_take_ten_dyadic_levels_then_4_to_1_panels(n):
    # 33 panels toward each of +-pi/2: 10 dyadic, 22 at 4:1, and the last
    # [0, 2^-54] of the side; every edge is an exact power of two
    edges = quadrature._end_edges()
    powers = np.ldexp(1.0, np.r_[np.arange(-54, -10, 2), np.arange(-10, 1)])
    assert np.array_equal(edges, np.r_[0.0, powers])
    assert np.all(np.frexp(edges[1:])[0] == 0.5)
    t, _ = line_rule(n, ())
    assert t.size == 2 * 33 * n
    # each panel of half * edges, half = pi/2, holds n of the offsets from the ends
    for side in (t[t < 0.0], t[t > 0.0]):
        delta = np.arctan(1.0 / np.abs(side))
        counts = np.histogram(delta, bins=np.pi / 2.0 * edges)[0]
        assert np.all(counts == n)


def test_the_sides_at_the_cuts_keep_their_dyadic_nodes():
    # a cusp at -1 and a pole at 0.5 + 0.01 i: segments (-pi/2, c1), (c1, c2),
    # (c2, pi/2); the four cut sides are the dyadic panels, bitwise
    n, pole = 24, complex(0.5, 0.01)
    t, w = line_rule(n, (-1.0, pole))
    c1, c2 = float(np.arctan(-1.0)), float(np.arctan(pole.real))
    width = pole.imag / (1.0 + pole.real**2)

    def side(anchor, sign, half, depth):
        offsets = quadrature._dyadic_edges(half, depth)
        delta, weights = quadrature.gauss_legendre(offsets[:-1, None], offsets[1:, None], n)
        nodes = np.tan(anchor + sign * delta).ravel()
        return nodes, weights.ravel() * (1.0 + nodes * nodes)

    halves = [(c1 + np.pi / 2.0) / 2.0, (c2 - c1) / 2.0, (np.pi / 2.0 - c2) / 2.0]
    sides = [
        side(c1, -1.0, halves[0], 54),
        side(c1, 1.0, halves[1], 54),
        side(c2, -1.0, halves[1], graded_depth(halves[1], width)),
        side(c2, 1.0, halves[2], graded_depth(halves[2], width)),
    ]
    # they run between the first segment's end panels and the last one's
    start = 33 * n
    for nodes, weights in sides:
        assert np.array_equal(t[start : start + nodes.size], nodes)
        assert np.array_equal(w[start : start + nodes.size], weights)
        start += nodes.size
    assert start == t.size - 33 * n


@pytest.mark.parametrize(
    "a, breaks, bound", [(-0.5, (0.0,), 5.4e-11), (0.0, (), 0.0), (0.0, (0.0,), 1.5e-16), (0.5, (0.0,), 5.4e-11)]
)
def test_power_over_lorentzian_integrals(a, breaks, bound):
    # int |t|^a / (1 + t^2) dt = pi / cos(pi a / 2); a = +-1/2 is limited by
    # the last panel, 2^-54 of its side, at the cusp (a < 0) or at the ends (a > 0)
    got = graded(lambda t: np.abs(t) ** a / (1.0 + t * t), 48, breaks)
    want = np.pi / np.cos(np.pi * a / 2.0)
    assert abs(got - want) <= bound * want


@pytest.mark.parametrize("lam", [1j, 0.3 + 0.7j, 5.0 + 3.0j, -2.0 + 0.5j, 0.5 + 0.01j])
def test_poisson_integral_of_the_log_weight(lam):
    # (Im lam / pi) int ln(1 + t^2) / |t - lam|^2 dt = 2 ln |lam + i|: the
    # integrand grows like ln|t| / t^2 toward +-infinity
    fn = lambda t: lam.imag / np.pi * np.log1p(t * t) / np.abs(t - lam) ** 2
    want = 2.0 * np.log(abs(lam + 1j))
    for n in (24, 48):
        got = graded(fn, n, (lam,))
        assert abs(got - want) <= 5.5e-16 * max(1.0, abs(want))


def test_graded_rule_calls_integrand_once():
    calls = []

    def counting(t):
        calls.append(t.size)
        return np.exp(-np.sqrt(np.abs(t)))

    graded(counting, 24, (0.0, 1.0))
    assert len(calls) == 1
    calls.clear()
    # the checked integral takes both rules, (24, 48), in one call
    quadrature.integrate_with_check(counting, (-np.inf, np.inf), (0.0,), 512, 1e-8)
    assert calls == [3 * line_rule(24, (0.0,))[0].size]


@pytest.mark.parametrize("breaks", [(), (0.0,), (-1.0, 0.5)])
def test_a_real_break_rule_is_built_once_as_read_only_arrays(breaks):
    quadrature._real_rule.cache_clear()
    t, w = line_rule(24, breaks)
    again = line_rule(24, list(breaks))
    assert again[0] is t and again[1] is w
    info = quadrature._real_rule.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    [(fresh_t, fresh_w)] = quadrature._build_graded_rules((24,), [quadrature._sides(breaks)])
    assert np.array_equal(t, fresh_t) and np.array_equal(w, fresh_w)
    assert not t.flags.writeable and not w.flags.writeable
    # another node count is its own rule
    assert line_rule(48, breaks)[0].size == 2 * t.size


def test_a_complex_break_rule_is_not_retained():
    quadrature._real_rule.cache_clear()
    pole = (complex(0.5, 1e-3),)
    t, w = line_rule(24, pole)
    assert quadrature._real_rule.cache_info().currsize == 0
    assert line_rule(24, pole)[0] is not t
    # a break on the axis given as a complex number is a real one
    line_rule(24, (complex(0.5, 0.0),))
    assert quadrature._real_rule.cache_info().currsize == 1


def test_an_integrand_that_writes_into_its_nodes_raises():
    def shifting(t):
        t -= 1.0
        return np.exp(-np.abs(t))

    with pytest.raises(ValueError, match="read-only"):
        graded(shifting, 24, (0.0,))
    # the memoized rule is unchanged
    [(fresh, _)] = quadrature._build_graded_rules((24,), [quadrature._sides((0.0,))])
    assert np.array_equal(line_rule(24, (0.0,))[0], fresh)


# a mixed batch of break sets: a memoized cusp, poles of one Weyl density, a
# repeated set, no break, narrow poles in many segments (a rule past the
# group size on its own), a pole on the axis given as complex, and at
# (24, 48) two groups of two rules built together
_POLES = tuple(complex(x, d) for x, d in [(-3.0, 1e-6), (-1.0, 1e-5), (0.5, 1e-6), (2.0, 1e-7)])
_BATCH = [
    (0.0,),
    _WEYL.breaks,
    (complex(0.3, 0.2),),
    (complex(0.5, 0.01), -1.0),
    _WEYL.breaks,
    (),
    _POLES,
    (complex(2.0, 0.0),),
    (complex(-0.7, 1.5), complex(4.0, 0.05)),
    (complex(1.0, 0.3),),
]


def _lorentzians(breaks):
    """An integrand smooth away from ``breaks``: a Lorentzian of unit mass
    at each complex break, a cusp at each real one, and a smooth tail."""
    def fn(t):
        out = 1.0 / (1.0 + t * t)
        for b in map(complex, breaks):
            if b.imag:
                out = out + abs(b.imag) / (np.pi * ((t - b.real) ** 2 + b.imag**2))
            else:
                out = out + np.exp(-np.sqrt(np.abs(t - b.real)))
        return out

    return fn


@pytest.mark.parametrize("quad", [512, 2048])
def test_a_batch_of_line_integrals_is_bitwise_the_integrals_alone(quad):
    fns = [_lorentzians(breaks) for breaks in _BATCH]
    # a Powers integrand as well: the moments 0..2 of the Weyl density
    fns[1] = lambda t: quadrature.Powers(3, ((t, _WEYL(t)),))
    whats = [f"integral {i}" for i in range(len(_BATCH))]
    whats[1] = [f"moment {k}" for k in range(3)]
    quadrature._real_rule.cache_clear()
    batch = quadrature.integrate_lines(fns, _BATCH, quad, 1e-8, whats)
    line = (-np.inf, np.inf)
    alone = [quadrature.integrate_with_check(fn, line, b, quad, 1e-8, what) for fn, b, what in zip(fns, _BATCH, whats)]
    assert len(batch) == len(alone)
    for got, want in zip(batch, alone):
        assert np.array_equal(got, want) and type(got) is type(want)
    # the real sets came from the memo, built once each
    assert quadrature._real_rule.cache_info().currsize == 3


def test_each_rule_of_a_batch_build_is_the_per_panel_rule():
    sizes = (24, 48)
    rules = quadrature._build_graded_rules(sizes, [quadrature._sides(breaks) for breaks in _BATCH])
    assert len(rules) == len(_BATCH)
    for breaks, rule in zip(_BATCH, rules):
        fn = _lorentzians(breaks)
        got = quadrature.integrate_line_graded(fn, rule, sizes)
        assert [np.array_equal(g, graded_per_panel(fn, n, breaks)) for g, n in zip(got, sizes)] == [True, True]
        [alone] = quadrature._build_graded_rules(sizes, [quadrature._sides(breaks)])
        assert np.array_equal(rule[0], alone[0]) and np.array_equal(rule[1], alone[1])
        assert rule[0].size == sum(line_rule(n, breaks)[0].size for n in sizes)


def test_the_first_failing_integral_of_a_batch_raises_under_its_name():
    rough = lambda t: np.cos(1e4 * t) / (1.0 + t * t)
    smooth = _lorentzians(())
    later = []

    def never(t):
        later.append(t.size)
        return smooth(t)

    fns = [smooth, rough, rough, never]
    breaks = [(), (complex(0.5, 0.1),), (0.0,), ()]
    with pytest.raises(QuadratureNotConverged, match="^first: doubled-node drift"):
        quadrature.integrate_lines(fns, breaks, 512, 1e-10, ["fine", "first", "second", "never"])
    # the integrals run in list order and stop at the first failure
    assert later == []
    with pytest.raises(QuadratureNotConverged, match="^second: doubled-node drift"):
        quadrature.integrate_lines(fns[2:], breaks[2:], 512, 1e-10, ["second", "never"])


def test_memoized_nodes_stay_read_only_in_a_batch():
    quadrature._real_rule.cache_clear()

    def shifting(t):
        t -= 1.0
        return np.exp(-np.abs(t))

    fns = [_lorentzians((complex(0.5, 0.1),)), shifting]
    with pytest.raises(ValueError, match="read-only"):
        quadrature.integrate_lines(fns, [(complex(0.5, 0.1),), (0.0,)], 512, 1e-8, ["pole", "cusp"])
    t, w = quadrature._real_rule((24, 48), (0.0,))
    assert not t.flags.writeable and not w.flags.writeable
    [(fresh_t, fresh_w)] = quadrature._build_graded_rules((24, 48), [quadrature._sides((0.0,))])
    assert np.array_equal(t, fresh_t) and np.array_equal(w, fresh_w)


@pytest.mark.parametrize("support", [(-1.0, 1.0), (0.5, 3.0)])
def test_uniform_moments_on_the_ladder(monkeypatch, support):
    a, b = support
    sizes = []
    original = quadrature.gauss_legendre
    monkeypatch.setattr(
        quadrature, "gauss_legendre", lambda lo, hi, n: sizes.append(n) or original(lo, hi, n)
    )
    got = hankel.moments_from_density(densities.uniform_density(a, b), 11)
    assert got.shape == (11, 1, 1)
    for k in range(11):
        exact = (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
        assert abs(got[k, 0, 0] - exact) <= 1e-13 * (1.0 + abs(exact))
    assert max(sizes) <= 64


@pytest.mark.parametrize(
    "cap, tried",
    [
        (256, [16, 32, 64, 128, 256, 512]),
        (100, [16, 32, 64, 100, 200]),
        (8, [8, 16]),
        (512, [16, 32, 64, 128, 256, 512, 1024]),
        (2048, [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]),
        (4096, [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]),
    ],
)
def test_ladder_that_never_converges_raises_at_the_cap(monkeypatch, cap, tried):
    """The range picks the rule: a bounded one climbs the ladder up to
    (cap, 2 cap), the full line runs (m, 2m) with m = max(24, cap // 64),
    and a half-infinite one is refused.  The rules are stubs that record
    their node counts and return them, so no two rungs agree and no
    8192-node rule is built."""
    seen = {"interval": [], "line": []}

    def on_interval(fn, a, b, n, breaks=()):
        assert (a, b, breaks) == (0.0, 1.0, (0.5,))
        seen["interval"].append(n)
        return float(n)

    def on_line(fn, rule, sizes):
        assert rule is quadrature._real_rule(sizes, (0.5,))
        seen["line"].append(sizes)
        return [float(n) for n in sizes]

    monkeypatch.setattr(quadrature, "integrate_interval", on_interval)
    monkeypatch.setattr(quadrature, "integrate_line_graded", on_line)
    rough = lambda t: np.cos(1e4 * t)
    with pytest.raises(QuadratureNotConverged) as info:
        quadrature.integrate_with_check(rough, (0.0, 1.0), (0.5,), cap, 1e-10, what="rough")
    assert seen["interval"] == tried
    # the message names the drift of the last two rungs, cap and 2 cap
    assert str(info.value).startswith(f"rough: doubled-node drift {float(cap):.3e} ")
    m = max(24, cap // 64)
    with pytest.raises(QuadratureNotConverged):
        quadrature.integrate_with_check(rough, (-np.inf, np.inf), (0.5,), cap, 1e-10)
    assert seen["line"] == [(m, 2 * m)]
    for support in ((-np.inf, 1.0), (0.0, np.inf)):
        with pytest.raises(Unsupported, match="the range must be the full line or a finite interval"):
            quadrature.integrate_with_check(rough, support, (0.5,), cap, 1e-10)
    assert len(seen["interval"]) == len(tried) and len(seen["line"]) == 1


def test_a_nan_integral_fails_the_doubled_node_check():
    # a NaN drift compares False with any bound: it must fail, not pass
    with pytest.raises(QuadratureNotConverged, match="^integral: doubled-node drift nan"):
        quadrature.integrate_with_check(lambda t: np.full(t.shape, np.nan), (0.0, 1.0), (), 64, 1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [1e17, -6e15, complex(1e17, 0.5)])
def test_a_break_whose_arctan_rounds_to_the_end_is_refused_by_name(x):
    # past about 5.8e15, arctan(x) is the float pi/2: the cut would leave an
    # empty segment whose nodes are 1/tan(0) = inf and weights NaN
    with pytest.raises(Unsupported, match="^" + re.escape(f"break {complex(x)}: arctan of its real part rounds to +-pi/2")):
        graded(lambda t: 1.0 / (1.0 + t * t), 24, (x,))
    # just inside, the cut is kept and the integral is pi
    inside = graded(lambda t: 1.0 / (1.0 + t * t), 24, (np.sign(x.real) * 1e15,))
    assert inside == pytest.approx(np.pi, abs=1e-14)


@pytest.mark.parametrize(
    "density, orders",
    [
        (densities.exp_sqrt_density(), range(7)),
        (densities.uniform_density(0.5, 3.0), range(11)),
        (_WEYL, range(3)),
    ],
)
def test_all_orders_pass_equals_single_orders(density, orders):
    # a prefix property: block k of count K is bitwise the last block of count k + 1
    together = hankel.moments_from_density(density, len(orders))
    for k in orders:
        assert np.array_equal(together[k], hankel.moments_from_density(density, k + 1)[-1])


def test_spike_table_moments_are_exact(monkeypatch):
    # unit mass in a spike between grid points: the rule is cut at the grid,
    # so every piece is linear and the 16- and 32-node rules are both exact
    spike = densities.table_density([0.0, 0.49, 0.5, 0.51, 1.0], [0.0, 0.0, 100.0, 0.0, 0.0])
    assert spike.breaks == (0.49, 0.5, 0.51)
    sizes = []
    original = quadrature.gauss_legendre
    monkeypatch.setattr(
        quadrature, "gauss_legendre", lambda lo, hi, n: sizes.append(n) or original(lo, hi, n)
    )
    got = hankel.moments_from_density(spike, 4)
    # t^k is integrated against the hat 100 (0.01 - |t - 0.5|) on (0.49, 0.51)
    exact = [1.0, 0.5, 0.25 + 1e-4 / 6.0, 0.125 + 1e-4 / 4.0]
    assert np.max(np.abs(got[:, 0, 0] - exact)) <= 1e-14
    assert max(sizes) <= 32


@pytest.mark.parametrize("breaks", [(), (0.25,), (2.0, 0.25, -0.3, 0.7, 0.25)])
def test_interval_rule_equals_per_piece_loop(breaks):
    # breaks outside (a, b) are dropped, repeated ones count once, and the
    # piece sums are added in order; no breaks is the single-panel rule
    a, b, n = -0.3, 1.5, 16
    edges = [a, *sorted({c for c in breaks if a < c < b}), b]
    for fn in (np.exp, lambda t: np.abs(t - 0.25)[:, None, None] * _M):
        want = None
        for lo, hi in zip(edges[:-1], edges[1:]):
            t, w = quadrature.gauss_legendre(lo, hi, n)
            v = fn(t)
            piece = np.sum(w * v) if v.ndim == 1 else panel_product(w, v)
            want = piece if want is None else want + piece
        got = quadrature.integrate_interval(fn, a, b, n, breaks=breaks)
        assert np.array_equal(got, want)


def test_all_orders_pass_names_the_first_failing_order():
    es = densities.exp_sqrt_density()
    with pytest.raises(QuadratureNotConverged) as single:
        hankel.moments_from_density(es, 8)
    with pytest.raises(QuadratureNotConverged) as together:
        hankel.moments_from_density(es, 10)
    assert str(single.value).startswith("moment 7: ")
    assert str(together.value) == str(single.value)


def test_divergent_moment_raises_naming_its_order():
    # t / (pi (1 + t^2)) is not absolutely integrable, but the symmetric
    # graded rule cancels it and its value passes the doubled-node check;
    # the check on (1 + t^2)^(1/2) tr P catches it
    cauchy = dataclasses.replace(densities.cauchy_density(), moments=None)  # declares no moment count
    for count in (2, 4):
        with pytest.raises(QuadratureNotConverged, match="^moment 1 absolute: "):
            hankel.moments_from_density(cauchy, count)
    assert hankel.moments_from_density(cauchy, 1)[0][0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("density", [densities.exp_sqrt_density(), densities.uniform_density()])
def test_moment_powers_agree_with_numpy_powers(monkeypatch, density):
    # orders 3..10 by repeated multiplication against t**k on the same rule,
    # relative to the absolute moment integral |t|^k tr P (the odd moments
    # of these even densities cancel to rounding)
    orders = range(3, 11)
    integrand = _moment_integrand(monkeypatch, density, 11)
    if density.bounded_support:
        rule = lambda fn: quadrature.integrate_interval(fn, *density.support, 32, density.breaks)
    else:
        rule = lambda fn: graded(fn, 64, density.breaks)
    got = rule(integrand)
    got = got[3:] if density.bounded_support else got[7::2]  # past the majorants and orders 0..2
    want = [rule(lambda t, k=k: t[:, None, None] ** k * density(t)) for k in orders]
    scale = [rule(lambda t, k=k: np.abs(t) ** k * density(t)[:, 0, 0].real) for k in orders]
    for k, g, w, s in zip(orders, got, want, scale):
        assert np.max(np.abs(g - w)) <= 1e-14 * s, k


def test_absolute_checks_leave_the_moment_values_alone():
    # the moment budget gives the pair (32, 64) on the line; the value is the fine one
    orders = range(3)
    got = hankel.moments_from_density(_WEYL, 3)
    # the same contraction, on the fine rule alone and without the majorant rows
    fine = graded(lambda t: quadrature.Powers(len(orders), ((t, _WEYL(t)),)), 64, _WEYL.breaks)
    for block, value in zip(got, fine):
        assert np.array_equal(block, matcore.hermitian_part(value))


_U = 2.0**-53


def _gamma(m):
    """gamma_m = m u / (1 - m u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 3.1)."""
    return m * _U / (1.0 - m * _U)


def _moment_integrand(monkeypatch, density, count):
    """The integrand that moments_from_density hands to the checked rule."""
    seen = []

    def keep_integrand(fn, *args):
        seen.append(fn)
        return [np.zeros((density.p, density.p))] * len(args[-1])  # one per name

    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "integrate_with_check", keep_integrand)
        hankel.moments_from_density(density, count)
    return seen[0]


def _contraction_misses(t, w, values, sizes, orders, got):
    """The orders whose reduced moments ``got`` (per count, per order) miss
    the 50-digit sums of w_i t_i^k P(t_i) over each count's nodes, the floats
    t, w and P taken as exact, by more than the rounding bound of the
    contraction; an order is (count index, k).

    The rule's row w t^k is k running products, relative error gamma_k;
    each panel's sum is a dot product of its n nodes, gamma_n of the sum of
    moduli A = sum |w t^k| |P| (any order of summation, with or without
    fused multiply-adds); the K panel sums are added one after another,
    gamma_(K-1) of A again.  Each real entry of P (a real or an imaginary
    part) is its own sum.  A itself is summed in floating point, within
    gamma_(k+N) of its exact value over N nodes, so it is inflated by
    1 / (1 - gamma_(k+N))."""
    cols = np.cumsum([0, *sizes])
    panels = t.size // cols[-1]
    flat = np.ascontiguousarray(values).reshape(len(values), -1).view(np.float64)
    misses = []
    for c, (c0, c1) in enumerate(zip(cols, cols[1:])):
        nodes = (np.arange(panels)[:, None] * cols[-1] + np.arange(c0, c1)).ravel()
        ts = [mpmath.mpf(x) for x in t[nodes]]
        row = [mpmath.mpf(x) for x in w[nodes]]  # at 50 digits, as is every product below
        float_row = w[nodes].copy()
        entries = flat[nodes]
        for k in range(max(orders) + 1):
            if k:
                row = [r * x for r, x in zip(row, ts)]
                float_row *= t[nodes]
            if k not in orders:
                continue
            moduli = np.abs(float_row) @ np.abs(entries) / (1.0 - _gamma(k + nodes.size))
            factor = (1.0 + _gamma(k)) * (1.0 + _gamma(c1 - c0)) * (1.0 + _gamma(panels - 1)) - 1.0
            value = np.ascontiguousarray(got[c][orders.index(k)]).reshape(-1).view(np.float64)
            for j in range(entries.shape[1]):
                exact = mpmath.fdot(row, entries[:, j].tolist())
                if abs(mpmath.mpf(value[j]) - exact) > factor * moduli[j]:
                    misses.append((c, k))
                    break
    return misses


def _weyl_p2():
    rng = np.random.default_rng(4812)
    frm = snode.node_frame(hankel.build_hankel_node(sampling.random_hankel_spec(rng, 2, 2)))
    [density], _ = hankel.weyl_densities(frm, *pair_stacks(sampling.random_constant_pair(rng, 2)))
    return density


@pytest.mark.parametrize(
    "name, count",
    [("exp_sqrt", 7), ("uniform", 11), ("weyl p = 2", 3)],
)
def test_moment_contraction_is_within_its_rounding_bound_of_a_50_digit_sum(monkeypatch, name, count):
    density = {"exp_sqrt": densities.exp_sqrt_density, "uniform": densities.uniform_density, "weyl p = 2": _weyl_p2}[name]()
    if density.bounded_support:  # one Gauss-Legendre panel of the ladder
        sizes = (64,)
        t, w = quadrature.gauss_legendre(*density.support, 64)
    else:  # the moment rule on the line
        sizes = (32, 64)
        [(t, w)] = quadrature._graded_rules(sizes, [density.breaks])
    integrand = _moment_integrand(monkeypatch, density, count)
    got = quadrature._reduce(w, integrand(t), sizes)
    if not density.bounded_support:  # past each order's majorant
        got = [items[1::2] for items in got]
    orders = list(range(count))
    with mpmath.workdps(50):
        assert _contraction_misses(t, w, density(t), sizes, orders, got) == []
        # a mutant that contracted order k against w t^(k-1) gives order k - 1's
        # values there: the bound catches it at every order k >= 1 and count
        shifted = [items[:-1] for items in got]
        misses = _contraction_misses(t, w, density(t), sizes, orders[1:], shifted)
    assert misses == [(c, k) for c in range(len(sizes)) for k in orders[1:]]


def _rational(B, A, poles):
    """w -> B + sum_j A_j / (w - a_j), on a 1-d array of points."""
    return lambda ws: B + np.sum(A / (ws[:, None, None, None] - poles[:, None, None]), axis=1)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 3),
    count=st.integers(1, 10),
    npoles=st.integers(1, 4),
    radius=st.floats(0.05, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_circle_coefficients_of_rational_functions(p, count, npoles, radius, seed):
    # all poles at |w| >= 1.5 radius: c_k = [k = 0] B - sum_j A_j a_j^{-(k+1)}
    rng = np.random.default_rng(seed)
    poles = radius * rng.uniform(1.5, 4.0, npoles) * np.exp(2j * np.pi * rng.uniform(size=npoles))
    A = rng.normal(size=(npoles, p, p)) + 1j * rng.normal(size=(npoles, p, p))
    B = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    got = quadrature.circle_coefficients(_rational(B, A, poles), radius, count)
    k = np.arange(count)
    want = -np.einsum("jk,jab->kab", poles[:, None] ** -(k + 1.0), A)
    want[0] += B
    # relative in the units of the rule: coefficient k times radius^k
    units = (radius ** k)[:, None, None]
    assert np.max(np.abs(got - want) * units) <= 1e-13 * np.max(np.abs(want) * units)


@pytest.mark.parametrize("depth", [0.9, 0.3, 0.0])
def test_circle_coefficients_refuse_a_pole_inside_the_circle(depth):
    # near the circle the two rules disagree on coefficient 0; deep inside
    # they agree on the coefficients of an annulus, and the terms in w^-1..
    # give the pole away
    fn = _rational(np.eye(2), np.ones((1, 2, 2)), np.array([depth * 2.0]))
    with pytest.raises(QuadratureNotConverged) as info:
        quadrature.circle_coefficients(fn, 2.0, 4, "term")
    if depth == 0.9:
        assert str(info.value).startswith("term 0: doubled-node drift ")
    else:
        assert str(info.value).startswith("terms: terms in negative powers ")


def test_circle_coefficients_refuse_non_finite_values():
    def fn(ws):
        return np.where(ws.real > 0, 1.0, np.nan)

    with pytest.raises(EvaluationFailure, match="non-finite values on the circle"):
        quadrature.circle_coefficients(fn, 1.0, 3)
