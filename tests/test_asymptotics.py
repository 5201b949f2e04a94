import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from snode_lab import asymptotics, cli, densities, hankel, matcore, quadrature, sampling, snode, toeplitz
from snode_lab.errors import (
    IndexOutOfRange,
    NotInUpperHalfPlane,
    QuadratureNotConverged,
    SingularDenominator,
    SzegoViolated,
    Unsupported,
)


@pytest.fixture(scope="module")
def uniform_family():
    node, spec = asymptotics.hankel_family_from_density(densities.uniform_density(), 6)
    return node, spec


@pytest.fixture(scope="module")
def toeplitz_family_fixture():
    rng = np.random.default_rng(42)
    spec = sampling.random_toeplitz_spec(rng, p=2, n=6)
    return toeplitz.build_toeplitz_node(spec), spec


def _levels(node):
    """The leading compressions of every order 1..n of a node of order n."""
    return [asymptotics.leading_node(node, k) for k in range(1, node.m // node.p + 1)]


def _reversed_margin(top, z):
    """min over k of min eig(rho_k(conj z, z) - rho_{k+1}(conj z, z)): the
    reversed values are PSD-nonincreasing."""
    revs = [snode.rho(node, np.conj(z)) for node in _levels(top)]
    return min(matcore.min_eig_hermitian(a - b) for a, b in zip(revs, revs[1:]))


def test_rho_trajectory_monotone_hankel(uniform_family):
    node, _ = uniform_family
    for z in [1j, 0.5 + 0.7j, -1.3 + 1.6j]:
        traj = asymptotics.convergence_run(node, z)
        assert traj.monotone_margin() >= -1e-9
        assert _reversed_margin(node, z) >= -1e-9


def test_rho_trajectory_monotone_toeplitz(toeplitz_family_fixture):
    node, _ = toeplitz_family_fixture
    for z in [1j, 1.1 + 0.6j]:
        traj = asymptotics.convergence_run(node, z)
        assert traj.monotone_margin() >= -1e-9
        assert _reversed_margin(node, z) >= -1e-9


def test_convergence_run_rho_equals_per_node_calls(uniform_family, toeplitz_family_fixture):
    z = 0.5 + 0.7j
    for top, _ in (uniform_family, toeplitz_family_fixture):
        report = asymptotics.convergence_run(top, z)
        assert report.orders == tuple(range(1, top.m // top.p + 1))
        for node, r in zip(_levels(top), report.rho, strict=True):
            assert np.array_equal(r, snode.rho(node, z))


def test_leading_rho_is_the_rho_of_every_compression(toeplitz_family_fixture):
    top, spec = toeplitz_family_fixture
    z = 1.1 + 0.6j
    stack = snode.leading_rho(top, z)
    assert stack.shape == (spec.n, 2, 2)
    for k in range(1, spec.n + 1):
        # bitwise the compression's own call; to rounding that of a node that
        # is built from the leading spec and factors its own S
        assert np.array_equal(stack[k - 1], snode.rho(asymptotics.leading_node(top, k), z))
        want = snode.rho(toeplitz.build_toeplitz_node(spec.leading(k)), z)
        assert matcore.frobenius(stack[k - 1] - want) <= 1e-12 * matcore.frobenius(want)


@pytest.mark.parametrize("family", ["toeplitz", "hankel"])
def test_a_family_and_its_convergence_run_factor_s_once(monkeypatch, family):
    rng = np.random.default_rng(8)
    if family == "toeplitz":
        spec = sampling.random_toeplitz_spec(rng, 2, 6)
        build = toeplitz.build_toeplitz_node
    else:
        spec = sampling.random_hankel_spec(rng, 2, 4)
        build = hankel.build_hankel_node
    shapes, kernel = [], []
    original = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda M: shapes.append(np.shape(M)) or original(M))
    powers = matcore.hpd_powers
    monkeypatch.setattr(matcore, "hpd_powers", lambda M, qs: kernel.append((np.shape(M), qs)) or powers(M, qs))
    node = build(spec)
    asymptotics.convergence_run(node, 0.4 + 0.9j)
    # S of the largest level, once; then the stack of every order's rho, once,
    # for the inverses, by the closed forms of p = 2 with no LAPACK call
    assert shapes == [(2 * spec.n, 2 * spec.n)]
    assert kernel == [((spec.n, 2, 2), (-1,))]


@pytest.mark.parametrize("k", [0, 7, -1])
def test_leading_node_needs_an_order_inside_the_node(uniform_family, k):
    node, _ = uniform_family
    with pytest.raises(IndexOutOfRange, match=f"leading order {k} outside 1..6"):
        asymptotics.leading_node(node, k)


def _rho_mp50(top, z):
    """rho_k(z, conj z) of every order k = 1..n of a node at 50 digits, each
    from its own solve with S(k); (I - conj(z) A)^{-1} Phi2 is solved once,
    as A is lower triangular."""
    import mpmath

    with mpmath.workdps(50):
        A, S, Phi2 = (mpmath.matrix(M.tolist()) for M in (top.A, top.S, top.Phi2))
        R = mpmath.eye(top.m) - mpmath.mpc(z.real, -z.imag) * A
        columns = [mpmath.lu_solve(R, Phi2[:, j]) for j in range(top.p)]
        out = []
        for k in range(1, top.m // top.p + 1):
            mk = k * top.p
            Sk, V = S[:mk, :mk], [column[:mk, 0] for column in columns]
            X = [mpmath.lu_solve(Sk, v) for v in V]
            out.append([[complex(2 * z.imag * (a.H * x)[0, 0]) for x in X] for a in V])
        return np.array(out)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 10), st.sampled_from(["toeplitz", "hankel"]))
def test_every_trajectory_rho_is_within_eps_k_cond_of_a_50_digit_rho(seed, p, n, family):
    rng = np.random.default_rng(seed)
    if family == "toeplitz":
        node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, n))
    else:
        p, n = min(p, 2), min(n, 5)
        node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, n))
    z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 1.5))
    report = asymptotics.convergence_run(node, z)
    eps = np.finfo(float).eps
    want = _rho_mp50(node, z)
    for k, got, want_k, cond in zip(report.orders, report.rho, want, report.conds, strict=True):
        # the order k scales the bound, as it scales every substitution's
        # error bound (Higham 2002, ch. 8): on 400 seeded draws the worst
        # error is 2.9 eps k cond(S) |rho|; without the order it reaches
        # 11.9 eps cond(S) |rho|, and 12.1 with a dense solve with S per level
        assert np.linalg.norm(got - want_k) <= 10 * eps * k * cond * np.linalg.norm(want_k)


def test_convergence_run_requires_upper_half_plane(uniform_family):
    node, _ = uniform_family
    for z in (1.0, 1.0 - 0.5j, -2j):
        with pytest.raises(NotInUpperHalfPlane, match="lam = .* must lie in the open upper half-plane"):
            asymptotics.convergence_run(node, z, reference=densities.exp_sqrt_density())


def test_rho_trajectory_identity_symbol(rng):
    # scalar spec with identity Toeplitz matrix: s_0 = 1, no off blocks
    spec = toeplitz.ToeplitzSpec(
        p=1, n=5, s=(np.array([[1.0]]),) + tuple(np.zeros((1, 1)) for _ in range(4)),
        nu=np.zeros((1, 1)),
    )
    node = toeplitz.build_toeplitz_node(spec)
    traj = asymptotics.convergence_run(node, 1j)
    assert traj.monotone_margin() >= -1e-12


def test_rho_trajectory_single_node(hankel_unit):
    _, node = hankel_unit
    traj = asymptotics.convergence_run(node, 1j)
    assert traj.orders == (1,)
    assert traj.monotone_margin() == np.inf


def test_frame_quotient_identity_at_equal_levels(uniform_family):
    top, _ = uniform_family
    q = asymptotics.frame_quotient(asymptotics.leading_node(top, 3), 3, 1.3j)
    assert_allclose(q.value, np.eye(2), atol=0)


def test_frame_quotient_product_and_j_expansion(uniform_family, rng):
    top, _ = uniform_family
    q = asymptotics.frame_quotient(asymptotics.leading_node(top, 3), 2, 2j)
    assert q.product_residual <= 1e-9
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        k, r = int(rng.integers(0, 3)) + 1, int(rng.integers(3, 6)) + 1
        q = asymptotics.frame_quotient(asymptotics.leading_node(top, r), k, z)
        assert q.product_residual <= 1e-9
        assert q.j_expansion_min_eig >= -1e-9


def test_quotient_node_is_a_node(uniform_family):
    top, _ = uniform_family
    node = asymptotics.quotient_node(asymptotics.leading_node(top, 5), 2)
    assert snode.identity_residual(node) <= 1e-10 * (1.0 + matcore.frobenius(node.S))


def _node_of_order(n):
    return hankel.build_hankel_node(sampling.random_hankel_spec(np.random.default_rng(1), 2, n))


@pytest.mark.parametrize("k, order", [(3, 3), (3, 1), (-1, 3), (0, 7), (5, 4)])
def test_quotient_node_needs_a_level_nested_in_a_later_one(k, order):
    # k = n, n + 2, -1, 0 and n + 1 against a node of the given order n
    node = asymptotics.leading_node(_node_of_order(7), order)
    with pytest.raises(IndexOutOfRange, match=f"need 1 <= k < {order}, got k = {k}"):
        asymptotics.quotient_node(node, k)


def test_frame_quotient_keeps_its_identity_and_its_order_check():
    node = _node_of_order(4)
    assert_allclose(asymptotics.frame_quotient(node, 4, 1j).value, np.eye(4), atol=0)
    for k in (0, -1, 5):
        with pytest.raises(IndexOutOfRange):
            asymptotics.frame_quotient(node, k, 1j)


@pytest.mark.parametrize("family", ["toeplitz", "hankel"])
def test_quotient_node_forms_no_inverse_and_no_second_factor(monkeypatch, family):
    rng = np.random.default_rng(5)
    if family == "toeplitz":
        node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, 2, 5))
    else:
        node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, 2, 5))
    node.S_chol  # the node's one factor, built before counting
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(M, *args, **kwargs):
            calls.append((name, np.shape(M)[-2:]))
            return original(M, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((matcore, "inv_hpd"), (np.linalg, "inv"), (np.linalg, "cholesky")):
        counted(module, name)
    for k in range(1, 5):
        asymptotics.quotient_node(node, k)
    # nothing but one batched inverse of the 2 x 2 diagonal blocks of L, kept
    # on the node for every chain read off it
    assert calls == [("inv", (2, 2))]


def test_frame_quotient_factors_nothing_once_the_level_factors_exist(monkeypatch):
    node = _node_of_order(4)
    node.S_chol
    # the frame of a node with the same data that factors its own S
    quotient = asymptotics.quotient_node(node, 2)
    want = snode.frame(dataclasses.replace(quotient), 1j)
    calls = []
    original = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda M: calls.append(1) or original(M))
    got = asymptotics.frame_quotient(node, 2, 1j).value
    # the quotient node's S_chol is the trailing block L22 of the node's
    # factor, and the compression's the leading block
    assert calls == []
    assert matcore.frobenius(got - want) <= 1e-14 * matcore.frobenius(want)


def _schur_complement_mp50(node, mk):
    """S22 - S21 S11^{-1} S12 and Pi2 - S21 S11^{-1} Pi1 of a node, split
    after row mk, at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        S, Pi = (mpmath.matrix(M.tolist()) for M in (node.S, node.Pi))
        W = S[mk:, :mk] * mpmath.inverse(S[:mk, :mk])
        pair = (S[mk:, mk:] - W * S[:mk, mk:], Pi[mk:, :] - W * Pi[:mk, :])
        return [np.array(M.tolist(), dtype=complex) for M in pair]


def test_quotient_node_matches_a_50_digit_schur_complement():
    # cond S reaches 4e6 on these specs.  The step read off the factor of S
    # stays within 7.8e-15 of the reference; forming the complement from the
    # inverses of S and of the trailing block of S^{-1} strays by 8.4e-12
    for s in range(40):
        rng = np.random.default_rng(3000 + s)
        p, n = int(rng.integers(1, 3)), int(rng.integers(4, 7))
        top = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, n))
        k = n // 2
        node = asymptotics.quotient_node(top, k)
        S_want, Pi_want = _schur_complement_mp50(top, k * p)
        assert matcore.frobenius(node.S - S_want) <= 1e-13 * matcore.frobenius(S_want)
        assert matcore.frobenius(node.Pi - Pi_want) <= 1e-13 * matcore.frobenius(Pi_want)


def _chain_grams(node):
    return np.stack([G.conj().T @ G for G in snode.node_chain(node).G])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(2, 10), st.sampled_from(["toeplitz", "hankel"]))
def test_the_chain_of_a_quotient_node_is_the_tail_of_the_full_chain(seed, p, n, family):
    # the separation of the interpolation formulas as an identity between
    # chains: the node that order k leaves inside order n has the chain
    # G_{k+1} ... G_n of the full node, for every split k.  On 200 seeded
    # specs per family the worst gap is 1.4 (Toeplitz) and 0.3 (Hankel)
    # times eps cond S; with the generator Pi2 left uncorrected it is at
    # least 1e9 times
    rng = np.random.default_rng(seed)
    if family == "toeplitz":
        full = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, n))
    else:
        n = min(n, 5)
        full = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, n))
    grams = _chain_grams(full)
    tol = 10 * np.finfo(float).eps * np.linalg.cond(full.S)
    for k in range(1, n):
        tail = grams[k:]
        got = _chain_grams(asymptotics.quotient_node(full, k))
        assert np.linalg.norm(got - tail) <= tol * np.linalg.norm(tail)


def test_solution_sets_nest_into_smaller_balls(uniform_family, rng):
    # a Weyl value of a deeper node lies in the ball of every shallower one
    top, _ = uniform_family
    z = 0.4 + 1.1j
    ball_small = snode.matrix_ball(asymptotics.leading_node(top, 2), z)
    frm_big = snode.node_frame(asymptotics.leading_node(top, 5))
    for _ in range(10):
        pair = sampling.random_constant_pair(rng, 1)
        value = snode.lft(frm_big, pair, z)
        _, norm_u = snode.ball_membership(ball_small, value)
        assert norm_u <= 1 + 1e-8


def test_entropy_integral_examples(hankel_unit):
    # the entropy (Szego) integral of ln det P against dt/(1+t^2), finite or
    # -inf, as convergence_run reads it from the outer modulus: finite for
    # one and Cauchy, with target 2 pi |G(i)|^2, and -inf for uniform
    _, node = hankel_unit
    one = densities.DensityFn(
        "one", lambda t: np.ones_like(t)[:, None, None].astype(complex),
        log_det=lambda t: np.zeros_like(t),
    )
    for reference, target in ((one, 2 * np.pi), (densities.cauchy_density(), 0.5)):
        report = asymptotics.convergence_run(node, 1j, reference=reference)
        assert report.szego_finite
        assert report.target == pytest.approx(target, abs=1e-9)
    report = asymptotics.convergence_run(node, 1j, reference=densities.uniform_density())
    assert not report.szego_finite and report.target is None


def test_outer_modulus_examples():
    one = densities.DensityFn(
        "one", lambda t: np.ones_like(t)[:, None, None].astype(complex),
        log_det=lambda t: np.zeros_like(t),
    )
    assert asymptotics.outer_modulus(one, 0.3 + 1.7j) == pytest.approx(1.0, abs=1e-10)
    cauchy = densities.cauchy_density()
    assert asymptotics.outer_modulus(cauchy, 1j) == pytest.approx(
        1 / (2 * np.sqrt(np.pi)), abs=1e-9
    )


def test_outer_modulus_rejects_lower_half_plane():
    with pytest.raises(NotInUpperHalfPlane, match="lam = .*-1j"):
        asymptotics.outer_modulus(densities.density_by_name("exp_sqrt"), -1j)


def test_outer_modulus_szego_violation():
    with pytest.raises(SzegoViolated):
        asymptotics.outer_modulus(densities.uniform_density(), 1j)


def test_poisson_normalization_random_points(rng):
    from snode_lab import quadrature

    for _ in range(10):
        lam = complex(rng.uniform(-4, 4), rng.uniform(0.2, 3.0))
        [value] = quadrature.integrate_line_graded(
            asymptotics.poisson_weight(lam), next(quadrature._graded_rules((24,), [()])), (24,)
        )
        assert abs(value - np.pi) <= 1e-9
        assert abs(asymptotics.poisson_normalization(lam) - np.pi) <= 1e-9


def test_poisson_normalization_names_a_lost_integral_as_a_plain_float():
    # lam = 1e-300 i: the weight is a spike far narrower than any panel
    with pytest.raises(QuadratureNotConverged, match=r"^poisson normalization 1\.198e-296 != pi$"):
        asymptotics.poisson_normalization(1e-300j)


def test_poisson_weight_in_real_arithmetic_matches_the_complex_form(rng):
    ts = np.concatenate([rng.standard_cauchy(1000), [0.0, 1e19, -1e19]])
    for lam in (1j, 0.3 + 1.7j, -40.0 + 1e-3j, 1e6 + 1e4j):
        want = np.imag(lam) / np.abs(ts - lam) ** 2
        # each form rounds a few times: they agree to a few ulps
        assert_allclose(asymptotics.poisson_weight(lam)(ts), want, rtol=1e-15, atol=0.0)


def test_outer_modulus_agrees_with_extremal_factor(hankel_unit):
    frm = snode.node_frame(hankel_unit[1])
    ext = snode.extremal_pair(frm, 1j)
    [dens], _ = hankel.weyl_densities(frm, [ext])
    lam = 0.4 + 0.9j
    om = asymptotics.outer_modulus(dens, lam)
    [G] = asymptotics.outer_factor(frm, [ext], lam)
    assert om == pytest.approx(abs(G[0, 0]), abs=1e-6)


def test_gmu_extremal_hand_values(hankel_unit):
    frm = snode.node_frame(hankel_unit[1])
    [G] = asymptotics.outer_factor(frm, [snode.extremal_pair(frm, 1j)], 1j)
    assert G[0, 0] == pytest.approx(1 / (2 * np.sqrt(np.pi)), abs=1e-12)
    assert 2 * np.pi * abs(G[0, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_gmu_boundary_factorization(hankel_unit, rng):
    # G(t)* G(t) = mu'(t) on the axis: the extremal pair of the unit node,
    # and a random pair of a seeded p = 2 node
    frm1 = snode.node_frame(hankel_unit[1])
    node2 = hankel.build_hankel_node(sampling.random_hankel_spec(np.random.default_rng(3), 2, 2))
    for frm, pair in (
        (frm1, snode.extremal_pair(frm1, 1j)),
        (snode.node_frame(node2), sampling.random_constant_pair(rng, 2)),
    ):
        [dens], _ = hankel.weyl_densities(frm, [pair])
        for t in rng.uniform(-6, 6, 20):
            [G] = asymptotics.outer_factor(frm, [pair], float(t))
            gap = G.conj().T @ G - dens(np.array([t]))[0]
            assert np.max(np.abs(gap)) <= 1e-9


def test_outer_factor_of_a_pair_list_equals_single_calls(rng):
    frm = snode.node_frame(hankel.build_hankel_node(sampling.random_hankel_spec(np.random.default_rng(4), 2, 3)))
    z = 0.3 + 0.8j
    pairs = [snode.extremal_pair(frm, 1j), *(sampling.random_constant_pair(rng, 2) for _ in range(3))]
    batch = asymptotics.outer_factor(frm, pairs, z)
    assert batch.shape == (4, 2, 2)
    for pair, got in zip(pairs, batch):
        assert np.array_equal(got, asymptotics.outer_factor(frm, [pair], z)[0])


def test_outer_factor_names_the_first_singular_pair(hankel_unit):
    frm = snode.node_frame(hankel_unit[1])
    # F(z) = Frm21(z) R + Frm22(z) Q vanishes for (R, Q) = (Frm22(z), -Frm21(z))
    _, _, F21, F22 = frm.blocks(2j)
    good = snode.ParamPair.constant(np.eye(1), np.eye(1))
    bad = snode.ParamPair.constant(F22, -F21)
    with pytest.raises(SingularDenominator, match="for pair 1") as info:
        asymptotics.outer_factor(frm, [good, bad, bad], 2j)
    assert info.value.z == 2j


def test_entropy_bound_equality_at_extremal(hankel_unit):
    frm = snode.node_frame(hankel_unit[1])
    [slack] = asymptotics.entropy_bound_check(frm, [snode.extremal_pair(frm, 1j)], 1j).slacks
    assert abs(slack) <= 1e-6


def test_entropy_bound_witness_strict(hankel_unit):
    frm = snode.node_frame(hankel_unit[1])
    witness = snode.ParamPair.constant(np.array([[1.0]]), np.array([[4.0]]))
    bounds = asymptotics.entropy_bound_check(frm, [witness], 1j)
    [lhs], [slack] = bounds.lhs, bounds.slacks
    assert lhs[0, 0].real == pytest.approx(0.32, abs=1e-6)
    assert slack >= 1e-3


def test_entropy_bound_random_pairs_on_chain_frame(rng):
    spec = sampling.random_toeplitz_spec(rng, p=1, n=2)
    frm = toeplitz.dirac_frame(toeplitz.dirac_chain(snode.node_chain(toeplitz.build_toeplitz_node(spec)))[0])
    lam = 0.4 + 1.3j
    ext = snode.extremal_pair(frm, lam)
    [slack] = asymptotics.entropy_bound_check(frm, [ext], lam).slacks
    assert abs(slack) <= 1e-6
    for _ in range(10):
        pair = sampling.random_constant_pair(rng, 1)
        bounds = asymptotics.entropy_bound_check(frm, [pair], lam)
        [slack], [gap] = bounds.slacks, bounds.modulus_gaps
        assert slack >= -1e-6
        assert gap <= 1e-9


def _chain_frame_bounds(frm_of):
    """The bounds of the chain-frame test's input (its fixture's seed): the
    extremal pair and ten random pairs at lam = 0.4 + 1.3i, on the frame
    ``frm_of`` makes of its Dirac frame."""
    rng = np.random.default_rng(1234)
    spec = sampling.random_toeplitz_spec(rng, p=1, n=2)
    frm = frm_of(toeplitz.dirac_frame(toeplitz.dirac_chain(snode.node_chain(toeplitz.build_toeplitz_node(spec)))[0]))
    lam = 0.4 + 1.3j
    pairs = [snode.extremal_pair(frm, lam), *(sampling.random_constant_pair(rng, 1) for _ in range(10))]
    return asymptotics.entropy_bound_check(frm, pairs, lam)


def test_entropy_bound_without_the_dirac_pole_term_fails_b31q():
    # B31q is the largest modulus gap against 1e-9: with the pole -2i of
    # det F (order M = 2) in the log-det each pair's gap is a rounding;
    # without it every gap is M ln(|lam + 2i| / |i + 2i|) = 0.205, the
    # Poisson mean at lam of the missing 2 M ln(|t + 2i| / |i + 2i|)
    assert np.max(_chain_frame_bounds(lambda frm: frm).modulus_gaps) <= 1e-9
    gap = np.max(_chain_frame_bounds(lambda frm: dataclasses.replace(frm, pole=None)).modulus_gaps)
    assert gap > 0.1


def test_entropy_bound_refuses_a_pole_of_det_f_in_the_upper_half_plane():
    # a Toeplitz node's own frame: det F has the pole 1/conj(i/2) = 2i of
    # order m, so its Weyl densities are not the boundary values of an
    # outer function there; the Dirac frame of its chain has -2i instead
    node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(np.random.default_rng(1), 2, 3))
    frm = snode.node_frame(node)
    assert frm.pole == (2j, 6)
    pair = sampling.random_constant_pair(np.random.default_rng(2), 2)
    with pytest.raises(Unsupported, match=r"^det F has a pole of order 6 at z = 2j, in the closed upper half-plane"):
        asymptotics.entropy_bound_check(frm, [pair], 1j)
    dirac = toeplitz.dirac_frame(toeplitz.dirac_chain(snode.node_chain(node))[0])
    assert dirac.pole == (-2j, 6)
    [gap] = asymptotics.entropy_bound_check(dirac, [pair], 1j).modulus_gaps
    assert gap <= 1e-9
    # a pole on the axis is refused too; a Hankel node's frame has none
    with pytest.raises(Unsupported, match=r"at z = \(3\+0j\)"):
        asymptotics.entropy_bound_check(dataclasses.replace(dirac, pole=(3.0, 1)), [pair], 1j)
    spec = sampling.random_hankel_spec(np.random.default_rng(3), 2, 2)
    assert snode.node_frame(hankel.build_hankel_node(spec)).pole is None


def test_convergence_run_exp_sqrt_trend():
    es = densities.exp_sqrt_density()
    node, _ = asymptotics.hankel_family_from_density(es, 4)
    report = asymptotics.convergence_run(node, 1j, reference=es)
    assert report.szego_finite
    assert report.target == pytest.approx(2 * np.pi * (np.exp(-np.sqrt(2)) / 4), rel=1e-6)
    assert report.det_positive()
    assert report.psd_nonincreasing_margin() >= -1e-9
    assert report.monotone_margin() >= -1e-9
    assert report.gap_strictly_decreasing()
    assert all(g > 0 for g in report.gaps)


def test_convergence_run_uniform_flags_szego(uniform_family):
    node, _ = uniform_family
    report = asymptotics.convergence_run(node, 1j, reference=densities.uniform_density())
    assert not report.szego_finite
    assert report.target is None
    assert report.psd_nonincreasing_margin() >= -1e-9


def test_det_strict_lemma_examples():
    assert asymptotics.det_strict_lemma(np.eye(2), np.diag([1.0, 0.0]))
    assert asymptotics.det_strict_lemma(np.eye(2), np.zeros((2, 2)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_det_strict_lemma_random(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    A = sampling.random_hpd(rng, p)
    v = sampling.random_complex(rng, (p, 1))
    assert asymptotics.det_strict_lemma(A, v @ v.conj().T)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_minkowski_superadditivity_random(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    B1 = sampling.random_hpd(rng, p)
    B2 = sampling.random_hpd(rng, p)
    assert asymptotics.minkowski_det_margin(B1, B2) >= -1e-10


@pytest.mark.parametrize("p", [1, 2, 3])
def test_lemmas_on_stacks_equal_single_calls(rng, p):
    B1, B2, A = (np.stack([sampling.random_hpd(rng, p) for _ in range(6)]) for _ in range(3))
    v = sampling.random_complex(rng, (6, p, 1))
    B = v @ np.swapaxes(v, 1, 2).conj()
    B[0] = 0.0
    margins = asymptotics.minkowski_det_margin(B1, B2)
    flags = asymptotics.det_strict_lemma(A, B)
    assert list(margins) == [asymptotics.minkowski_det_margin(b1, b2) for b1, b2 in zip(B1, B2)]
    assert list(flags) == [asymptotics.det_strict_lemma(a, b) for a, b in zip(A, B)]
    assert all(flags)


def _oscillating_family(k):
    def fn(t):
        return (1.0 + np.sin(k * t) / 2.0)[:, None, None].astype(complex)

    def log_det(t):
        return np.log(1.0 + np.sin(k * t) / 2.0)

    return densities.DensityFn("osc", fn, support=(-5.0, 5.0), log_det=log_det)


def test_limit_inequality_oscillating_matches_period_average():
    report = asymptotics.limit_inequality_demo(_oscillating_family)
    oracle = np.log((1 + np.sqrt(0.75)) / 2) * 2 * np.arctan(5.0)
    assert report.limsup_estimate <= report.rhs + 1e-3
    assert report.extrapolated == pytest.approx(oracle, abs=1e-3)
    # the gap is genuinely strict
    assert report.rhs - report.limsup_estimate > 0.1


def test_limit_inequality_constant_sequence_equality():
    cauchy = densities.cauchy_density()
    bounded = densities.DensityFn(
        "c5", lambda t: cauchy(t), support=(-5.0, 5.0), log_det=cauchy.log_det
    )
    report = asymptotics.limit_inequality_demo(lambda k: bounded)
    assert abs(report.rhs - report.extrapolated) <= 1e-3


def _vanishing_family(breaks):
    """Densities exp(-k) on [0, 1] and 1 elsewhere on (-5, 5): the weak limit
    vanishes on [0, 1]."""

    def family(k):
        def fn(t):
            vals = np.where((t >= 0) & (t <= 1), np.exp(-float(k)), 1.0)
            return vals[:, None, None].astype(complex)

        def log_det(t):
            return np.where((t >= 0) & (t <= 1), -float(k), 0.0)

        return densities.DensityFn("van", fn, support=(-5.0, 5.0), log_det=log_det, breaks=breaks)

    return family


def test_limit_inequality_vanishing_convention():
    report = asymptotics.limit_inequality_demo(_vanishing_family((0.0, 1.0)))
    assert report.rhs == -np.inf


def test_limit_inequality_takes_the_bounded_support_of_the_family():
    # I_k integrates over the family's support: on (-2, 2) the oscillation
    # limit is the period average times 2 arctan(2), not 2 arctan(5)
    def narrow(k):
        return dataclasses.replace(_oscillating_family(k), support=(-2.0, 2.0))

    report = asymptotics.limit_inequality_demo(narrow)
    oracle = np.log((1 + np.sqrt(0.75)) / 2) * 2 * np.arctan(2.0)
    assert report.extrapolated == pytest.approx(oracle, abs=1e-3)
    with pytest.raises(Unsupported, match="bounded support"):
        asymptotics.limit_inequality_demo(lambda k: densities.cauchy_density())


def test_limit_inequality_integrals_are_checked():
    # the same jumps, undeclared, fall inside panels: the 8- and 16-node
    # rules of I_64 then disagree by 5e-2
    with pytest.raises(QuadratureNotConverged, match="^I_64: doubled-node drift"):
        asymptotics.limit_inequality_demo(_vanishing_family(()))


def test_entropy_bound_pair_batch_equals_single_calls(hankel_102, rng):
    frm = snode.node_frame(hankel_102[1])
    lam = 0.3 + 1.1j
    pairs = [sampling.random_constant_pair(rng, 1) for _ in range(2)]
    batch = asymptotics.entropy_bound_check(frm, pairs, lam)
    assert batch.lhs.shape == (2, 1, 1) and batch.moduli.shape == (2,)
    for k, pair in enumerate(pairs):
        want = asymptotics.entropy_bound_check(frm, [pair], lam)
        assert np.array_equal(batch.lhs[k], want.lhs[0])
        assert np.array_equal(batch.rhs, want.rhs)
        assert batch.slacks[k] == want.slacks[0] and batch.modulus_gaps[k] == want.modulus_gaps[0]


def test_entropy_bound_matrix_batch_of_extremal_pairs():
    spec = sampling.random_hankel_spec(np.random.default_rng(5), 2, 2)
    node = hankel.build_hankel_node(spec)
    frm = snode.node_frame(node)
    ext = snode.extremal_pair(frm, 1j)
    single = asymptotics.entropy_bound_check(frm, [ext], 1j)
    double = asymptotics.entropy_bound_check(frm, [ext, ext], 1j)
    assert double.lhs.shape == (2, 2, 2)
    for lhs in double.lhs:
        assert np.array_equal(lhs, single.lhs[0])
    assert np.array_equal(double.rhs, single.rhs)
    # any pair at p = 2: the ball witness of contraction I/2 reads 1/4, and
    # every closed-form lhs agrees with its quadrature modulus
    ball = snode.matrix_ball(node, 1j)
    witness = cli._pair_with_value(frm, 1j, snode.ball_value(ball, 0.5 * np.eye(2)))
    bounds = asymptotics.entropy_bound_check(frm, [ext, witness], 1j)
    assert bounds.relative_slack(1) == pytest.approx(0.25, abs=1e-9)
    assert max(bounds.modulus_gaps) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [1, 2])
def test_entropy_bound_of_a_degenerate_pair_is_a_szego_violation(p):
    # R*Q + Q*R = diag(0, 2) is singular: the density's log-det is -inf,
    # also at a node where det F rounds to 0 (no -inf + inf)
    frm = snode.node_frame(hankel.build_hankel_node(sampling.random_hankel_spec(np.random.default_rng(6), p, 2)))
    pair = snode.ParamPair.constant(np.eye(p), np.diag([1j, 1.0][:p]))
    with pytest.raises(SzegoViolated):
        asymptotics.entropy_bound_check(frm, [snode.extremal_pair(frm, 1j), pair], 1j)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_entropy_bound_moduli_are_bitwise_the_outer_moduli(p):
    # the batch of the bound check against one outer_modulus call per density
    frm = snode.node_frame(hankel.build_hankel_node(sampling.random_hankel_spec(np.random.default_rng(p), p, 2)))
    lam = 0.2 + 0.9j
    draws = np.random.default_rng(10 + p)
    pairs = [snode.extremal_pair(frm, lam), *(sampling.random_constant_pair(draws, p) for _ in range(6))]
    dens, _ = hankel.weyl_densities(frm, pairs)
    assert any(dens_.breaks for dens_ in dens)
    moduli = asymptotics.entropy_bound_check(frm, pairs, lam).moduli.tolist()
    assert moduli == [asymptotics.outer_modulus(P, lam) for P in dens]


def test_outer_modulus_of_a_density_list_equals_single_calls(monkeypatch):
    # entropy_bound_check takes the moduli of its pairs' densities after one
    # normalization; each equals the outer_modulus call on that density
    frm = snode.node_frame(hankel.build_hankel_node(sampling.random_hankel_spec(np.random.default_rng(4), 2, 3)))
    lam = 0.3 + 1.7j
    draws = np.random.default_rng(7)
    pairs = [snode.extremal_pair(frm, lam), *(sampling.random_constant_pair(draws, 2) for _ in range(2))]
    dens, _ = hankel.weyl_densities(frm, pairs)
    singles = [asymptotics.outer_modulus(P, lam) for P in dens]
    batches = []
    original = quadrature.integrate_lines

    def counted(fns, break_sets, quad, rel_tol, whats):
        batches.append(list(whats))
        return original(fns, break_sets, quad, rel_tol, whats)

    monkeypatch.setattr(quadrature, "integrate_lines", counted)
    assert asymptotics.entropy_bound_check(frm, pairs, lam).moduli.tolist() == singles
    # one normalization, then one batch with one integral per density
    assert batches == [["poisson normalization"], ["outer modulus integral"] * 3]
