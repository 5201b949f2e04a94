import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from snode_lab import asymptotics, cli, densities, hankel, matcore, quadrature, sampling, snode, toeplitz
from snode_lab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotInUpperHalfPlane,
    QuadratureNotConverged,
    SingularDenominator,
    SzegoViolated,
    Unsupported,
)


@pytest.fixture(scope="module")
def uniform_family():
    seq, spec = asymptotics.hankel_family_from_density(densities.uniform_density(), 6)
    return seq, spec


@pytest.fixture(scope="module")
def toeplitz_family_fixture():
    rng = np.random.default_rng(42)
    spec = sampling.random_toeplitz_spec(rng, p=2, n=6)
    return asymptotics.toeplitz_family(spec), spec


def test_nested_embed_toeplitz(toeplitz_family_fixture):
    seq, _ = toeplitz_family_fixture
    assert asymptotics.nested_embed_check(seq) <= 1e-14


def test_nested_embed_hankel(uniform_family):
    seq, _ = uniform_family
    assert asymptotics.nested_embed_check(seq) <= 1e-14


def test_nested_embed_detects_permutation(uniform_family, rng):
    seq, spec = uniform_family
    # swap two moment blocks in the middle node only
    blocks = list(spec.leading(3).H)
    blocks[1], blocks[2] = blocks[2], blocks[1]
    broken = hankel.build_hankel_node(hankel.HankelSpec(p=1, n=3, H=tuple(blocks)))
    nodes = list(seq.nodes)
    nodes[2] = broken
    bad = asymptotics.NodeSequence(nodes=tuple(nodes), orders=seq.orders)
    assert asymptotics.nested_embed_check(bad) > 0.1


def _reversed_margin(seq, z):
    """min over k of min eig(rho_k(conj z, z) - rho_{k+1}(conj z, z)): the
    reversed values are PSD-nonincreasing."""
    revs = [snode.rho(node, np.conj(z)) for node in seq.nodes]
    return min(matcore.min_eig_hermitian(a - b) for a, b in zip(revs, revs[1:]))


def test_rho_trajectory_monotone_hankel(uniform_family):
    seq, _ = uniform_family
    for z in [1j, 0.5 + 0.7j, -1.3 + 1.6j]:
        traj = asymptotics.convergence_run(seq, z)
        assert traj.monotone_margin() >= -1e-9
        assert _reversed_margin(seq, z) >= -1e-9


def test_rho_trajectory_monotone_toeplitz(toeplitz_family_fixture):
    seq, _ = toeplitz_family_fixture
    for z in [1j, 1.1 + 0.6j]:
        traj = asymptotics.convergence_run(seq, z)
        assert traj.monotone_margin() >= -1e-9
        assert _reversed_margin(seq, z) >= -1e-9


def test_convergence_run_rho_equals_per_node_calls(uniform_family, toeplitz_family_fixture):
    z = 0.5 + 0.7j
    for seq, _ in (uniform_family, toeplitz_family_fixture):
        report = asymptotics.convergence_run(seq, z)
        for node, r in zip(seq.nodes, report.rho, strict=True):
            assert np.array_equal(r, snode.rho(node, z))


def test_leading_rho_is_the_rho_of_every_compression(toeplitz_family_fixture):
    seq, spec = toeplitz_family_fixture
    z = 1.1 + 0.6j
    top = seq.nodes[-1]
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
        build = asymptotics.toeplitz_family
    else:
        spec = sampling.random_hankel_spec(rng, 2, 4)
        build = asymptotics.hankel_family
    shapes = []
    original = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda M: shapes.append(np.shape(M)) or original(M))
    seq = build(spec)
    assert asymptotics.nested_embed_check(seq) == 0.0
    asymptotics.convergence_run(seq, 0.4 + 0.9j)
    # S of the largest level, once; then the stack of every order's rho, once,
    # for the inverses
    assert shapes == [(2 * spec.n, 2 * spec.n), (spec.n, 2, 2)]


def test_a_family_below_the_spec_order_builds_its_top_level_alone(monkeypatch):
    spec = sampling.random_hankel_spec(np.random.default_rng(9), 2, 5)
    calls = []
    original = hankel.HankelSpec.leading
    monkeypatch.setattr(hankel.HankelSpec, "leading", lambda self, k: calls.append(k) or original(self, k))
    seq = asymptotics.hankel_family(spec, (1, 3))
    assert calls == [3]
    assert asymptotics.hankel_family(spec).orders == (1, 2, 3, 4, 5) and calls == [3]
    assert [node.m for node in seq.nodes] == [2, 6]
    assert np.array_equal(seq.nodes[-1].S, hankel.build_hankel_node(spec.leading(3)).S)


def test_a_node_sequence_checks_its_orders(uniform_family):
    seq, _ = uniform_family
    with pytest.raises(DimensionMismatch, match="level 1 has order 2, not 3"):
        asymptotics.NodeSequence(nodes=seq.nodes[:2], orders=(1, 3))
    with pytest.raises(DimensionMismatch, match="orders must not decrease"):
        asymptotics.NodeSequence(nodes=(seq.nodes[2], seq.nodes[1]), orders=(3, 2))


@pytest.mark.parametrize("k", [0, 7, -1])
def test_leading_node_needs_an_order_inside_the_node(uniform_family, k):
    seq, _ = uniform_family
    with pytest.raises(IndexOutOfRange, match=f"leading order {k} outside 1..6"):
        asymptotics.leading_node(seq.nodes[-1], k)


def _rho_mp50(top, orders, z):
    """rho_k(z, conj z) of every order k of ``orders`` at 50 digits, each
    from its own solve with S(k); (I - conj(z) A)^{-1} Phi2 is solved once,
    as A is lower triangular."""
    import mpmath

    with mpmath.workdps(50):
        A, S, Phi2 = (mpmath.matrix(M.tolist()) for M in (top.A, top.S, top.Phi2))
        R = mpmath.eye(top.m) - mpmath.mpc(z.real, -z.imag) * A
        columns = [mpmath.lu_solve(R, Phi2[:, j]) for j in range(top.p)]
        out = []
        for k in orders:
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
        seq = asymptotics.toeplitz_family(sampling.random_toeplitz_spec(rng, p, n))
    else:
        p, n = min(p, 2), min(n, 5)
        seq = asymptotics.hankel_family(sampling.random_hankel_spec(rng, p, n))
    z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 1.5))
    report = asymptotics.convergence_run(seq, z)
    eps = np.finfo(float).eps
    want = _rho_mp50(seq.nodes[-1], seq.orders, z)
    for k, got, want_k, cond in zip(seq.orders, report.rho, want, report.conds, strict=True):
        # the order k scales the bound, as it scales every substitution's
        # error bound (Higham 2002, ch. 8): on 400 seeded draws the worst
        # error is 2.9 eps k cond(S) |rho|; without the order it reaches
        # 11.9 eps cond(S) |rho|, and 12.1 with a dense solve with S per level
        assert np.linalg.norm(got - want_k) <= 10 * eps * k * cond * np.linalg.norm(want_k)


def test_convergence_run_requires_upper_half_plane(uniform_family):
    seq, _ = uniform_family
    for z in (1.0, 1.0 - 0.5j, -2j):
        with pytest.raises(NotInUpperHalfPlane, match="lam = .* must lie in the open upper half-plane"):
            asymptotics.convergence_run(seq, z, reference=densities.exp_sqrt_density())


def test_rho_trajectory_identity_symbol(rng):
    # scalar spec with identity Toeplitz matrix: s_0 = 1, no off blocks
    spec = toeplitz.ToeplitzSpec(
        p=1, n=5, s=(np.array([[1.0]]),) + tuple(np.zeros((1, 1)) for _ in range(4)),
        nu=np.zeros((1, 1)),
    )
    seq = asymptotics.toeplitz_family(spec)
    traj = asymptotics.convergence_run(seq, 1j)
    assert traj.monotone_margin() >= -1e-12


def test_rho_trajectory_single_node(hankel_unit):
    _, node = hankel_unit
    seq = asymptotics.NodeSequence(nodes=(node,), orders=(1,))
    traj = asymptotics.convergence_run(seq, 1j)
    assert traj.monotone_margin() == np.inf


def test_frame_quotient_identity_at_equal_levels(uniform_family):
    seq, _ = uniform_family
    q = asymptotics.frame_quotient(seq, 2, 2, 1.3j)
    assert_allclose(q.value, np.eye(2), atol=0)


def test_frame_quotient_product_and_j_expansion(uniform_family, rng):
    seq, _ = uniform_family
    q = asymptotics.frame_quotient(seq, 1, 2, 2j)
    assert q.product_residual <= 1e-9
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        q = asymptotics.frame_quotient(seq, int(rng.integers(0, 3)), int(rng.integers(3, 6)), z)
        assert q.product_residual <= 1e-9
        assert q.j_expansion_min_eig >= -1e-9


def test_quotient_node_is_a_node(uniform_family):
    seq, _ = uniform_family
    node = asymptotics.quotient_node(seq, 1, 4)
    assert snode.identity_residual(node) <= 1e-10 * (1.0 + matcore.frobenius(node.S))


def _family_of_four():
    return asymptotics.hankel_family(sampling.random_hankel_spec(np.random.default_rng(1), 2, 4))


@pytest.mark.parametrize("ik, ir", [(3, 3), (3, 1), (-1, 3), (0, 7)])
def test_quotient_node_needs_a_level_nested_in_a_later_one(ik, ir):
    with pytest.raises(IndexOutOfRange):
        asymptotics.quotient_node(_family_of_four(), ik, ir)


def test_frame_quotient_keeps_its_identity_and_its_order_check():
    seq = _family_of_four()
    assert_allclose(asymptotics.frame_quotient(seq, 3, 3, 1j).value, np.eye(4), atol=0)
    with pytest.raises(DimensionMismatch):
        asymptotics.frame_quotient(seq, 3, 1, 1j)
    with pytest.raises(IndexOutOfRange):
        asymptotics.frame_quotient(seq, -1, 3, 1j)


@pytest.mark.parametrize("family", ["toeplitz", "hankel"])
def test_quotient_node_forms_no_inverse_and_no_second_factor(monkeypatch, family):
    rng = np.random.default_rng(5)
    if family == "toeplitz":
        seq = asymptotics.toeplitz_family(sampling.random_toeplitz_spec(rng, 2, 5))
    else:
        seq = asymptotics.hankel_family(sampling.random_hankel_spec(rng, 2, 5))
    seq.nodes[-1].S_chol  # the level's one factor, built before counting
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(M, *args, **kwargs):
            calls.append((name, np.shape(M)[-2:]))
            return original(M, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((matcore, "inv_hpd"), (np.linalg, "inv"), (np.linalg, "cholesky")):
        counted(module, name)
    for ik in range(4):
        asymptotics.quotient_node(seq, ik, 4)
    # nothing but one batched inverse of the 2 x 2 diagonal blocks of L, kept
    # on the level's node for every chain read off it
    assert calls == [("inv", (2, 2))]


def test_frame_quotient_factors_nothing_once_the_level_factors_exist(monkeypatch):
    seq = _family_of_four()
    for node in seq.nodes:
        node.S_chol
    # the frame of a node with the same data that factors its own S
    quotient = asymptotics.quotient_node(seq, 1, 3)
    want = snode.frame(dataclasses.replace(quotient), 1j)
    calls = []
    original = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda M: calls.append(1) or original(M))
    got = asymptotics.frame_quotient(seq, 1, 3, 1j).value
    # the quotient node's S_chol is the trailing block L22 of level 3's factor
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
        seq = asymptotics.hankel_family(sampling.random_hankel_spec(rng, p, n))
        k = n // 2
        node = asymptotics.quotient_node(seq, k - 1, n - 1)
        S_want, Pi_want = _schur_complement_mp50(seq.nodes[-1], k * p)
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
        seq = asymptotics.toeplitz_family(sampling.random_toeplitz_spec(rng, p, n))
    else:
        n = min(n, 5)
        seq = asymptotics.hankel_family(sampling.random_hankel_spec(rng, p, n))
    full = seq.nodes[-1]
    grams = _chain_grams(full)
    tol = 10 * np.finfo(float).eps * np.linalg.cond(full.S)
    for k in range(1, n):
        tail = grams[k:]
        got = _chain_grams(asymptotics.quotient_node(seq, k - 1, n - 1))
        assert np.linalg.norm(got - tail) <= tol * np.linalg.norm(tail)


def test_solution_sets_nest_into_smaller_balls(uniform_family, rng):
    # a Weyl value of a deeper node lies in the ball of every shallower one
    seq, _ = uniform_family
    z = 0.4 + 1.1j
    ball_small = snode.matrix_ball(seq.nodes[1], z)
    frm_big = snode.node_frame(seq.nodes[4])
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
    seq = asymptotics.NodeSequence(nodes=(node,), orders=(1,))
    one = densities.DensityFn(
        "one", lambda t: np.ones_like(t)[:, None, None].astype(complex),
        log_det=lambda t: np.zeros_like(t),
    )
    for reference, target in ((one, 2 * np.pi), (densities.cauchy_density(), 0.5)):
        report = asymptotics.convergence_run(seq, 1j, reference=reference)
        assert report.szego_finite
        assert report.target == pytest.approx(target, abs=1e-9)
    report = asymptotics.convergence_run(seq, 1j, reference=densities.uniform_density())
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
    from snode_lab.quadrature import integrate_line_graded

    for _ in range(10):
        lam = complex(rng.uniform(-4, 4), rng.uniform(0.2, 3.0))
        value = integrate_line_graded(asymptotics.poisson_weight(lam), 24)
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
    [bound] = asymptotics.entropy_bound_check(frm, [snode.extremal_pair(frm, 1j)], 1j)
    assert abs(bound.slack) <= 1e-6


def test_entropy_bound_witness_strict(hankel_unit):
    frm = snode.node_frame(hankel_unit[1])
    witness = snode.ParamPair.constant(np.array([[1.0]]), np.array([[4.0]]))
    [bound] = asymptotics.entropy_bound_check(frm, [witness], 1j)
    assert bound.lhs[0, 0].real == pytest.approx(0.32, abs=1e-6)
    assert bound.slack >= 1e-3


def test_entropy_bound_random_pairs_on_chain_frame(rng):
    spec = sampling.random_toeplitz_spec(rng, p=1, n=2)
    frm = toeplitz.dirac_frame(toeplitz.dirac_chain(snode.node_chain(toeplitz.build_toeplitz_node(spec)))[0])
    lam = 0.4 + 1.3j
    ext = snode.extremal_pair(frm, lam)
    assert abs(asymptotics.entropy_bound_check(frm, [ext], lam)[0].slack) <= 1e-6
    for _ in range(10):
        pair = sampling.random_constant_pair(rng, 1)
        [bound] = asymptotics.entropy_bound_check(frm, [pair], lam)
        assert bound.slack >= -1e-6
        assert bound.modulus_gap <= 1e-9


def test_convergence_run_exp_sqrt_trend():
    es = densities.exp_sqrt_density()
    seq, _ = asymptotics.hankel_family_from_density(es, 4)
    report = asymptotics.convergence_run(seq, 1j, reference=es)
    assert report.szego_finite
    assert report.target == pytest.approx(2 * np.pi * (np.exp(-np.sqrt(2)) / 4), rel=1e-6)
    assert report.det_positive()
    assert report.psd_nonincreasing_margin() >= -1e-9
    assert report.monotone_margin() >= -1e-9
    assert report.gap_strictly_decreasing()
    assert all(g > 0 for g in report.gaps)


def test_convergence_run_uniform_flags_szego(uniform_family):
    seq, _ = uniform_family
    report = asymptotics.convergence_run(seq, 1j, reference=densities.uniform_density())
    assert not report.szego_finite
    assert report.target is None
    assert report.psd_nonincreasing_margin() >= -1e-9


def test_convergence_run_constant_sequence(hankel_unit):
    _, node = hankel_unit
    seq = asymptotics.NodeSequence(nodes=(node, node, node), orders=(1, 1, 1))
    report = asymptotics.convergence_run(seq, 1j)
    assert max(report.det_rho_inv) - min(report.det_rho_inv) <= 1e-14


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
    assert report.inequality_ok
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
    assert report.inequality_ok
    assert abs(report.equality_gap) <= 1e-3


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
    assert report.inequality_ok


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
    assert len(batch) == 2
    for pair, got in zip(pairs, batch):
        [want] = asymptotics.entropy_bound_check(frm, [pair], lam)
        assert np.array_equal(got.lhs, want.lhs)
        assert np.array_equal(got.rhs, want.rhs)


def test_entropy_bound_matrix_batch_of_extremal_pairs():
    spec = sampling.random_hankel_spec(np.random.default_rng(5), 2, 2)
    node = hankel.build_hankel_node(spec)
    frm = snode.node_frame(node)
    ext = snode.extremal_pair(frm, 1j)
    [single] = asymptotics.entropy_bound_check(frm, [ext], 1j)
    for got in asymptotics.entropy_bound_check(frm, [ext, ext], 1j):
        assert np.array_equal(got.lhs, single.lhs)
        assert np.array_equal(got.rhs, single.rhs)
    # any pair at p = 2: the ball witness of contraction I/2 reads 1/4, and
    # every closed-form lhs agrees with its quadrature modulus
    ball = snode.matrix_ball(node, 1j)
    witness = cli._pair_with_value(frm, 1j, snode.ball_value(ball, 0.5 * np.eye(2)))
    bounds = asymptotics.entropy_bound_check(frm, [ext, witness], 1j)
    assert bounds[1].relative_slack == pytest.approx(0.25, abs=1e-9)
    assert max(bound.modulus_gap for bound in bounds) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [1, 2])
def test_entropy_bound_of_a_degenerate_pair_is_a_szego_violation(p):
    # R*Q + Q*R = diag(0, 2) is singular: the density's log-det is -inf,
    # also at a node where det F rounds to 0 (no -inf + inf)
    frm = snode.node_frame(hankel.build_hankel_node(sampling.random_hankel_spec(np.random.default_rng(6), p, 2)))
    pair = snode.ParamPair.constant(np.eye(p), np.diag([1j, 1.0][:p]))
    with pytest.raises(SzegoViolated):
        asymptotics.entropy_bound_check(frm, [snode.extremal_pair(frm, 1j), pair], 1j)


def test_outer_modulus_of_a_density_list_equals_single_calls(monkeypatch):
    # entropy_bound_check takes the moduli of its pairs' densities after one
    # normalization; each equals the outer_modulus call on that density
    frm = snode.node_frame(hankel.build_hankel_node(sampling.random_hankel_spec(np.random.default_rng(4), 2, 3)))
    lam = 0.3 + 1.7j
    draws = np.random.default_rng(7)
    pairs = [snode.extremal_pair(frm, lam), *(sampling.random_constant_pair(draws, 2) for _ in range(2))]
    dens, _ = hankel.weyl_densities(frm, pairs)
    singles = [asymptotics.outer_modulus(P, lam) for P in dens]
    names = []
    original = quadrature.integrate_with_check

    def counted(fn, support, breaks, quad, rel_tol, what="integral"):
        names.append(what)
        return original(fn, support, breaks, quad, rel_tol, what)

    monkeypatch.setattr(quadrature, "integrate_with_check", counted)
    assert [bound.modulus for bound in asymptotics.entropy_bound_check(frm, pairs, lam)] == singles
    # one normalization, then one integral per density
    assert names == ["poisson normalization"] + ["outer modulus integral"] * 3
