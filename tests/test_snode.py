import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from snode_lab import asymptotics, densities, hankel, matcore, quadrature, sampling, snode, toeplitz
from snode_lab.errors import (
    DimensionMismatch,
    EvaluationFailure,
    InvalidPair,
    NotInUpperHalfPlane,
    PoleAtLambda,
    QuadratureNotConverged,
    SingularDenominator,
    SingularResolvent,
    Unsupported,
)

from conftest import random_nodes


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 6))
def test_random_constant_pairs_is_the_stream_of_single_draws(seed, p, count):
    reference, stacked, single = (np.random.default_rng(seed) for _ in range(3))
    R, Q = sampling.random_constant_pairs(stacked, p, count)
    pairs = [sampling.random_constant_pair(single, p).constant_value for _ in range(count)]
    for k in range(count):
        # the per-pair formula: R = I, Q = P + iK
        P = sampling.random_hpd(reference, p, 0.8)
        K = sampling.random_hermitian(reference, p, 0.8)
        assert np.array_equal(R[k], np.eye(p)) and np.array_equal(Q[k], P + 1j * K)
        assert np.array_equal(pairs[k][0], R[k]) and np.array_equal(pairs[k][1], Q[k])
    assert stacked.bit_generator.state == single.bit_generator.state == reference.bit_generator.state


def _relative_identity_residual(node):
    """||A S - S A* - i Pi J Pi*|| / (1 + ||S||)."""
    return snode.identity_residual(node) / (1.0 + matcore.frobenius(node.S))


def test_identity_residual_zero_for_built_nodes():
    for node in random_nodes(seed=10):
        assert _relative_identity_residual(node) <= 1e-12


def test_identity_residual_detects_perturbation(hankel_102, rng):
    _, node = hankel_102
    E = sampling.random_hermitian(rng, 1, 1.0)
    S_bad = node.S.copy()
    S_bad[:1, :1] += 1e-3 * E
    bad = snode.SNode(p=1, shift=node.shift, S=S_bad, Phi1=node.Phi1, Phi2=node.Phi2)
    assert _relative_identity_residual(bad) > 1e-6


def test_frame_at_zero_is_identity():
    for node in random_nodes(seed=11, count=4):
        assert_allclose(snode.frame(node, 0.0), np.eye(2 * node.p), atol=1e-14)


def test_frame_hankel_unit_formula(hankel_unit):
    _, node = hankel_unit
    for z in [0.3 + 0.4j, 1j, -2.0 + 0.1j]:
        assert_allclose(
            snode.frame(node, z), np.array([[1, 0], [-1j * z, 1]]), atol=1e-14
        )


def test_frame_two_formulas_agree(rng):
    # resolvent form against the adjoint transfer-matrix form
    for node in random_nodes(seed=12, count=4):
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 1.8))
            via_transfer = snode.transfer_matrix(node, 1.0 / np.conj(z)).conj().T
            assert np.max(np.abs(via_transfer - snode.frame(node, z))) <= 1e-12 * (
                1 + np.max(np.abs(via_transfer))
            )


def test_frame_j_identity_and_inverse(rng):
    # Frm(z) J Frm(lam bar)* = J - i(z - lam) Pi*(I-zA*)^{-1} S^{-1} (I-lam A)^{-1} Pi
    for node in random_nodes(seed=13, count=4):
        J = node.J
        Pi = node.Pi
        Sinv = matcore.inv_hpd(node.S)
        m = node.m
        for _ in range(4):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 1.5))
            lam = complex(rng.uniform(-2, 2), rng.uniform(0.2, 1.5))
            lhs = snode.frame(node, z) @ J @ snode.frame(node, np.conj(lam)).conj().T
            corr = (
                Pi.conj().T
                @ np.linalg.solve(np.eye(m) - z * node.A.conj().T, Sinv)
                @ np.linalg.solve(np.eye(m) - lam * node.A, Pi)
            )
            rhs = J - 1j * (z - lam) * corr
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))
            # inversion: Frm(z) J Frm(z bar)* J = I
            inv = J @ snode.frame(node, np.conj(z)).conj().T @ J
            assert np.max(np.abs(snode.frame(node, z) @ inv - np.eye(2 * node.p))) <= 1e-10


def test_frame_j_unitary_on_real_axis(rng):
    for node in random_nodes(seed=14, count=4):
        J = node.J
        for t in rng.uniform(-4, 4, 5):
            F = snode.frame(node, float(t))
            scale = 1.0 + np.max(np.abs(F)) ** 2
            assert np.max(np.abs(F @ J @ F.conj().T - J)) <= 1e-10 * scale
            assert np.max(np.abs(F.conj().T @ J @ F - J)) <= 1e-10 * scale


def test_rho_hand_values(hankel_unit):
    _, node = hankel_unit
    assert snode.rho(node, 1j)[0, 0] == pytest.approx(2.0)
    # below the axis the same formula gives the reversed value rho(conj z, z)
    assert snode.rho(node, -1j)[0, 0] == pytest.approx(-2.0)


def test_rho_positive_and_consistent_with_frame(rng):
    for node in random_nodes(seed=15, count=4):
        for _ in range(4):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.5))
            r = snode.rho(node, z)
            assert matcore.min_eig_hermitian(r) > 0
            via_frame = snode.rho_from_frame(snode.node_frame(node), z)
            assert np.max(np.abs(r - via_frame)) <= 1e-10 * (1 + np.max(np.abs(r)))
            r_rev = snode.rho(node, np.conj(z))
            assert matcore.min_eig_hermitian(-r_rev) > 0


def test_matrix_ball_requires_upper_half_plane(hankel_unit):
    _, node = hankel_unit
    for z in (1.0, 1.0 - 0.5j, -2j):
        with pytest.raises(NotInUpperHalfPlane, match="must lie in the open upper half-plane"):
            snode.matrix_ball(node, z)


def test_lft_hand_values(hankel_unit, unit_pair):
    _, node = hankel_unit
    frm = snode.node_frame(node)
    phi = snode.lft(frm, unit_pair, 1j)
    assert phi[0, 0] == pytest.approx(0.5j)
    for z in [0.7 + 0.2j, -1.4 + 1.1j]:
        assert snode.lft(frm, unit_pair, z)[0, 0] == pytest.approx(1j / (1 - 1j * z))


def test_lft_large_tau_approaches_ball_boundary(hankel_unit):
    _, node = hankel_unit
    frm = snode.node_frame(node)
    for tau in [10.0, 100.0, 1000.0]:
        pair = snode.ParamPair.constant(np.array([[1.0]]), np.array([[tau]]))
        val = snode.lft(frm, pair, 1j)
        assert val[0, 0] == pytest.approx(1j / (tau + 1))


def test_lft_rejects_degenerate_pair(hankel_unit):
    _, node = hankel_unit
    pair = snode.ParamPair.constant(np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(InvalidPair):
        snode.lft(snode.node_frame(node), pair, 1j)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_lft_of_no_points_raises_naming_the_empty_points(p):
    # the entry path of p <= 2 and the LAPACK path above refuse it alike,
    # before any kernel sees an empty stack
    rng = np.random.default_rng(70 + p)
    frm = snode.node_frame(hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, 2)))
    pair = sampling.random_constant_pair(rng, p)
    none = np.zeros(0, dtype=complex)
    with pytest.raises(DimensionMismatch, match="^zs is empty"):
        snode.lft(frm, pair, none)
    with pytest.raises(DimensionMismatch, match="^zs is empty"):
        snode.lft_stack(frm(none), pair.R[None], pair.Q[None], none)


@pytest.mark.parametrize("p", [1, 2])
def test_lft_checks_a_constant_pair_once(monkeypatch, p):
    rng = np.random.default_rng(80 + p)
    frm = snode.node_frame(hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, 2)))
    zs = sampling.random_upper_points(rng, 30)
    pair = sampling.random_constant_pair(rng, p)
    # the pair at every point, checked at every point
    want = snode.lft_stack(frm(zs), *(np.broadcast_to(M, (30, p, p)) for M in pair.constant_value), zs)
    sizes = []
    original = matcore.hermitian_extremes
    monkeypatch.setattr(matcore, "hermitian_extremes", lambda stack: sizes.append(len(stack)) or original(stack))
    assert snode.lft(frm, pair, zs).tobytes() == want.tobytes()
    assert sizes == [1]  # R*R + Q*Q of the one pair, not of 30 copies
    # a degenerate pair is named at the first point, as a check per point names it
    zero = snode.ParamPair.constant(np.zeros((p, p)), np.zeros((p, p)))
    with pytest.raises(InvalidPair, match=re.escape(f"degenerate pair at z = {zs[0]}")):
        snode.lft(frm, zero, zs)
    with pytest.raises(InvalidPair, match=re.escape(f"degenerate pair at z = {zs[0]}")):
        snode.lft_stack(frm(zs), *(np.broadcast_to(M, (30, p, p)) for M in zero.constant_value), zs)


def test_validate_pair_rejects_anti_j():
    pair = snode.ParamPair.constant(np.eye(1), -np.eye(1))
    with pytest.raises(InvalidPair):
        snode.validate_pair(pair)


def test_constant_pair_is_checked_once_and_read_only():
    for R, Q in ((np.eye(2)[:, :1], np.eye(2)[:, :1]), (np.eye(2), np.eye(3)), (np.eye(1), np.eye(2))):
        with pytest.raises(DimensionMismatch):
            snode.ParamPair.constant(R, Q)
    R, Q = np.eye(2), np.diag([1.0, 2.0]) + 0.5j * np.eye(2)
    pair = snode.ParamPair.constant(R, Q)
    assert pair.p == 2 and all(a is b for a, b in zip(pair.constant_value, (pair.R, pair.Q)))
    assert not pair.R.flags.writeable and not pair.Q.flags.writeable
    assert np.array_equal(pair.R, R) and np.array_equal(pair.Q, Q)
    snode.validate_pair(pair)
    # R*R + Q*Q singular: R = Q = diag(1, 0)
    with pytest.raises(InvalidPair, match="not positive definite"):
        snode.validate_pair(snode.ParamPair.constant(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    # nonsingular, but R*Q + Q*R = diag(2, -2) is indefinite
    with pytest.raises(InvalidPair, match="property-J fails"):
        snode.validate_pair(snode.ParamPair.constant(np.eye(2), np.diag([1.0, -1.0])))


def test_lft_herglotz_positivity(rng):
    # 50 random pairs across nodes and upper-half-plane points
    nodes = random_nodes(seed=16, count=4)
    for i in range(50):
        node = nodes[i % len(nodes)]
        pair = sampling.random_constant_pair(rng, node.p)
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.3, 2.2))
        if abs(z - 2j) < 0.2:
            z += 0.5
        phi = snode.lft(snode.node_frame(node), pair, z)
        imag = (phi - phi.conj().T) / 2j
        assert matcore.min_eig_hermitian(imag) >= -1e-9


def test_frame_at_one_point_is_evaluated_once_and_read_only(hankel_102):
    calls = []
    base = snode.node_frame(hankel_102[1])

    def fn(z_or_zs):
        calls.append(z_or_zs)
        return base(z_or_zs)

    frm = snode.Frame(p=base.p, fn=fn, realization=base.realization)
    first = frm.at(0.5 + 1j)
    assert frm.at(0.5 + 1j) is first and frm.blocks(0.5 + 1j)[3].tobytes() == first[1:, 1:].tobytes()
    assert first.tobytes() == base(0.5 + 1j).tobytes() and not first.flags.writeable
    # another point replaces the kept one; -0.0 is another point than 0.0
    assert frm.at(2j).tobytes() == base(2j).tobytes()
    frm.at(complex(-0.0, 1.0))
    frm.at(complex(0.0, 1.0))
    assert calls == [0.5 + 1j, 2j, complex(-0.0, 1.0), 1j]


def test_lft_singular_denominator(hankel_unit):
    from snode_lab.errors import SingularDenominator

    _, node = hankel_unit
    z0 = 0.5j
    pair = snode.ParamPair.constant(np.eye(1), 1j * z0 * np.eye(1))
    with pytest.raises(SingularDenominator):
        snode.lft(snode.node_frame(node), pair, z0)


def _interp_corpus(s):
    """Node and pair s of the seeded interpolation corpus (s = 500..523): a
    Toeplitz spec at p = 1..2 and n = 2..4, the unit pair at even s and a
    random constant pair at odd s."""
    rng = np.random.default_rng(s)
    p, n = int(rng.integers(1, 3)), int(rng.integers(2, 5))
    spec = sampling.random_toeplitz_spec(rng, p, n)
    if s % 2:
        pair = sampling.random_constant_pair(rng, p)
    else:
        pair = snode.ParamPair.constant(np.eye(p, dtype=complex), np.eye(p, dtype=complex))
    return toeplitz.build_toeplitz_node(spec), pair


def _interp_toeplitz_node():
    spec = toeplitz.ToeplitzSpec(
        p=1, n=2, s=(np.array([[2.0]]), np.array([[0.5 + 0.3j]])), nu=np.array([[0.0]])
    )
    return toeplitz.build_toeplitz_node(spec)


def test_interp_residual_toeplitz(unit_pair):
    res_s, res_phi = hankel.interp_residual(_interp_toeplitz_node(), unit_pair)
    assert res_s <= 1e-12
    assert res_phi <= 1e-12


@pytest.mark.parametrize("s", range(500, 524))
def test_interp_residual_rebuilds_every_seeded_spec(s):
    res_s, res_phi = hankel.interp_residual(*_interp_corpus(s))
    assert res_s <= 1e-12 and res_phi <= 1e-12


def _zeros_inside(denominator, centre, radius):
    """Zeros of det F inside the circle |t - centre| = radius, with their
    multiplicities, by the argument principle on 64 points."""
    ts = centre + radius * np.exp(2j * np.pi * np.arange(64) / 64)
    dets = np.linalg.det(denominator(ts))
    return round(float(np.sum(np.angle(np.roll(dets, -1) / dets))) / (2 * np.pi))


def _assert_pencil_zeros_are_zeros(frm, pair, count):
    """The zeros of det F from the frame's pencil, after checking there are
    ``count`` and that a zero of det F lies within 1e-6 (relative) of each."""
    denominator = frm.denominator(pair.R, pair.Q)
    [roots] = hankel._denominator_zeros(frm, [pair])
    assert roots.size == count
    for r in roots:
        assert _zeros_inside(denominator, r, 1e-6 * max(1.0, abs(r))) >= 1, r
    return roots


@pytest.mark.parametrize("s", range(500, 524))
def test_every_fitted_zero_of_det_f_is_a_zero(s):
    # the pencil of a Toeplitz node's realization has size m + p, and its
    # m finite eigenvalues are the zeros of det(I - z A*) det F, a polynomial
    # of degree m = p n: the m poles of det F at 2i cancel every zero of
    # det(I - z A*), so none of them is taken for a zero of det F
    node, pair = _interp_corpus(s)
    roots = _assert_pencil_zeros_are_zeros(snode.node_frame(node), pair, node.m)
    # a Weyl function is analytic above the axis: no pole of it lies there
    assert np.all(roots.imag < 0.0)
    # the Dirac frame of the same chain: (1 - i t/2)^(-n) times a polynomial
    # of degree n, realized on its coefficients
    dirac = toeplitz.dirac_frame(toeplitz.dirac_chain(snode.node_chain(node))[0])
    _assert_pencil_zeros_are_zeros(dirac, pair, node.m)


@pytest.mark.parametrize("seed", range(4))
def test_a_hankel_node_through_node_frame_fits_only_zeros_of_det_f(seed):
    rng = np.random.default_rng(seed)
    p, n = int(rng.integers(1, 3)), int(rng.integers(2, 4))
    node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, n))
    pair = sampling.random_constant_pair(rng, p)
    _assert_pencil_zeros_are_zeros(snode.node_frame(node), pair, p * n)


def _mp_array(M):
    """A complex array as an object array of mpmath numbers, each exact."""
    import mpmath

    return np.vectorize(mpmath.mpc, otypes=[object])(np.asarray(M, dtype=complex))


def _pencil_zeros_mp(A, B, C, Q):
    """The eigenvalues mu != 0 of T = -(E0 + i E1)^{-1} E1 of the pencil of
    (A, B, C, Q) at mpmath's working precision, each with its condition
    number |x| |y| / |y* x|, and the Frobenius norm of T."""
    import mpmath

    m, p = A.shape[0], Q.shape[0]
    E0 = np.zeros((m + p, m + p), dtype=object)
    E1 = np.zeros_like(E0)
    E0[:m, :m] = np.eye(m, dtype=int)
    E0[:m, m:], E0[m:, m:], E1[:m, :m], E1[m:, :m] = -B, Q, -A, C
    T = -mpmath.inverse(mpmath.matrix((E0 + 1j * E1).tolist())) * mpmath.matrix(E1.tolist())
    mus, left, right = mpmath.eig(T, left=True, right=True)
    zeros = []
    for k, mu in enumerate(mus):
        if abs(mu) > mpmath.mpf(10) ** -30:
            x, y = right[:, k], left[k, :]
            zeros.append((complex(mu), float(mpmath.norm(x) * mpmath.norm(y) / abs((y * x)[0]))))
    return zeros, float(mpmath.mnorm(T, "F"))


def _assert_zeros_match_the_oracle(frm, pair, A, B, C, cond):
    """Each zero z = i + 1/mu of the oracle's pencil has one float zero whose
    mu lies within 8 eps cond kappa(mu) |T|_F of it: the first-order bound
    for a perturbation of T of relative size eps cond."""
    [got] = hankel._denominator_zeros(frm, [pair])
    want, size = _pencil_zeros_mp(A, B, C, _mp_array(pair.Q))
    assert got.size == len(want)
    got_mu = 1.0 / (got - 1j)
    nearest = [int(np.argmin(np.abs(got_mu - mu))) for mu, _ in want]
    assert len(set(nearest)) == got.size
    for k, (mu, kappa) in zip(nearest, want):
        assert abs(got_mu[k] - mu) <= 8.0 * np.finfo(float).eps * cond * kappa * size


@pytest.mark.parametrize("p, n", [(1, 4), (1, 8), (2, 3), (2, 6), (3, 2), (3, 4)])
def test_zeros_of_a_hankel_frame_match_a_50_digit_pencil(p, n):
    # the node's float S, Pi and the pair taken as exact; B = S^{-1} Pi J [R; Q]
    # from a 50-digit inverse, so the float B carries eps cond(S) of error
    import mpmath

    rng = np.random.default_rng(60 + 10 * p + n)
    node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, n))
    pair = sampling.random_constant_pair(rng, p)
    with mpmath.workdps(50):
        Sinv = np.array(mpmath.inverse(mpmath.matrix(node.S.tolist())).tolist(), dtype=object)
        B = Sinv @ _mp_array(node.Pi) @ _mp_array(np.vstack((pair.Q, pair.R)))
        A, C = _mp_array(node.A.conj().T), -1j * _mp_array(node.Phi2.conj().T)
        _assert_zeros_match_the_oracle(snode.node_frame(node), pair, A, B, C, np.linalg.cond(node.S))


@pytest.mark.parametrize("p, n", [(1, 4), (1, 6), (2, 3), (2, 5)])
def test_zeros_of_a_dirac_frame_match_a_50_digit_pencil(p, n):
    # the chain's float coefficients and the pair taken as exact; the cleared
    # frame M prod_k (I + (i z/2) C_k j) M* multiplied out at 50 digits, with
    # no solve, so the float coefficients carry rounding alone (cond 1)
    import mpmath

    rng = np.random.default_rng(80 + 10 * p + n)
    node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, n))
    Cs = toeplitz.dirac_chain(snode.node_chain(node))[0]
    pair = sampling.random_constant_pair(rng, p)
    with mpmath.workdps(50):
        Ip, Zp = np.eye(p, dtype=int), np.zeros((p, p), dtype=int)
        j = np.block([[Ip, Zp], [Zp, -Ip]])
        K = np.block([[Ip, -Ip], [Ip, Ip]]) / mpmath.sqrt(2)
        M = np.block([[Zp, Ip], [Ip, Zp]]) @ j @ K
        Y = [M.T @ _mp_array(np.vstack((pair.R, pair.Q)))]  # M is real
        for Ck in _mp_array(Cs)[::-1]:
            step = 0.5j * Ck @ j
            Y = [Y[0]] + [Y[k] + step @ Y[k - 1] for k in range(1, len(Y))] + [step @ Y[-1]]
        C = np.hstack([(M @ Yk)[p:] for Yk in Y[1:]])
        A, B = np.eye(n * p, k=-p, dtype=int), np.eye(n * p, p, dtype=int)
        _assert_zeros_match_the_oracle(toeplitz.dirac_frame(Cs), pair, A, B, C, 1.0)


def test_interp_residual_grades_the_density_poles_to_their_width(monkeypatch):
    # the sixth of six specs (p, n) = (1, 2) .. (2, 4) drawn from one stream:
    # a unit-pair density with 6 near-axis poles among the 8 zeros of det F
    rng = np.random.default_rng(3)
    for p, n in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)]:
        spec = sampling.random_toeplitz_spec(rng, p, n)
    node = toeplitz.build_toeplitz_node(spec)
    pair = snode.ParamPair.constant(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    assert len(hankel.weyl_densities(snode.node_frame(node), [pair])[0][0].breaks) == 6
    sizes = []
    original = quadrature.integrate_line_graded

    def counted(fn, rule, rule_sizes):
        sizes.append(rule[0].size)
        return original(fn, rule, rule_sizes)

    monkeypatch.setattr(quadrature, "integrate_line_graded", counted)
    res_s, res_phi = hankel.interp_residual(node, pair)
    # one call on both rules; graded 54 levels toward every pole, the rules
    # had 38,720 and 77,440 points
    assert len(sizes) == 1 and sizes[0] < 30_000
    assert res_s <= 1e-12 and res_phi <= 1e-12


def test_interp_residual_shifted_theta_fails_loudly(monkeypatch):
    node, pair = _interp_corpus(510)
    original = hankel.lft

    # theta is read off phi(i), the one call at a scalar point: shift it by 1e-6 I
    def shifted(frm, pair, z):
        return original(frm, pair, z) + (0.0 if np.ndim(z) else 1e-6 * np.eye(node.p))

    monkeypatch.setattr(hankel, "lft", shifted)
    res_s, res_phi = hankel.interp_residual(node, pair)
    assert res_s <= 1e-12
    # Phi1~ moves by i Phi2 (1e-6 I)
    assert res_phi == pytest.approx(1e-6 * np.linalg.norm(node.Phi2), rel=1e-6)


def test_interp_residual_scaled_measure_fails_loudly(monkeypatch, unit_pair):
    node = _interp_toeplitz_node()
    original = hankel.weyl_densities

    def doubled(frm, pairs):
        dens, roots = original(frm, pairs)
        return [densities.DensityFn("x2", lambda t, d=d: 2.0 * d(t), p=d.p, breaks=d.breaks) for d in dens], roots

    monkeypatch.setattr(hankel, "weyl_densities", doubled)
    res_s, _ = hankel.interp_residual(node, unit_pair)
    assert res_s >= 0.1 * np.linalg.norm(node.S)


def test_interp_residual_circle_missing_a_pole_fails_loudly(monkeypatch):
    # without the zeros of det F the circle is |z| = 1.5 |1/c| = 3, and the
    # Weyl function keeps a pole near |z| = 14 outside it
    node, pair = _interp_corpus(510)
    original = hankel.weyl_densities

    def rootless(frm, pairs):
        dens, roots = original(frm, pairs)
        return dens, [r[:0] for r in roots]

    monkeypatch.setattr(hankel, "weyl_densities", rootless)
    with pytest.raises(QuadratureNotConverged, match="a singularity lies inside the circle"):
        hankel.interp_residual(node, pair)


def test_interp_residual_refuses_a_pair_singular_at_infinity():
    # gamma = lim phi(z)/z is nonzero only where F(inf) = lim F(t) is singular;
    # Frm(inf) = I + i Pi* A*^{-1} S^{-1} Pi J is J-unitary, so the pair
    # Frm(inf)^{-1} [I; diag(0, 1)] keeps R*Q + Q*R >= 0, singular with F(inf)
    node, _ = _interp_corpus(504)
    assert node.p == 2
    at_infinity = np.eye(4) + 1j * node.Pi.conj().T @ np.linalg.solve(
        node.A.conj().T, np.linalg.solve(node.S, node.Pi)
    ) @ node.J
    RQ = np.linalg.solve(at_infinity, np.vstack([np.eye(2), np.diag([0.0, 1.0])]))
    pair = snode.ParamPair.constant(RQ[:2], RQ[2:])
    snode.validate_pair(pair)
    frm = snode.node_frame(node)
    gamma = snode.lft(frm, pair, 1e5j) / 1e5j
    assert np.linalg.eigvalsh(matcore.hermitian_part(gamma))[-1] >= 0.1
    # det F loses a degree: the pencil's eigenvalue mu = 1/(z - i) of that
    # zero is at rounding, and goes as a zero at infinity
    _assert_pencil_zeros_are_zeros(frm, pair, node.m - 1)
    # the density F^{-*} jform F^{-1} cancels two O(t) factors at large |t|:
    # the graded rule's nodes near 1e17 get rounding, and the check refuses
    with pytest.raises(QuadratureNotConverged, match="^interpolation integrals: doubled-node drift"):
        hankel.interp_residual(node, pair)


def test_interp_residual_rejects_hankel(hankel_102, unit_pair):
    _, node = hankel_102
    with pytest.raises(Unsupported):
        hankel.interp_residual(node, unit_pair)


def test_matrix_ball_hand_values(hankel_unit):
    _, node = hankel_unit
    ball = snode.matrix_ball(node, 1j)
    assert_allclose(ball.aleph, np.array([[-2, 1], [1, 0]]), atol=1e-12)
    assert ball.center[0, 0] == pytest.approx(0.5j, abs=1e-12)
    assert ball.left_radius[0, 0].real == pytest.approx(2 ** -0.5, abs=1e-12)
    assert ball.right_radius[0, 0].real == pytest.approx(2 ** -0.5, abs=1e-12)


def test_matrix_ball_invariants(rng):
    for node in random_nodes(seed=17, count=4):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 1.6))
        if abs(z - 2j) < 0.2:
            z += 0.4
        ball = snode.matrix_ball(node, z)
        p = node.p
        # corner block and Schur complement close the loop with both rho values
        assert np.max(np.abs(ball.aleph[:p, :p] - ball.rho_reversed)) <= 1e-9
        schur = ball.aleph[p:, p:] - ball.aleph[p:, :p] @ np.linalg.solve(
            ball.aleph[:p, :p], ball.aleph[:p, p:]
        )
        assert np.max(np.abs(schur - matcore.inv_hpd(ball.rho_value))) <= 1e-9
        assert np.max(np.abs(ball.left_radius @ ball.left_radius - matcore.inv_hpd(-ball.rho_reversed))) <= 1e-9
        assert np.max(np.abs(ball.right_radius @ ball.right_radius - matcore.inv_hpd(ball.rho_value))) <= 1e-9


def test_matrix_ball_inverts_the_diagonal_blocks_once(monkeypatch):
    node = random_nodes(seed=5, count=1)[0]
    calls = []
    original = matcore.diagonal_inverses
    monkeypatch.setattr(matcore, "diagonal_inverses", lambda L, p: calls.append(p) or original(L, p))
    ball = snode.matrix_ball(node, 0.3 + 1.1j)
    assert calls == [node.p]
    assert not node.S_diag_inv.flags.writeable
    assert np.array_equal(node.S_diag_inv, original(node.S_chol.factor, node.p))
    # the kept inverses give the same rho, bitwise, as a fresh node
    fresh = snode.SNode(node.p, node.shift, node.S, node.Phi1, node.Phi2)
    assert np.array_equal(ball.rho_reversed, snode.rho(fresh, 0.3 - 1.1j))


def test_ball_membership_center_and_roundtrip(hankel_unit, rng):
    _, node = hankel_unit
    ball = snode.matrix_ball(node, 1j)
    u, norm_u = snode.ball_membership(ball, ball.center)
    assert norm_u <= 1e-12

    frm = snode.node_frame(node)
    for tau in [0.1, 1.0, 10.0]:
        pair = snode.ParamPair.constant(np.array([[1.0]]), np.array([[tau]]))
        value = snode.lft(frm, pair, 1j)
        u, norm_u = snode.ball_membership(ball, value)
        assert norm_u <= 1.0 + 1e-10
        if tau == 1.0:
            assert norm_u <= 1e-12
        assert np.max(np.abs(snode.ball_value(ball, u) - value)) <= 1e-10


def test_ball_membership_refuses_a_ball_that_holds_no_digit_of_the_values(hankel_102):
    # centre + radius scale = 1 / Im z: past 1 / eps they swamp a zero value
    _, node = hankel_102
    zero = np.zeros((1, 1))
    u, _ = snode.ball_membership(snode.matrix_ball(node, 1e-15j), zero)
    assert np.isfinite(u).all()
    ball = snode.matrix_ball(node, 1e-17j)
    degenerate = r"^the ball at z = 1e-17j has degenerated: its radius scale 5\.000e\+16 "
    with pytest.raises(EvaluationFailure, match=degenerate):
        snode.ball_membership(ball, zero)
    # a value as large as the ball keeps its digits
    snode.ball_membership(ball, ball.center)


def test_ball_outside_value_exceeds_unit(hankel_unit):
    _, node = hankel_unit
    ball = snode.matrix_ball(node, 1j)
    outside = ball.center + 2.5 * ball.left_radius @ ball.right_radius
    _, norm_u = snode.ball_membership(ball, outside)
    assert norm_u > 1.0


def test_ball_membership_computes_square_roots_once(monkeypatch):
    spec = sampling.random_hankel_spec(np.random.default_rng(4), p=2, n=2)
    node = hankel.build_hankel_node(spec)
    ball = snode.matrix_ball(node, 0.3 + 1.1j)
    rng = np.random.default_rng(5)
    values = [
        snode.ball_value(ball, 0.5 * sampling.random_contraction(rng, 2)) for _ in range(4)
    ]
    a12 = ball.aleph[:2, 2:]
    # the left factor (-rho(conj z, z))^{-1/2} is the ball's left radius, bitwise
    left = matcore.sqrtm_hpd(matcore.inv_hpd(matcore.hermitian_part(-ball.rho_reversed)))
    assert np.array_equal(left, ball.left_radius)
    right = matcore.sqrtm_hpd(matcore.hermitian_part(ball.rho_value))
    calls = []
    original = matcore.sqrtm_hpd
    monkeypatch.setattr(matcore, "sqrtm_hpd", lambda M: calls.append(1) or original(M))
    for value in values:
        u, _ = snode.ball_membership(ball, value)
        # L (rho_rev value + i aleph_12) rho^{1/2} in the kernel's association
        inner = matcore.sandwich(ball.rho_reversed, value, None) + 1j * a12
        assert np.array_equal(u, matcore.sandwich(left, inner, right))
        assert_allclose(u, left @ (ball.rho_reversed @ value + 1j * a12) @ right, rtol=1e-14, atol=1e-15)
    # a stack gives every matrix's own value
    us, _ = snode.ball_membership(ball, np.stack(values))
    assert all(np.array_equal(u, snode.ball_membership(ball, v)[0]) for u, v in zip(us, values))
    # rho(z, conj z)^{1/2}, once per ball; the left radius is a field
    assert len(calls) == 1


def test_ball_coverage_via_pair_construction(hankel_unit, rng):
    # every contraction yields a value reachable by a valid pair
    _, node = hankel_unit
    z = 1j
    ball = snode.matrix_ball(node, z)
    frm = snode.node_frame(node)
    F = snode.frame(node, z)
    for _ in range(20):
        u = sampling.random_contraction(rng, 1, max_norm=0.999)
        value = snode.ball_value(ball, u)
        RQ = np.linalg.solve(F, np.vstack([-1j * value, np.eye(1)]))
        pair = snode.ParamPair.constant(RQ[:1], RQ[1:])
        snode.validate_pair(pair)
        assert np.max(np.abs(snode.lft(frm, pair, z) - value)) <= 1e-10


def test_extremal_pair_hand_and_identity(hankel_unit, rng):
    pair = snode.extremal_pair(snode.node_frame(hankel_unit[1]), 1j)
    R, Q = pair.constant_value
    assert R[0, 0] == pytest.approx(1.0)
    assert Q[0, 0] == pytest.approx(1.0)
    # R*Q + Q*R = rho(lam) on random nodes
    for other in random_nodes(seed=18, count=4):
        lam = complex(rng.uniform(-1, 1), rng.uniform(0.4, 1.4))
        Ro, Qo = snode.extremal_pair(snode.node_frame(other), lam).constant_value
        gap = Ro.conj().T @ Qo + Qo.conj().T @ Ro - snode.rho(other, lam)
        assert np.max(np.abs(gap)) <= 1e-10 * (1 + np.max(np.abs(Ro)))


def test_extremal_density_is_cauchy_for_unit_node(hankel_unit):
    frm = snode.node_frame(hankel_unit[1])
    [dens], _ = hankel.weyl_densities(frm, [snode.extremal_pair(frm, 1j)])
    ts = np.array([-2.0, 0.0, 0.5, 3.0])
    assert_allclose(
        dens(ts)[:, 0, 0].real, 1.0 / (np.pi * (1 + ts**2)), atol=1e-12
    )


def _max_rel_gap(batch, stacked):
    return np.max(np.abs(batch - stacked)) / (1.0 + np.max(np.abs(stacked)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.integers(1, 4), st.integers(1, 6), st.booleans())
def test_batched_evaluators_equal_stacked_points(seed, p, n, count, use_toeplitz):
    rng = np.random.default_rng(seed)
    if use_toeplitz:
        node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, n))
    else:
        node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, n))
    chain = snode.node_chain(node)
    zs = sampling.random_upper_points(rng, count, im_range=(0.3, 1.5))
    frm = snode.node_frame(node)
    const = sampling.random_constant_pair(rng, p)
    ball = snode.matrix_ball(node, zs[0])
    us = np.stack([sampling.random_contraction(rng, p) for _ in zs])
    values = snode.ball_value(ball, us)
    for evaluate, inputs in (
        (lambda z: snode.frame(node, z), zs),
        (lambda z: snode.transfer_matrix(node, z), zs),
        (lambda z: snode.lft(frm, const, z), zs),
        # every factor, the point axis ahead of the factor axis
        (lambda z: np.stack(snode.chain_factors(chain, z), axis=-3), zs),
        (lambda u: snode.ball_value(ball, u), us),
        (lambda v: snode.ball_membership(ball, v)[0], values),
        (lambda v: np.asarray(snode.ball_membership(ball, v)[1]), values),
    ):
        stacked = np.stack([evaluate(x) for x in inputs])
        assert _max_rel_gap(evaluate(inputs), stacked) <= 1e-13


def _lower_lu_solve(L, B):
    """np.linalg.solve on the lower-triangular L with its rows and columns
    reversed, which makes it upper triangular: partial pivoting then swaps
    no row, and the LU is a dense back substitution.  Where the diagonal is
    smaller than the entries below it, the unreversed LU swaps rows and
    loses accuracy: on the rho of a p = 2, n = 13 Toeplitz node near
    |1 + i z / 2| = 0.32 it is 8e-10 from a 60-digit mpmath value, against
    3.5e-15 for the substitution."""
    return np.linalg.solve(L[::-1, ::-1], B[::-1])[::-1]


def _lu_reference(node, zs):
    """transfer_matrix and frame at the points zs, and rho at zs[0], by LU
    solves on the assembled m x m matrix A: the general route that the
    substitution on A's shift form replaces.  S enters as in the library
    (its Cholesky solve, the cached S^{-1} Pi), so only the resolvents differ."""
    p, Pi, J, eye = node.p, node.Pi, node.J, np.eye(node.m)
    transfer, frames = [], []
    for z in zs:
        resolvent = _lower_lu_solve(node.A - z * eye, Pi)
        transfer.append(np.eye(2 * p) - 1j * J @ Pi.conj().T @ node.S_chol.solve(resolvent))
        X = np.linalg.solve(eye - z * node.A.conj().T, node.SinvPi)  # upper triangular
        frames.append(np.eye(2 * p) - 1j * z * Pi.conj().T @ X @ J)
    V = _lower_lu_solve(eye - np.conj(zs[0]) * node.A, node.Phi2)
    rho = 1j * (np.conj(zs[0]) - zs[0]) * V.conj().T @ node.S_chol.solve(V)
    return np.array(transfer), np.array(frames), rho


def _pointwise_rel_gap(got, want):
    """Largest Frobenius gap over the points, relative to the reference's norm."""
    return np.max(np.linalg.norm(got - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1)))


def _node_of_kind(rng, p, n, kind):
    """A Toeplitz or Hankel node of order n, or the quotient node of a random
    level inside order n of a Toeplitz family.  Hankel specs are drawn at
    orders up to 4: cond H grows about tenfold per order, and two routes
    through the same S solve differ by cond H times their rounding (the
    transfer matrices by up to 5e-13 at order 6, in 4000 draws).  The bare
    Hankel shift with a random positive-definite S covers every order."""
    if kind == "toeplitz":
        return toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, n))
    if kind == "hankel":
        return hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, 1 + n % 4))
    if kind == "hankel shift":
        m = n * p
        return snode.SNode(
            p=p,
            shift=(0, 1, 0),
            S=sampling.random_hpd(rng, m),
            Phi1=sampling.random_complex(rng, (m, p)),
            Phi2=sampling.random_complex(rng, (m, p)),
        )
    n = max(n, 2)
    node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, n))
    return asymptotics.quotient_node(node, int(rng.integers(1, n)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.integers(1, 24),
    st.sampled_from(["toeplitz", "hankel", "hankel shift", "quotient"]),
)
def test_resolvent_evaluators_agree_with_lu_on_the_assembled_a(seed, p, n, kind):
    rng = np.random.default_rng(seed)
    node = _node_of_kind(rng, p, n, kind)
    zs = np.concatenate([sampling.random_upper_points(rng, 5), rng.uniform(-4.0, 4.0, 2)])
    with np.errstate(all="ignore"):
        transfer, frames, rho = _lu_reference(node, zs)
    for got, want in (
        (snode.transfer_matrix(node, zs), transfer),
        (snode.frame(node, zs), frames),
        (snode.rho(node, zs[0]), rho),
    ):
        finite = np.isfinite(want).all(axis=(-2, -1))
        assert _pointwise_rel_gap(got[finite], want[finite]) <= 1e-13


def _factor_product_gap(node, lams):
    """Worst gap over lams between w_n ... w_1 of the node's chain and the
    node's transfer matrix, relative to 1 + its norm."""
    direct = snode.transfer_matrix(node, lams)
    prod = np.eye(2 * node.p, dtype=complex)
    for w in snode.chain_factors(snode.node_chain(node), lams):
        prod = w @ prod
    return np.max(np.linalg.norm(prod - direct, axis=(1, 2)) / (1 + np.linalg.norm(direct, axis=(1, 2))))


def _lams_in_both_half_planes(rng, count):
    """count points at least 0.3 from the real axis (and so from the Hankel
    pole 0), in either half-plane."""
    return sampling.random_upper_points(rng, count, im_range=(0.3, 2.5)) * rng.choice([-1.0, 1.0], count)


@pytest.mark.parametrize("family", ["toeplitz", "hankel"])
def test_chain_factor_product_matches_transfer_matrix(rng, family):
    for _ in range(4):
        p = int(rng.integers(1, 4 if family == "toeplitz" else 3))
        node = _node_of_kind(rng, p, int(rng.integers(1, 7)), family)
        assert _factor_product_gap(node, _lams_in_both_half_planes(rng, 20)) <= 1e-9


@pytest.mark.parametrize("family, pole", [("toeplitz", 0.5j), ("hankel", 0.0)], ids=["toeplitz", "hankel"])
def test_chain_factors_raise_at_the_pole(family, pole):
    chain = snode.node_chain(_node_of_kind(np.random.default_rng(0), 2, 3, family))
    assert chain.c == pole
    for lams in (pole, [1j - 2.0, pole + 1e-13]):
        with pytest.raises(PoleAtLambda):
            snode.chain_factors(chain, lams)
    assert np.isfinite(snode.chain_factors(chain, pole + 1e-11)).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(2, 8), st.sampled_from(["toeplitz", "hankel"]))
def test_chain_factors_of_a_quotient_node_multiply_to_its_transfer_matrix(seed, p, n, family):
    # a quotient node carries the complement of a level inside a larger one:
    # neither builder made it, yet its A has the shift form, so the leading
    # chain of its S factors its transfer matrix as for a built node.
    # Hankel specs stop at order 4: read off the level's factor, the
    # quotient node keeps the gap within 8.6e-10 in 30000 draws at order 4
    # (on a draw with cond S 1.3e10, where transfer_matrix itself is 2.6e-10
    # from a 50-digit value; the next worst is 2.8e-10).  At order 5 it
    # reaches 5.3e-10 in 2000 draws and 9.7e-10 in 6000, too close to 1e-9
    rng = np.random.default_rng(seed)
    if family == "toeplitz":
        top = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, n))
    else:
        n = min(n, 4)
        top = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, n))
    node = asymptotics.quotient_node(top, int(rng.integers(0, n - 1)) + 1)
    assert _factor_product_gap(node, _lams_in_both_half_planes(rng, 6)) <= 1e-9


def test_frame_raises_at_toeplitz_pole_alone_and_in_batch():
    node = toeplitz.build_toeplitz_node(
        sampling.random_toeplitz_spec(np.random.default_rng(1), 1, 3)
    )
    # the diagonal of I - z A* is 1 + i z / 2: 0 at 2i, 5e-14 at 2i + 1e-13
    for z0 in (2j, 2j + 1e-13):
        with pytest.raises(SingularResolvent) as alone:
            snode.frame(node, z0)
        with pytest.raises(SingularResolvent) as batch:
            snode.frame(node, [0.5 + 1j, z0, -1.0 + 0.4j])
        assert alone.value.z == batch.value.z == z0
    # 5e-10 from the pole the resolvent exists: the frame is finite (~6e28)
    # and is the LU route's
    zs = np.array([0.5 + 1j, 2j + 1e-9])
    got = snode.frame(node, zs)
    assert np.isfinite(got).all()
    assert _pointwise_rel_gap(got, _lu_reference(node, zs)[1]) <= 1e-13


def test_evaluators_raise_where_the_substitution_overflows():
    # |d| = 1e-9 and 1e-9 on the diagonals pass the pole test, but at n = 36
    # the substitution grows like 1e9 per block and overflows
    node = toeplitz.build_toeplitz_node(
        sampling.random_toeplitz_spec(np.random.default_rng(0), 1, 36)
    )
    for evaluate, z0 in ((snode.transfer_matrix, 0.5j + 1e-9), (snode.frame, 2j + 2e-9)):
        with pytest.raises(SingularResolvent) as alone:
            evaluate(node, z0)
        with pytest.raises(SingularResolvent) as batch:
            evaluate(node, [1j, z0, 2.0 + 1j])
        assert alone.value.z == batch.value.z == z0


def _poisson_toeplitz_spec(n):
    """The p = 2 spec s_{-k} = B^k, nu = 0."""
    B = np.array([[0.3, 0.2j], [0.1, -0.25 + 0.1j]])
    s = [np.eye(2, dtype=complex)]
    for _ in range(n - 1):
        s.append(s[-1] @ B)
    return toeplitz.ToeplitzSpec(p=2, n=n, s=tuple(s), nu=np.zeros((2, 2))), B


def test_rho_of_a_well_posed_order_36_toeplitz_node():
    # every diagonal entry of I - conj(z) A has modulus 0.62 and the
    # determinant is 0.62^72 = 9e-16: no pole.  |zeta|^(2n) rho_n tends to
    # F(zeta) (D* D)^{-1} F(zeta)*, F = (I + B* zeta)(I - B* zeta)^{-1} / 2,
    # D = (I - B B*)^{1/2} (I - B* zeta)^{-1}, zeta = (2i - z)/(2i + z)
    spec, B = _poisson_toeplitz_spec(36)
    z = 0.3 + 0.8j
    value = snode.rho(toeplitz.build_toeplitz_node(spec), z)
    assert matcore.min_eig_hermitian(value) > 0.0
    zeta, eye, Bh = (2j - z) / (2j + z), np.eye(2), B.conj().T
    F = 0.5 * (eye + zeta * Bh) @ np.linalg.inv(eye - zeta * Bh)
    D = matcore.sqrtm_hpd(eye - B @ Bh) @ np.linalg.inv(eye - zeta * Bh)
    target = F @ np.linalg.inv(D.conj().T @ D) @ F.conj().T
    assert _pointwise_rel_gap(abs(zeta) ** 72 * value, target) <= 1e-12


def test_frame_where_one_plus_iz_over_2_is_a_third():
    node = toeplitz.build_toeplitz_node(
        sampling.random_toeplitz_spec(np.random.default_rng(0), 3, 16)
    )
    zs = np.array([-0.632 + 1.882j])
    assert abs(1 + 0.5j * zs[0]) == pytest.approx(0.32, abs=0.01)
    assert _pointwise_rel_gap(snode.frame(node, zs), _lu_reference(node, zs)[1]) <= 1e-13


def test_frame_of_hankel_node_far_out_on_the_axis(hankel_102):
    # A is nilpotent: the frame is a polynomial in t, large but not near a pole
    _, node = hankel_102
    ts = np.array([-3e19, -1e3, 1e19])
    Astar = node.A.conj().T
    expected = [
        np.eye(2) - 1j * t * node.Pi.conj().T @ (np.eye(2) + t * Astar) @ node.SinvPi @ node.J
        for t in ts
    ]
    assert _max_rel_gap(snode.frame(node, ts), np.stack(expected)) <= 1e-13


def test_lft_singular_denominator_alone_and_in_batch(hankel_unit):
    # with R = Q = I the unit node gives phi = i/(1 - iz), whose pole is at -i
    _, node = hankel_unit
    frm = snode.node_frame(node)
    pair = snode.ParamPair.constant(np.eye(1), np.eye(1))
    with pytest.raises(SingularDenominator) as alone:
        snode.lft(frm, pair, -1j)
    with pytest.raises(SingularDenominator) as batch:
        snode.lft(frm, pair, [1j, -1j, 2.0 + 0.5j])
    assert alone.value.z == batch.value.z == -1j


def test_node_factors_s_once(monkeypatch):
    node = toeplitz.build_toeplitz_node(
        sampling.random_toeplitz_spec(np.random.default_rng(3), 2, 3)
    )
    calls = []
    original = matcore.cholesky_pd
    monkeypatch.setattr(matcore, "cholesky_pd", lambda M: calls.append(1) or original(M))
    for z in (0.5 + 1j, np.array([1j, -0.3 + 0.7j])):
        snode.frame(node, z)
        snode.transfer_matrix(node, z)
        snode.rho(node, 1j)
    assert len(calls) == 1


def _frame_by_j_product(node, zs):
    """The frame as I - (i z Pi* X) @ J, with the stacked product by J."""
    X = snode._resolvent(node, 1.0, -zs.conj(), node.SinvPi, zs, adjoint=True)
    step = 1j * zs[:, None, None] * node.Pi.conj().T @ X @ node.J
    return np.eye(2 * node.p, dtype=complex) - step


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 4))
def test_frame_block_swap_is_bitwise_the_j_product(seed, p, n):
    # the resolvent route: a Toeplitz node (c != 0)
    rng = np.random.default_rng(seed)
    node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, n))
    axis = np.concatenate([rng.uniform(-5.0, 5.0, 5), [0.0, 1e19, -1e19]])
    zs = np.concatenate([axis, sampling.random_upper_points(rng, 5)]).astype(complex)
    try:
        want = _frame_by_j_product(node, zs)
    except SingularResolvent:
        with pytest.raises(SingularResolvent):
            snode.frame(node, zs)
        return
    got = snode.frame(node, zs)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # the signs of zeros too
    assert snode.frame(node, zs[-1]).tobytes() == _frame_by_j_product(node, zs[-1:])[0].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 4))
def test_frame_coefficients_of_a_hankel_node_are_bitwise_the_j_products(seed, p, n):
    # the Horner route: a Hankel node's cached coefficients C_j J, with the
    # product by J taken as a column-block swap.  The zero terms of a matrix
    # product can flip the sign of a zero, so the values are compared with
    # (Pi* (A*)^j S^{-1} Pi) @ J and the bits with the swapped columns of
    # the running products C_j = Pi* X_j, X_{j+1} = A* X_j
    node = hankel.build_hankel_node(sampling.random_hankel_spec(np.random.default_rng(seed), p, n))
    A_h, Pi_h = node.A.conj().T, node.Pi.conj().T
    powers = [np.linalg.matrix_power(A_h, j) for j in range(n)]
    want = np.stack([Pi_h @ (A_j @ node.SinvPi) @ node.J for A_j in powers])
    X, C = node.SinvPi, []
    for _ in range(n):
        C.append(Pi_h @ X)
        X = A_h @ X
    C = np.stack(C)
    got = node.frame_coefs
    assert got.shape == (n, 2 * p, 2 * p) and not got.flags.writeable
    assert np.array_equal(got, want)
    assert got.tobytes() == np.concatenate((C[:, :, p:], C[:, :, :p]), axis=2).tobytes()


@pytest.mark.parametrize("family", ["hankel", "toeplitz"])
def test_node_frame_is_bitwise_frame(family):
    rng = np.random.default_rng(7)
    if family == "hankel":
        node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, 2, 3))
    else:
        node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, 2, 3))
    zs = np.concatenate([sampling.random_upper_points(rng, 5), [0.0, -1.5, 40.0]])
    frm = snode.node_frame(node)
    assert frm(zs).tobytes() == snode.frame(node, zs).tobytes()
    assert frm(zs[0]).tobytes() == snode.frame(node, zs[0]).tobytes()
    # only a Hankel node's frame has a polynomial denominator
    assert (frm.make_denominator is not None) == (family == "hankel")


def test_horner_frame_overflow_names_the_first_point():
    node = hankel.build_hankel_node(sampling.random_hankel_spec(np.random.default_rng(2), 1, 2))
    zs = np.array([0.5 + 1j, 1e200, 2.0, 1e200j])
    with pytest.raises(SingularResolvent) as batch:
        snode.frame(node, zs)
    assert batch.value.z == 1e200
    with pytest.raises(SingularResolvent) as alone:
        snode.frame(node, 1e200j)
    assert alone.value.z == 1e200j
    assert np.all(np.isfinite(snode.frame(node, zs[[0, 2]])))


CHUNK_SIZES = (matcore.CHUNK - 1, matcore.CHUNK, matcore.CHUNK + 1, 2 * matcore.CHUNK + 3)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_frame_in_chunks_is_bitwise_one_batch(monkeypatch, size):
    # both evaluators: Horner on a Hankel node, the resolvent on a Toeplitz node
    rng = np.random.default_rng(size)
    hankel_node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, 2, 2))
    toeplitz_node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, 2, 2))
    zs = rng.normal(scale=5.0, size=size) + 1j * rng.uniform(0.0, 2.0, size=size)
    frames = (snode.node_frame(hankel_node), snode.node_frame(toeplitz_node))
    got = [frm(zs) for frm in frames]
    monkeypatch.setattr(matcore, "CHUNK", 10 * size)  # one batch: no chunking
    for frm, chunked in zip(frames, got):
        assert chunked.shape == (size, 4, 4)
        assert chunked.tobytes() == frm(zs).tobytes()
        assert frm(zs[-1]).shape == (4, 4)


def test_frame_guard_names_the_first_bad_point_across_chunks():
    node = toeplitz.build_toeplitz_node(
        sampling.random_toeplitz_spec(np.random.default_rng(1), 1, 3)
    )
    zs = np.full(2 * matcore.CHUNK + 3, 0.5 + 1j)
    zs[matcore.CHUNK + 7] = 2j  # in the second chunk
    with pytest.raises(SingularResolvent) as second:
        snode.frame(node, zs)
    assert second.value.z == 2j
    zs[5] = 2j + 1e-13  # and one in the first chunk, inside the pole test
    with pytest.raises(SingularResolvent) as first:
        snode.frame(node, zs)
    assert first.value.z == 2j + 1e-13


def _lft_case(rng, p, count, toeplitz_frame):
    """Frames of a random node at random upper points, random constant pairs
    there, and the points."""
    if toeplitz_frame:
        node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, 3))
    else:
        node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, 2))
    zs = sampling.random_upper_points(rng, count)
    R, Q = sampling.random_constant_pairs(rng, p, count)
    return snode.frame(node, zs), R, Q, zs


def _lft_gaps(got, want):
    return np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.booleans())
def test_entrywise_lft_agrees_with_the_lapack_path(seed, p, toeplitz_frame):
    rng = np.random.default_rng(seed)
    F, R, Q, zs = _lft_case(rng, p, 25, toeplitz_frame)
    phi = snode.lft_stack(F, R, Q, zs)
    assert np.all(_lft_gaps(phi, snode._lft_stack_lapack(F, R, Q, zs)) <= 1e-13)
    # the composition pairs (-i phi, I) of khrushchev_check
    Ip = np.broadcast_to(np.eye(p, dtype=complex), R.shape)
    composed = snode.lft_stack(F, -1j * phi, Ip, zs)
    assert np.all(_lft_gaps(composed, snode._lft_stack_lapack(F, -1j * phi, Ip, zs)) <= 1e-13)
    # the LFT does not see a common scale of the frame: 2^600 F overflows
    # ad - bc unless the denominator is scaled first
    huge = snode.lft_stack(2.0**600 * F, R, Q, zs)
    assert np.array_equal(huge, phi)
    assert np.all(_lft_gaps(huge, snode._lft_stack_lapack(2.0**600 * F, R, Q, zs)) <= 1e-13)


@pytest.mark.parametrize("p", (1, 2))
def test_lft_scale_changes_no_bit_where_nothing_overflows(monkeypatch, p):
    F, R, Q, zs = _lft_case(np.random.default_rng(40 + p), p, 50, False)
    scaled = snode.lft_stack(F, R, Q, zs)
    monkeypatch.setattr(matcore, "power_of_two_scale", lambda stack: np.ones(len(stack)))
    assert snode.lft_stack(F, R, Q, zs).tobytes() == scaled.tobytes()


@pytest.mark.parametrize("p", (1, 2))
def test_lft_guards_name_the_same_first_point_on_both_paths(p):
    # identity frames: the numerator is R and the denominator Q
    rng = np.random.default_rng(50 + p)
    zs = sampling.random_upper_points(rng, 8)
    F = np.broadcast_to(np.eye(2 * p, dtype=complex), (8, 2 * p, 2 * p))
    R, Q = (M.copy() for M in sampling.random_constant_pairs(rng, p, 8))
    Q[3] = np.diag([1.0, 1e-14][-p:])  # singular to working precision
    R[5] = Q[5] = 0.0  # a degenerate pair
    R[1], Q[1] = np.eye(p), 1j * np.eye(p)  # R*R + Q*Q = 2I, though R R + Q Q = 0
    for lft_stack in (snode.lft_stack, snode._lft_stack_lapack):
        with pytest.raises(InvalidPair, match=re.escape(f"degenerate pair at z = {zs[5]}")):
            lft_stack(F, R, Q, zs)
        with pytest.raises(SingularDenominator) as info:
            lft_stack(F[:5], R[:5], Q[:5], zs[:5])
        assert info.value.z == zs[3]


@pytest.mark.parametrize("p", (1, 2))
def test_lft_and_ball_membership_make_no_lapack_call_at_p_le_2(monkeypatch, p):
    rng = np.random.default_rng(60 + p)
    node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, 2))
    z = 0.3 + 1.1j
    ball = snode.matrix_ball(node, z)
    # the ball's square root rho^{1/2} is built once, on first use: build it first
    snode.ball_membership(ball, ball.center)
    F = np.broadcast_to(snode.frame(node, z), (40, 2 * p, 2 * p))
    R, Q = sampling.random_constant_pairs(rng, p, 40)
    zs = np.full(40, z)
    values = snode._lft_stack_lapack(F, R, Q, zs)
    u = ball.left_radius @ (ball.rho_reversed @ values + 1j * ball.aleph[:p, p:]) @ ball.rho_half
    want_norms = np.linalg.norm(u, 2, axis=(1, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    impl = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    for module in {np.linalg, impl}:
        for name in ("svd", "eigvalsh", "inv"):
            monkeypatch.setattr(module, name, refuse)
    got = snode.lft_stack(F, R, Q, zs)
    assert np.all(_lft_gaps(got, values) <= 1e-13)
    _, norms = snode.ball_membership(ball, got)
    assert np.all(np.abs(norms - want_norms) <= 1e-12 * want_norms)
    assert np.all(norms <= 1.0 + 1e-8)


@pytest.mark.parametrize("seed", range(8))
def test_transfer_matrix_on_25_points_is_25_scalar_calls_bitwise(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 4))
    if seed % 2:
        node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, int(rng.integers(1, 6))))
    else:
        node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, int(rng.integers(1, 17))))
    lams = rng.uniform(-3, 3, 25) + 1j * rng.uniform(0.4, 3.0, 25) * rng.choice([-1.0, 1.0], 25)
    batch = snode.transfer_matrix(node, lams)
    assert all(np.array_equal(batch[k], snode.transfer_matrix(node, lam)) for k, lam in enumerate(lams))
