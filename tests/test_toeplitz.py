import functools

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from snode_lab import matcore, quadrature, sampling, snode, toeplitz
from snode_lab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotContractive,
    NotHermitian,
    NotPositiveDefinite,
    PoleAtZ,
    SingularDenominator,
)

from conftest import frame_from_spec


def test_build_unit_node(toeplitz_unit):
    _, node = toeplitz_unit
    assert_allclose(node.A, np.array([[0.5j]]), atol=0)
    assert_allclose(node.Phi1, np.array([[1.0]]), atol=0)
    assert_allclose(node.Phi2, np.array([[1.0]]), atol=0)
    assert snode.identity_residual(node) == 0.0


def test_build_rejects_nonhermitian_s0():
    with pytest.raises(NotHermitian):
        toeplitz.ToeplitzSpec(p=2, n=1, s=(np.array([[0, 1], [0, 0]]),), nu=np.zeros((2, 2)))


def test_spec_checks_s0_and_nu_in_one_call_naming_the_first_bad_one(monkeypatch):
    calls = []
    original = matcore.assert_hermitian
    monkeypatch.setattr(
        matcore, "assert_hermitian", lambda *args, **kw: calls.append(1) or original(*args, **kw)
    )
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    s = (np.eye(2), 0.3 * skew)  # s_{-1} need not be Hermitian
    toeplitz.ToeplitzSpec(p=2, n=2, s=s, nu=np.eye(2))
    with pytest.raises(NotHermitian, match="^nu is not Hermitian"):
        toeplitz.ToeplitzSpec(p=2, n=2, s=s, nu=skew)
    with pytest.raises(NotHermitian, match="^s_0 is not Hermitian"):
        toeplitz.ToeplitzSpec(p=2, n=2, s=(skew, skew), nu=skew)
    assert calls == [1, 1, 1]


def test_identity_residual_random_specs(rng):
    for _ in range(10):
        spec = sampling.random_toeplitz_spec(rng, p=int(rng.integers(1, 4)), n=int(rng.integers(1, 7)))
        node = toeplitz.build_toeplitz_node(spec)
        assert snode.identity_residual(node) <= 1e-12 * np.linalg.norm(node.S)


def _dirac_chain(spec):
    return toeplitz.dirac_chain(snode.node_chain(toeplitz.build_toeplitz_node(spec)))


def _fundamental(C, ws, k):
    """W_k at the points ws: the head of the first k coefficients of C."""
    return toeplitz.dirac_sweep(C[None, :k], ws, [k])[0][0, 0]


def test_chain_unit_values(toeplitz_unit):
    _, node = toeplitz_unit
    chain = snode.node_chain(node)
    assert chain.c == 0.5j
    assert chain.t[0][0, 0] == pytest.approx(0.5)
    assert_allclose(chain.rows[0], np.array([[0.5, 0.5]]), atol=1e-15)  # [X_1 Y_1]
    C, rho = toeplitz.dirac_chain(chain)
    assert_allclose(C[0], np.eye(2), atol=1e-14)
    assert abs(rho[0][0, 0]) <= 1e-14


def test_chain_invariants_random(rng):
    spec = sampling.random_toeplitz_spec(rng, p=2, n=5)
    chain = snode.node_chain(toeplitz.build_toeplitz_node(spec))
    Cs, rhos = toeplitz.dirac_chain(chain)
    j = matcore.signature_j(2)
    for C, r, t in zip(Cs, rhos, chain.t):
        assert np.max(np.abs(C @ j @ C - j)) <= 1e-9
        assert matcore.min_eig_hermitian(C) > 0
        assert matcore.spectral_norm(r) < 1
        assert matcore.min_eig_hermitian(t) > 0


def test_chain_reports_first_failing_order():
    spec = toeplitz.ToeplitzSpec(
        p=1, n=2, s=(np.array([[1.0]]), np.array([[1.5]])), nu=np.zeros((1, 1))
    )
    with pytest.raises(NotPositiveDefinite) as err:
        snode.node_chain(toeplitz.build_toeplitz_node(spec))
    assert err.value.order == 2


def test_factorize_unit_formula(toeplitz_unit):
    spec, _ = toeplitz_unit
    lam = 1.0
    (w1,) = snode.chain_factors(snode.node_chain(toeplitz.build_toeplitz_node(spec)), lam)
    xy = np.array([[0.5, 0.5]])
    expected = np.eye(2) - 1j / (0.5j - lam) * matcore.exchange_J(1) @ xy.conj().T @ (2.0 * xy)
    assert_allclose(w1, expected, atol=1e-14)


def test_halmos_zero_and_scalar():
    assert_allclose(toeplitz.halmos(np.zeros((2, 2))), np.eye(4), atol=0)
    C = toeplitz.halmos(np.array([[0.5]]))
    assert_allclose(C, (2 / np.sqrt(3)) * np.array([[1, 0.5], [0.5, 1]]), atol=1e-14)


def test_halmos_rejects_non_contraction():
    with pytest.raises(NotContractive):
        toeplitz.halmos(np.array([[1.0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_halmos_roundtrip_and_j_unitarity(seed, p):
    rng = np.random.default_rng(seed)
    rho = sampling.random_contraction(rng, p)
    C = toeplitz.halmos(rho)
    j = matcore.signature_j(p)
    assert matcore.min_eig_hermitian(C) > 0
    assert np.max(np.abs(C @ j @ C - j)) <= 1e-10
    assert np.max(np.abs(toeplitz.contraction_from_dirac(C) - rho)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 7))
# stacks as long as their matrices are wide, where numpy < 2 would read an
# unbroadcast (p, p) right-hand side as a stack of vectors
@example(5, 1, 1)
@example(5, 2, 2)
def test_halmos_of_a_stack_equals_single_calls(seed, p, count):
    rng = np.random.default_rng(seed)
    rhos = np.stack([sampling.random_contraction(rng, p) for _ in range(count)])
    stacked = toeplitz.halmos(rhos)
    assert stacked.shape == (count, 2 * p, 2 * p)
    for C, rho in zip(stacked, rhos):
        assert np.array_equal(C, toeplitz.halmos(rho))


@pytest.mark.parametrize("max_norm", [0.85, 0.3])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_random_contractions_is_the_stream_of_single_draws(p, max_norm):
    stacked, single = np.random.default_rng(77), np.random.default_rng(77)
    rhos = sampling.random_contractions(stacked, p, 7, max_norm)
    assert rhos.shape == (7, p, p)
    for rho in rhos:
        assert np.array_equal(rho, sampling.random_contraction(single, p, max_norm))
    assert stacked.bit_generator.state == single.bit_generator.state
    assert np.all(np.linalg.norm(rhos, 2, axis=(1, 2)) < max_norm)


def test_halmos_of_a_stack_names_the_first_non_contraction(rng):
    rhos = np.stack([sampling.random_contraction(rng, 2) for _ in range(5)])
    rhos[2] *= 1.0 / np.linalg.norm(rhos[2], 2)
    rhos[4] *= 2.0 / np.linalg.norm(rhos[4], 2)
    with pytest.raises(NotContractive, match="matrix 2 of the stack: spectral norm 1.000000"):
        toeplitz.halmos(rhos)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_halmos_blocks_are_bitwise_those_of_one_call_per_side(rng, p):
    # both diagonal blocks of every contraction go through one stacked
    # inverse and one stacked root: each matrix is still factored on its own
    rhos = sampling.random_contractions(rng, p, 6)
    Ip = np.eye(p, dtype=complex)
    rho_star = rhos.conj().swapaxes(1, 2)
    D = np.zeros((6, 2 * p, 2 * p), dtype=complex)
    D[:, :p, :p] = matcore.sqrtm_hpd(matcore.inv_hpd(Ip - rhos @ rho_star))
    D[:, p:, p:] = matcore.sqrtm_hpd(matcore.inv_hpd(Ip - rho_star @ rhos))
    F = np.block([[np.broadcast_to(Ip, rhos.shape), rhos], [rho_star, np.broadcast_to(Ip, rhos.shape)]])
    assert np.array_equal(toeplitz.halmos(rhos), matcore.hermitian_part(D @ F))


def test_halmos_names_the_contraction_whose_block_fails(rng, monkeypatch):
    rhos = sampling.random_contractions(rng, 2, 4)
    original = matcore.inv_hpd

    def last_block_negated(M):
        out = original(M)
        out[-1] = -out[-1]  # I - rho* rho of the last contraction
        return out

    monkeypatch.setattr(matcore, "inv_hpd", last_block_negated)
    with pytest.raises(NotPositiveDefinite, match="^matrix 3 of the stack: smallest eigenvalue"):
        toeplitz.halmos(rhos)
    with pytest.raises(NotPositiveDefinite, match="^smallest eigenvalue"):
        toeplitz.halmos(rhos[1])


def test_chain_bijection_halmos_reproduces_coefficients(rng):
    spec = sampling.random_toeplitz_spec(rng, p=2, n=4)
    Cs, rhos = _dirac_chain(spec)
    for C, r in zip(Cs, rhos):
        assert np.max(np.abs(toeplitz.halmos(r) - C)) <= 1e-10 * (1 + np.max(np.abs(C)))


def test_dirac_fundamental_start_and_single_step():
    C = np.eye(2, dtype=complex)[None]
    for z in [0.3 + 0.1j, 2.0]:
        assert_allclose(_fundamental(C, np.array([z]), 0)[0], np.eye(2), atol=0)
        expected = np.eye(2) + 1j * z * matcore.signature_j(1)
        assert_allclose(_fundamental(C, np.array([z]), 1)[0], expected, atol=1e-15)


def test_dirac_fundamental_matches_transfer_matrix(rng):
    spec = sampling.random_toeplitz_spec(rng, p=2, n=4)
    node = toeplitz.build_toeplitz_node(spec)
    C, _ = _dirac_chain(spec)
    K = toeplitz.unitary_K(2)
    for _ in range(6):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.5))
        W = _fundamental(C, np.array([z]), spec.n)[0]
        via = (1 - 1j * z) ** spec.n * K.conj().T @ snode.transfer_matrix(node, 1 / (2 * z)) @ K
        assert np.linalg.norm(W - via) <= 1e-9 * (1 + np.linalg.norm(via))


def test_frame_order_zero_is_identity(rng):
    C = toeplitz.halmos(sampling.random_contraction(rng, 2)[None])
    assert_allclose(toeplitz.dirac_frame(C[:0])(0.7 + 0.9j), np.eye(4), atol=0)


def test_frame_pole_at_minus_2i(toeplitz_unit):
    spec, _ = toeplitz_unit
    C, _ = _dirac_chain(spec)
    with pytest.raises(PoleAtZ):
        toeplitz.dirac_frame(C[:1])(-2j)


def test_frame_chain_route_matches_spec_route(rng):
    spec = sampling.random_toeplitz_spec(rng, p=2, n=4)
    frm = toeplitz.dirac_frame(_dirac_chain(spec)[0])
    for _ in range(6):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 1.8))
        via_chain = frm(z)
        via_spec = frame_from_spec(spec, z)
        assert np.max(np.abs(via_chain - via_spec)) <= 1e-10 * (1 + np.max(np.abs(via_spec)))


def test_frame_composition_with_shifted_chain(rng):
    spec = sampling.random_toeplitz_spec(rng, p=1, n=6)
    C, _ = _dirac_chain(spec)
    for split in [1, 3, 5]:
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
            full = toeplitz.dirac_frame(C)(z)
            head = toeplitz.dirac_frame(C[:split])(z)
            tail = toeplitz.dirac_frame(C[split:])(z)
            assert np.max(np.abs(full - head @ tail)) <= 1e-10 * (1 + np.max(np.abs(full)))


def test_weyl_function_herglotz_on_grid(rng, unit_pair):
    spec = sampling.random_toeplitz_spec(rng, p=1, n=4)
    frm = toeplitz.dirac_frame(_dirac_chain(spec)[0])
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2.5))
        phi = snode.lft(frm, unit_pair, z)
        assert np.imag(phi[0, 0]) >= -1e-9


def test_taylor_constant_term_unit_node(toeplitz_unit, rng):
    spec, _ = toeplitz_unit
    frm = toeplitz.dirac_frame(_dirac_chain(spec)[0])
    pairs = [
        snode.ParamPair.constant(np.eye(1), np.eye(1)),
        sampling.random_constant_pair(rng, 1),
    ]
    for pair in pairs:
        phi = functools.partial(snode.lft, frm, pair)
        coeffs = toeplitz.taylor_recover(phi, 1)
        assert coeffs[0][0, 0] == pytest.approx(1.0, abs=1e-6)


def test_taylor_recovers_generating_blocks(toeplitz_3, unit_pair):
    spec, _ = toeplitz_3
    C, _ = _dirac_chain(spec)
    phi = functools.partial(snode.lft, toeplitz.dirac_frame(C), unit_pair)
    coeffs = toeplitz.taylor_recover(phi, 3)
    assert coeffs[0][0, 0] == pytest.approx(1.0, abs=1e-6)
    assert coeffs[1][0, 0] == pytest.approx(0.4 + 0.1j, abs=1e-6)
    assert coeffs[2][0, 0] == pytest.approx(-0.1 + 0.2j, abs=1e-6)


def test_taylor_recover_calls_phi_once_per_rule(toeplitz_3, unit_pair):
    _, node = toeplitz_3
    frm = toeplitz.dirac_frame(toeplitz.dirac_chain(snode.node_chain(node))[0])
    shapes = []

    def phi(zs):
        shapes.append(np.shape(zs))
        return snode.lft(frm, unit_pair, zs)

    toeplitz.taylor_recover(phi, 3)
    assert shapes == [(quadrature._CIRCLE_NODES,), (2 * quadrature._CIRCLE_NODES,)]


def test_taylor_extension_stays_nonnegative(toeplitz_3, unit_pair):
    spec, _ = toeplitz_3
    C, _ = _dirac_chain(spec)
    phi = functools.partial(snode.lft, toeplitz.dirac_frame(C), unit_pair)
    coeffs = toeplitz.taylor_recover(phi, 6)
    extended = toeplitz.ToeplitzSpec(
        p=1, n=6, s=tuple(spec.s) + tuple(coeffs[3:6]), nu=spec.nu
    )
    assert np.linalg.eigvalsh(extended.matrix()).min() >= -1e-7


def test_khrushchev_empty_head(rng, unit_pair):
    rhos = np.stack([sampling.random_contraction(rng, 1) for _ in range(4)])
    zgrid = sampling.random_upper_points(rng, 10)
    assert toeplitz.khrushchev_check(rhos[None], [0], unit_pair, zgrid) <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_khrushchev_of_no_splits_or_no_points_raises_naming_the_empty_one(p):
    rng = np.random.default_rng(60 + p)
    rhos = np.stack([sampling.random_contraction(rng, p) for _ in range(3)])[None]
    pair = snode.ParamPair.constant(np.eye(p), np.eye(p))
    zgrid = sampling.random_upper_points(rng, 5)
    with pytest.raises(DimensionMismatch, match="^splits is empty"):
        toeplitz.khrushchev_check(rhos, [], pair, zgrid)
    with pytest.raises(DimensionMismatch, match="^zgrid is empty"):
        toeplitz.khrushchev_check(rhos, [0, 3], pair, [])
    assert toeplitz.khrushchev_check(rhos, [0, 3], pair, zgrid) <= 1e-8


def test_khrushchev_random_chain(rng, unit_pair):
    rhos = np.stack([sampling.random_contraction(rng, 1) for _ in range(6)])
    zgrid = sampling.random_upper_points(rng, 30)
    assert toeplitz.khrushchev_check(rhos[None], [3], unit_pair, zgrid) <= 1e-8


def test_khrushchev_free_chain(unit_pair, rng):
    rhos = np.zeros((1, 5, 1, 1))
    zgrid = sampling.random_upper_points(rng, 12)
    for split in range(6):
        assert toeplitz.khrushchev_check(rhos, [split], unit_pair, zgrid) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.integers(1, 6))
def test_khrushchev_over_all_splits_is_the_worst_single_split(seed, p, length):
    rng = np.random.default_rng(seed)
    rhos = np.stack([sampling.random_contraction(rng, p) for _ in range(length)])[None]
    pair = sampling.random_constant_pair(rng, p)
    zgrid = sampling.random_upper_points(rng, 8)
    singles = [toeplitz.khrushchev_check(rhos, [n], pair, zgrid) for n in range(length + 1)]
    assert toeplitz.khrushchev_check(rhos, range(length + 1), pair, zgrid) == max(singles)


def explicit_products(Cs, ws):
    """W_0..W_L by the forward recursion W_{m+1} = W_m + i w (j C_m W_m) and
    T_0..T_L by the backward one T_m = T_{m+1} + i w (T_{m+1} j C_m), written
    out step by step in the kernel's association, for the (L, 2p, 2p)
    coefficients Cs."""
    p = Cs.shape[-1] // 2
    iw = 1j * ws[:, None, None]
    eye = np.broadcast_to(np.eye(2 * p, dtype=complex), (ws.size, 2 * p, 2 * p))
    jCs = [matcore.signature_j(p) @ C for C in Cs]
    heads, tails = [eye], [eye]
    for jC in jCs:
        heads.append(heads[-1] + iw * matcore.sandwich(jC, heads[-1], None))
    for jC in reversed(jCs):
        tails.insert(0, tails[0] + iw * matcore.sandwich(None, tails[0], jC))
    return heads, tails


def _weyl(W, order, pair, zs):
    """The Weyl function of the pair through the frame of W = W_order(-conj(z)/2)."""
    frm = toeplitz.frames_of(W[None], zs, np.array([order]))[0]
    return snode.lft_stack(frm, pair.R[None], pair.Q[None], zs)


EPS = np.finfo(float).eps


def product_bound(Cs, ws):
    """First-order rounding bound, at each point, on ||W_L - T_0||_F between
    the forward and the backward product of the L factors I + i w j C_m: each
    step of either recursion adds at most (2p + 2) eps times the product of
    the factor norms, each at most 1 + |w| ||C_m||."""
    p, L = Cs.shape[-1] // 2, len(Cs)
    growth = np.prod([1.0 + np.abs(ws) * np.linalg.norm(C, 2) for C in Cs], axis=0)
    return 2 * L * (2 * p + 2) * EPS * np.sqrt(2 * p) * growth


def _mp(a):
    """A float array as an mpmath matrix, exactly."""
    return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in np.asarray(a)])


def _fro(A) -> float:
    return float(mpmath.mnorm(A, "f"))


def c26_reference(Cs, R, Q, z):
    """Both sides of c26 at every split n = 0..L of the (L, 2p, 2p)
    coefficients Cs at the point z, at 50 digits, and a first-order bound on
    the rounding of the gap that :func:`toeplitz.khrushchev_check` computes.

    The sides follow the definitions, not the library's route: the frame of
    W, of order n, is (1 - i z/2)^{-n} M W* M* with M = J j K, W the product
    of the factors I + i w j C_m at w = -conj(z)/2, and phi = i N D^{-1} with
    [N; D] = F [R; Q].  The full chain's phi is compared with the head
    frame's LFT of [-i phi~; I], phi~ the tail's phi.

    The bound: each step of a running product, as in :func:`product_bound`,
    rounds within (2p + 2) eps sqrt(2p) of the product's norm, and forming
    its factor S_m = M j C_m M* from the rounded M adds (4p + 4) eps sqrt(2p)
    (two 2p-term products, the rounding of 1/sqrt 2 and the departure of M
    from unitary); so k steps err by at most k (6p + 6) eps sqrt(2p) times
    the product of the factor norms 1 + |w| ||C_m||.  The composition takes
    n such steps and one 2p-term product per entry.  Columns moved by dX
    move phi by at most (1 + ||phi||) ||D^{-1}|| ||dX||, and the LFT itself
    rounds within 8p eps of ||[N; D]|| in place of ||dX||.  The prefactor's
    rounding scales N and D alike and cancels.  Frobenius norms throughout,
    each at least the spectral norm.
    """
    L, p = len(Cs), Cs.shape[-1] // 2
    gamma = (6 * p + 6) * EPS * np.sqrt(2 * p)
    cnorm = np.linalg.norm(Cs, 2, axis=(1, 2)) if L else np.zeros(0)
    with mpmath.workdps(50):
        z = mpmath.mpc(complex(z))
        w = -mpmath.conj(z) / 2
        growth = np.cumprod([1.0, *(1.0 + float(abs(w)) * cnorm)])  # of the first n factors
        I2, Ip = mpmath.eye(2 * p), mpmath.eye(p)
        j = mpmath.diag([1] * p + [-1] * p)
        K = mpmath.matrix(2 * p)
        J = mpmath.matrix(2 * p)
        for i in range(p):
            K[i, i] = K[p + i, i] = K[p + i, p + i] = 1 / mpmath.sqrt(2)
            K[i, p + i] = -1 / mpmath.sqrt(2)
            J[i, p + i] = J[p + i, i] = 1
        M = J * j * K
        factors = [I2 + 1j * w * j * _mp(C) for C in Cs]
        heads, tails = [I2], [I2]  # W of the first n coefficients, of those from s on
        for f in factors:
            heads.append(f * heads[-1])
        for f in reversed(factors):
            tails.insert(0, tails[0] * f)
        pref = 1 - 1j * z / 2

        def weyl(W, n, X, Y):
            cols = pref ** -n * M * W.H * M.H * _stack(X, Y)
            N, D = cols[:p, :], cols[p:, :]
            phi = 1j * N * D**-1
            return phi, (1 + _fro(phi)) * _fro(D**-1), _fro(cols)

        rq = np.linalg.norm(np.vstack([R, Q]), 2)
        R, Q = _mp(R), _mp(Q)
        size = float(abs(pref))
        tail = []
        for s in range(L + 1):
            phi, sens, cols = weyl(tails[s], L - s, R, Q)
            dcols = size ** -(L - s) * (L - s) * gamma * (growth[L] / growth[s]) * rq
            tail.append((phi, sens * (dcols + 8 * p * EPS * cols)))
        full, err_full = tail[0]
        sides, bounds = [], []
        for n in range(L + 1):
            phi_n, err_n = tail[n]
            composed, sens, cols = weyl(heads[n], n, -1j * phi_n, Ip)
            X = _stack(-1j * phi_n, Ip)
            dcols = size ** -n * growth[n] * (err_n + (n + 1) * gamma * _fro(X))
            sides.append(_fro(full - composed) / (1 + _fro(full)))
            bounds.append(err_full + sens * (dcols + 8 * p * EPS * cols))
    return sides, bounds


def _stack(X, Y):
    """[X; Y] of two p x p mpmath matrices."""
    p = X.rows
    out = mpmath.matrix(2 * p, p)
    for i in range(p):
        for k in range(p):
            out[i, k], out[p + i, k] = X[i, k], Y[i, k]
    return out


def test_khrushchev_equals_the_per_split_reference():
    # at every split, both sides of c26 at 50 digits agree to 1e-40, and the
    # library's gap at each point is within the first-order rounding bound
    # of c26_reference; on 60 seeded chains (p = 1, 2, 3, lengths 1..6) the
    # largest gap is 0.0065 of its bound
    for p in (1, 2, 3):
        for seed in range(2):
            rng = np.random.default_rng(100 * p + seed)
            length = int(rng.integers(1, 7))
            rhos = sampling.random_contractions(rng, p, length)
            pair = sampling.random_constant_pair(rng, p)
            Cs = toeplitz.halmos(rhos)
            for z in sampling.random_upper_points(rng, 3):
                sides, bounds = c26_reference(Cs, *pair.constant_value, z)
                assert max(sides) <= 1e-40
                gaps = [toeplitz.khrushchev_check(rhos[None], [n], pair, z) for n in range(length + 1)]
                assert gaps[0] == 0.0  # split 0 composes with the identity head: no rounding
                assert all(gap <= bound for gap, bound in zip(gaps, bounds)), (gaps, bounds)


def test_c26_fails_when_only_the_head_side_moves(rng, unit_pair, monkeypatch):
    # the c26 row can fail: C_0 of the heads alone, 1e-6 relative, moves it
    # far past its tolerance, though both sides are built from one chain
    rhos = sampling.random_contractions(rng, 2, 3 * 6).reshape(3, 6, 2, 2)
    pair = snode.ParamPair.constant(np.eye(2), np.eye(2))
    zs = sampling.random_upper_points(rng, 20)
    assert toeplitz.khrushchev_check(rhos, range(7), pair, zs) <= 1e-12
    original = toeplitz._composition_gaps

    def head_moved(steps, adjoints, splits, pair, zs):
        moved = adjoints.copy()
        moved[:, 0] *= 1.0 + 1e-6  # S_0* of the heads: C_0 scaled by 1 + 1e-6
        return original(steps, moved, splits, pair, zs)

    monkeypatch.setattr(toeplitz, "_composition_gaps", head_moved)
    assert toeplitz.khrushchev_check(rhos, range(7), pair, zs) > 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 12))
def test_forward_heads_and_backward_tails_meet_within_rounding(seed, p, length):
    # the two associations of the one product W_L = T_0, and of the Weyl
    # values read through them: on 2000 seeded chains the worst gaps are
    # 0.064 (products) and 0.015 (Weyl values) of these bounds
    rng = np.random.default_rng(seed)
    C = toeplitz.halmos(np.stack([sampling.random_contraction(rng, p) for _ in range(length)]))
    pair = sampling.random_constant_pair(rng, p)
    zs = sampling.random_upper_points(rng, 6)
    ws = -np.conj(zs) / 2.0
    [heads], [tails] = toeplitz.dirac_sweep(C[None], ws, [length, 0])
    gap = matcore.frobenius(heads[0] - tails[1])
    bound = product_bound(C, ws)
    assert np.all(gap <= bound)
    # phi = i N D^{-1} with [N; D] = F [R; Q]: a frame moved by dF moves phi
    # by at most (1 + ||phi||) ||D^{-1}|| ||[R; Q]|| ||dF||, and each lft
    # rounds within 8p eps of ||F|| in place of ||dF||
    forward = snode.lft(toeplitz.dirac_frame(C), pair, zs)
    backward = _weyl(tails[1], length, pair, zs)
    frm = toeplitz.frames_of(tails[1][None], zs, np.array([length]))[0]
    R, Q = pair.constant_value
    D = frm[:, p:, :p] @ R + frm[:, p:, p:] @ Q
    size = np.abs(1.0 - 0.5j * zs) ** -length
    sensitivity = (1.0 + np.linalg.norm(backward, 2, axis=(1, 2))) * np.linalg.norm(np.linalg.inv(D), 2, axis=(1, 2))
    sensitivity *= np.linalg.norm(np.vstack([R, Q]), 2)
    phi_bound = sensitivity * (size * bound + 2 * 8 * p * EPS * np.linalg.norm(frm, 2, axis=(1, 2)))
    assert np.all(np.linalg.norm(forward - backward, 2, axis=(1, 2)) <= phi_bound)


def test_khrushchev_makes_two_lft_calls(rng, unit_pair, monkeypatch):
    calls = []
    original = toeplitz.lft_blocks
    monkeypatch.setattr(toeplitz, "lft_blocks", lambda *args: calls.append(1) or original(*args))
    for count in (1, 3):
        calls.clear()
        rhos = sampling.random_contractions(rng, 1, count * 6).reshape(count, 6, 1, 1)
        toeplitz.khrushchev_check(rhos, range(7), unit_pair, sampling.random_upper_points(rng, 9))
        # one call for every tail Weyl function, one for every composition,
        # of every chain
        assert len(calls) == 2


@pytest.mark.parametrize(
    "length, chunks, count",
    [(1, 1, 1), (6, 1, 1), (6, 2, 1), (1, 1, 3), (6, 1, 3), (6, 2, 3)],
    ids=["1-1", "6-1", "6-2", "1-1-3chains", "6-1-3chains", "6-2-3chains"],
)
def test_khrushchev_sweeps_in_2L_kernel_calls_per_chunk(rng, unit_pair, monkeypatch, length, chunks, count):
    calls = []
    original = matcore.sandwich
    monkeypatch.setattr(matcore, "sandwich", lambda *args: calls.append(1) or original(*args))
    monkeypatch.setattr(matcore, "CHUNK", 6)  # 6 // count points of all chains per chunk
    rhos = sampling.random_contractions(rng, 1, count * length).reshape(count, length, 1, 1)
    zs = sampling.random_upper_points(rng, 6 // count * chunks)
    toeplitz.khrushchev_check(rhos, range(length + 1), unit_pair, zs)
    # L steps backward for the tails and L forward for the heads of all
    # L + 1 splits of all chains (L - 1 on the heads, the last factor of
    # every head on the composition's rows): an O(L^2) sweep, or one sweep
    # per chain, would not fit
    assert len(calls) == chunks * 2 * length


@pytest.mark.parametrize("p", [1, 2, 3])
def test_khrushchev_of_a_stack_is_the_max_of_per_chain_calls(rng, monkeypatch, p):
    count, length = 3, 4
    rhos = sampling.random_contractions(rng, p, count * length).reshape(count, length, p, p)
    pair = sampling.random_constant_pair(rng, p)
    zs = sampling.random_upper_points(rng, 11)
    singles = [toeplitz.khrushchev_check(chain[None], range(length + 1), pair, zs) for chain in rhos]
    whole = toeplitz.khrushchev_check(rhos, range(length + 1), pair, zs)
    monkeypatch.setattr(matcore, "CHUNK", 7)  # 2 points of the 3 chains per chunk
    assert toeplitz.khrushchev_check(rhos, range(length + 1), pair, zs) == whole == max(singles)
    assert toeplitz.khrushchev_check(rhos, [2], pair, zs) == max(
        toeplitz.khrushchev_check(chain[None], [2], pair, zs) for chain in rhos
    )


@pytest.mark.parametrize("p", [1, 2, 3])
def test_khrushchev_of_one_coefficient_reads_exactly_zero(rng, monkeypatch, p):
    # with the unit pair the split at 1 composes the full chain's columns by
    # the tail's own operations (the head's last factor on the rows), and
    # the split at 0 composes with the identity: no rounding between them
    rhos = sampling.random_contractions(rng, p, 3).reshape(3, 1, p, p)
    pair = snode.ParamPair.constant(np.eye(p), np.eye(p))
    zs = sampling.random_upper_points(rng, 40)
    assert toeplitz.khrushchev_check(rhos, range(2), pair, zs) == 0.0
    monkeypatch.setattr(matcore, "CHUNK", 3)  # one point of the 3 chains per chunk
    assert toeplitz.khrushchev_check(rhos, range(2), pair, zs) == 0.0


def test_khrushchev_names_the_non_contraction_of_a_stack(rng, unit_pair):
    rhos = sampling.random_contractions(rng, 2, 12).reshape(3, 4, 2, 2)
    rhos[2, 1] *= 1.5 / np.linalg.norm(rhos[2, 1], 2)
    # chain 2, coefficient 1: matrix 2 * 4 + 1 of the chains' contractions in order
    with pytest.raises(NotContractive, match="matrix 9 of the stack: spectral norm 1.500000"):
        toeplitz.khrushchev_check(rhos, range(5), unit_pair, sampling.random_upper_points(rng, 3))


@pytest.mark.parametrize("bad", [2.5, -1, 5, [0, 2.5]])
def test_khrushchev_rejects_a_split_that_is_not_an_integer_in_0_to_L(rng, unit_pair, bad):
    rhos = sampling.random_contractions(rng, 1, 4)[None]
    zs = sampling.random_upper_points(rng, 5)
    splits = np.ravel(bad)
    with pytest.raises(IndexOutOfRange, match="is not an integer in 0..4"):
        toeplitz.khrushchev_check(rhos, splits, unit_pair, zs)
    with pytest.raises(IndexOutOfRange, match="start .* is not an integer in 0..4"):
        toeplitz.dirac_sweep(toeplitz.halmos(rhos[0])[None], zs, splits)
    # an integral float is that integer
    assert toeplitz.khrushchev_check(rhos, [2.0], unit_pair, zs) == toeplitz.khrushchev_check(rhos, [2], unit_pair, zs)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_khrushchev_in_chunks_is_bitwise_one_batch(rng, monkeypatch, p):
    rhos = np.stack([sampling.random_contraction(rng, p) for _ in range(5)])[None]
    pair = sampling.random_constant_pair(rng, p)
    zs = sampling.random_upper_points(rng, 23)
    whole = toeplitz.khrushchev_check(rhos, range(6), pair, zs)
    monkeypatch.setattr(matcore, "CHUNK", 7)  # chunks of 7, 7, 7 and 2 points
    per_point = [toeplitz.khrushchev_check(rhos, range(6), pair, z) for z in zs]
    assert toeplitz.khrushchev_check(rhos, range(6), pair, zs) == whole == max(per_point)


def test_sweep_fills_every_slot_of_repeated_starts(rng):
    # verify-toeplitz passes [0, 0] for a one-coefficient spec
    C = toeplitz.halmos(np.stack([sampling.random_contraction(rng, 2) for _ in range(3)]))[None]
    ws = sampling.random_upper_points(rng, 4)
    [heads], [tails] = toeplitz.dirac_sweep(C, ws, [0, 0])
    _, [once_tails] = toeplitz.dirac_sweep(C, ws, [0])
    for k in range(2):
        assert np.array_equal(heads[k], np.broadcast_to(np.eye(4), heads[k].shape))
        assert np.array_equal(tails[k], once_tails[0])
    [heads], [tails] = toeplitz.dirac_sweep(C, ws, [3, 1, 3])
    assert np.array_equal(heads[0], heads[2]) and np.array_equal(tails[0], tails[2])


@pytest.mark.parametrize("length", [1, 4])
def test_sweep_start_at_L_gives_the_full_head_and_an_identity_tail(rng, length):
    C = toeplitz.halmos(np.stack([sampling.random_contraction(rng, 1) for _ in range(length)]))
    ws = sampling.random_upper_points(rng, 3)
    [heads], [tails] = toeplitz.dirac_sweep(C[None], ws, [0, length])
    forward, backward = explicit_products(C, ws)
    assert np.array_equal(tails[1], np.broadcast_to(np.eye(2), tails[1].shape))
    assert np.array_equal(heads[1], forward[length]) and np.array_equal(tails[0], backward[0])
    if length == 1:
        # one factor: either direction is I + i w j C_0 with no rounding
        step = np.eye(2) + 1j * ws[:, None, None] * (matcore.signature_j(1) @ C[0])
        assert np.array_equal(heads[1], step) and np.array_equal(tails[0], step)


def test_khrushchev_pole_at_minus_2i(rng, unit_pair):
    rhos = np.stack([sampling.random_contraction(rng, 1) for _ in range(3)])
    zgrid = np.array([1.0 + 1.0j, -2.0j, 0.5j])
    with pytest.raises(PoleAtZ, match="pole at -2i"):
        toeplitz.khrushchev_check(rhos[None], range(4), unit_pair, zgrid)


@pytest.mark.parametrize("den, singular", [(1e-14, True), (1e-12, False)])
def test_khrushchev_singular_floor_sees_the_frame_prefactor(den, singular):
    # the singular-denominator floor is absolute: at z = 0.3 + 200i a
    # denominator of 1e-14 is singular in the frame's own scale, though
    # without the prefactor (1 - i z/2)^{-1} it would be 100 times larger,
    # and pass
    rhos, z = np.zeros((1, 1, 1, 1)), np.array([0.3 + 200j])
    W = toeplitz.dirac_sweep(toeplitz.halmos(rhos[0])[None], -np.conj(z) / 2.0, [1])[0][0]
    F = toeplitz.frames_of(W, z, np.array([1]))[0, 0]
    pair = snode.ParamPair.constant([[(den - F[1, 1]) / F[1, 0]]], [[1.0]])  # F21 R + F22 Q = den
    for check in (
        lambda: toeplitz.khrushchev_check(rhos, [0], pair, z),
        lambda: snode.lft_stack(F[None], pair.R[None], pair.Q[None], z),
    ):
        if singular:
            with pytest.raises(SingularDenominator):
                check()
        else:
            check()


def test_nesting_pullback_keeps_property_j(rng, unit_pair):
    # a Weyl function of a longer chain, pulled back through a shorter frame,
    # comes from a pair that still satisfies the defining inequalities
    C = toeplitz.halmos(np.stack([sampling.random_contraction(rng, 1) for _ in range(6)]))
    full = toeplitz.dirac_frame(C)
    for k in [1, 3]:
        head = toeplitz.dirac_frame(C[:k])
        for _ in range(8):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.8))
            phi = snode.lft(full, unit_pair, z)
            RQ = np.linalg.solve(head(z), np.vstack([-1j * phi, np.eye(1)]))
            gram = RQ.conj().T @ RQ
            jform = RQ[:1].conj().T @ RQ[1:] + RQ[1:].conj().T @ RQ[:1]
            assert matcore.min_eig_hermitian(gram) > 0
            assert matcore.min_eig_hermitian(jform) >= -1e-9


def test_spec_json_roundtrip(toeplitz_3):
    spec, _ = toeplitz_3
    again = toeplitz.ToeplitzSpec.from_json(spec.to_json())
    assert again.p == spec.p and again.n == spec.n
    for a, b in zip(again.s, spec.s):
        assert_allclose(a, b, atol=0)
    assert_allclose(again.nu, spec.nu, atol=0)


def test_leading_subspec(toeplitz_3):
    spec, _ = toeplitz_3
    sub = spec.leading(2)
    assert sub.n == 2
    assert_allclose(sub.matrix(), spec.matrix()[:2, :2], atol=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.integers(1, 5), st.integers(1, 6))
def test_batched_chain_evaluators_equal_stacked_points(seed, p, n, count):
    rng = np.random.default_rng(seed)
    spec = sampling.random_toeplitz_spec(rng, p, n)
    C, _ = _dirac_chain(spec)
    zs = sampling.random_upper_points(rng, count)

    def fundamental(z_or_zs):
        W = _fundamental(C, np.atleast_1d(z_or_zs), n)
        return W if np.ndim(z_or_zs) else W[0]

    for evaluate in (fundamental, toeplitz.dirac_frame(C)):
        stacked = np.stack([evaluate(z) for z in zs])
        batch = evaluate(zs)
        assert np.max(np.abs(batch - stacked)) <= 1e-13 * (1.0 + np.max(np.abs(stacked)))


@pytest.mark.parametrize(
    "constant",
    [lambda: matcore.exchange_J(2), lambda: matcore.signature_j(2), lambda: toeplitz.unitary_K(2)],
    ids=["J", "j", "K"],
)
def test_cached_constants_are_read_only(constant):
    with pytest.raises(ValueError):
        constant()[0, 0] = 5.0
    assert constant()[0, 0] != 5.0


def _loop_node(spec):
    """The node by the block-by-block loops that assembled it before."""
    p, n = spec.p, spec.n
    Ip = np.eye(p, dtype=complex)
    A = np.zeros((n * p, n * p), dtype=complex)
    S = np.zeros((n * p, n * p), dtype=complex)
    for i in range(n):
        for j in range(n):
            k = j - i
            S[i * p : (i + 1) * p, j * p : (j + 1) * p] = spec.s[-k] if k <= 0 else spec.s[k].conj().T
            if i >= j:
                A[i * p : (i + 1) * p, j * p : (j + 1) * p] = (0.5j if i == j else 1j) * Ip
    Phi1 = np.vstack([Ip] * n)
    partial = np.zeros((n * p, p), dtype=complex)
    running = spec.s[0] / 2.0
    for i in range(n):
        if i > 0:
            running = running + spec.s[i]
        partial[i * p : (i + 1) * p] = running
    return A, S, Phi1, partial + 1j * Phi1 @ spec.nu


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 12))
def test_stacked_spec_matrix_and_node_are_the_loops_bitwise(seed, p, n):
    spec = sampling.random_toeplitz_spec(np.random.default_rng(seed), p, n)
    node = toeplitz.build_toeplitz_node(spec)
    A, S, Phi1, Phi2 = _loop_node(spec)
    assert np.array_equal(spec.matrix(), S)
    for built, looped in ((node.A, A), (node.S, S), (node.Phi1, Phi1), (node.Phi2, Phi2)):
        # tobytes also tells the sign of a zero apart
        assert built.shape == looped.shape and built.tobytes() == looped.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 9), st.integers(1, 6))
def test_stacked_chain_data_are_the_per_order_values_bitwise(seed, p, n, count):
    rng = np.random.default_rng(seed)
    chain = snode.node_chain(toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, n)))
    Cs, rhos = toeplitz.dirac_chain(chain)
    K, j, J = toeplitz.unitary_K(p), matcore.signature_j(p), matcore.exchange_J(p)
    lams = sampling.random_upper_points(rng, count)
    ws = sampling.random_upper_points(rng, count)
    scale = (1j / (lams - 0.5j))[:, None, None]
    factors = snode.chain_factors(chain, lams)
    for k, (C, rho, G, factor) in enumerate(zip(Cs, rhos, chain.G, factors)):
        # G_k up to a unitary left factor, from t_k and the row [X_k Y_k]
        G_row = np.linalg.inv(np.linalg.cholesky(chain.t[k])) @ chain.rows[k]
        assert np.array_equal(rho, np.linalg.solve(C[:p, :p], C[:p, p:]))
        assert np.array_equal(factor, np.eye(2 * p) + (scale * J) @ G.conj().T @ G)
        gram = G_row.conj().T @ G_row
        assert_allclose(C, matcore.hermitian_part(2.0 * K.conj().T @ gram @ K - j), atol=1e-9)
    # one sweep with a second start: heads forward, tails backward, each
    # bitwise the explicit recursion; the head of C[:k] is the forward one
    split = n // 2
    [heads], [tails] = toeplitz.dirac_sweep(Cs[None], ws, [0, split])
    forward, backward = explicit_products(Cs, ws)
    for k, start in enumerate([0, split]):
        assert np.array_equal(heads[k], forward[start]) and np.array_equal(tails[k], backward[start])
    assert np.array_equal(_fundamental(Cs, ws, split), forward[split])
    assert np.array_equal(_fundamental(Cs, ws, n), forward[n])
    assert np.array_equal(toeplitz.dirac_sweep(Cs[None, split:], ws, [0])[1][0, 0], backward[split])
