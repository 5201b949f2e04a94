import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from snode_lab import densities, hankel, matcore, sampling, snode
from snode_lab.errors import (
    DimensionMismatch,
    NonFiniteEntries,
    NotHermitian,
    NotPositiveDefinite,
    QuadratureNotConverged,
    SingularDenominator,
)


def test_build_unit_node(hankel_unit):
    _, node = hankel_unit
    assert_allclose(node.A, np.zeros((1, 1)), atol=0)
    assert_allclose(node.Phi1, np.zeros((1, 1)), atol=0)
    assert_allclose(node.Phi2, np.ones((1, 1)), atol=0)
    assert snode.identity_residual(node) == 0.0


def test_build_rejects_nonhermitian_block():
    with pytest.raises(NotHermitian):
        hankel.HankelSpec(
            p=2,
            n=2,
            H=(np.eye(2), np.array([[0, 1], [0, 0]]), np.eye(2)),
        )


def _count_hermitian_checks(monkeypatch):
    calls = []
    original = matcore.assert_hermitian
    monkeypatch.setattr(
        matcore, "assert_hermitian", lambda *args, **kw: calls.append(1) or original(*args, **kw)
    )
    return calls


def test_spec_checks_its_blocks_as_one_stack_each_at_its_own_tolerance(monkeypatch):
    calls = _count_hermitian_checks(monkeypatch)
    skew = np.array([[0.0, 1e-5], [0.0, 0.0]])
    # H_0's tolerance 1e-10 (1 + 1e6) admits the deviation 1e-5, that of the
    # unit blocks H_1 and H_2 does not: the error names H_1, the first of them
    blocks = (1e6 * np.eye(2) + skew, np.eye(2) + skew, np.eye(2) + skew)
    with pytest.raises(NotHermitian, match=r"^H_1 is not Hermitian \(max deviation 1\.000e-05\)$"):
        hankel.HankelSpec(p=2, n=2, H=blocks)
    hankel.HankelSpec(p=2, n=2, H=(blocks[0], np.eye(2), np.eye(2)))
    assert calls == [1, 1]


def test_spec_refuses_blocks_of_the_wrong_count_or_shape():
    with pytest.raises(DimensionMismatch, match="need 3 blocks H_0..H_2, got 2"):
        hankel.HankelSpec(p=1, n=2, H=(np.eye(1), np.eye(1)))
    with pytest.raises(DimensionMismatch, match="every block must be 2 x 2"):
        hankel.HankelSpec(p=2, n=2, H=(np.eye(2), np.eye(3), np.eye(2)))
    with pytest.raises(DimensionMismatch, match="every block must be 2 x 2"):
        hankel.HankelSpec(p=2, n=2, H=(np.eye(3),) * 3)
    with pytest.raises(ValueError, match="matrix 2 of the stack: matrix entries must be finite"):
        hankel.HankelSpec(p=1, n=2, H=(np.eye(1), np.eye(1), np.full((1, 1), np.inf)))


def test_identity_residual_random_specs(rng):
    for _ in range(10):
        spec = sampling.random_hankel_spec(rng, p=int(rng.integers(1, 3)), n=int(rng.integers(1, 6)))
        node = hankel.build_hankel_node(spec)
        assert snode.identity_residual(node) <= 1e-12 * np.linalg.norm(node.S)


def test_chain_unit_values(hankel_unit):
    _, node = hankel_unit
    chain = snode.node_chain(node)
    assert chain.c == 0
    assert_allclose(chain.rows[0], np.array([[0.0, 1.0]]), atol=0)  # omega_0
    (w1,) = snode.chain_factors(chain, 2.7)
    assert_allclose(w1, np.array([[1, 1j / 2.7], [0, 1]]), atol=1e-15)
    assert_allclose(w1, snode.transfer_matrix(node, 2.7), atol=1e-14)


def test_chain_starts_at_zero_block(rng):
    spec = sampling.random_hankel_spec(rng, p=2, n=3)
    chain = snode.node_chain(hankel.build_hankel_node(spec))
    start = np.hstack([np.zeros((2, 2)), chain.t[0]])
    assert np.max(np.abs(chain.rows[0] - start)) <= 1e-12


def test_chain_algebra_random(rng):
    for _ in range(6):
        p = int(rng.integers(1, 3))
        n = int(rng.integers(2, 6))
        spec = sampling.random_hankel_spec(rng, p=p, n=n)
        chain = snode.node_chain(hankel.build_hankel_node(spec))
        J = matcore.exchange_J(p)
        for k, w in enumerate(chain.rows):
            assert np.max(np.abs(w @ J @ w.conj().T)) <= 1e-10 * (1 + np.max(np.abs(w)) ** 2)
            if k > 0:
                step = 1j * chain.rows[k] @ J @ chain.rows[k - 1].conj().T
                assert np.max(np.abs(step - chain.t[k])) <= 1e-9 * (1 + np.max(np.abs(chain.t[k])))


def test_chain_reports_first_failing_order():
    spec = hankel.HankelSpec(
        p=1, n=2, H=(np.array([[1.0]]), np.array([[2.0]]), np.array([[1.0]]))
    )
    with pytest.raises(NotPositiveDefinite) as err:
        snode.node_chain(hankel.build_hankel_node(spec))
    assert err.value.order == 2


def test_frame_convention_matches_generic_frame(rng):
    spec = sampling.random_hankel_spec(rng, p=2, n=3)
    node = hankel.build_hankel_node(spec)
    for _ in range(5):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.8))
        via = snode.transfer_matrix(node, 1 / np.conj(z)).conj().T
        assert np.max(np.abs(via - snode.frame(node, z))) <= 1e-12 * (1 + np.max(np.abs(via)))


def test_moments_uniform_density():
    u = densities.uniform_density()
    H0, H1, H2 = hankel.moments_from_density(u, 3)
    assert H0[0, 0].real == pytest.approx(1.0, abs=1e-10)
    assert abs(H1[0, 0]) <= 1e-10
    assert H2[0, 0].real == pytest.approx(1 / 3, abs=1e-10)


def test_moments_even_density_kills_odd_orders():
    es = densities.exp_sqrt_density()
    for k in [1, 3]:
        assert abs(hankel.moments_from_density(es, k + 1)[k][0, 0]) <= 1e-10 * math.factorial(2 * k + 2)


def test_moments_exp_sqrt_factorials():
    es = densities.exp_sqrt_density()
    assert hankel.moments_from_density(es, 1)[0][0, 0].real == pytest.approx(1.0, rel=1e-10)
    for m in [1, 2, 3]:
        want = math.factorial(4 * m + 1)
        got = hankel.moments_from_density(es, 2 * m + 1)[2 * m][0, 0].real
        assert got == pytest.approx(want, rel=1e-10)


def test_recover_moments_hand_spec(hankel_102, unit_pair):
    spec, _ = hankel_102
    report = hankel.recover_moments(spec, unit_pair)
    assert report.max_error() <= 1e-5
    assert report.laurent[0][0, 0].real == pytest.approx(1.0, abs=1e-5)
    assert abs(report.laurent[1][0, 0]) <= 1e-5
    assert report.tail_slack() <= 1e-6


def test_recover_moments_fits_the_roots_of_det_f_once(hankel_102, unit_pair, monkeypatch):
    # the circle radius and the density's breaks come from one pencil solve
    solves = []
    original = hankel._denominator_zeros

    def counted(frm, R, Q):
        solves.append(len(R))
        return original(frm, R, Q)

    monkeypatch.setattr(hankel, "_denominator_zeros", counted)
    hankel.recover_moments(hankel_102[0], unit_pair)
    assert solves == [1]


def test_one_pair_is_bitwise_the_batch_of_one(hankel_102, rng):
    frm = snode.node_frame(hankel_102[1])
    pair = sampling.random_constant_pair(rng, 1)
    ts = np.linspace(-30.0, 30.0, 301)
    others = [sampling.random_constant_pair(rng, 1) for _ in range(3)]
    [one], _ = hankel.weyl_densities(frm, [pair])
    batch = hankel.weyl_densities(frm, [others[0], pair, *others[1:]])[0][1]
    assert one.breaks == batch.breaks and all(isinstance(b, complex) for b in one.breaks)
    assert np.array_equal(one(ts), batch(ts))
    assert np.array_equal(one.log_det_at(ts), batch.log_det_at(ts))


def _frame_of(family, rng, p):
    """A Hankel node frame (Horner denominator), a Toeplitz node frame (the
    frame-formed denominator) or the Dirac frame of a Toeplitz chain."""
    from snode_lab import toeplitz

    if family == "hankel":
        return snode.node_frame(hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, 3)))
    node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, 3))
    if family == "toeplitz":
        return snode.node_frame(node)
    return toeplitz.dirac_frame(toeplitz.dirac_chain(snode.node_chain(node))[0])


@pytest.mark.parametrize("family", ["hankel", "toeplitz", "dirac"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_stacked_setup_gives_each_pair_its_batch_of_one_density(family, p):
    # the batch's jforms, F(i) and anchors are stacks over the pairs: each
    # density's values, log-det and breaks are bitwise those of its pair alone
    from snode_lab import asymptotics, quadrature

    rng = np.random.default_rng(4400 + 10 * p + len(family))
    frm = _frame_of(family, rng, p)
    pairs = snode.ParamPair.from_stacks(*sampling.random_constant_pairs(rng, p, 5))
    coarse = max(24, asymptotics._LOG_QUAD // 64)
    batch, _ = hankel.weyl_densities(frm, pairs)
    for pair, density in zip(pairs, batch):
        [alone], _ = hankel.weyl_densities(frm, [pair])
        [(ts, _)] = quadrature._build_graded_rules((coarse,), [quadrature._sides(alone.breaks)])
        assert density.breaks == alone.breaks
        assert density(ts).tobytes() == alone(ts).tobytes()
        assert density.log_det_at(ts).tobytes() == alone.log_det_at(ts).tobytes()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_pairs_from_one_stack_are_the_pairs_made_one_at_a_time(p):
    R, Q = sampling.random_constant_pairs(np.random.default_rng(p), p, 4)
    stacked = snode.ParamPair.from_stacks(R, Q)
    for pair, r, q in zip(stacked, R, Q):
        alone = snode.ParamPair.constant(r, q)
        assert pair.R.tobytes() == alone.R.tobytes() and pair.Q.tobytes() == alone.Q.tobytes()
        assert not (pair.R.flags.writeable or pair.Q.flags.writeable)
    with pytest.raises(DimensionMismatch):
        snode.ParamPair.from_stacks(R, Q[:3])
    with pytest.raises(DimensionMismatch, match="square"):
        snode.ParamPair.from_stacks(np.ones((2, p, p + 1)), np.ones((2, p, p + 1)))
    Q = Q.copy()
    Q[2, 0, -1] = np.inf
    with pytest.raises(NonFiniteEntries, match="^matrix 2 of the stack: matrix entries must be finite"):
        snode.ParamPair.from_stacks(R, Q)
    with pytest.raises(NonFiniteEntries):
        snode.ParamPair.constant(R[2], Q[2])


@pytest.mark.parametrize("p", [1, 2, 3])
def test_batched_zeros_match_one_fit_per_pair(p):
    # the zeros of a batch are bitwise those of one pair at a time, and each
    # density's log-det, a sum over its own zeros, is finite off them
    for seed in range(12):
        rng = np.random.default_rng(4200 + seed)
        frm = snode.node_frame(hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, 1 + seed % 4)))
        pairs = [sampling.random_constant_pair(rng, p) for _ in range(6)]
        dens, batch = hankel.weyl_densities(frm, pairs)
        for pair, zeros in zip(pairs, batch):
            [alone] = hankel._denominator_zeros(frm, pair.R[None], pair.Q[None])
            assert zeros.size == frm.p * (1 + seed % 4) and zeros.tobytes() == alone.tobytes()
        assert all(np.all(np.isfinite(d.log_det_at(np.linspace(-5.0, 5.0, 11)))) for d in dens)


def test_recover_moments_random_pairs(hankel_102, rng):
    spec, _ = hankel_102
    for _ in range(10):
        pair = sampling.random_constant_pair(rng, 1)
        report = hankel.recover_moments(spec, pair)
        assert report.max_error() <= 1e-5
        assert report.tail_slack() <= 1e-6


def test_recover_moments_unit_node_equality(hankel_unit, unit_pair):
    spec, _ = hankel_unit
    report = hankel.recover_moments(spec, unit_pair)
    # mu' = 1/(pi(1+t^2)) integrates to exactly the zeroth block
    assert report.tail_integral[0, 0].real == pytest.approx(1.0, abs=1e-8)
    assert report.tail_slack() <= 1e-6


# the seeded specs on which recover_moments raises, and what it raises: at
# (2, 5, seed 1) det F has a zero at |z| = 12.7, so R = 19, and coefficient 8
# carries the rounding of the samples times R^8 = 1.7e10 (drift 8.4e-6)
_RECOVER_RAISES = {(2, 5, 1): QuadratureNotConverged}


@pytest.mark.parametrize(
    "p, n, seed", [(p, n, seed) for p in (1, 2) for n in (3, 4, 5) for seed in range(4)]
)
def test_recover_moments_on_seeded_specs(p, n, seed):
    spec = sampling.random_hankel_spec(np.random.default_rng(seed), p, n)
    pair = sampling.random_constant_pair(np.random.default_rng(100 + seed), p)
    if (p, n, seed) in _RECOVER_RAISES:
        with pytest.raises(_RECOVER_RAISES[p, n, seed], match="^expansion coefficient 8: "):
            hankel.recover_moments(spec, pair)
        return
    report = hankel.recover_moments(spec, pair)
    assert report.max_error() <= 1e-10
    assert report.tail_slack() <= 1e-6


@pytest.mark.parametrize("margin", [0.3, 0.5, 0.8, 0.9, 1.0])
@pytest.mark.parametrize("p, n", [(1, 3), (2, 4)])
def test_recover_radius_inside_the_zeros_of_det_f_raises(monkeypatch, p, n, margin):
    # the largest zero of det F is at |z| = 1.94 and 1.90: a circle through
    # it, or inside it, must not give a value
    spec = sampling.random_hankel_spec(np.random.default_rng(0), p, n)
    pair = sampling.random_constant_pair(np.random.default_rng(100), p)
    monkeypatch.setattr(hankel, "_RECOVER_MARGIN", margin)
    with pytest.raises(QuadratureNotConverged):
        hankel.recover_moments(spec, pair)


def test_weyl_density_matches_imaginary_part(hankel_102, rng, unit_pair):
    _, node = hankel_102
    frm = snode.node_frame(node)
    for pair in (unit_pair, snode.extremal_pair(frm, 1j)):
        [dens], _ = hankel.weyl_densities(frm, [pair])
        for t in rng.uniform(-5, 5, 6):
            direct = snode.lft(frm, pair, complex(t))
            imag = (direct - direct.conj().T) / (2j * np.pi)
            assert np.max(np.abs(dens(np.array([t]))[0] - imag)) <= 1e-12


def test_spec_json_roundtrip(hankel_102):
    spec, _ = hankel_102
    again = hankel.HankelSpec.from_json(spec.to_json())
    assert again.p == spec.p and again.n == spec.n
    for a, b in zip(again.H, spec.H):
        assert_allclose(a, b, atol=0)


def test_leading_subspec(rng):
    spec = sampling.random_hankel_spec(rng, p=2, n=4)
    sub = hankel.HankelSpec(spec.p, 2, spec.H[:3])
    assert sub.n == 2
    assert_allclose(sub.matrix(), spec.matrix()[:4, :4], atol=0)


_CHUNK_SIZES = (matcore.CHUNK - 1, matcore.CHUNK, matcore.CHUNK + 1, 2 * matcore.CHUNK + 3)


def _frame_formed_denominator(node):
    """The node's frame with the default denominator, read off the frame's
    lower block row."""
    return dataclasses.replace(snode.node_frame(node), make_denominator=None)


# the frame-formed denominator, and the Hankel frame's matrix-polynomial one
@pytest.mark.parametrize(
    "frame_of, p, size",
    [pytest.param(_frame_formed_denominator, 2, size, id=str(size)) for size in _CHUNK_SIZES]
    + [
        pytest.param(snode.node_frame, p, size, id=f"hankel_frame-p{p}-{size}")
        for p in (1, 2)
        for size in _CHUNK_SIZES
    ],
)
def test_weyl_density_in_chunks_is_bitwise_one_batch(monkeypatch, frame_of, p, size):
    rng = np.random.default_rng(size)
    node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, 2))
    [density], _ = hankel.weyl_densities(frame_of(node), [sampling.random_constant_pair(rng, p)])
    ts = rng.standard_cauchy(size)
    values, log_dets = density(ts), density.log_det_at(ts)
    monkeypatch.setattr(matcore, "CHUNK", 10 * size)  # one batch: no chunking
    assert values.shape == (size, p, p) and log_dets.shape == (size,)
    assert values.tobytes() == density(ts).tobytes()
    assert log_dets.tobytes() == density.log_det_at(ts).tobytes()


def _denominator_frame(p, den):
    """A frame whose LFT denominator is ``den`` for every pair; its frame
    values are never evaluated."""
    # F(0) = I, so the pair (I, I) reads it: det F = 1 + 2t - 8t^2 = -8 (t - 0.5)(t + 0.25)
    steps = np.zeros((2, p, p))
    steps[:, 0, 0] = (2.0, -8.0)

    def realization(R, Q):
        return np.eye(2 * p, k=-p), np.eye(2 * p, p), np.concatenate(steps, axis=1)

    def make_denominator(R, Q):
        # the same F for every pair: (T, p, p) for one, (N, T, p, p) for N
        if R.ndim == 2:
            return den
        return lambda ts: np.broadcast_to(den(ts), (len(R), np.size(ts), p, p))

    return snode.Frame(p=p, fn=None, realization=realization, make_denominator=make_denominator)


def _singular_at_3(p):
    """F with det F = (t - 0.5)(t + 0.25), at real points and at t = i,
    except at t = 3 where F = 1e-200 I: not exactly singular, but |F|^2
    underflows, so the value would be inf."""

    def den(ts):
        ts = np.asarray(ts)
        F = np.zeros((ts.size, p, p), dtype=complex)
        F[:, 0, 0] = np.where(ts == 3.0, 1e-200, (ts - 0.5) * (ts + 0.25))
        for k in range(1, p):
            F[:, k, k] = np.where(ts == 3.0, 1e-200, 1.0)
        return F

    return den


@pytest.mark.parametrize("p", (1, 2))
def test_weyl_density_names_the_first_singular_denominator(p):
    den = _singular_at_3(p)
    pair = snode.ParamPair.constant(np.eye(p), np.eye(p))
    [density], [zeros] = hankel.weyl_densities(_denominator_frame(p, den), [pair])
    assert_allclose(np.sort_complex(zeros), [-0.25, 0.5], rtol=1e-14)
    ts = np.array([0.0, 0.5, 1.0, -0.25])
    with pytest.raises(SingularDenominator) as info:
        density(ts)
    assert info.value.z == 0.5
    with pytest.raises(SingularDenominator) as info:
        density(np.array([1.0, 3.0, 0.5]))
    assert info.value.z == 3.0
    assert np.all(np.isfinite(density(np.array([0.0, 1.0]))))
    # the log-det reads the zeros of det F, not F: at t = 3 it is finite
    assert_allclose(density.log_det_at([3.0]), -p * np.log(np.pi) - 2.0 * np.log(2.5 * 3.25), rtol=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", (1, 2))
def test_weyl_log_det_is_plus_inf_at_an_exact_real_zero(p):
    # the pencil puts these zeros a rounding off the axis; given exactly
    # real, ln|t - z| is -inf at t = z, so ln det mu' is +inf: not finite,
    # which the entropy integrands report as a density that is not
    # log-integrable
    from snode_lab import asymptotics
    from snode_lab.errors import SzegoViolated

    pair = snode.ParamPair.constant(np.eye(p), np.eye(p))
    zeros = np.array([0.5, -0.25], dtype=complex)
    jform = np.eye(p) / np.pi
    log_num = float(np.linalg.slogdet(jform)[1])
    # c = ln|det F(i)| - sum_k ln|i - z_k| = 0 for det F = (t - 0.5)(t + 0.25)
    frm = _denominator_frame(p, _singular_at_3(p))
    density = hankel._weyl_density(frm, pair, jform, log_num, log_num, zeros)
    ts = np.array([0.0, 0.5, 1.0, -0.25])
    assert np.array_equal(np.isposinf(density.log_det_at(ts)), [False, True, False, True])
    with pytest.raises(SzegoViolated):
        asymptotics._finite_log_det(density, ts)


def _frames_mp40(node, zs):
    """The frames I - i z Pi* (I - z A*)^{-1} S^{-1} Pi J as mpmath matrices;
    call it inside ``mpmath.workdps(40)``."""
    import mpmath

    A, S, Pi = (mpmath.matrix(M.tolist()) for M in (node.A, node.S, node.Pi))
    J = mpmath.matrix(matcore.exchange_J(node.p).tolist())
    SinvPiJ = mpmath.inverse(S) * Pi * J
    for z in map(mpmath.mpc, zs):
        yield mpmath.eye(2 * node.p) - 1j * z * Pi.H * mpmath.inverse(mpmath.eye(node.m) - z * A.H) * SinvPiJ


def _frames_mp(node, zs):
    """The frames I - i z Pi* (I - z A*)^{-1} S^{-1} Pi J at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        return [np.array(F.tolist(), dtype=complex) for F in _frames_mp40(node, zs)]


@pytest.mark.parametrize("p", (1, 2))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_hankel_denominator_is_as_accurate_as_the_frame_path(p, n):
    import mpmath

    rng = np.random.default_rng(100 + 10 * p + n)
    node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, n))
    R, Q = sampling.random_constant_pair(rng, p).constant_value
    ts = rng.standard_cauchy(12)
    frm = snode.node_frame(node)
    new = np.linalg.slogdet(frm.denominator(R, Q)(ts))[1]
    old = np.linalg.slogdet(dataclasses.replace(frm, make_denominator=None).denominator(R, Q)(ts))[1]
    with mpmath.workdps(40):
        RQ = mpmath.matrix(np.vstack((R, Q)).tolist())
        want = np.array(
            [float(mpmath.log(abs(mpmath.det(F[p:, :] * RQ)))) for F in _frames_mp40(node, ts)]
        )
    # both errors grow with n, set by the conditioning of S: no flat
    # tolerance.  They are compared in the mean over the points: the worst
    # point is one rounding draw, and either path's worst exceeds twice the
    # other's in about 1 random case in 80
    eps = np.finfo(float).eps
    assert np.mean(np.abs(new - want)) <= 2.0 * np.mean(np.abs(old - want)) + 4.0 * eps


def _log_det_f_bound(ts, zeros, pole, cond):
    """The error allowed ln|det F(t)| from the zeros z_k of det F: 8 eps
    times cond (1 + sum_k |z_k| / |t - z_k|), the first-order move of the
    anchor and of every zero when each carries a relative error eps cond,
    as in the pencil test, plus sum_k |ln|t - z_k|| + M |ln|t - pole||, the
    size of the terms the sum rounds."""
    dist = np.abs(ts[:, None] - zeros[None, :])
    terms = np.sum(np.abs(np.log(dist)), axis=1)
    if pole is not None:
        terms += pole[1] * np.abs(np.log(np.abs(ts - pole[0])))
    moves = cond * (1.0 + np.sum(np.abs(zeros)[None, :] / dist, axis=1))
    return 8.0 * np.finfo(float).eps * (moves + terms)


def _oracle_nodes(density):
    """Every 32nd node of the coarse rule of the density's outer-modulus
    integral, and the two nodes of it nearest each break."""
    from snode_lab import asymptotics, quadrature

    coarse = max(24, asymptotics._LOG_QUAD // 64)
    [(ts, _)] = quadrature._build_graded_rules((coarse,), [quadrature._sides(density.breaks)])
    keep = set(range(0, ts.size, 32))
    for b in density.breaks:
        keep.update(np.argsort(np.abs(ts - b.real))[:2].tolist())
    return ts[sorted(keep)]


def _mp_array(M):
    """A complex array as an object array of mpmath numbers, each exact."""
    import mpmath

    return np.vectorize(mpmath.mpc, otypes=[object])(np.asarray(M, dtype=complex))


def _assert_log_det_f_matches(frm, pair, cond, oracle):
    """ln|det F| of the density's log-det, against ``oracle`` (a 50-digit
    ln|det F(t)| at each node) on :func:`_oracle_nodes`, within
    :func:`_log_det_f_bound`."""
    import mpmath

    [density], [zeros] = hankel.weyl_densities(frm, [pair])
    ts = _oracle_nodes(density)
    jform = (pair.R.conj().T @ pair.Q + pair.Q.conj().T @ pair.R) / (2.0 * np.pi)
    got = 0.5 * (float(np.linalg.slogdet(jform)[1]) - density.log_det_at(ts))
    with mpmath.workdps(50):
        want = np.array([float(mpmath.log(abs(mpmath.det(oracle(mpmath.mpf(float(t))))))) for t in ts])
    assert np.all(np.abs(got - want) <= _log_det_f_bound(ts, zeros, frm.pole, cond))


def _polynomial_mp(coefs, Q):
    """t -> Q + sum_j t^(j+1) coefs[j] as an mpmath matrix, by Horner."""
    import mpmath

    def at(t):
        acc = coefs[-1] * t
        for C in coefs[-2::-1]:
            acc = (acc + C) * t
        return mpmath.matrix((acc + Q).tolist())

    return at


@pytest.mark.parametrize("p, n", [(1, 4), (1, 8), (2, 3), (2, 6), (3, 2), (3, 4)])
def test_log_det_of_a_hankel_frame_matches_a_50_digit_realization(p, n):
    # the specs of the 50-digit pencil test, whose zeros use at most 0.17 of
    # the bound (F by Horner: 0.12).  Near-axis zeros of ill-conditioned
    # specs are a weak spot of both forms: on corpus K specs 65 and 141
    # (cond S 4.8e9, 6.9e6), at nodes 1e-12 to 1e-9 from a zero, both err
    # against mpmath alike, the zeros form 1.0 and 1.8 times Horner (max).
    # The realization (A*, S^{-1} Pi [Q; R], -i Phi2*) from a 50-digit
    # inverse of the float S, so the zeros carry eps cond(S); A* is
    # nilpotent, so F is the polynomial Q + sum_j t^(j+1) C (A*)^j B
    import mpmath

    rng = np.random.default_rng(60 + 10 * p + n)
    node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, n))
    pair = sampling.random_constant_pair(rng, p)
    with mpmath.workdps(50):
        Sinv = np.array(mpmath.inverse(mpmath.matrix(node.S.tolist())).tolist(), dtype=object)
        X = Sinv @ _mp_array(node.Pi) @ _mp_array(np.vstack((pair.Q, pair.R)))
        A_h, C = _mp_array(node.A.conj().T), -1j * _mp_array(node.Phi2.conj().T)
        coefs = []
        for _ in range(n):
            coefs.append(C @ X)
            X = A_h @ X
        oracle = _polynomial_mp(coefs, _mp_array(pair.Q))
        _assert_log_det_f_matches(snode.node_frame(node), pair, np.linalg.cond(node.S), oracle)


def test_log_det_of_a_dirac_frame_matches_a_50_digit_realization():
    # the chain's float coefficients and the pair taken as exact (cond 1):
    # (1 - i t/2)^n F(t) = (M prod_k (I + (i t/2) C_k j) M* [R; Q])_lower at
    # 50 digits, and det F has the frame's pole -2i of order n p
    import mpmath

    from snode_lab import toeplitz

    p, n = 2, 3
    rng = np.random.default_rng(80 + 10 * p + n)
    node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, n))
    Cs = toeplitz.dirac_chain(snode.node_chain(node))[0]
    pair = sampling.random_constant_pair(rng, p)
    frm = toeplitz.dirac_frame(Cs)
    assert frm.pole == (-2j, n * p)
    with mpmath.workdps(50):
        Ip, Zp = np.eye(p, dtype=int), np.zeros((p, p), dtype=int)
        j = np.block([[Ip, Zp], [Zp, -Ip]])
        K = np.block([[Ip, -Ip], [Ip, Ip]]) / mpmath.sqrt(2)
        M = np.block([[Zp, Ip], [Ip, Zp]]) @ j @ K
        start = M.T @ _mp_array(np.vstack((pair.R, pair.Q)))  # M is real
        steps = [Ck @ j for Ck in _mp_array(Cs)[::-1]]

        def oracle(t):
            Y = start
            for step in steps:
                Y = Y + (0.5j * t) * (step @ Y)
            return mpmath.matrix((M @ Y)[p:].tolist()) / (1 - 0.5j * t) ** n

        _assert_log_det_f_matches(frm, pair, 1.0, oracle)


def test_log_det_of_a_toeplitz_node_frame_matches_a_50_digit_realization():
    # a shifted A: F = Q + t C (I - t A*)^{-1} B with the resolvent at 50
    # digits, and det F has the frame's pole 1/conj(i/2) = 2i of order m
    import mpmath

    from snode_lab import toeplitz

    p, n = 1, 3
    rng = np.random.default_rng(90 + 10 * p + n)
    node = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p, n))
    pair = sampling.random_constant_pair(rng, p)
    frm = snode.node_frame(node)
    assert frm.pole == (2j, node.m)
    with mpmath.workdps(50):
        Sinv = mpmath.inverse(mpmath.matrix(node.S.tolist()))
        QR = np.vstack((pair.Q, pair.R))
        Pi, A_h, C = (mpmath.matrix(M.tolist()) for M in (node.Pi, node.A.conj().T, -1j * node.Phi2.conj().T))
        QR = mpmath.matrix(QR.tolist())
        B, Q = Sinv * Pi * QR, mpmath.matrix(pair.Q.tolist())

        def oracle(t):
            return Q + t * C * (mpmath.inverse(mpmath.eye(node.m) - t * A_h) * B)

        _assert_log_det_f_matches(frm, pair, np.linalg.cond(node.S), oracle)


def _weyl_case(p, n, seed):
    """A Hankel frame, a random constant pair (R, Q) and its jform."""
    rng = np.random.default_rng(seed)
    node = hankel.build_hankel_node(sampling.random_hankel_spec(rng, p, n))
    R, Q = sampling.random_constant_pair(rng, p).constant_value
    jform = (R.conj().T @ Q + Q.conj().T @ R) / (2.0 * np.pi)
    return node, R, Q, jform, rng.standard_cauchy(12)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_p2_density_from_the_adjugate_is_as_accurate_as_the_inverse(n):
    import mpmath

    node, R, Q, jform, ts = _weyl_case(2, n, 200 + n)
    frm = snode.node_frame(node)
    [density], _ = hankel.weyl_densities(frm, [snode.ParamPair.constant(R, Q)])
    new = density(ts)
    Finv = np.linalg.inv(frm.denominator(R, Q)(ts))
    old = np.swapaxes(Finv, 1, 2).conj() @ jform @ Finv
    with mpmath.workdps(40):
        Rm, Qm, RQ = (mpmath.matrix(M.tolist()) for M in (R, Q, np.vstack((R, Q))))
        jform_mp = (Rm.H * Qm + Qm.H * Rm) / (2 * mpmath.pi)
        want = []
        for F in _frames_mp40(node, ts):
            Finv_mp = mpmath.inverse(F[2:, :] * RQ)
            want.append(np.array((Finv_mp.H * jform_mp * Finv_mp).tolist(), dtype=complex))
    want = np.array(want)

    def errors(got):
        return np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))

    # compared in the mean over the points, as the denominators are
    eps = np.finfo(float).eps
    assert np.mean(errors(new)) <= 2.0 * np.mean(errors(old)) + 4.0 * eps


def test_p1_density_is_bitwise_jform_over_abs_f_squared():
    node, R, Q, jform, ts = _weyl_case(1, 3, 31)
    frm = snode.node_frame(node)
    [density], [zeros] = hankel.weyl_densities(frm, [snode.ParamPair.constant(R, Q)])
    F = frm.denominator(R, Q)(ts)
    want = jform / (F.real * F.real + F.imag * F.imag)
    assert density(ts).tobytes() == want.tobytes()
    log_abs = np.log(np.abs(F[:, 0, 0]))
    # the log-det from the zeros of det F, against the one from F itself:
    # each is within the oracle bound of the exact value
    want_log = float(np.linalg.slogdet(jform)[1]) - 2.0 * log_abs
    bound = _log_det_f_bound(ts, zeros, None, np.linalg.cond(node.S))
    assert np.all(np.abs(density.log_det_at(ts) - want_log) <= 4.0 * bound)


@pytest.mark.parametrize("p", (1, 2, 3))
def test_moment_majorant_is_bitwise_the_trace(monkeypatch, p):
    from snode_lab import quadrature

    node, R, Q, _, ts = _weyl_case(p, 2, 40 + p)
    [density], _ = hankel.weyl_densities(snode.node_frame(node), [snode.ParamPair.constant(R, Q)])
    seen = []

    def keep_integrand(fn, *args):
        seen.append(fn)
        return [np.zeros((p, p))] * 6  # majorant and moment of 3 orders

    monkeypatch.setattr(quadrature, "integrate_with_check", keep_integrand)
    hankel.moments_from_density(density, 3)
    family = seen[0](ts)
    (root, trace), (base, values) = family.terms
    assert family.count == 3 and base is ts and values.tobytes() == density(ts).tobytes()
    assert trace.tobytes() == np.trace(density(ts), axis1=1, axis2=2).real.tobytes()
    assert root.tobytes() == np.sqrt(1.0 + ts * ts).tobytes()
    # on one panel of all the points, the majorant of order k is the sum of
    # the running row (w tr P) (1 + t^2)^(1/2) ... (1 + t^2)^(1/2), k factors
    w = np.linspace(0.5, 1.5, ts.size)
    [items] = quadrature._reduce(w, family, (ts.size,))
    row = w * trace
    for k in range(3):
        assert items[2 * k] == np.sum(row)
        # and within rounding of the closed form: about 2k + 3 roundings a
        # term, every term positive
        assert items[2 * k] == pytest.approx(np.sum(w * (1.0 + ts * ts) ** (k / 2) * trace), rel=1e-15 * (k + 1))
        row = row * root


_FRAME_POINTS = np.array([0.0, 1e19, -1e19, 0.3, -2.5, 40.0, 1j, 0.5 + 0.2j, -3.0 + 2.0j, 1e3 + 1e2j])


@pytest.mark.parametrize("p", (1, 2, 3))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_hankel_frame_matches_the_generic_frame_and_mpmath(p, n):
    # snode.frame evaluates a Hankel node's frame by Horner; the resolvent
    # route _frame_stack is the reference
    node = hankel.build_hankel_node(sampling.random_hankel_spec(np.random.default_rng(10 * p + n), p, n))
    frm = snode.node_frame(node)
    assert frm.p == p
    got = frm(_FRAME_POINTS)
    generic = snode._frame_stack(node, _FRAME_POINTS)
    assert got.shape == (_FRAME_POINTS.size, 2 * p, 2 * p)
    # the oracle starts from the float S, so S^{-1} Pi (shared by both
    # evaluators) carries an error of order eps cond(S) into every frame
    oracle_tol = 1e-13 + np.finfo(float).eps * np.linalg.cond(node.S)
    for F, G, want in zip(got, generic, _frames_mp(node, _FRAME_POINTS)):
        assert np.linalg.norm(F - G) <= 1e-13 * np.linalg.norm(G)
        assert np.linalg.norm(F - want) <= oracle_tol * np.linalg.norm(want)
    assert np.array_equal(frm(_FRAME_POINTS[0]), np.eye(2 * p))
    assert frm(_FRAME_POINTS[-1]).tobytes() == got[-1].tobytes()


def test_recover_moments_memory_stays_bounded():
    # the density of this case is evaluated on 17,600 and 35,200 points; one
    # batch kept every intermediate of the frame at once (37.2 MB peak), and
    # the moment items of every order at once still gave 12.1 MB
    import tracemalloc

    spec = sampling.random_hankel_spec(np.random.default_rng(7), 2, 2)
    pair = sampling.random_constant_pair(np.random.default_rng(8), 2)
    tracemalloc.start()
    try:
        hankel.recover_moments(spec, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9e6


def test_p2_density_past_1e154_is_finite_not_a_singular_denominator():
    # F grows like t^8 here; unscaled, |det F|^2 and adj* jform adj both
    # overflowed at t = -7.1e19 and the value read as a singular
    # denominator, and ad - bc overflowed, so log_det read -inf
    rng = np.random.default_rng(0)
    spec = sampling.random_hankel_spec(rng, 2, 8)
    pair = sampling.random_constant_pair(rng, 2)
    frm = snode.node_frame(hankel.build_hankel_node(spec))
    [density], _ = hankel.weyl_densities(frm, [pair])
    ts = np.array([-7.1e19, 0.3])
    F = frm.denominator(pair.R, pair.Q)(ts)
    assert np.abs(F[0]).max() > 1e154
    values = density(ts)
    # the true value is below 1e-308 and the 0.3 one unchanged
    assert np.all(np.isfinite(values)) and np.abs(values[0]).max() <= 1e-300
    Finv = np.linalg.inv(F[1])
    jform = (pair.R.conj().T @ pair.Q + pair.Q.conj().T @ pair.R) / (2.0 * np.pi)
    assert_allclose(values[1], Finv.conj().T @ jform @ Finv, rtol=1e-13)
    want = np.linalg.slogdet(jform)[1] - 2.0 * np.linalg.slogdet(F)[1]
    assert_allclose(density.log_det_at(ts), want, rtol=1e-13)
    # the zeros of det F grade the rule at every pole, so the moments come
    # back with the error that cond S = 1.1e7 allows the spec's own S
    cond = np.linalg.cond(spec.matrix())
    for got, want in zip(hankel.moments_from_density(density, 5), spec.H):
        assert np.linalg.norm(got - want) <= 4.0 * np.finfo(float).eps * cond * np.linalg.norm(want)


@pytest.mark.parametrize("p", (1, 2))
def test_density_scale_changes_no_bit_where_nothing_overflows(monkeypatch, p):
    node, R, Q, _, _ = _weyl_case(p, 3, 70 + p)
    [density], _ = hankel.weyl_densities(snode.node_frame(node), [snode.ParamPair.constant(R, Q)])
    ts = np.random.default_rng(p).standard_cauchy(500)
    scaled = density(ts)
    monkeypatch.setattr(matcore, "power_of_two_scale", lambda stack: np.ones(len(stack)))
    assert density(ts).tobytes() == scaled.tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_stacked_spec_matrix_node_and_factors_are_the_loops_bitwise(seed):
    rng = np.random.default_rng(seed)
    p, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
    spec = sampling.random_hankel_spec(rng, p, n)
    node = hankel.build_hankel_node(spec)
    # the block-by-block loops that assembled the node before
    S = np.zeros((n * p, n * p), dtype=complex)
    A = np.zeros((n * p, n * p), dtype=complex)
    Phi1 = np.zeros((n * p, p), dtype=complex)
    for i in range(n):
        for j in range(n):
            S[i * p : (i + 1) * p, j * p : (j + 1) * p] = spec.H[i + j]
        if i > 0:
            A[i * p : (i + 1) * p, (i - 1) * p : i * p] = np.eye(p)
            Phi1[i * p : (i + 1) * p] = -1j * spec.H[i - 1]
    Phi2 = np.zeros((n * p, p), dtype=complex)
    Phi2[:p] = np.eye(p)
    assert np.array_equal(spec.matrix(), S)
    for built, looped in ((node.A, A), (node.S, S), (node.Phi1, Phi1), (node.Phi2, Phi2)):
        assert built.shape == looped.shape and built.tobytes() == looped.tobytes()
    chain = snode.node_chain(node)
    lams = rng.uniform(-3, 3, 5) + 1j * rng.uniform(0.3, 2, 5)
    J = matcore.exchange_J(p)
    for G, factor in zip(chain.G, snode.chain_factors(chain, lams)):
        assert np.array_equal(factor, np.eye(2 * p) + (1j / lams)[:, None, None] * (J @ (G.conj().T @ G)))
