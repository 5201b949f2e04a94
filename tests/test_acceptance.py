"""Acceptance suite: one test and one printed pass/fail line per criterion.

Tolerances are pinned here, not configurable; runtime-limited criteria
measure wall time and fail when over budget.
"""

import time

import numpy as np

from snode_lab import asymptotics, densities, hankel, matcore, sampling, snode, toeplitz

from conftest import frame_from_spec


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {name} {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_01_operator_identities():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        spec = sampling.random_toeplitz_spec(rng, p=int(rng.integers(1, 4)), n=int(rng.integers(1, 9)))
        node = toeplitz.build_toeplitz_node(spec)
        worst = max(worst, snode.identity_residual(node) / np.linalg.norm(node.S))
    for _ in range(50):
        spec = sampling.random_hankel_spec(rng, p=int(rng.integers(1, 3)), n=int(rng.integers(1, 6)))
        node = hankel.build_hankel_node(spec)
        worst = max(worst, snode.identity_residual(node) / np.linalg.norm(node.S))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "node identities on 100 random specs",
        worst <= 1e-12 and elapsed < 5.0,
        f"(worst rel residual {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_02_factorization():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(6):
        spec = sampling.random_toeplitz_spec(rng, p=int(rng.integers(1, 4)), n=int(rng.integers(1, 9)))
        node = toeplitz.build_toeplitz_node(spec)
        chain = snode.node_chain(node)
        for _ in range(20):
            lam = complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.5))
            prod = np.eye(2 * spec.p, dtype=complex)
            for w in snode.chain_factors(chain, lam):
                prod = w @ prod
            direct = snode.transfer_matrix(node, lam)
            worst = max(worst, np.linalg.norm(prod - direct) / (1 + np.linalg.norm(direct)))
    for _ in range(6):
        spec = sampling.random_hankel_spec(rng, p=int(rng.integers(1, 3)), n=int(rng.integers(1, 6)))
        node = hankel.build_hankel_node(spec)
        chain = snode.node_chain(node)
        for _ in range(20):
            lam = complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.5) * rng.choice([-1, 1]))
            prod = np.eye(2 * spec.p, dtype=complex)
            for w in snode.chain_factors(chain, lam):
                prod = w @ prod
            direct = snode.transfer_matrix(node, lam)
            worst = max(worst, np.linalg.norm(prod - direct) / (1 + np.linalg.norm(direct)))
    _report(2, "elementary factor products", worst <= 1e-9, f"(worst rel error {worst:.2e})")


def test_criterion_03_coefficient_bijections():
    rng = np.random.default_rng(3)
    worst_frame = 0.0
    worst_cjc = 0.0
    worst_norm = 0.0
    for _ in range(10):
        spec = sampling.random_toeplitz_spec(rng, p=int(rng.integers(1, 3)), n=int(rng.integers(2, 7)))
        _, rhos = toeplitz.dirac_chain(snode.node_chain(toeplitz.build_toeplitz_node(spec)))
        j = matcore.signature_j(spec.p)
        rebuilt = toeplitz.halmos(rhos)
        for C in rebuilt:
            worst_cjc = max(worst_cjc, np.max(np.abs(C @ j @ C - j)))
        worst_norm = max(worst_norm, max(matcore.spectral_norm(r) for r in rhos))
        frm = toeplitz.dirac_frame(rebuilt)
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.8))
            via_rho = frm(z)
            via_spec = frame_from_spec(spec, z)
            worst_frame = max(
                worst_frame,
                np.max(np.abs(via_rho - via_spec)) / (1 + np.max(np.abs(via_spec))),
            )
    worst_omega = 0.0
    for _ in range(10):
        spec = sampling.random_hankel_spec(rng, p=int(rng.integers(1, 3)), n=int(rng.integers(2, 6)))
        chain = snode.node_chain(hankel.build_hankel_node(spec))
        J = matcore.exchange_J(spec.p)
        for k, w in enumerate(chain.rows):
            worst_omega = max(worst_omega, np.max(np.abs(w @ J @ w.conj().T)))
            if k > 0:
                gap = 1j * chain.rows[k] @ J @ chain.rows[k - 1].conj().T - chain.t[k]
                worst_omega = max(worst_omega, np.max(np.abs(gap)) / (1 + np.max(np.abs(chain.t[k]))))
    ok = worst_frame <= 1e-9 and worst_cjc <= 1e-9 and worst_norm < 1 and worst_omega <= 1e-9
    _report(
        3,
        "coefficient bijections and frame rebuild",
        ok,
        f"(frame {worst_frame:.2e}, CjC {worst_cjc:.2e}, omega {worst_omega:.2e})",
    )


def test_criterion_04_composition_identity():
    rng = np.random.default_rng(4)
    pair1 = snode.ParamPair.constant(np.eye(1, dtype=complex), np.eye(1, dtype=complex))
    pair2 = snode.ParamPair.constant(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    worst = 0.0
    zgrid = sampling.random_upper_points(rng, 30)
    for length in range(1, 9):
        rhos = np.stack([sampling.random_contraction(rng, 1) for _ in range(length)])[None]
        for split in range(length + 1):
            worst = max(worst, toeplitz.khrushchev_check(rhos, [split], pair1, zgrid))
    rhos2 = np.stack([sampling.random_contraction(rng, 2) for _ in range(6)])[None]
    for split in range(7):
        worst = max(worst, toeplitz.khrushchev_check(rhos2, [split], pair2, zgrid))
    _report(4, "head/tail composition identity", worst <= 1e-8, f"(worst residual {worst:.2e})")


def test_criterion_05_moment_interpolation():
    rng = np.random.default_rng(5)
    spec = hankel.HankelSpec(p=1, n=2, H=(np.array([[1.0]]), np.array([[0.0]]), np.array([[2.0]])))
    worst_err = 0.0
    worst_slack = -np.inf
    for _ in range(10):
        pair = sampling.random_constant_pair(rng, 1)
        report = hankel.recover_moments(spec, pair)
        worst_err = max(worst_err, report.max_error())
        worst_slack = max(worst_slack, report.tail_slack())
    ok = worst_err <= 1e-5 and worst_slack <= 1e-6
    _report(
        5,
        "moment recovery and top-order bound",
        ok,
        f"(worst rel err {worst_err:.2e}, worst tail slack {worst_slack:.2e})",
    )


def test_criterion_06_matrix_ball():
    rng = np.random.default_rng(6)
    spec = hankel.HankelSpec(p=1, n=1, H=(np.array([[1.0]]),))
    node = hankel.build_hankel_node(spec)
    ball = snode.matrix_ball(node, 1j)
    hand_ok = (
        abs(ball.center[0, 0] - 0.5j) <= 1e-12
        and abs(ball.left_radius[0, 0] - 2**-0.5) <= 1e-12
        and abs(ball.right_radius[0, 0] - 2**-0.5) <= 1e-12
    )
    schur = ball.aleph[1:, 1:] - ball.aleph[1:, :1] @ np.linalg.solve(ball.aleph[:1, :1], ball.aleph[:1, 1:])
    schur_res = np.max(np.abs(schur - matcore.inv_hpd(ball.rho_value)))
    frm = snode.node_frame(node)
    worst_u = 0.0
    for _ in range(100):
        pair = sampling.random_constant_pair(rng, 1)
        value = snode.lft(frm, pair, 1j)
        _, norm_u = snode.ball_membership(ball, value)
        worst_u = max(worst_u, norm_u)
    ok = hand_ok and worst_u <= 1 + 1e-8 and schur_res <= 1e-9
    _report(
        6,
        "matrix ball geometry and membership",
        ok,
        f"(max ||u|| {worst_u:.10f}, schur {schur_res:.2e})",
    )


def test_criterion_07_monotonicity_and_factorization():
    rng = np.random.default_rng(7)
    hankel_top, _ = asymptotics.hankel_family_from_density(densities.uniform_density(), 6)
    toeplitz_top = toeplitz.build_toeplitz_node(sampling.random_toeplitz_spec(rng, p=2, n=6))
    zs = [complex(x, y) for x in (-1.3, -0.4, 0.3, 1.1, 2.2) for y in (0.7, 1.6)]
    worst_margin = np.inf
    worst_fact = 0.0
    for top in (hankel_top, toeplitz_top):
        for z in zs:
            traj = asymptotics.convergence_run(top, z)
            worst_margin = min(worst_margin, traj.monotone_margin())
        for _ in range(6):
            ik = int(rng.integers(0, 5))
            ir = int(rng.integers(ik + 1, 7 - 1))
            z = zs[int(rng.integers(0, len(zs)))]
            quotient = asymptotics.frame_quotient(asymptotics.leading_node(top, ir + 1), ik + 1, z)
            worst_fact = max(worst_fact, quotient.product_residual)
    ok = worst_margin >= -1e-9 and worst_fact <= 1e-9
    _report(
        7,
        "nested growth and frame factorization",
        ok,
        f"(min margin {worst_margin:.2e}, factorization {worst_fact:.2e})",
    )


def test_criterion_08_entropy_equality_two_routes():
    spec = hankel.HankelSpec(p=1, n=1, H=(np.array([[1.0]]),))
    frm = snode.node_frame(hankel.build_hankel_node(spec))
    ext = snode.extremal_pair(frm, 1j)
    [G] = asymptotics.outer_factor(frm, [ext], 1j)
    closed = 2 * np.pi * abs(G[0, 0]) ** 2
    [bound] = asymptotics.entropy_bound_check(frm, [ext], 1j)
    quadr = 2 * np.pi * bound.modulus**2
    rhs = bound.rhs[0, 0].real
    ok = (
        abs(closed - 0.5) <= 1e-6
        and abs(quadr - 0.5) <= 1e-6
        and abs(rhs - 0.5) <= 1e-12
        and abs(abs(G[0, 0]) - 1 / (2 * np.sqrt(np.pi))) <= 1e-6
    )
    _report(
        8,
        "entropy equality by two routes",
        ok,
        f"(closed {closed:.8f}, quadrature {quadr:.8f}, rhs {rhs:.8f})",
    )


def test_criterion_09_entropy_inequality():
    rng = np.random.default_rng(9)
    spec = hankel.HankelSpec(p=1, n=1, H=(np.array([[1.0]]),))
    node_frm = snode.node_frame(hankel.build_hankel_node(spec))
    worst = -np.inf
    for _ in range(10):
        pair = sampling.random_constant_pair(rng, 1)
        worst = max(worst, -asymptotics.entropy_bound_check(node_frm, [pair], 1j)[0].slack)
    witness = snode.ParamPair.constant(np.array([[1.0]]), np.array([[4.0]]))
    witness_slack = asymptotics.entropy_bound_check(node_frm, [witness], 1j)[0].slack

    tspec = sampling.random_toeplitz_spec(rng, p=1, n=2)
    frm = toeplitz.dirac_frame(toeplitz.dirac_chain(snode.node_chain(toeplitz.build_toeplitz_node(tspec)))[0])
    lam = 0.4 + 1.3j
    for _ in range(10):
        pair = sampling.random_constant_pair(rng, 1)
        worst = max(worst, -asymptotics.entropy_bound_check(frm, [pair], lam)[0].slack)
    ok = worst <= 1e-6 and witness_slack >= 1e-3
    _report(
        9,
        "entropy bound with strict witness",
        ok,
        f"(worst violation {worst:.2e}, witness slack {witness_slack:.3f})",
    )


def test_criterion_10_asymptotic_trend():
    start = time.perf_counter()
    es = densities.exp_sqrt_density()
    node, _ = asymptotics.hankel_family_from_density(es, 4)
    report = asymptotics.convergence_run(node, 1j, reference=es)
    elapsed = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(report.det_rho_inv, report.det_rho_inv[1:]))
    gaps = report.gaps
    gap_ok = all(g is not None and g > 0 for g in gaps) and all(
        b < a for a, b in zip(gaps, gaps[1:])
    )
    conds_reported = len(report.conds) == 4 and all(c >= 1 for c in report.conds)
    ok = decreasing and gap_ok and conds_reported and report.szego_finite and elapsed < 10.0
    detail = (
        f"(rho_inv {[f'{d:.6f}' for d in report.det_rho_inv]}, target {report.target:.6f}, "
        f"conds {[f'{c:.1e}' for c in report.conds]}, {elapsed:.2f}s)"
    )
    _report(10, "trajectory decreases toward the outer target", ok, detail)


def test_criterion_11_appendix_lemmas():
    rng = np.random.default_rng(11)
    mink_failures = 0
    det_failures = 0
    for _ in range(1000):
        p = int(rng.integers(1, 5))
        if asymptotics.minkowski_det_margin(sampling.random_hpd(rng, p), sampling.random_hpd(rng, p)) < -1e-10:
            mink_failures += 1
        A = sampling.random_hpd(rng, p)
        v = sampling.random_complex(rng, (p, 1))
        if not asymptotics.det_strict_lemma(A, v @ v.conj().T):
            det_failures += 1

    def oscillating(k):
        def fn(t):
            return (1.0 + np.sin(k * t) / 2.0)[:, None, None].astype(complex)

        def log_det(t):
            return np.log(1.0 + np.sin(k * t) / 2.0)

        return densities.DensityFn("osc", fn, support=(-5.0, 5.0), log_det=log_det)

    demo = asymptotics.limit_inequality_demo(oscillating)
    oracle = np.log((1 + np.sqrt(0.75)) / 2) * 2 * np.arctan(5.0)
    demo_ok = demo.limsup_estimate <= demo.rhs + 1e-3 and abs(demo.extrapolated - oracle) <= 1e-3
    ok = mink_failures == 0 and det_failures == 0 and demo_ok
    _report(
        11,
        "determinant lemmas and limit demo",
        ok,
        f"(minkowski fails {mink_failures}, strict-det fails {det_failures}, "
        f"oracle gap {abs(demo.extrapolated - oracle):.2e})",
    )
