"""Command-line driver: loads specs/scenarios, runs verification suites and
asymptotic experiments, writes JSON reports and plot-ready CSV.

Commands: verify-toeplitz, verify-hankel, khrushchev, ball, entropy,
asymptotics, demo-appendixB.  Every check row in a report carries the tag
it verifies, the measured value, its tolerance, and pass/fail; the process
exits 0 only when every check passes, 1 on a failed check, 2 on bad input.
All randomness comes from one seeded 64-bit generator (PCG64) recorded in
the report, so identical scenario + seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import asymptotics, densities, hankel, matcore, sampling, serialization, snode, toeplitz
from .errors import EvaluationFailure, SnodeLabError


@dataclass
class Scenario:
    command: str
    spec_path: str | None = None
    out_dir: str = "."
    seed: int = 0
    grid: int = 30
    fmt: str = "json"
    params: dict = field(default_factory=dict)


def bundled_spec_path(name: str) -> Path:
    return Path(str(resources.files("snode_lab").joinpath("data", name)))


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _check(name: str, tag: str, value: float, tol: float, passed: bool | None = None) -> dict:
    value = float(value)
    ok = bool(value <= tol) if passed is None else bool(passed)
    return {"name": name, "tag": tag, "value": value, "tol": float(tol), "passed": ok}


def _load_json(path: str | Path, what: str) -> dict:
    """JSON content of the file ``path``; ``what`` names it in the error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadInput(f"{what} {path} cannot be read: {exc}") from exc


class BadInput(Exception):
    pass


def _write_text(command: str, path: Path, text: str) -> None:
    """Write an output file as a new file, replacing any earlier one and
    creating its directory; a path that cannot be written is bad input."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # a fresh inode: truncating a file that still has unwritten data makes
        # ext4 (auto_da_alloc) start its writeback at close, and so does rename-over
        path.unlink(missing_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise BadInput(f"{command}: cannot write {path}: {exc}") from exc


def _load_spec(command: str, path, cls):
    data = _load_json(path, f"{command}: spec")
    try:
        return cls.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput(f"{command}: spec {path} is malformed: {exc!r}") from exc


def _param_complex(sc: Scenario, key: str, default) -> complex:
    """Scenario parameter ``key``: a point of the open upper half-plane, given
    as a finite number or a [re, im] pair of them (JSON strings and booleans
    are not numbers)."""
    value = sc.params.get(key, default)
    parts = value if isinstance(value, (list, tuple)) else [value, 0.0]
    if len(parts) != 2 or any(type(part) not in (int, float) for part in parts):
        raise BadInput(f"{sc.command}: {key} must be a number or a [re, im] pair, got {value!r}")
    try:
        out = complex(float(parts[0]), float(parts[1]))
    except OverflowError:  # an integer beyond the float range
        out = complex(np.inf)
    if not np.isfinite(out):
        raise BadInput(f"{sc.command}: {key} must be finite, got {value!r}")
    if out.imag <= 0.0:
        raise BadInput(f"{sc.command}: {key} must lie in the open upper half-plane, got {value!r}")
    return out


# integer parameters that count something, so must be at least 1
_COUNTS = frozenset({"p", "length", "count", "pairs", "sweep", "max_order"})


def _as_int(command: str, key: str, value) -> int:
    """A scenario field that must be an integer: an int, or a float with an
    integral value such as 2.0; anything else raises :class:`BadInput`."""
    try:
        return serialization.int_from_json(value)
    except TypeError:
        raise BadInput(f"{command}: {key} must be an integer, got {value!r}") from None


def _param_int(sc: Scenario, key: str, default: int) -> int:
    """Scenario parameter ``key`` as an integer; at least 1 for a count."""
    value = sc.params.get(key, default)
    out = _as_int(sc.command, key, value)
    if key in _COUNTS and out < 1:
        raise BadInput(f"{sc.command}: {key} must be at least 1, got {value!r}")
    return out


def _factor_product_gap(factors: list, direct: np.ndarray) -> float:
    """Worst relative gap, over the points, between the product w_n ... w_1
    of a chain's elementary factors (stacks over the points) and the node's
    transfer matrices ``direct`` at the same points."""
    prod = np.eye(direct.shape[-1], dtype=complex)
    for w in factors:
        prod = w @ prod
    return float(np.max(matcore.frobenius(prod - direct) / (1.0 + matcore.frobenius(direct))))


def _draw_points(rng: np.random.Generator, count: int, re: tuple, im: tuple) -> np.ndarray:
    """``count`` points from one draw: bitwise ``complex(rng.uniform(*re),
    rng.uniform(*im))`` drawn one at a time, leaving ``rng`` in the same state."""
    return rng.uniform((re[0], im[0]), (re[1], im[1]), size=(count, 2)).view(complex)[:, 0]


# ---------------------------------------------------------------------------
# command handlers; each returns a list of check rows plus extra report data
#
# The verify handlers make one transfer-matrix call for every check's points, after
# the factors: PoleAtLambda wins at the pole; SingularResolvent means an overflow near it.


def _run_verify_toeplitz(sc: Scenario, rng: np.random.Generator):
    spec_path = sc.spec_path or bundled_spec_path("toeplitz_n1.json")
    spec = _load_spec(sc.command, spec_path, toeplitz.ToeplitzSpec)
    node = toeplitz.build_toeplitz_node(spec)
    p, n = spec.p, spec.n
    checks = []
    extra = {"spec": spec.to_json()}

    res = snode.identity_residual(node)
    checks.append(_check("node identity residual", "c1", res, 1e-12 * (1.0 + matcore.frobenius(node.S))))

    chain = snode.node_chain(node)
    C, rho = toeplitz.dirac_chain(chain)
    j = matcore.signature_j(p)
    cjc = np.max(matcore.frobenius(C @ j @ C - j))
    checks.append(_check("coefficient j-unitarity", "c11", cjc, 1e-9))
    cpos = np.min(matcore.min_eig_hermitian(C))
    checks.append(_check("coefficient positivity", "c11", -cpos, 0.0, passed=cpos > 0))
    rho_norm = np.max(matcore.spectral_norm(rho))
    checks.append(_check("contraction norms", "c20", rho_norm, 1.0 - 1e-12, passed=rho_norm < 1.0))
    tmin = np.min(matcore.min_eig_hermitian(chain.t))
    checks.append(_check("step matrices positive", "c8", -tmin, 0.0, passed=tmin > 0))
    extra["rho"] = serialization.matrix_to_json(rho)

    lams = _draw_points(rng, 20, (-3, 3), (0.4, 3.0))
    zs = _draw_points(rng, 5, (-1.5, 1.5), (0.3, 1.5))
    split = n // 2
    frame_zs = _draw_points(rng, min(sc.grid, 20), (-2, 2), (0.3, 2.0))

    factors = snode.chain_factors(chain, lams)
    transfer = snode.transfer_matrix(node, np.concatenate((lams, 1.0 / (2.0 * zs))))
    gap = _factor_product_gap(factors, transfer[: lams.size])
    checks.append(_check("factor product vs transfer matrix", "c5", gap, 1e-9))

    # one pass over the coefficients: W_n at zs for c9; W_split, W_n and the
    # tail's W at -conj(z)/2 for the frames of c30
    ws = np.concatenate((zs, -np.conj(frame_zs) / 2.0))
    [heads], [tails] = toeplitz.dirac_sweep(C[None], ws, [0, split])
    K = toeplitz.unitary_K(p)
    via = ((1.0 - 1j * zs) ** n)[:, None, None] * K.conj().T @ transfer[lams.size :] @ K
    W = tails[0, : zs.size]
    worst = np.max(matcore.frobenius(W - via) / (1.0 + matcore.frobenius(via)))
    checks.append(_check("recursion vs transfer matrix", "c9", worst, 1e-9))

    at_frames = np.stack((tails[0], heads[1], tails[1]))[:, zs.size :]
    full, head, tail = toeplitz.frames_of(at_frames, frame_zs, np.array([n, split, n - split]))
    checks.append(_check("frame composition", "c30", np.max(matcore.frobenius(full - head @ tail)), 1e-10))
    return checks, extra


def _run_verify_hankel(sc: Scenario, rng: np.random.Generator):
    spec_path = sc.spec_path or bundled_spec_path("hankel_n1.json")
    spec = _load_spec(sc.command, spec_path, hankel.HankelSpec)
    node = hankel.build_hankel_node(spec)
    checks = []
    extra = {"spec": spec.to_json()}

    res = snode.identity_residual(node)
    checks.append(_check("node identity residual", "H2", res, 1e-12 * (1.0 + matcore.frobenius(node.S))))

    chain = snode.node_chain(node)
    J = matcore.exchange_J(spec.p)
    omega = chain.rows
    omega_h = omega.conj().swapaxes(1, 2)
    self_null = np.max(matcore.frobenius(omega @ J @ omega_h))
    checks.append(_check("omega self-annihilation", "H17", self_null, 1e-10))
    steps = matcore.frobenius(1j * omega[1:] @ J @ omega_h[:-1] - chain.t[1:])
    checks.append(_check("omega step products", "H17", np.max(steps, initial=0.0), 1e-9))
    w0 = matcore.frobenius(
        chain.rows[0] - np.hstack([np.zeros((spec.p, spec.p)), chain.t[0]])
    )
    checks.append(_check("omega start", "H17", w0, 1e-10))

    lams = np.array(
        [complex(rng.uniform(-3, 3), rng.uniform(0.4, 3.0) * rng.choice([-1.0, 1.0])) for _ in range(20)]
    )
    zs = np.array([complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0)) for _ in range(5)])
    factors = snode.chain_factors(chain, lams)
    # H7 compares two routes to the frame: transfer_matrix's own substitutions
    # for S^{-1} Pi on the Cholesky factor, then its resolvent, against
    # snode.frame's Horner on the node's cached S^{-1} Pi (HermPD.solve's)
    transfer = snode.transfer_matrix(node, np.concatenate((lams, 1.0 / np.conj(zs))))
    gap = _factor_product_gap(factors, transfer[: lams.size])
    checks.append(_check("factor product vs transfer matrix", "H13-", gap, 1e-9))

    via = np.swapaxes(transfer[lams.size :], 1, 2).conj()
    worst = np.max(matcore.frobenius(via - snode.frame(node, zs)))
    checks.append(_check("frame convention", "H7", worst, 1e-12))
    return checks, extra


def _run_khrushchev(sc: Scenario, rng: np.random.Generator):
    p = _param_int(sc, "p", 1)
    length = _param_int(sc, "length", 6)
    count = _param_int(sc, "count", 3)
    checks = []
    pair = snode.ParamPair.constant(np.eye(p, dtype=complex), np.eye(p, dtype=complex))
    zgrid = sampling.random_upper_points(rng, sc.grid)
    rhos = sampling.random_contractions(rng, p, count * length).reshape(count, length, p, p)
    worst = toeplitz.khrushchev_check(rhos, range(length + 1), pair, zgrid)
    checks.append(_check("head/tail composition residual", "c26", worst, 1e-8))
    return checks, {"length": length, "count": count, "p": p}


def _run_ball(sc: Scenario, rng: np.random.Generator):
    spec_path = sc.spec_path or bundled_spec_path("hankel_n1.json")
    spec = _load_spec(sc.command, spec_path, hankel.HankelSpec)
    node = hankel.build_hankel_node(spec)
    z = _param_complex(sc, "z", [0.0, 1.0])
    ball = snode.matrix_ball(node, z)
    # B5 and B7 sum squares of aleph's entries: refuse the ball before they overflow
    peak = float(np.abs(ball.aleph).max())
    if peak >= 2.0**511:
        raise EvaluationFailure(
            f"the ball at z = {ball.z} cannot be checked: the squares of aleph's entries would overflow "
            f"(largest entry {peak:.3e})"
        )
    p = node.p
    # the membership first: its guard names a degenerate ball before the
    # B5 and B7 norms of its entries overflow
    R, Q = sampling.random_constant_pairs(rng, p, sc.grid)
    F = np.broadcast_to(snode.frame(node, z), (sc.grid, 2 * p, 2 * p))
    values = snode.lft_stack(F, R, Q, np.full(sc.grid, complex(z)))
    us, norms = snode.ball_membership(ball, values)
    round_trip = matcore.frobenius(snode.ball_value(ball, us) - values)
    checks = []

    a11 = ball.aleph[:p, :p]
    checks.append(
        _check("corner block equals reversed rho", "B5", matcore.frobenius(a11 - ball.rho_reversed), 1e-10)
    )
    a12 = ball.aleph[:p, p:]
    a21 = ball.aleph[p:, :p]
    a22 = ball.aleph[p:, p:]
    schur = a22 - a21 @ np.linalg.solve(a11, a12)
    checks.append(
        _check(
            "schur complement equals rho inverse",
            "B7",
            matcore.frobenius(schur - ball.rho_inverse),
            1e-9,
        )
    )
    checks.append(_check("membership contraction norms", "B9", np.max(norms), 1.0 + 1e-8))
    checks.append(_check("membership round trip", "B0", np.max(round_trip), 1e-10))
    return checks, {"ball": ball.to_json()}


def _run_entropy(sc: Scenario, rng: np.random.Generator):
    spec_path = sc.spec_path or bundled_spec_path("hankel_n1.json")
    spec = _load_spec(sc.command, spec_path, hankel.HankelSpec)
    node = hankel.build_hankel_node(spec)
    frm = snode.node_frame(node)
    lam = _param_complex(sc, "lambda", [0.0, 1.0])
    draws = _param_int(sc, "pairs", 10)
    checks = []

    # every pair in one call, so the Poisson normalization runs once; the
    # witness's Weyl value at lam is the ball point of contraction I/2
    ball = snode.matrix_ball(node, lam)
    witness = _pair_with_value(frm, lam, snode.ball_value(ball, 0.5 * np.eye(node.p)))
    pairs = [snode.extremal_pair(frm, lam), witness]
    pairs += snode.ParamPair.from_stacks(*sampling.random_constant_pairs(rng, node.p, draws))
    bounds = asymptotics.entropy_bound_check(frm, pairs, lam)
    slacks = bounds.slacks
    checks.append(_check("equality at the extremal pair", "B31", abs(slacks[0]), 1e-6))

    # the normalization the bound check accepted
    checks.append(_check("poisson normalization", "As33", abs(bounds.normalization - np.pi), 1e-9))

    share = bounds.relative_slack(1)
    checks.append(_check("strict slack at the witness pair", "B13!", share, 1e-3, passed=share > 1e-3))
    checks.append(_check("entropy bound over random pairs", "B13!", np.max(-slacks[2:]), 1e-6))
    gap = np.max(bounds.modulus_gaps)
    checks.append(_check("outer factor against its quadrature", "B31q", gap, 1e-9))
    return checks, {"lambda": serialization.complex_to_json(lam)}


def _pair_with_value(frm: snode.Frame, z: complex, value) -> snode.ParamPair:
    """The constant pair whose Weyl function takes ``value`` at z:
    [R; Q] = Frm(z)^{-1} [-i value; I], checked by :func:`snode.validate_pair`.
    Raises :class:`EvaluationFailure` when the pair's gram R*R + Q*Q
    overflows, as it does for z next to the real axis, where the ball's
    radii, and with them ``value``, grow like 1 / Im z."""
    p = frm.p
    RQ = np.linalg.solve(frm.at(z), np.vstack([-1j * value, np.eye(p)]))
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(RQ.conj().T @ RQ).all()
    if not finite:
        raise EvaluationFailure(
            f"witness pair at lambda = {z}: the solve for its constant pair overflows "
            f"(largest entry {np.max(np.abs(RQ)):.3e}, Weyl value {np.max(np.abs(value)):.3e})"
        )
    pair = snode.ParamPair.constant(RQ[:p], RQ[p:])
    snode.validate_pair(pair)
    return pair


def _run_asymptotics(sc: Scenario, rng: np.random.Generator):
    family = sc.params.get("family", "hankel")
    lam = _param_complex(sc, "lambda", [0.0, 1.0])
    max_order = _param_int(sc, "max_order", 4)
    checks = []
    if family == "hankel":
        dens_cfg = sc.params.get("density", {"name": "exp_sqrt"})
        if isinstance(dens_cfg, str):
            dens_cfg = {"name": dens_cfg}
        if not isinstance(dens_cfg, dict):
            raise BadInput(
                f"{sc.command}: density must be a name or a {{name, params}} object, got {dens_cfg!r}"
            )
        density = densities.density_by_name(dens_cfg.get("name"), dens_cfg.get("params"))
        node, spec = asymptotics.hankel_family_from_density(density, max_order)
        reference = density
    elif family == "toeplitz":
        if sc.spec_path is None:
            raise BadInput(f"{sc.command}: spec must be given for family 'toeplitz', got None")
        spec = _load_spec(sc.command, sc.spec_path, toeplitz.ToeplitzSpec)
        node = toeplitz.build_toeplitz_node(spec.leading(min(max_order, spec.n)))
        reference = None
    else:
        raise BadInput(f"{sc.command}: family must be 'hankel' or 'toeplitz', got {family!r}")

    report = asymptotics.convergence_run(node, lam, reference=reference)
    if len(report.orders) > 1:
        checks.append(_check("monotone growth margin", "R2", -report.monotone_margin(), 1e-9))
    else:
        # nothing to measure: the value is null (the margin over no pair is
        # +inf, which JSON cannot carry) and the reason says why
        reason = "one order: no pair of orders to compare"
        row = {"name": "monotone growth margin", "tag": "R2", "value": None, "tol": 1e-9}
        checks.append({**row, "passed": True, "reason": reason})
    checks.append(
        _check("inverse determinants positive", "As8+", 0.0, 1.0, passed=report.det_positive())
    )
    if report.target is not None:
        checks.append(
            _check(
                "gap to the outer-factor target shrinks",
                "As9",
                0.0,
                1.0,
                passed=report.gap_strictly_decreasing(),
            )
        )
    rows = [
        {
            "k": int(k),
            "rho_inv": serialization.matrix_to_json(rho_inv),
            "det_rho_inv": float(det),
            "target": report.target,
            "gap": None if report.target is None else float(det - report.target),
            "cond": float(cond),
        }
        for k, rho_inv, det, cond in zip(report.orders, report.rho_inv, report.det_rho_inv, report.conds)
    ]
    extra = {
        "lambda": serialization.complex_to_json(lam),
        "orders": list(report.orders),
        "target": report.target,
        "szego_finite": report.szego_finite,
        "trajectory": rows,
    }
    return checks, extra


def export_csv(rows: list[dict], path: Path, p: int) -> None:
    """Trajectory CSV: k, Re/Im of every rho^{-1} entry, det, target, gap, cond.

    Numbers carry 17 significant digits; identical rows always format to
    identical bytes.
    """
    entries = [f"{i + 1}{jj + 1}" for i in range(p) for jj in range(p)]
    header = ["k", *(f"rho_inv_{part}_{ij}" for ij in entries for part in ("re", "im"))]
    header += ["det_rho_inv", "target", "gap", "cond"]
    lines = [",".join(header)]
    for row in rows:
        # rho_inv: p rows of p [re, im] pairs
        cells = [str(int(row["k"]))] + [_fmt17(x) for cols in row["rho_inv"] for pair in cols for x in pair]
        cells.append(_fmt17(row["det_rho_inv"]))
        cells += ["" if row[key] is None else _fmt17(row[key]) for key in ("target", "gap")]
        cells.append(_fmt17(row["cond"]))
        lines.append(",".join(cells))
    _write_text("asymptotics", path, "\n".join(lines) + "\n")


def _run_demo_appendix_b(sc: Scenario, rng: np.random.Generator):
    checks = []

    def oscillating(k: int) -> densities.DensityFn:
        def fn(t):
            return (1.0 + np.sin(k * t) / 2.0)[:, None, None].astype(complex)

        def log_det(t):
            return np.log(1.0 + np.sin(k * t) / 2.0)

        return densities.DensityFn("oscillating", fn, support=(-5.0, 5.0), log_det=log_det)

    report = asymptotics.limit_inequality_demo(oscillating)
    checks.append(
        _check(
            "limit inequality holds",
            "Ap3",
            report.limsup_estimate - report.rhs,
            1e-3,
        )
    )
    # period-average oracle: mean of ln(1 + sin/2) equals ln((1 + sqrt(3/4))/2)
    c0 = float(np.log((1.0 + np.sqrt(0.75)) / 2.0))
    oracle = c0 * 2.0 * np.arctan(5.0)
    checks.append(
        _check(
            "oscillation limit matches the period average",
            "Ap3",
            abs((report.extrapolated or np.nan) - oracle),
            1e-3,
        )
    )

    # draw sample by sample (p, B1, B2, A, B), then check each block size's samples as stacks
    samples = {p: [] for p in (1, 2, 3)}
    for _ in range(_param_int(sc, "sweep", 1000)):
        p = int(rng.integers(1, 4))
        B1 = sampling.random_hpd(rng, p)
        B2 = sampling.random_hpd(rng, p)
        A = sampling.random_hpd(rng, p)
        B = sampling.random_complex(rng, (p, 1))
        samples[p].append((B1, B2, A, B @ B.conj().T))
    mink_fail = 0
    det_fail = 0
    for group in filter(None, samples.values()):
        B1, B2, A, BB = (np.stack(M) for M in zip(*group))
        mink_fail += int(np.count_nonzero(asymptotics.minkowski_det_margin(B1, B2) < -1e-10))
        det_fail += int(np.count_nonzero(~asymptotics.det_strict_lemma(A, BB)))
    checks.append(_check("determinant superadditivity failures", "Ap21", mink_fail, 0.0, passed=mink_fail == 0))
    checks.append(_check("strict determinant growth failures", "LaDet", det_fail, 0.0, passed=det_fail == 0))
    extra = {
        "integrals": list(report.integrals),
        "limsup": report.limsup_estimate,
        "extrapolated": report.extrapolated,
        "rhs": report.rhs,
        "oracle": oracle,
    }
    return checks, extra


_HANDLERS = {
    "verify-toeplitz": _run_verify_toeplitz,
    "verify-hankel": _run_verify_hankel,
    "khrushchev": _run_khrushchev,
    "ball": _run_ball,
    "entropy": _run_entropy,
    "asymptotics": _run_asymptotics,
    "demo-appendixB": _run_demo_appendix_b,
}

# the scenario keys every command accepts, and those each command reads on top
_TOP_KEYS = frozenset({"command", "spec", "seed", "grid", "out", "format"})
_PARAM_KEYS = {
    "verify-toeplitz": (),
    "verify-hankel": (),
    "khrushchev": ("p", "length", "count"),
    "ball": ("z",),
    "entropy": ("lambda", "pairs"),
    "asymptotics": ("family", "density", "lambda", "max_order"),
    "demo-appendixB": ("sweep",),
}


def run_scenario(sc: Scenario) -> tuple[int, Path]:
    """Execute a scenario; returns (exit code, report path)."""
    if sc.command not in _HANDLERS:
        known = ", ".join(sorted(_HANDLERS))
        raise BadInput(f"{sc.command}: command must be one of {known}, got {sc.command!r}")
    # an input that the command would not read is refused, not ignored
    family = sc.params.get("family", "hankel") if sc.command == "asymptotics" else None
    if sc.spec_path is not None and (sc.command in ("khrushchev", "demo-appendixB") or family == "hankel"):
        reader = sc.command if family is None else "family 'hankel'"
        raise BadInput(f"{sc.command}: spec is not read by {reader}, got {sc.spec_path!r}")
    if family == "toeplitz" and "density" in sc.params:
        raise BadInput(f"{sc.command}: density is not read by family 'toeplitz', got {sc.params['density']!r}")
    if sc.fmt == "csv" and sc.command != "asymptotics":
        raise BadInput(f"{sc.command}: format 'csv' is not read by {sc.command}, only by asymptotics")
    if sc.spec_path is not None and not Path(sc.spec_path).exists():
        raise BadInput(f"{sc.command}: spec must name an existing file, got {sc.spec_path!r}")
    for key, value, least in (("grid", sc.grid, 1), ("seed", sc.seed, 0)):
        if value < least:
            raise BadInput(f"{sc.command}: {key} must be at least {least}, got {value!r}")
    out_dir = Path(sc.out_dir)
    rng = np.random.default_rng(sc.seed)
    try:
        tol_scale = matcore.tolerance_scale()
        checks, extra = _HANDLERS[sc.command](sc, rng)
    except SnodeLabError as exc:
        raise BadInput(f"{sc.command}: {exc}") from exc
    report = {
        "command": sc.command,
        "seed": int(sc.seed),
        "rng": "PCG64",
        "grid": int(sc.grid),
        "tolerance_scale": tol_scale,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    report.update(extra)
    report_path = out_dir / f"report_{sc.command}.json"
    _write_text(sc.command, report_path, json.dumps(report, sort_keys=True) + "\n")
    if not report["passed"]:
        failing = ", ".join(f"{c['tag']} ({c['name']})" for c in checks if not c["passed"])
        print(f"{sc.command}: failed checks: {failing}", file=sys.stderr)
    if sc.command == "asymptotics" and sc.fmt == "csv":
        p = len(report["trajectory"][0]["rho_inv"]) if report["trajectory"] else 1
        export_csv(report["trajectory"], out_dir / "trajectory.csv", p)
    if sc.command == "ball":
        _write_text(sc.command, out_dir / "ball.json", json.dumps(report["ball"], sort_keys=True) + "\n")
    return (0 if report["passed"] else 1), report_path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snode-lab",
        description="verification suites and experiments for structured-matrix nodes",
    )
    parser.add_argument("command", nargs="?", choices=sorted(_HANDLERS), help="pipeline to run")
    parser.add_argument("--spec", dest="spec", help="input spec JSON")
    parser.add_argument("--scenario", dest="scenario", help="scenario JSON")
    parser.add_argument("--out", dest="out", default=None, help="output directory (default .)")
    parser.add_argument("--seed", type=int, default=None, help="sweep seed (default 0)")
    parser.add_argument("--grid", type=int, default=None, help="grid points for sweeps (default 30)")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv")
    parser.set_defaults(fmt=None)
    return parser


def scenario_from_args(args) -> Scenario:
    """Resolve the effective scenario: flags beat the scenario file, which
    beats the built-in defaults."""
    data: dict = {}
    params: dict = {}
    if args.scenario:
        data = _load_json(args.scenario, "scenario")
        if not isinstance(data, dict):
            raise BadInput(f"scenario {args.scenario} must hold a JSON object, got {type(data).__name__}")
        params = {k: v for k, v in data.items() if k not in _TOP_KEYS}

    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        return data.get(key, fallback)

    command = args.command or data.get("command")
    if command is None:
        raise BadInput("no command given (positional argument or scenario file)")
    for key in ("spec", "out"):
        if key in data and not isinstance(data[key], str):
            raise BadInput(f"{command}: {key} must be a string, got {data[key]!r}")
    known = _PARAM_KEYS.get(command, tuple(params))  # an unknown command is named by run_scenario
    for key in params:
        if key not in known:
            fields = ", ".join(known) or "none"
            raise BadInput(f"{command}: {key} is not a scenario field of {command} (parameters: {fields})")
    if data.get("format", "json") not in ("json", "csv"):
        raise BadInput(f"{command}: format must be 'json' or 'csv', got {data['format']!r}")
    return Scenario(
        command=command,
        spec_path=pick(args.spec, "spec", None),
        out_dir=pick(args.out, "out", "."),
        seed=_as_int(command, "seed", pick(args.seed, "seed", 0)),
        grid=_as_int(command, "grid", pick(args.grid, "grid", 30)),
        fmt=pick(args.fmt, "format", "json"),
        params=params,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sc = scenario_from_args(args)
        code, report_path = run_scenario(sc)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{sc.command}: {'ok' if code == 0 else 'FAILED'} ({report_path})")
    return code


if __name__ == "__main__":
    sys.exit(main())
