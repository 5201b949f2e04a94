import dataclasses
import json
import os

import numpy as np
import pytest

from snode_lab import cli, matcore, quadrature, serialization, toeplitz
from snode_lab.errors import NonFiniteEntries, SnodeLabError


def run(args):
    return cli.main(args)


@pytest.mark.parametrize(
    "command",
    ["verify-toeplitz", "verify-hankel", "ball", "entropy"],
)
def test_commands_pass_on_bundled_specs(tmp_path, command):
    assert run([command, "--out", str(tmp_path), "--grid", "12"]) == 0
    report = json.loads((tmp_path / f"report_{command}.json").read_text())
    assert report["passed"] is True
    assert report["seed"] == 0
    assert report["rng"] == "PCG64"
    for check in report["checks"]:
        assert {"name", "tag", "value", "tol", "passed"} <= set(check)
        assert check["tag"]


def test_verify_toeplitz_reports_contractions(tmp_path):
    assert run(["verify-toeplitz", "--out", str(tmp_path), "--grid", "8"]) == 0
    report = json.loads((tmp_path / "report_verify-toeplitz.json").read_text())
    # the bundled order-1 spec has a vanishing leading contraction
    rho0 = report["rho"][0]
    assert abs(rho0[0][0][0]) <= 1e-12 and abs(rho0[0][0][1]) <= 1e-12


def test_bad_parameters_exit_2(tmp_path):
    assert run(["ball", "--out", str(tmp_path), "--grid", "0"]) == 2
    assert run(["ball", "--out", str(tmp_path), "--seed", "-3"]) == 2


def test_khrushchev_command(tmp_path):
    assert run(["khrushchev", "--out", str(tmp_path), "--grid", "10"]) == 0
    report = json.loads((tmp_path / "report_khrushchev.json").read_text())
    tags = {c["tag"] for c in report["checks"]}
    assert "c26" in tags


def test_khrushchev_builds_each_chain_once(tmp_path, monkeypatch):
    from snode_lab import toeplitz

    seen, calls = [], []
    original = toeplitz.halmos
    # halmos takes a stack: record each contraction it sees (p = 1 here)
    monkeypatch.setattr(
        toeplitz,
        "halmos",
        lambda rho: calls.append(1) or seen.extend(np.reshape(rho, (-1, 1, 1))) or original(rho),
    )
    scenario = {"command": "khrushchev", "length": 4, "count": 2, "out": str(tmp_path)}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run(["--scenario", str(path), "--grid", "6"]) == 0
    # one Halmos extension per contraction, not one per contraction and
    # split, all in one call for every chain
    assert len(seen) == 4 * 2
    assert len(calls) == 1


def test_asymptotics_scenario_with_csv(tmp_path):
    scenario = {
        "command": "asymptotics",
        "family": "hankel",
        "density": {"name": "exp_sqrt"},
        "lambda": [0.0, 1.0],
        "max_order": 3,
        "format": "csv",
        "out": str(tmp_path),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run(["--scenario", str(path)]) == 0
    csv_text = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert csv_text[0] == "k,rho_inv_re_11,rho_inv_im_11,det_rho_inv,target,gap,cond"
    assert len(csv_text) == 4
    dets = [float(line.split(",")[3]) for line in csv_text[1:]]
    assert dets == sorted(dets, reverse=True)


def test_asymptotics_max_order_0_exits_2(tmp_path, capsys):
    scenario = {"command": "asymptotics", "family": "hankel", "max_order": 0}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "asymptotics: max_order must be at least 1, got 0" in capsys.readouterr().err


def _toeplitz_family_report(tmp_path, max_order):
    """The asymptotics report of a scalar Toeplitz spec of order 4 at
    ``max_order``."""
    spec = {
        "p": 1,
        "n": 4,
        "s": [[[[2.0, 0.0]]], [[[0.4, 0.1]]], [[[-0.1, 0.2]]], [[[0.05, 0.0]]]],
        "nu": [[[0.0, 0.0]]],
    }
    out = tmp_path / f"max_order_{max_order}"
    out.mkdir()
    spec_path = out / "tspec.json"
    spec_path.write_text(json.dumps(spec))
    scenario = {
        "command": "asymptotics",
        "family": "toeplitz",
        "spec": str(spec_path),
        "lambda": [0.3, 1.2],
        "max_order": max_order,
        "out": str(out),
    }
    sc_path = out / "sc.json"
    sc_path.write_text(json.dumps(scenario))
    assert run(["--scenario", str(sc_path)]) == 0
    return json.loads((out / "report_asymptotics.json").read_text())


def test_asymptotics_toeplitz_family(tmp_path):
    report = _toeplitz_family_report(tmp_path, 4)
    assert report["passed"] is True
    assert report["target"] is None
    dets = [row["det_rho_inv"] for row in report["trajectory"]]
    assert dets == sorted(dets, reverse=True)


def test_asymptotics_toeplitz_family_below_the_spec_order(tmp_path):
    # max_order 2 < n = 4: the node of the leading spec of order 2, whose
    # rows are those of the full run's first two orders
    report = _toeplitz_family_report(tmp_path, 2)
    full = _toeplitz_family_report(tmp_path, 4)
    assert report["passed"] is True
    assert report["orders"] == [1, 2]
    for got, want in zip(report["trajectory"], full["trajectory"][:2], strict=True):
        got, want = (serialization.matrix_from_json(r["rho_inv"]) for r in (got, want))
        assert matcore.frobenius(got - want) <= 1e-12 * matcore.frobenius(want)


def _strict_json(path):
    """A report parsed as RFC 8259 JSON: NaN and +-Infinity are refused."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize(
    "scenario, spec",
    [
        ({"family": "toeplitz", "max_order": 3}, "toeplitz_n1.json"),
        ({"max_order": 1}, None),
    ],
    ids=["toeplitz_n1", "max_order_1"],
)
def test_asymptotics_at_one_order_reports_r2_as_null_with_a_reason(tmp_path, scenario, spec):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({"command": "asymptotics", **scenario}))
    args = ["--scenario", str(path), "--out", str(tmp_path)]
    if spec is not None:
        args += ["--spec", str(cli.bundled_spec_path(spec))]
    assert run(args) == 0
    report = _strict_json(tmp_path / "report_asymptotics.json")
    assert report["orders"] == [1]
    (row,) = [check for check in report["checks"] if check["tag"] == "R2"]
    assert row["value"] is None and row["passed"] is True
    assert row["reason"] == "one order: no pair of orders to compare"


def test_asymptotics_at_two_orders_reports_r2_as_a_number(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({"command": "asymptotics", "max_order": 2}))
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = _strict_json(tmp_path / "report_asymptotics.json")
    (row,) = [check for check in report["checks"] if check["tag"] == "R2"]
    assert set(row) == {"name", "tag", "value", "tol", "passed"}
    assert row["passed"] and row["value"] <= 1e-9


def test_asymptotics_toeplitz_family_at_order_36(tmp_path):
    # p = 2, s_{-k} = B^k: at z = 0.3 + 0.8i every diagonal entry of
    # I - conj(z) A has modulus 0.62 and the determinant is 0.62^72 = 9e-16,
    # yet every rho_n exists and is positive definite
    B = np.array([[0.3, 0.2j], [0.1, -0.25 + 0.1j]])
    s = tuple(np.linalg.matrix_power(B, k) for k in range(36))
    spec = toeplitz.ToeplitzSpec(p=2, n=36, s=s, nu=np.zeros((2, 2)))
    spec_path = tmp_path / "poisson_p2.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    scenario = {"command": "asymptotics", "family": "toeplitz", "max_order": 36, "lambda": [0.3, 0.8]}
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps(scenario))
    assert run(["--scenario", str(sc_path), "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_asymptotics.json").read_text())
    assert report["passed"] is True
    assert len(report["trajectory"]) == 36


def test_demo_appendix_b(tmp_path):
    assert run(["demo-appendixB", "--out", str(tmp_path), "--seed", "1"]) == 0
    report = json.loads((tmp_path / "report_demo-appendixB.json").read_text())
    tags = {c["tag"] for c in report["checks"]}
    assert {"Ap3", "Ap21", "LaDet"} <= tags


def test_reports_are_byte_identical(tmp_path):
    runs = (("ball",), ("verify-toeplitz",), ("verify-hankel",), ("asymptotics", "--csv"), ("entropy",))
    for command, *flags in runs:
        a, b = tmp_path / command / "a", tmp_path / command / "b"
        assert run([command, *flags, "--out", str(a), "--seed", "7", "--grid", "15"]) == 0
        assert run([command, *flags, "--out", str(b), "--seed", "7", "--grid", "15"]) == 0
        names = sorted(path.name for path in a.iterdir())
        assert f"report_{command}.json" in names and names == sorted(path.name for path in b.iterdir())
        assert all((a / name).read_bytes() == (b / name).read_bytes() for name in names)


@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_report_is_one_line_of_sorted_key_json(tmp_path, monkeypatch, command):
    rows = []
    handler = cli._HANDLERS[command]
    monkeypatch.setitem(cli._HANDLERS, command, lambda sc, rng: rows.append(handler(sc, rng)) or rows[-1])
    code = run([command, "--out", str(tmp_path), "--grid", "4"])
    (checks, extra), = rows
    old = {
        "command": command,
        "seed": 0,
        "rng": "PCG64",
        "grid": 4,
        "tolerance_scale": matcore.tolerance_scale(),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        **extra,
    }
    assert code == (0 if old["passed"] else 1)
    text = (tmp_path / f"report_{command}.json").read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True) + "\n"
    # the same object as the indented encoding the reports had before
    assert report == json.loads(json.dumps(old, indent=2, sort_keys=True))
    assert [row["value"].hex() for row in report["checks"]] == [row["value"].hex() for row in checks]
    if command == "ball":
        text = (tmp_path / "ball.json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert json.loads(text) == json.loads(json.dumps(extra["ball"], indent=2, sort_keys=True))


@pytest.mark.parametrize("name", ["report_verify-toeplitz.json", "ball.json", "trajectory.csv"])
def test_a_second_run_replaces_its_outputs(tmp_path, name):
    command = {"ball.json": "ball", "trajectory.csv": "asymptotics"}.get(name, "verify-toeplitz")
    out = tmp_path / "out"
    path = out / name
    args = [command, "--out", str(out), *(["--csv"] if command == "asymptotics" else [])]
    assert run(args) == 0
    first = path.read_bytes()
    os.link(path, tmp_path / "first")
    # another run into the same --out writes a new file: the link keeps the first run's bytes
    assert run(args + ["--seed", "1"]) == 0
    assert (tmp_path / "first").read_bytes() == first
    assert not path.samefile(tmp_path / "first")
    assert run(args) == 0
    assert path.read_bytes() == first


def test_missing_spec_exits_2(tmp_path, capsys):
    assert run(["verify-toeplitz", "--spec", "/does/not/exist.json", "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_spec_payload_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 1}')
    assert run(["verify-toeplitz", "--spec", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: verify-toeplitz: spec {bad} is malformed: KeyError('n')")


def test_no_command_exits_2(capsys):
    assert run([]) == 2


def test_failing_check_exits_1_and_names_tags(tmp_path, monkeypatch, capsys):
    def broken(sc, rng):
        return [cli._check("forced failure", "c1", 1.0, 1e-12)], {}

    monkeypatch.setitem(cli._HANDLERS, "verify-toeplitz", broken)
    assert run(["verify-toeplitz", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "c1" in err and "forced failure" in err


def test_export_csv_empty_and_idempotent(tmp_path):
    out = tmp_path / "empty.csv"
    cli.export_csv([], out, p=1)
    assert out.read_text().splitlines() == [
        "k,rho_inv_re_11,rho_inv_im_11,det_rho_inv,target,gap,cond"
    ]
    rows = [
        {
            "k": 1,
            "rho_inv": [[[0.5, 0.0]]],
            "det_rho_inv": 0.5,
            "target": None,
            "gap": None,
            "cond": 1.0,
        }
    ]
    out2 = tmp_path / "one.csv"
    cli.export_csv(rows, out2, p=1)
    first = out2.read_bytes()
    cli.export_csv(rows, out2, p=1)
    assert out2.read_bytes() == first
    line = out2.read_text().splitlines()[1]
    assert line == "1,0.5,0,0.5,,,1"


def test_csv_17_significant_digits(tmp_path):
    rows = [
        {
            "k": 1,
            "rho_inv": [[[1 / 3, 0.0]]],
            "det_rho_inv": 1 / 3,
            "target": 2 / 3,
            "gap": -1 / 3,
            "cond": 1.0,
        }
    ]
    out = tmp_path / "digits.csv"
    cli.export_csv(rows, out, p=1)
    assert "0.33333333333333331" in out.read_text()


def test_scenario_flags_override(tmp_path):
    scenario = {"command": "ball", "seed": 3, "out": str(tmp_path / "x")}
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(scenario))
    assert run(["--scenario", str(path), "--out", str(tmp_path), "--grid", "8"]) == 0
    # the explicit --out flag wins; the scenario still supplies the seed
    report = json.loads((tmp_path / "report_ball.json").read_text())
    assert report["seed"] == 3
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", ["abc", "-1", "0", "nan", "inf"])
def test_bad_tolerance_scale_exits_2_naming_it(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("SNODELAB_TOL", value)
    assert run(["verify-toeplitz", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"SNODELAB_TOL={value!r}" in err and "finite number > 0" in err


@pytest.mark.parametrize("lam", [[0.0, -1.0], [0.3, 0.0]])
def test_entropy_lambda_outside_upper_half_plane_exits_2(tmp_path, capsys, lam):
    scenario = tmp_path / "entropy.json"
    scenario.write_text(json.dumps({"command": "entropy", "lambda": lam}))
    assert run(["--scenario", str(scenario), "--out", str(tmp_path)]) == 2
    assert "must lie in the open upper half-plane" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["hankel_n1.json", "hankel_p2.json"])
def test_entropy_runs_one_poisson_normalization(tmp_path, monkeypatch, name):
    from snode_lab import quadrature

    batches = []
    original = quadrature.integrate_lines

    def counted(fns, break_sets, quad, rel_tol, whats):
        batches.append(list(whats))
        return original(fns, break_sets, quad, rel_tol, whats)

    monkeypatch.setattr(quadrature, "integrate_lines", counted)
    assert run(["entropy", "--spec", str(cli.bundled_spec_path(name)), "--out", str(tmp_path)]) == 0
    # extremal pair, witness and 10 random pairs share one normalization,
    # and each pair's density has its own outer-modulus integral, all 12 in
    # one batch
    assert batches == [["poisson normalization"], ["outer modulus integral"] * 12]


def test_entropy_on_the_bundled_p2_spec_integrates_the_weyl_log_det(tmp_path, monkeypatch):
    from snode_lab import asymptotics

    calls = []
    original = asymptotics.weyl_densities

    def counted(frm, R, Q):
        def hooked(dens):
            def log_det(ts):
                calls.append((id(dens), dens.p))
                return dens.log_det(ts)

            return dataclasses.replace(dens, log_det=log_det)

        dens, roots = original(frm, R, Q)
        return [hooked(d) for d in dens], roots

    monkeypatch.setattr(asymptotics, "weyl_densities", counted)
    spec = cli.bundled_spec_path("hankel_p2.json")
    assert run(["entropy", "--spec", str(spec), "--out", str(tmp_path)]) == 0
    # every pair's outer-modulus integral reads its p = 2 density's log-det
    assert len({key for key, _ in calls}) == 12 and {p for _, p in calls} == {2}


def test_entropy_fits_the_roots_of_det_f_once_for_all_pairs(tmp_path, monkeypatch):
    from snode_lab import hankel

    solves = []
    original = hankel._denominator_zeros

    def counted(frm, R, Q):
        solves.append(len(R))
        return original(frm, R, Q)

    monkeypatch.setattr(hankel, "_denominator_zeros", counted)
    spec = cli.bundled_spec_path("hankel_p2.json")
    assert run(["entropy", "--spec", str(spec), "--out", str(tmp_path)]) == 0
    # the extremal pair, the witness and 10 random pairs in one pencil solve
    assert solves == [12]


@pytest.mark.parametrize("spec", ["hankel_n1.json", "hankel_p2.json"])
def test_entropy_evaluates_the_frame_once_per_point(tmp_path, monkeypatch, spec):
    from snode_lab import snode

    points = []
    original = snode.frame

    def counted(node, z_or_zs):
        points.append(complex(z_or_zs) if np.ndim(z_or_zs) == 0 else np.size(z_or_zs))
        return original(node, z_or_zs)

    monkeypatch.setattr(snode, "frame", counted)
    args = ["entropy", "--spec", str(cli.bundled_spec_path(spec)), "--out", str(tmp_path)]
    assert run(args) == 0
    # the Weyl ball's at conj(lambda), and one frame at lambda that the
    # extremal and witness pairs, rho and the outer factor all read
    assert points == [-1j, 1j]


def test_entropy_evaluates_f_at_one_point_per_pair(tmp_path, monkeypatch):
    from snode_lab import snode

    points = []
    original = snode.Frame.denominator

    def counted(frm, R, Q):
        denominators = original(frm, R, Q)

        def evaluate(ts):
            points.append((R.shape, np.size(ts)))
            return denominators(ts)

        return evaluate

    monkeypatch.setattr(snode.Frame, "denominator", counted)
    spec = cli.bundled_spec_path("hankel_p2.json")
    assert run(["entropy", "--spec", str(spec), "--out", str(tmp_path)]) == 0
    # the 12 log-dets take ln|det F| from the zeros of det F, each anchored
    # by F at t = i: one point per pair, not one per node of the rules, and
    # the 12 pairs' F(i) from one evaluation of the stacked pairs
    assert points == [((12, 2, 2), 1)]


def test_entropy_b31q_fails_with_one_zero_of_det_f_mirrored(tmp_path, monkeypatch):
    from snode_lab import hankel

    original = hankel._denominator_zeros

    def mirrored(frm, R, Q):
        # the zero of the first random pair's det F; on the axis
        # |t - z| = |t - conj z|, so only the anchor at t = i moves
        zeros = original(frm, R, Q)
        zeros[2] = np.concatenate((zeros[2][:1].conj(), zeros[2][1:]))
        return zeros

    assert run(["entropy", "--out", str(tmp_path / "exact")]) == 0
    monkeypatch.setattr(hankel, "_denominator_zeros", mirrored)
    assert run(["entropy", "--out", str(tmp_path / "mirrored")]) == 1
    for name, passed in (("exact", True), ("mirrored", False)):
        report = json.loads((tmp_path / name / "report_entropy.json").read_text())
        failed = [c["tag"] for c in report["checks"] if not c["passed"]]
        assert failed == ([] if passed else ["B31q"])


@pytest.mark.parametrize("pairs", [10, 50])
def test_entropy_draws_its_pairs_in_one_call_as_the_stream_of_single_draws(tmp_path, monkeypatch, pairs):
    from snode_lab import sampling

    spec = str(cli.bundled_spec_path("hankel_p2.json"))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"command": "entropy", "pairs": pairs}))
    calls = []
    original = sampling.random_constant_pairs

    def counted(rng, p, count):
        calls.append(count)
        return original(rng, p, count)

    monkeypatch.setattr(sampling, "random_constant_pairs", counted)
    assert run(["--scenario", str(scenario), "--spec", spec, "--out", str(tmp_path / "batch")]) == 0
    assert calls == [pairs]

    def one_by_one(rng, p, count):
        # count draws of one pair each, as random_constant_pair makes them
        draws = [original(rng, p, 1) for _ in range(count)]
        return tuple(np.concatenate(M) for M in zip(*draws))

    monkeypatch.setattr(sampling, "random_constant_pairs", one_by_one)
    assert run(["--scenario", str(scenario), "--spec", spec, "--out", str(tmp_path / "single")]) == 0
    batch, single = ((tmp_path / d / "report_entropy.json").read_bytes() for d in ("batch", "single"))
    assert batch == single


def test_entropy_on_the_bundled_p2_spec_reads_the_accepted_normalization(tmp_path, monkeypatch):
    from snode_lab import asymptotics

    accepted = []
    original = asymptotics.poisson_normalization
    monkeypatch.setattr(
        asymptotics, "poisson_normalization", lambda lam: accepted.append(original(lam)) or accepted[-1]
    )
    spec = cli.bundled_spec_path("hankel_p2.json")
    assert run(["entropy", "--spec", str(spec), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_entropy.json").read_text())
    (row,) = [check for check in report["checks"] if check["tag"] == "As33"]
    # one normalization per run, and the row reads the value the check accepted
    assert len(accepted) == 1
    assert row["passed"] and row["value"] == abs(accepted[0] - np.pi)


def test_asymptotics_computes_rho_once_per_order(tmp_path, monkeypatch):
    from snode_lab import asymptotics

    calls = []
    original = asymptotics.leading_rho
    monkeypatch.setattr(asymptotics, "leading_rho", lambda *args: calls.append(args) or original(*args))
    assert run(["asymptotics", "--out", str(tmp_path)]) == 0
    # the default run has orders 1..4 at lambda = i: one evaluation on the
    # order-4 level gives every order its rho, and the R2 row reads the same pass
    ((node, z),) = calls
    assert (node.m, z) == (4, 1j)


def _integral_names(monkeypatch):
    """The names (``what``) of the integrals whose values went through the
    doubled-node check (:func:`quadrature._accept`, behind
    :func:`quadrature.integrate_with_check` and
    :func:`quadrature.integrate_lines`), in order; an integral with a list
    of names adds each of them."""
    from snode_lab import quadrature

    names = []
    original = quadrature._accept

    def counted(values, what, rel_tol):
        names.extend([what] if isinstance(what, str) else what)
        return original(values, what, rel_tol)

    monkeypatch.setattr(quadrature, "_accept", counted)
    return names


def test_asymptotics_integrates_the_reference_log_det_once(tmp_path, monkeypatch):
    scenario = {"command": "asymptotics", "density": "exp_sqrt", "max_order": 3}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    names = _integral_names(monkeypatch)
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_asymptotics.json").read_text())
    assert report["szego_finite"] and report["target"] is not None
    # the outer modulus both decides Szego's condition and gives the target
    assert names.count("outer modulus integral") == 1
    assert names.count("poisson normalization") == 1
    assert "entropy integral" not in names


def test_asymptotics_on_a_bounded_support_makes_no_line_quadrature(tmp_path, monkeypatch):
    from snode_lab import asymptotics

    def refuse(*args):
        raise AssertionError("outer_modulus called")

    monkeypatch.setattr(asymptotics, "outer_modulus", refuse)
    scenario = {"command": "asymptotics", "density": "uniform", "max_order": 3}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    names = _integral_names(monkeypatch)
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_asymptotics.json").read_text())
    assert report["szego_finite"] is False and report["target"] is None
    # only the moments are integrated, on the bounded support
    assert names and all(name.startswith("moment") for name in names)


def test_asymptotics_divergent_moment_exits_2_naming_it(tmp_path, capsys):
    scenario = {"command": "asymptotics", "family": "hankel", "density": "cauchy", "max_order": 2}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    # the Cauchy density declares one absolute moment: refused before any quadrature
    assert "the cauchy density has no moment 1: its absolute moments end at order 0" in capsys.readouterr().err


def test_asymptotics_indefinite_moment_matrix_exits_2_naming_the_order(tmp_path, capsys):
    # unit mass on [0.49, 0.51]: the 5 x 5 moment matrix of order 5 is not
    # positive definite in floating point, and the error names that order
    spike = {"name": "table", "params": {"t": [0, 0.49, 0.5, 0.51, 1], "v": [0, 0, 100, 0, 0]}}
    scenario = {"command": "asymptotics", "density": spike, "max_order": 5}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: asymptotics: leading block not positive definite (first failure at order 5)\n"


@pytest.mark.parametrize(
    "density, message",
    [
        (
            {"name": "table", "params": {"t": [0, 1, 0.5, 2], "v": [0, 1, 1, 0]}},
            "strictly increasing",
        ),
        ({"name": "table", "params": {"t": [0, 1, 2], "v": [0, -1, 0]}}, "nonnegative"),
        ({"name": "table", "params": {"t": [0, 1, 2], "v": [0, 1]}}, "matching 1-d grids"),
        ({"name": "table", "params": {"t": [0, 1, 2]}}, "missing ['v']"),
        ({"name": "table", "params": {"t": [0, float("inf")], "v": [1, 1]}}, "must be finite"),
        ({"name": "table", "params": {"t": [0, 1], "v": [1, float("nan")]}}, "must be finite"),
        ({"name": "table", "params": {"t": [0], "v": [1]}}, "at least 2 points"),
        ({"name": "table", "params": {"t": ["a", 1], "v": [1, 1]}}, "numeric grids"),
        ({"name": "nope"}, "unknown density 'nope'"),
        ({"params": {"a": 0.0, "b": 1.0}}, "unknown density None"),
        ({"name": "uniform", "params": {"a": 1.0, "b": 1.0}}, "finite a < b"),
        ({"name": "cauchy", "params": {"scale": -1.0}}, "finite scale > 0"),
        ({"name": "cauchy", "params": {"width": 1.0}}, "unexpected keyword argument 'width'"),
        ({"name": "uniform", "params": [1, 2]}, "density params must be an object, got [1, 2]"),
        ({"name": "uniform", "params": "ab"}, "density params must be an object, got 'ab'"),
        ({"name": "cauchy", "params": 7}, "density params must be an object, got 7"),
        ({"name": "table", "params": [1]}, "density params must be an object, got [1]"),
    ],
)
def test_asymptotics_invalid_density_exits_2(tmp_path, capsys, density, message):
    scenario = {"command": "asymptotics", "family": "hankel", "density": density, "max_order": 2}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: asymptotics: ") and message in err


def _entropy_seed_93(tmp_path):
    # a moments benchmark input (seed 93) whose old fixed witness (R, Q) = (1, 4)
    # sat near the ball's centre: slack 2.76e-4, below the row's 1e-3
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 1, "n": 1, "H": [[[[0.3193460570586201, 0.0]]]]}))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "command": "entropy",
                "spec": str(spec),
                "seed": 2002173065,
                "lambda": [-0.11884795105518098, 1.2677625325780075],
            }
        )
    )
    return ["--scenario", str(scenario), "--out", str(tmp_path)]


def _witness_row(tmp_path):
    report = json.loads((tmp_path / "report_entropy.json").read_text())
    (row,) = [c for c in report["checks"] if c["name"] == "strict slack at the witness pair"]
    return row


def test_entropy_witness_from_the_ball_passes_on_seed_93(tmp_path):
    assert run(_entropy_seed_93(tmp_path)) == 0
    assert _witness_row(tmp_path)["value"] == pytest.approx(0.25, abs=1e-12)


def test_entropy_witness_at_the_ball_centre_fails_the_row(tmp_path, monkeypatch):
    from snode_lab import snode

    original = snode.ball_value
    monkeypatch.setattr(snode, "ball_value", lambda ball, u: original(ball, 0.0 * u))
    assert run(["entropy", "--out", str(tmp_path)]) == 1
    row = _witness_row(tmp_path)
    assert not row["passed"] and abs(row["value"]) <= 1e-9


@pytest.mark.parametrize(
    "command, params, message",
    [
        ("asymptotics", {"density": 5}, "density must be a name or a {name, params} object, got 5"),
        ("asymptotics", {"max_order": "x"}, "max_order must be an integer, got 'x'"),
        ("asymptotics", {"lambda": [0, 1, 2]}, "lambda must be a number or a [re, im] pair, got [0, 1, 2]"),
        ("entropy", {"lambda": [0, 1, 2]}, "lambda must be a number or a [re, im] pair, got [0, 1, 2]"),
        ("entropy", {"pairs": "x"}, "pairs must be an integer, got 'x'"),
        ("entropy", {"pairs": 0}, "pairs must be at least 1, got 0"),
        ("entropy", {"pairs": -3}, "pairs must be at least 1, got -3"),
        ("khrushchev", {"p": 0}, "p must be at least 1, got 0"),
        ("khrushchev", {"p": -1}, "p must be at least 1, got -1"),
        ("khrushchev", {"count": 0}, "count must be at least 1, got 0"),
        ("khrushchev", {"length": 0}, "length must be at least 1, got 0"),
        ("demo-appendixB", {"sweep": 0}, "sweep must be at least 1, got 0"),
        ("ball", {"z": [float("nan"), 1]}, "z must be finite, got [nan, 1]"),
        ("entropy", {"lambda": [float("nan"), 1]}, "lambda must be finite, got [nan, 1]"),
        ("asymptotics", {"lambda": [float("nan"), 1]}, "lambda must be finite, got [nan, 1]"),
        ("entropy", {"seed": "x"}, "seed must be an integer, got 'x'"),
        ("asymptotics", {"quad": "q"}, "quad is not a scenario field of asymptotics (parameters: family, density, lambda, max_order)"),
        ("khrushchev", {"grid": 2.5}, "grid must be an integer, got 2.5"),
        ("khrushchev", {"count": 2.7}, "count must be an integer, got 2.7"),
        ("entropy", {"pairs": 1.5}, "pairs must be an integer, got 1.5"),
        ("entropy", {"spec": 5}, "spec must be a string, got 5"),
        ("asymptotics", {"out": 5}, "out must be a string, got 5"),
        ("asymptotics", {"format": "cvs"}, "format must be 'json' or 'csv', got 'cvs'"),
        ("asymptotics", {"lambda": [0, -1]}, "lambda must lie in the open upper half-plane, got [0, -1]"),
        ("entropy", {"lambda": [0.5, 0]}, "lambda must lie in the open upper half-plane, got [0.5, 0]"),
        ("ball", {"z": [1, -0.5]}, "z must lie in the open upper half-plane, got [1, -0.5]"),
        ("asymptotics", {"lambda": True}, "lambda must be a number or a [re, im] pair, got True"),
        ("entropy", {"lambda": [0, True]}, "lambda must be a number or a [re, im] pair, got [0, True]"),
        ("ball", {"z": True}, "z must be a number or a [re, im] pair, got True"),
        ("ball", {"z": "1j"}, "z must be a number or a [re, im] pair, got '1j'"),
        ("ball", {"z": ["0", "1"]}, "z must be a number or a [re, im] pair, got ['0', '1']"),
        ("ball", {"z": [0, 10**400]}, "z must be finite, got [0, 100000000000"),
        ("asymptotics", {"family": "hankel", "max_order": 0}, "max_order must be at least 1, got 0"),
        (
            "asymptotics",
            {"family": "toeplitz", "spec": str(cli.bundled_spec_path("toeplitz_n1.json")), "max_order": 0},
            "max_order must be at least 1, got 0",
        ),
        ("asymptotics", {"family": 3}, "family must be 'hankel' or 'toeplitz', got 3"),
        ("asymptotics", {"family": "toeplitz"}, "spec must be given for family 'toeplitz', got None"),
        ("ball", {"grid": 0}, "grid must be at least 1, got 0"),
        ("asymptotics", {"quad": 2048}, "quad is not a scenario field of asymptotics (parameters: family, density, lambda, max_order)"),
        ("entropy", {"seed": -3}, "seed must be at least 0, got -3"),
        ("verify-hankel", {"spec": "missing.json"}, "spec must name an existing file, got 'missing.json'"),
        ("nope", {}, "command must be one of asymptotics, ball, demo-appendixB, entropy, "),
        pytest.param(
            "verify-toeplitz",
            {"spec": str(cli.bundled_spec_path("toeplitz_n1.json").parent)},
            f"spec {cli.bundled_spec_path('toeplitz_n1.json').parent} cannot be read: ",
            id="verify-toeplitz-spec-is-a-directory",
        ),
    ],
)
def test_malformed_scenario_fields_exit_2(tmp_path, capsys, command, params, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": command, **params}))
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: ") and message in err


@pytest.mark.parametrize(
    "command, key",
    [
        ("entropy", "lamda"),
        ("ball", "lambda"),
        ("khrushchev", "pairs"),
        ("asymptotics", "z"),
        ("demo-appendixB", "p"),
        ("verify-hankel", "z"),
        ("verify-toeplitz", "count"),
    ],
)
def test_a_scenario_key_that_the_command_does_not_read_exits_2(tmp_path, capsys, command, key):
    # a misspelled "lamda" must not run entropy at the default lambda = i
    assert set(cli._PARAM_KEYS) == set(cli._HANDLERS)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": command, key: [0.5, 2.0]}))
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    fields = ", ".join(cli._PARAM_KEYS[command]) or "none"
    want = f"error: {command}: {key} is not a scenario field of {command} (parameters: {fields})\n"
    assert capsys.readouterr().err == want
    assert not (tmp_path / f"report_{command}.json").exists()


_TOEPLITZ_N1 = str(cli.bundled_spec_path("toeplitz_n1.json"))
_HANKEL_N1 = str(cli.bundled_spec_path("hankel_n1.json"))


@pytest.mark.parametrize(
    "args, scenario, message",
    [
        (["asymptotics", "--spec", _TOEPLITZ_N1], None, f"spec is not read by family 'hankel', got {_TOEPLITZ_N1!r}"),
        (["khrushchev", "--spec", _HANKEL_N1], None, f"spec is not read by khrushchev, got {_HANKEL_N1!r}"),
        (["demo-appendixB", "--spec", _HANKEL_N1], None, f"spec is not read by demo-appendixB, got {_HANKEL_N1!r}"),
        (
            ["--spec", _TOEPLITZ_N1],
            {"command": "asymptotics", "family": "toeplitz", "density": "uniform"},
            "density is not read by family 'toeplitz', got 'uniform'",
        ),
        ([], {"command": "ball", "format": "csv"}, "format 'csv' is not read by ball, only by asymptotics"),
    ],
    ids=["asymptotics-spec", "khrushchev-spec", "demo-appendixB-spec", "toeplitz-density", "ball-csv"],
)
def test_an_input_that_the_command_would_not_read_exits_2(tmp_path, capsys, args, scenario, message):
    # asymptotics --spec toeplitz_n1.json must not run the Hankel exp_sqrt family
    if scenario is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        args = [*args, "--scenario", str(path)]
    assert run([*args, "--out", str(tmp_path)]) == 2
    command = args[0] if scenario is None else scenario["command"]
    assert capsys.readouterr().err == f"error: {command}: {message}\n"
    assert not list(tmp_path.glob("report_*.json"))


def test_asymptotics_names_a_lost_poisson_normalization_as_a_plain_float(tmp_path, capsys):
    # lambda = 1e-300 i: the normalization integral loses its spike; the exit
    # code stays 2 and the message shows the value as a number, not a numpy repr
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": "asymptotics", "lambda": [0, 1e-300]}))
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: asymptotics: poisson normalization 1.198e-296 != pi\n"


def test_ball_next_to_the_axis_names_its_degenerate_ball(tmp_path, capsys):
    # z = 1e-300 i: centre and radius scale 5e299, so center - L u Rr keeps no
    # digit of the values; the run exits 2 naming z, not 1 on B0 = 2.74
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": "ball", "z": [0, 1e-300]}))
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: ball: the ball at z = 1e-300j has degenerated: its radius scale 5.000e+299 and centre 5.000e+299 "
    )
    assert not (tmp_path / "report_ball.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", ["hankel_p2.json", "hankel_102.json"])
def test_ball_next_to_the_axis_exits_on_its_degenerate_ball_before_any_overflow(tmp_path, capsys, spec):
    # z = 0.5 + 1e-300 i: the B5 and B7 norms of the ball's entries would
    # overflow; the membership guard runs first and names the ball
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": "ball", "z": [0.5, 1e-300]}))
    argv = ["--scenario", str(path), "--spec", str(cli.bundled_spec_path(spec)), "--out", str(tmp_path)]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ball: the ball at z = (0.5+1e-300j) has degenerated: ")
    assert not (tmp_path / "report_ball.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", ["hankel_p2.json", "hankel_n1.json"])
def test_ball_far_above_the_axis_names_aleph_before_it_overflows(tmp_path, capsys, spec):
    # z = 1e150 i: aleph grows like |z|^{2n}, past the largest double at n = 2
    # though Frm^{-1} (2.9e300) does not; at n = 1 it is 1e300 and the run passes
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": "ball", "z": [0, 1e150]}))
    argv = ["--scenario", str(path), "--spec", str(cli.bundled_spec_path(spec)), "--out", str(tmp_path)]
    if spec == "hankel_n1.json":
        assert run(argv) == 0
        return
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: ball: the ball at z = 1e+150j cannot be formed: aleph = Frm^-1* J Frm^-1 would overflow "
        "(largest entry of Frm^-1 2.860e+300)"
    )
    assert not (tmp_path / "report_ball.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z, point", [([0, 1e154], "-1e+154j"), ([1e154, 1], "(1e+154-1j)")], ids=["imag", "real"])
def test_ball_names_the_overflow_of_its_polynomial_frame_not_a_pole(tmp_path, capsys, z, point):
    # the ball reads the frame at conj z, whose Horner value overflows at
    # |z| = 1e154 on the p = 2 spec (n = 2): a polynomial has no pole there
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": "ball", "z": z}))
    argv = ["--scenario", str(path), "--spec", str(cli.bundled_spec_path("hankel_p2.json")), "--out", str(tmp_path)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"error: ball: the frame at z = {point} overflows: its matrix polynomial of degree 2 has no pole, "
        "but its value there is past the largest double\n"
    )
    assert not (tmp_path / "report_ball.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ball_far_above_the_axis_is_refused_before_its_check_norms_overflow(tmp_path, capsys):
    # z = 1e100 i on the n = 2 spec: aleph is finite (largest entry 1e300),
    # but the squares that the B5 and B7 norms sum are not
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": "ball", "z": [0, 1e100]}))
    argv = ["--scenario", str(path), "--spec", str(cli.bundled_spec_path("hankel_102.json")), "--out", str(tmp_path)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: ball: the ball at z = 1e+100j cannot be checked: the squares of aleph's entries would overflow "
        "(largest entry 1.000e+300)\n"
    )
    assert not (tmp_path / "report_ball.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ball_whose_rho_overflows_names_z_and_rho(tmp_path, capsys):
    # z = 5.62e102 i on the n = 2 spec: aleph (largest entry about |z|^3)
    # just passes the ball's own guard, but rho's entries reach 2^1023, so
    # its Hermitian part would overflow in M + M*
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": "ball", "z": [0, 5.62e102]}))
    argv = ["--scenario", str(path), "--spec", str(cli.bundled_spec_path("hankel_102.json")), "--out", str(tmp_path)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: ball: rho(z, conj z) at z = 5.62e+102j overflows: an entry of i(conj z - z) y* y reaches 2^1023\n"
    )
    assert not (tmp_path / "report_ball.json").exists()


def test_entropy_next_to_the_axis_names_the_witness_pair(tmp_path, capsys):
    # lambda = 1e-300 i: the witness's Weyl value is ~1/Im(lambda), and its
    # pair's gram R*R + Q*Q overflows; the exit code is 2, not a traceback
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": "entropy", "lambda": [0, 1e-300]}))
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: entropy: witness pair at lambda = 1e-300j: ") and "overflows" in err
    assert not (tmp_path / "report_entropy.json").exists()
    # a non-finite matrix is a typed library error, and still a ValueError
    with pytest.raises(NonFiniteEntries, match="matrix entries must be finite") as caught:
        matcore.hermitian_part(np.full((2, 2), np.inf))
    assert isinstance(caught.value, SnodeLabError) and isinstance(caught.value, ValueError)


@pytest.mark.parametrize(
    "params",
    [
        {"command": "asymptotics", "density": {"name": "exp_sqrt"}, "max_order": 3, "lambda": [0.3, 1.2]},
        {"command": "entropy", "lambda": [0.2, 1.1]},
    ],
    ids=["asymptotics", "entropy"],
)
def test_reports_are_the_same_from_a_cold_and_a_warm_rule_memo(tmp_path, params):
    quadrature._real_rule.cache_clear()
    texts = []
    for side in ("cold", "warm"):
        sc = cli.Scenario(command=params["command"], out_dir=str(tmp_path / side), seed=5, params=params)
        code, path = cli.run_scenario(sc)
        assert code == 0
        texts.append(path.read_bytes())
    assert quadrature._real_rule.cache_info().hits > 0
    assert texts[0] == texts[1]


@pytest.mark.parametrize(
    "command, blocked",
    [("ball", "report_ball.json"), ("ball", "ball.json"), ("asymptotics", "trajectory.csv"), ("ball", None)],
)
def test_output_that_cannot_be_written_exits_2(tmp_path, capsys, command, blocked):
    out = tmp_path / "out"
    if blocked is None:
        # --out names an existing file, not a directory
        out.write_text("a file")
        target = out / f"report_{command}.json"
    else:
        target = out / blocked
        target.mkdir(parents=True)
    assert run([command, "--out", str(out), "--grid", "4", *(["--csv"] if command == "asymptotics" else [])]) == 2
    assert f"error: {command}: cannot write {target}: " in capsys.readouterr().err


@pytest.mark.parametrize("data, kind", [([{"command": "entropy"}], "list"), (7, "int")])
def test_scenario_file_that_is_not_an_object_exits_2(tmp_path, capsys, data, kind):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert run(["entropy", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert f"scenario {path} must hold a JSON object, got {kind}" in capsys.readouterr().err


def test_integral_float_scenario_fields_are_accepted(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": "khrushchev", "seed": 3.0, "grid": 2.0, "count": 2.0, "length": 3.0}))
    assert run(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_khrushchev.json").read_text())
    assert (report["seed"], report["grid"], report["count"], report["length"]) == (3, 2, 2, 3)
