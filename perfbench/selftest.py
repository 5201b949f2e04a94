"""Tests of the benchmark itself (not part of the library's tier-1 suite).

    python3 -m pytest -q perfbench/selftest.py

The last test runs a short traced run of every workload (about a minute).
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _row(name, tag, value, tol, passed=None):
    return {"name": name, "tag": tag, "value": value, "tol": tol,
            "passed": value <= tol if passed is None else passed}


def _cli_outcome(rows, exit_code=0):
    passed = all(r["passed"] for r in rows)
    return {"exit": exit_code, "error": None, "report": {"checks": rows, "passed": passed}}


def test_perturbed_report_row_is_failed_and_wrong():
    op = {"kind": "cli", "command": "verify-hankel"}
    rows = [_row("node identity residual", "H2", 1e-15, 1e-12), _row("frame convention", "H7", 3e-14, 1e-12)]
    assert gate.judge(op, _cli_outcome(rows)).passed
    bad = copy.deepcopy(rows)
    bad[1]["value"] = 5e-12  # past tolerance, pass flag left as it was
    verdict = gate.judge(op, _cli_outcome(bad))
    assert not verdict.passed and verdict.wrong and verdict.failure == "wrong:row:H7"


def test_honest_failure_is_failed_but_not_wrong():
    op = {"kind": "cli", "command": "verify-hankel"}
    rows = [_row("frame convention", "H7", 5e-12, 1e-12)]
    verdict = gate.judge(op, _cli_outcome(rows, exit_code=1))
    assert not verdict.passed and not verdict.wrong and verdict.failure == "exit1:H7"
    typed = {"error": {"type": "SingularResolvent", "typed": True, "message": ""}}
    assert gate.judge(op, typed).failure == "exit2:SingularResolvent"
    untyped = {"error": {"type": "LinAlgError", "typed": False, "message": ""}}
    assert gate.judge(op, untyped).wrong


def test_perturbed_asymptotics_value_misses_oracle():
    oracle = {"det_rho_inv": [2.0, 1.5], "det_rtol": [1e-9, 1e-9], "target": 1.0, "target_rtol": 1e-7}
    rows = [_row("nesting compressions", "As1", 0.0, 1e-12)]
    report = {"checks": rows, "passed": True, "target": 1.0 + 1e-12,
              "trajectory": [{"k": 1, "det_rho_inv": 2.0}, {"k": 2, "det_rho_inv": 1.5 * (1 + 1e-10)}]}
    op = {"kind": "cli", "command": "asymptotics", "oracle": oracle}
    assert gate.judge(op, {"exit": 0, "error": None, "report": report}).passed
    report["trajectory"][1]["det_rho_inv"] = 1.5 * (1 + 1e-4)
    verdict = gate.judge(op, {"exit": 0, "error": None, "report": report})
    assert not verdict.passed and verdict.failure == "wrong:oracle:det_rho_inv"


def test_perturbed_recovered_moments_fail():
    op = {"kind": "recover"}
    good = {"error": None, "moments": {"max_error": 1e-11, "tail_slack": -1e-15,
                                       "reference_matches_input": True}}
    assert gate.judge(op, good).passed
    worse = copy.deepcopy(good)
    worse["moments"]["max_error"] = 2e-5
    assert gate.judge(op, worse).failure == "check:max_error"
    worse = copy.deepcopy(good)
    worse["moments"]["tail_slack"] = 1e-3
    assert gate.judge(op, worse).failure == "check:tail_slack"


def test_failure_never_lowers_p50_or_tail():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        records = [{"t": float(t), "passed": True} for t in rng.exponential(0.1, n)]
        base = stats.latencies(records)
        for i in rng.choice(n, size=min(n, 3), replace=False):
            failed = copy.deepcopy(records)
            failed[int(i)]["passed"] = False
            lat = stats.latencies(failed)
            assert stats.p50(lat) >= stats.p50(base)
            assert stats.tail(lat)[0] >= stats.tail(base)[0]
    records = [{"t": 0.1 * (i + 1), "passed": True} for i in range(40)]
    records[0]["passed"] = False  # the fastest operation fails: it becomes the slowest
    lat = stats.latencies(records)
    assert stats.p50(lat) > stats.p50(stats.latencies([{"t": r["t"], "passed": True} for r in records]))


def test_host_speed_correction_cancels_a_slow_host_and_keeps_failures():
    rng = np.random.default_rng(11)
    walls = list(rng.exponential(0.1, 30))
    probes = list(hostspeed.PROBE_REF_S * rng.uniform(0.9, 1.1, 31))
    base = [w * f for w, f in zip(walls, hostspeed.factors(probes, 30))]
    # The host runs 1.5x slower from operation 10 on: probes and operations alike.
    slow = [w * (1.5 if i >= 10 else 1.0) for i, w in enumerate(walls)]
    slow_probes = [p * (1.5 if i >= 10 else 1.0) for i, p in enumerate(probes)]
    corrected = [w * f for w, f in zip(slow, hostspeed.factors(slow_probes, 30))]
    far = [i for i in range(30) if abs(i - 10) > hostspeed.WINDOW + 1]
    assert np.allclose([corrected[i] for i in far], [base[i] for i in far])
    records = [{"t": t * f, "passed": i != 3} for i, (t, f) in
               enumerate(zip(walls, hostspeed.factors(probes, 30)))]
    assert math.isinf(stats.latencies(records)[3])
    with pytest.raises(ValueError):
        hostspeed.factors(probes, 31)


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 41)]
    value, pct, count = stats.tail(values)
    assert (value, pct, count) == (30.0, 75.0, 40)
    assert sum(v > value for v in values) == 10
    assert math.isinf(stats.tail(values[:29] + [math.inf] * 11)[0])


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    workloads.generate(workload, 3, 2.0, tmp_path / "a")
    workloads.generate(workload, 3, 2.0, tmp_path / "b")
    workloads.generate(workload, 4, 2.0, tmp_path / "c")
    a, b, c = (_tree_bytes(tmp_path / x) for x in "abc")
    assert a == b
    assert a["ops.json"] != c["ops.json"]


def test_rounds_hold_one_edge_each(tmp_path):
    plan = workloads.generate("chain-verify", 1, 2.0, tmp_path)
    for ops in plan["rounds"]:
        assert sum(op["edge"] for op in ops) == 1
    near = [op for ops in plan["rounds"] for op in ops if op["cls"] == "chain-edge"
            and op["command"] == "verify-toeplitz"]
    for op in near:
        assert np.min(np.abs(workloads.toeplitz_lambdas(op["seed"]) - 0.5j)) < workloads.LAMBDA_NEAR


def test_benchmark_json_matches_the_harness():
    import run

    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {k: v[0] for k, v in layers.METRICS.items()}
    assert {m["name"]: m["better"] for m in BENCH["per_layer"]} == {k: v[1] for k, v in layers.METRICS.items()}


def test_traced_run_reports_every_layer_metric_on_every_workload():
    names = {m["name"] for m in BENCH["per_layer"]}
    for workload in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result["metrics"]) == names, workload
        assert result["correct"]
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        assert result["metrics"]["trace.overhead"]["value"] > 0
