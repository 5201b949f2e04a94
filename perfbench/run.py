"""snode-lab benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload chain-verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Run from the repository root.  The launcher pins BLAS/OpenMP to one thread,
writes the seeded inputs under ``.perfbench/``, starts a fresh worker
interpreter that imports the library from ``src/``, warms up, times the
loop (times scaled by a host-speed probe run between operations and around
each set-up, see ``hostspeed.py``) and checks every output, then starts two more set-up-only workers so
``setup_s`` is a median of three.  With ``--trace 1`` it reports the
per-layer metrics of a traced run instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Full results (records, failure classes, machine details)
go to ``.perfbench/results/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here or in any worker: OpenBLAS would otherwise
# start one thread per core (it is built with MAX_THREADS=64).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
RUN_LIMIT_S = 175.0  # a run must end within 180 s; workers still going at this point are killed

END_TO_END = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "verified_ops_per_s": "1/s",
    "fail_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "resid_log10": "decades",
}


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def start_worker(plan_dir: Path, out: Path, mode: str, seconds: float, log, deadline: float) -> dict:
    """Run one worker process to completion (killed at ``deadline``) and return its result.

    The worker's wall-clock set-up goes to ``setup_wall_s``; ``setup_s`` is
    host-speed corrected by the probes run here just before the start and
    in the worker just after its warm-up.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_dir), "--out", str(out),
           "--mode", mode, "--seconds", repr(seconds)]
    before = hostspeed.probes(hostspeed.SETUP_PROBES)
    t0 = time.monotonic()
    proc = subprocess.Popen([*cmd, "--t0", repr(t0)], env=env, stdout=log, stderr=log, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker ({mode}) exited with {code}; see {log.name}")
    result = json.loads(out.read_text())
    result["setup_wall_s"] = result["setup_s"]
    result["setup_s"] *= hostspeed.setup_factor(before, result["setup_probes"])
    return result


def summarize(result: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics and the side facts recorded beside them."""
    records = result["records"]
    lat = stats.latencies(records)
    tail, pct, count = stats.tail(lat)
    passed = sum(r["passed"] for r in records)
    resid = result["panel_resid"]
    # Times are host-speed corrected (hostspeed.py); the raw ones go beside them.
    raw = [r["t_wall"] if r["passed"] else math.inf for r in records]
    metrics = {
        "op_s.p50": stats.p50(lat),
        "op_s.tail": tail,
        "verified_ops_per_s": passed / sum(r["iter_s"] for r in records),
        "fail_frac": (len(records) - passed) / len(records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "resid_log10": max(resid),
    }
    side = {
        "op_s.tail_percentile": pct,
        "op_s.samples": count,
        "setup_s_runs": setups,
        "loop_s": result["loop_s"],
        "host_speed": {
            "factor_median": statistics.median(r["speed"] for r in records),
            "factor_range": [min(r["speed"] for r in records), max(r["speed"] for r in records)],
            "wall_op_s.p50": stats.p50(raw),
            "wall_op_s.tail": stats.tail(raw)[0],
            "wall_verified_ops_per_s": passed / sum(r["iter_wall"] for r in records),
        },
        "failure_classes": dict(Counter(r["failure"] for r in records if not r["passed"])),
        "edge_ops": sum(r["edge"] for r in records),
        "panel": result["panel"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, side


def run_one(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    import workloads

    tag = f"{workload}-s{seed}-t{int(trace)}"
    plan_dir = STATE / "work" / tag
    shutil.rmtree(plan_dir, ignore_errors=True)
    workloads.generate(workload, seed, seconds, plan_dir)
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{tag}.json"
    started = time.time()
    with open(results_dir / f"{tag}.log", "w") as log:
        result = start_worker(plan_dir, out, "trace" if trace else "measure", seconds, log, deadline)
        setups, setup_walls = [result["setup_s"]], [result["setup_wall_s"]]
        if not trace:
            for i in range(SETUP_REPEATS - 1):
                extra = start_worker(plan_dir, results_dir / f"{tag}.setup{i}.json", "setup", seconds,
                                     log, deadline)
                setups.append(extra["setup_s"])
                setup_walls.append(extra["setup_wall_s"])
    records = result["records"]
    wrong = sum(r["wrong"] for r in records) + result["panel_wrong"]
    if trace:
        metrics = result["layers"]
        side = {"spans": result["spans"], "plain_ops": len(result["plain_records"]),
                "waiting": layers.WAITING}
    else:
        metrics, side = summarize(result, setups)
        side["host_speed"]["wall_setup_s_runs"] = setup_walls
    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started": started,
        "machine": machine(),
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": sum(not r["passed"] for r in records),
        "metrics": metrics,
        **side,
    }
    out.write_text(json.dumps({**summary, "records": records}, indent=1))
    shutil.rmtree(plan_dir, ignore_errors=True)
    return summary


def print_summary(summary: dict) -> None:
    m = summary["machine"]
    print(f"# {summary['workload']} seed={summary['seed']} trace={int(summary['trace'])} "
          f"python {m['python']} numpy {m['numpy']} {m['blas']} threads={m['blas_threads']} "
          f"nproc={m['nproc']} cpu={m['cpu']}")
    for name, metric in summary["metrics"].items():
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']}")
    if not summary["trace"]:
        print(f"op_s.tail is p{summary['op_s.tail_percentile']:.1f} of {summary['op_s.samples']} ops; "
              f"failures: {summary['failure_classes']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="chain-verify, weyl-grid or moments (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "snode_lab" / "__init__.py").is_file():
        print(f"error: no snode_lab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    summaries = [run_one(n, args.seed, args.seconds, bool(args.trace), deadline) for n in names]
    for s in summaries:
        print_summary(s)
    last = summaries[-1] if len(summaries) == 1 else {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()},
    }
    print(json.dumps({k: last[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
