"""One measured process: import, warm up, run the timed loop, write results.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread.
``--t0`` is the launcher's CLOCK_MONOTONIC reading just before it started
this process, so ``setup_s`` covers interpreter start, ``import snode_lab``
and one warm-up operation per input class.  The loop is closed: one client,
each operation starts after the previous one ends (a short host-speed
probe runs in between, outside the operation's time).  It runs whole rounds
(so the operation mix is exact); the plan sized the number of rounds from
``--seconds``, and the loop stops early only past three times that.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True, help="directory holding ops.json and specs/")
    ap.add_argument("--out", required=True, help="result JSON to write")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("measure", "trace", "setup"), default="measure")
    args = ap.parse_args(argv)

    t_np = time.monotonic()
    import numpy  # noqa: F401
    t_cli = time.monotonic()
    import snode_lab
    import snode_lab.cli
    import_s = time.monotonic() - t_cli

    import gate

    plan_dir = Path(args.plan)
    plan = json.loads((plan_dir / "ops.json").read_text())
    runner = Runner(plan_dir, snode_lab)

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install(snode_lab)
    panel = [(op, gate.judge(op, runner.run(op)[0])) for op in plan["panel"]]
    setup_s = time.monotonic() - args.t0
    import hostspeed

    result = {
        "setup_s": setup_s,
        "setup_probes": hostspeed.probes(hostspeed.SETUP_PROBES),
        "import_s": import_s,
        "numpy_import_s": t_cli - t_np,
        "panel": [{"cls": op["cls"], "failure": v.failure, "wrong": v.wrong} for op, v in panel],
        # resid_log10 comes from the panel: the same inputs in every run.  Edge
        # classes are left out; how far past the working range they fail is
        # not an accuracy figure, and their failures show in fail_frac.
        "panel_resid": [r for op, v in panel if not op["edge"] for r in v.resid],
        "panel_wrong": sum(v.wrong for _, v in panel),
    }
    if args.mode == "measure":
        records, wall = timed_loop(runner, gate, plan["rounds"], args.seconds)
        result.update(records=records, loop_s=wall)
    elif args.mode == "trace":
        gl_cold_s = float(sum(tracer.gl_cold.values()))
        tracer.uninstall()
        # The untraced and the traced pass run the same operations (the first
        # half of the plan), so their medians give the tracing overhead.
        half = plan["rounds"][: max(1, len(plan["rounds"]) // 2)]
        plain, _ = timed_loop(runner, gate, half, args.seconds)
        tracer.reset()
        tracer.install(snode_lab)
        traced, wall = timed_loop(runner, gate, half, args.seconds, tracer)
        tracer.uninstall()
        import layers
        import stats

        overhead = stats.p50([r["t"] for r in traced]) / stats.p50([r["t"] for r in plain])
        result["layers"] = layers.compute(
            tracer,
            ops=len(traced),
            report_bytes=sum(r["bytes"] for r in traced),
            import_s=import_s,
            overhead=overhead,
            gl_rule_cold_s=gl_cold_s,
        )
        result.update(records=traced, plain_records=plain, loop_s=wall)
        result["spans"] = tracer.write(Path(args.out).with_suffix(".spans.tsv.gz"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result))
    return 0


class Runner:
    """Executes one planned operation in-process and captures its outcome."""

    def __init__(self, plan_dir: Path, package):
        self.plan_dir = plan_dir
        self.out_dir = plan_dir / "reports"
        self.out_dir.mkdir(exist_ok=True)
        self.cli = package.cli
        self.errors = package.errors
        self.hankel = package.hankel
        self.snode = package.snode
        self.serialization = package.serialization

    def run(self, op: dict):
        """Returns (outcome, seconds); only the library call is timed."""
        if op["kind"] == "recover":
            return self._recover(op)
        spec_path = str(self.plan_dir / op["spec"]) if op.get("spec") else None
        sc = self.cli.Scenario(
            command=op["command"],
            spec_path=spec_path,
            out_dir=str(self.out_dir),
            seed=op["seed"],
            grid=op["grid"],
            params=op["params"],
        )
        outcome = {"exit": None, "report": None, "error": None, "bytes": 0}
        t = time.perf_counter()
        try:
            code, path = self.cli.run_scenario(sc)
        except self.cli.BadInput as exc:
            elapsed = time.perf_counter() - t
            cause = exc.__cause__ if exc.__cause__ is not None else exc
            outcome.update(exit=2, error=self._error(cause, typed=True))
            return outcome, elapsed
        except Exception as exc:  # an untyped error escaped the CLI: record it, keep going
            elapsed = time.perf_counter() - t
            outcome.update(exit=2, error=self._error(exc, typed=isinstance(exc, self.errors.SnodeLabError)))
            return outcome, elapsed
        elapsed = time.perf_counter() - t
        text = Path(path).read_text()
        outcome.update(exit=code, report=json.loads(text), bytes=len(text.encode()))
        if spec_path is not None:
            outcome["spec_echo"] = json.loads(Path(spec_path).read_text())
        return outcome, elapsed

    def _recover(self, op: dict):
        spec = self.hankel.HankelSpec.from_json(json.loads((self.plan_dir / op["spec"]).read_text()))
        pair = self.snode.ParamPair.constant(
            self.serialization.matrix_from_json(op["pair"]["R"]),
            self.serialization.matrix_from_json(op["pair"]["Q"]),
        )
        t = time.perf_counter()
        try:
            report = self.hankel.recover_moments(spec, pair)
        except Exception as exc:  # typed or not, the gate decides
            elapsed = time.perf_counter() - t
            return {"error": self._error(exc, isinstance(exc, self.errors.SnodeLabError)), "bytes": 0}, elapsed
        elapsed = time.perf_counter() - t
        import numpy as np

        moments = {
            "max_error": report.max_error(),
            "tail_slack": report.tail_slack(),
            "reference_matches_input": all(
                np.array_equal(ref, spec.H[k]) for ref, k in zip(report.reference, report.orders)
            ) and len(report.reference) == 2 * spec.n - 2,
        }
        return {"error": None, "moments": moments, "bytes": 0}, elapsed

    @staticmethod
    def _error(exc: BaseException, typed: bool) -> dict:
        return {"type": type(exc).__name__, "typed": bool(typed), "message": str(exc)[:300]}


def timed_loop(runner, gate, rounds, seconds, tracer=None):
    """Run every round; stop after a round that ends past ``3 * seconds``.

    A host-speed probe runs before every operation and after the last one.
    Each record holds the operation's wall seconds (``t_wall``), those of its
    whole iteration with the check (``iter_wall``), the host-speed factor and
    both scaled by it (``t``, ``iter_s``); see ``hostspeed``.
    """
    import hostspeed

    threads = hostspeed.thread_count()
    records, probes = [], []
    start = time.perf_counter()
    for r, ops in enumerate(rounds):
        for op in ops:
            probes.append(hostspeed.probe())
            if tracer is not None:
                tracer.op_id = len(records)
            t_iter = time.perf_counter()
            outcome, elapsed = runner.run(op)
            verdict = gate.judge(op, outcome)
            records.append({
                "cls": op["cls"],
                "size": op["size"],
                "edge": op["edge"],
                "t_wall": elapsed,
                "iter_wall": time.perf_counter() - t_iter,
                "passed": verdict.passed,
                "wrong": verdict.wrong,
                "failure": verdict.failure,
                "bytes": outcome.get("bytes", 0),
            })
            if hostspeed.thread_count() != threads:
                raise RuntimeError(
                    f"{op['cls']} left {hostspeed.thread_count()} threads running (was {threads}); "
                    "the host-speed probe between operations would measure them"
                )
        if time.perf_counter() - start > 3.0 * seconds and r + 1 < len(rounds):
            print(f"warning: stopped after {r + 1} of {len(rounds)} rounds", file=sys.stderr)
            break
    probes.append(hostspeed.probe())
    wall = time.perf_counter() - start
    for rec, factor, before in zip(records, hostspeed.factors(probes, len(records)), probes):
        rec.update(speed=factor, probe_s=before, t=rec["t_wall"] * factor, iter_s=rec["iter_wall"] * factor)
    return records, wall

if __name__ == "__main__":
    sys.exit(main())
