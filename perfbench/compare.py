"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by ``run.py`` (its
``.perfbench/results/``).  Runs are paired by workload and seed.  For every
end-to-end metric of every workload the tool prints each side's median and
quartiles, the unit and the bound from ``BENCHMARK.json``, and a verdict:

* ``gain``: the change wins at least 9 pairs in 10 (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more than
  the bound (as a share of the parent's median);
* ``unresolved``: a side's spread (IQR over median) exceeds the bound, unless
  every change run beats every parent run;
* ``no change``: none of the above;
* a gain does not count when more operations failed than at the parent;
* ``too few pairs``: fewer than ten pairs.

It also checks that the pairs alternated which side ran first, and prints
the tracing overhead (traced over untraced ``op_s.p50``) of each side.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """{(workload, seed, trace): summary} for every result file in ``directory``."""
    out = {}
    for path in sorted(directory.glob("*-t[01].json")):
        data = json.loads(path.read_text())
        out[(data["workload"], data["seed"], bool(data["trace"]))] = data
    return out


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if len(parent) < MIN_PAIRS:
        return "too few pairs", wins
    q1p, mp, q3p = stats.quartiles(parent)
    _, mc, _ = stats.quartiles(change)
    if sign * (mc - mp) > bound * abs(mp):
        return "regression", wins
    if stats.spread(parent) > bound or stats.spread(change) > bound:
        if max(sign * c for c in change) < min(sign * p for p in parent):
            return "better (every run)", wins
        return "unresolved", wins
    if wins >= WIN_SHARE * len(parent) and abs(mc - mp) > (q3p - q1p):
        return "gain", wins
    return "no change", wins


def alternated(pairs: list[tuple[dict, dict]]) -> bool:
    """True when consecutive pairs (in time order) swap which side ran first."""
    firsts = [p["started"] < c["started"] for p, c in sorted(pairs, key=lambda pc: min(
        pc[0]["started"], pc[1]["started"]))]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    for workload in [w["name"] for w in bench["workloads"]]:
        keys = sorted(k for k in parent if k[0] == workload and not k[2] and k in change)
        pairs = [(parent[k], change[k]) for k in keys]
        print(f"== {workload}: {len(pairs)} pairs, alternating: {'yes' if pairs and alternated(pairs) else 'no'}")
        for label, side in (("parent", parent), ("change", change)):
            overhead = [v["metrics"]["trace.overhead"]["value"] for k, v in side.items()
                        if k[0] == workload and k[2]]
            if overhead:
                print(f"   tracing overhead ({label}): median {stats.p50(overhead):.3f}x "
                      f"over {len(overhead)} traced runs")
        if not pairs:
            continue
        more_failures = sum(b["failed"] for _, b in pairs) > sum(a["failed"] for a, _ in pairs)
        print(f"   {'metric':20s} {'unit':8s} {'bound':>6s} {'parent median [q1, q3]':>36s} "
              f"{'change median [q1, q3]':>36s} {'wins':>6s}  verdict")
        for name, spec in metrics.items():
            p = [a["metrics"][name]["value"] for a, _ in pairs]
            c = [b["metrics"][name]["value"] for _, b in pairs]
            text, wins = verdict(p, c, spec["better"], spec["bound"])
            if text == "gain" and more_failures:
                text = "no gain: more operations failed than at the parent"
            print(f"   {name:20s} {spec['unit']:8s} {spec['bound']:6.2f} {_fmt(p):>36s} {_fmt(c):>36s} "
                  f"{wins:3d}/{len(pairs):<2d}  {text}")
    return 0


def _fmt(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, m, q3 = stats.quartiles(values)
    return f"{m:.4g} [{q1:.4g}, {q3:.4g}]"


if __name__ == "__main__":
    sys.exit(main())
