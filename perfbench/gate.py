"""Correctness gate: judges the outcome of every operation.

An operation *fails* when it exits 1 or 2, raises, or gives a result that
disagrees with its reference.  A failure is recorded by a class: the typed
error (``exit2:SingularResolvent``), the failing check tags
(``exit1:H7``), or the benchmark check that rejected it
(``check:max_error``).

An outcome is *wrong* (class ``wrong:...``) when the program's output cannot
be trusted: a report row whose pass flag contradicts its own value and
tolerance, a report that claims success with a failing row, a passing report
whose numbers miss the high-precision oracle (``oracles.py``), an input echo
that differs from the input, or an exception that is not one of the
library's typed errors.  A run with any wrong outcome is not ``correct``.  A
typed failure is an honest answer and only counts against ``fail_frac`` and
the latency metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# How each report row decides pass/fail from (value, tol), keyed by row name.
_LE = lambda v, t: v <= t  # noqa: E731
_ROW_RULES = {
    "node identity residual": _LE,
    "coefficient j-unitarity": _LE,
    "coefficient positivity": lambda v, t: v < 0.0,
    "contraction norms": lambda v, t: v < 1.0,
    "step matrices positive": lambda v, t: v < 0.0,
    "factor product vs transfer matrix": _LE,
    "recursion vs transfer matrix": _LE,
    "frame composition": _LE,
    "omega self-annihilation": _LE,
    "omega step products": _LE,
    "omega start": _LE,
    "frame convention": _LE,
    "head/tail composition residual": _LE,
    "corner block equals reversed rho": _LE,
    "schur complement equals rho inverse": _LE,
    "membership contraction norms": _LE,
    "membership round trip": _LE,
    "equality at the extremal pair": _LE,
    "poisson normalization": _LE,
    "strict slack at the witness pair": lambda v, t: v > t,
    "entropy bound over random pairs": _LE,
    "nesting compressions": _LE,
    "monotone growth margin": _LE,
    "inverse determinants positive": None,  # boolean row: value carries no information
    "gap to the outer-factor target shrinks": None,
}

# Rows that are residuals of an identity (value >= 0, ideally 0).  Only these
# enter resid_log10; norm bounds, margins and boolean rows do not.
RESIDUAL_ROWS = frozenset({
    "node identity residual",
    "coefficient j-unitarity",
    "factor product vs transfer matrix",
    "recursion vs transfer matrix",
    "frame composition",
    "omega self-annihilation",
    "omega step products",
    "omega start",
    "frame convention",
    "head/tail composition residual",
    "corner block equals reversed rho",
    "schur complement equals rho inverse",
    "membership round trip",
    "equality at the extremal pair",
    "poisson normalization",
    "nesting compressions",
})

# recover_moments acceptance, as in acceptance criterion 5.
RECOVER_MAX_ERROR = 1e-5
RECOVER_TAIL_SLACK = 1e-6


@dataclass
class Verdict:
    passed: bool
    wrong: bool = False
    failure: str | None = None
    # log10(value / tol) of every residual row and oracle comparison
    resid: list = field(default_factory=list)


def _log_ratio(value: float, tol: float) -> float | None:
    if value > 0.0 and tol > 0.0 and math.isfinite(value):
        return math.log10(value / tol)
    return None


def _error_verdict(outcome: dict) -> Verdict:
    err = outcome["error"]
    typed = err["typed"]
    label = f"exit2:{err['type']}" if typed else f"raise:{err['type']}"
    return Verdict(passed=False, wrong=not typed, failure=label)


def judge_cli(op: dict, outcome: dict) -> Verdict:
    """Verdict for a CLI operation from its exit code and JSON report."""
    if outcome.get("error") is not None:
        return _error_verdict(outcome)
    report = outcome["report"]
    rows = report["checks"]
    resid = []
    failing = []
    wrong = None
    for row in rows:
        rule = _ROW_RULES.get(row["name"], _LE)
        if rule is not None and bool(rule(row["value"], row["tol"])) != bool(row["passed"]):
            wrong = f"row:{row['tag']}"
        if not row["passed"]:
            failing.append(row["tag"])
        if row["name"] in RESIDUAL_ROWS:
            r = _log_ratio(row["value"], row["tol"])
            if r is not None:
                resid.append(r)
    all_pass = all(row["passed"] for row in rows)
    if bool(report["passed"]) != all_pass or (outcome["exit"] == 0) != all_pass:
        wrong = wrong or "report:passed-flag"
    if op.get("spec") is not None and "spec" in report and report["spec"] != outcome.get("spec_echo"):
        wrong = wrong or "report:spec-echo"
    oracle_fail = None
    if op.get("oracle") is not None and all_pass:
        oracle_fail, oracle_resid = _check_asymptotics(op["oracle"], report)
        resid.extend(oracle_resid)
        wrong = wrong or (f"oracle:{oracle_fail}" if oracle_fail else None)
    if wrong:
        return Verdict(passed=False, wrong=True, failure=f"wrong:{wrong}", resid=resid)
    if failing:
        return Verdict(passed=False, failure="exit1:" + "+".join(sorted(set(failing))), resid=resid)
    return Verdict(passed=True, resid=resid)


def _check_asymptotics(oracle: dict, report: dict):
    """Compare the reported trajectory with the mpmath references."""
    resid = []
    failed = None
    rows = report["trajectory"]
    if [r["k"] for r in rows] != list(range(1, len(oracle["det_rho_inv"]) + 1)):
        return "orders", resid
    for row, ref, tol in zip(rows, oracle["det_rho_inv"], oracle["det_rtol"]):
        err = abs(row["det_rho_inv"] - ref) / abs(ref)
        r = _log_ratio(err, tol)
        if r is not None:
            resid.append(r)
        if not err <= tol:
            failed = failed or "det_rho_inv"
    if oracle["target"] is not None:
        if report["target"] is None:
            return "target", resid
        err = abs(report["target"] - oracle["target"]) / abs(oracle["target"])
        r = _log_ratio(err, oracle["target_rtol"])
        if r is not None:
            resid.append(r)
        if not err <= oracle["target_rtol"]:
            failed = failed or "target"
    return failed, resid


def judge_recover(op: dict, outcome: dict) -> Verdict:
    """Verdict for ``hankel.recover_moments`` (criterion 5 thresholds)."""
    if outcome.get("error") is not None:
        return _error_verdict(outcome)
    result = outcome["moments"]
    if not result["reference_matches_input"]:
        return Verdict(passed=False, wrong=True, failure="wrong:reference")
    resid = []
    r = _log_ratio(result["max_error"], RECOVER_MAX_ERROR)
    if r is not None:
        resid.append(r)
    if not result["max_error"] <= RECOVER_MAX_ERROR:
        return Verdict(passed=False, failure="check:max_error", resid=resid)
    if not result["tail_slack"] <= RECOVER_TAIL_SLACK:
        return Verdict(passed=False, failure="check:tail_slack", resid=resid)
    return Verdict(passed=True, resid=resid)


def judge(op: dict, outcome: dict) -> Verdict:
    if op["kind"] == "recover":
        return judge_recover(op, outcome)
    return judge_cli(op, outcome)
