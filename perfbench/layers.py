"""Per-layer metrics of the traced run, and what each one should move.

Layers are the package modules.  Every metric is per timed operation unless
its unit says otherwise.  ``moves`` names the end-to-end metric and the
workload where a change in the layer should show; ``no_change`` names the
workloads where the benchmark predicts no change.  The library runs on one
thread and never waits on another process, a lock or I/O it does not issue
itself, so no layer has a waiting time to record.
"""

from __future__ import annotations

import numpy as np

WAITING = "none: the library is single-threaded and no layer waits on another"

_CHAIN = ("op_s.p50 and verified_ops_per_s on chain-verify", "moments, weyl-grid")
_WEYL = ("op_s.* on weyl-grid (small effect on chain-verify)", "moments")
_QUAD = ("op_s.* and verified_ops_per_s on moments", "chain-verify, weyl-grid")

# name -> (unit, better, moves, no_change)
METRICS = {
    "toeplitz.chain_calls": ("count/op", "lower", *_CHAIN),
    "toeplitz.chain_s": ("s/op", "lower", *_CHAIN),
    "hankel.chain_calls": ("count/op", "lower", *_CHAIN),
    "hankel.chain_s": ("s/op", "lower", *_CHAIN),
    "matcore.cholesky_calls": ("count/op", "lower", *_CHAIN),
    "matcore.cholesky_s": ("s/op", "lower", *_CHAIN),
    "snode.lft_calls": ("count/op", "lower", *_WEYL),
    "snode.lft_s": ("s/op", "lower", *_WEYL),
    "toeplitz.frame_calls": ("count/op", "lower", *_WEYL),
    "toeplitz.frame_s": ("s/op", "lower", *_WEYL),
    "snode.transfer_calls": ("count/op", "lower", *_WEYL),
    "snode.transfer_s": ("s/op", "lower", *_WEYL),
    "snode.rho_calls": ("count/op", "lower", *_WEYL),
    "snode.rho_s": ("s/op", "lower", *_WEYL),
    "quadrature.integrals": ("count/op", "lower", *_QUAD),
    "quadrature.integrand_calls": ("count/op", "lower", *_QUAD),
    "quadrature.points": ("count/op", "lower", *_QUAD),
    "quadrature.useful_point_frac": ("ratio", "higher", *_QUAD),
    "quadrature.self_s": ("s/op", "lower", *_QUAD),
    "quadrature.not_converged": ("count/op", "lower", *_QUAD),
    "densities.eval_calls": ("count/op", "lower", *_QUAD),
    "densities.points": ("count/op", "lower", *_QUAD),
    "densities.self_s": ("s/op", "lower", *_QUAD),
    "snode.frame_points": ("count/op", "lower", *_QUAD),
    "snode.frame_s": ("s/op", "lower", *_QUAD),
    "hankel.moment_calls": ("count/op", "lower", *_QUAD),
    "hankel.moment_s": ("s/op", "lower", *_QUAD),
    "hankel.recover_s": ("s/op", "lower", *_QUAD),
    "asymptotics.family_s": ("s/op", "lower", *_QUAD),
    "asymptotics.convergence_s": ("s/op", "lower", *_QUAD),
    "asymptotics.entropy_bound_s": ("s/op", "lower", *_QUAD),
    "asymptotics.outer_modulus_s": ("s/op", "lower", *_QUAD),
    "quadrature.gl_rule_cold_s": ("s", "lower", "setup_s on moments", "chain-verify, weyl-grid"),
    "cli.import_s": ("s", "lower", "setup_s on all three workloads", "-"),
    "cli.handler_s": ("s/op", "lower", "op_s.p50 on chain-verify", "-"),
    "cli.report_s": ("s/op", "lower", "op_s.p50 on chain-verify", "-"),
    "cli.report_bytes": ("B/op", "lower", "op_s.p50 on chain-verify", "-"),
    "trace.overhead": ("ratio", "lower", "none: traced op_s.p50 over untraced op_s.p50", "-"),
}

# metric -> span names whose calls / outermost time it reports
_CALLS = {
    "toeplitz.chain": ("toeplitz.toeplitz_chain",),
    "hankel.chain": ("hankel.hankel_chain",),
    "matcore.cholesky": ("matcore.cholesky_pd",),
    "snode.lft": ("snode.lft",),
    "toeplitz.frame": ("toeplitz.frame_toeplitz", "toeplitz.frame_toeplitz_batch"),
    "snode.transfer": ("snode.transfer_matrix",),
    "snode.rho": ("snode.rho",),
    "hankel.moment": ("hankel.moments_from_density",),
}
_OUTER = {
    "snode.frame_s": ("snode.frame", "snode.frame_batch"),
    "hankel.recover_s": ("hankel.recover_moments",),
    "asymptotics.family_s": (
        "asymptotics.hankel_family_from_density",
        "asymptotics.hankel_family",
        "asymptotics.toeplitz_family",
    ),
    "asymptotics.convergence_s": ("asymptotics.convergence_run",),
    "asymptotics.entropy_bound_s": ("asymptotics.entropy_bound_check",),
    "asymptotics.outer_modulus_s": ("asymptotics.outer_modulus",),
    "cli.handler_s": ("cli.handler",),
}


def compute(tracer, ops: int, report_bytes: int, import_s: float, overhead: float,
            gl_rule_cold_s: float) -> dict:
    """Per-layer metric values from a tracer after the traced pass of ``ops`` operations;
    the set-up figures (import and cold rule construction) come from the warm-up."""
    names, dur, self_t, nested = tracer.span_table()
    size = len(tracer.names)
    outer = ~nested
    index = {name: i for i, name in enumerate(tracer.names)}
    n_calls = np.bincount(names, minlength=size)
    t_outer = np.bincount(names[outer], weights=dur[outer], minlength=size)
    t_self = np.bincount(names, weights=self_t, minlength=size)

    def total(table, group):
        return float(sum(table[index[n]] for n in group if n in index))

    def self_s(layer):
        return total(t_self, [n for n in tracer.names if n.startswith(layer + ".")])

    per_op = 1.0 / max(ops, 1)
    c = tracer.counts
    values = {}
    for key, group in _CALLS.items():
        values[f"{key}_calls"] = total(n_calls, group) * per_op
        values[f"{key}_s"] = total(t_outer, group) * per_op
    for key, group in _OUTER.items():
        values[key] = total(t_outer, group) * per_op
    values["cli.report_s"] = total(t_self, ("cli.run_scenario",)) * per_op
    values["quadrature.integrals"] = c["integrals"] * per_op
    values["quadrature.integrand_calls"] = c["integrand_calls"] * per_op
    values["quadrature.points"] = c["points"] * per_op
    values["quadrature.useful_point_frac"] = c["useful_points"] / c["points"] if c["points"] else 0.0
    values["quadrature.self_s"] = self_s("quadrature") * per_op
    values["quadrature.not_converged"] = c["not_converged"] * per_op
    values["densities.eval_calls"] = c["density_calls"] * per_op
    values["densities.points"] = c["density_points"] * per_op
    values["densities.self_s"] = self_s("densities") * per_op
    values["snode.frame_points"] = c["frame_points"] * per_op
    values["quadrature.gl_rule_cold_s"] = gl_rule_cold_s
    values["cli.import_s"] = import_s
    values["cli.report_bytes"] = report_bytes * per_op
    values["trace.overhead"] = overhead
    missing = set(METRICS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}
