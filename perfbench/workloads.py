"""Seeded inputs for the three benchmark workloads.

Every workload is a sequence of *rounds*.  A round is a fixed multiset of
operation classes and sizes (so the mix, and with it every percentile, is
the same in every run) in a seeded order, and it holds exactly one
known-edge operation: an input just past the range where the library works,
which must show in ``fail_frac``.  The seed draws the contents: specs,
contractions, pairs, lambdas, points and scenario seeds.

All randomness goes through ``snode_lab.sampling`` (or a generator seeded
from the workload seed), and every file is written with sorted keys, so the
same seed gives byte-identical inputs.  A separate *panel* (one operation
per class, drawn from a fixed seed) is the warm-up set; it is identical in
every run.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from snode_lab import sampling, serialization

import oracles

WORKLOADS = ("chain-verify", "weyl-grid", "moments")
PANEL_SEED = 20240714

# Round composition: (class, count).  Each round holds exactly one edge.
# chain-verify uses 1 edge in 40 (not 1 in 20): a run makes ~240 operations,
# and with 11 or more failures the tail percentile (the highest one with ten
# samples beyond it) would be a failure, i.e. +inf.
ROUNDS = {
    "chain-verify": (("toeplitz", 30), ("hankel", 9), ("chain-edge", 1)),
    "weyl-grid": (("khrushchev", 7), ("ball", 12), ("ball-edge", 1)),
    "moments": (
        ("asym-uniform", 6),
        ("asym-expsqrt", 9),
        ("recover", 2),
        ("entropy", 3),
        ("asym-edge", 1),
    ),
}

# Sizes per class.  Where a list is as long as the class's count in a round,
# every round holds each size exactly once (in seeded order), so the mix of
# operation costs, and with it every percentile, is the same in every run.
# Edge lists are cycled across rounds in seeded order.
SIZES = {
    "toeplitz": [(p, n) for p in (1, 2, 3) for n in (4, 5, 6, 7, 8, 9, 10, 12, 14, 16)],
    "hankel": [(1, 2)] * 5 + [(2, 2)] * 4,
    "chain-edge": [("toeplitz", 1, 20), ("hankel", 1, 7), ("toeplitz", 2, 22),
                   ("hankel", 2, 7), ("toeplitz", 1, 24), ("hankel", 2, 7)],
    # Cost grows with length * grid: the five of 360 form one block of 15
    # operations in three rounds, whose middle is the weyl-grid tail.
    "khrushchev": [(1, 4, 60), (2, 6, 40), (1, 8, 45), (1, 10, 36), (1, 12, 30),
                   (2, 8, 45), (2, 12, 30)],
    "ball": [(p, n, grid) for p in (1, 2) for n in (1, 2) for grid in (100, 250, 400)],
    # p=1 n=10 specs pass the ball checks on ~5% of seeds; p=2 on none seen.
    "ball-edge": [(2, 10)],
    "asym-uniform": [(2,), (3,), (4,), (4,), (5,), (6,)],
    "asym-expsqrt": [(2,), (3,), (4,)] * 3,
    "recover": [(1,), (2,)],
    # One n=2 in nine: three rounds then hold eight n=1 entropy operations,
    # whose middle is the moments tail.
    "entropy": [(1,)] * 8 + [(2,)],
    "asym-edge": [(5,)],
}

# Seconds one round takes on the reference machine (2-core Xeon, OpenBLAS
# 0.3.31 on one thread).  A run holds round(seconds / REF_ROUND_S) rounds,
# and at least MIN_ROUNDS: a fixed amount of work, so the number of samples,
# and the rank the tail percentile falls on, do not move with the machine's
# speed.  Three rounds put every percentile in the middle of a block of
# operations of one cost, not on the gap between two blocks: the weyl-grid
# median (rank 30 of 60) among the 12 grid-400 ball operations and its tail
# (the 11th slowest) among the 15 khrushchev operations of length * grid =
# 360; the moments median (rank 32 of 63) among the 9 order-3 exp_sqrt
# asymptotics and its tail among the 8 entropy n=1 operations.
REF_ROUND_S = {"chain-verify": 3.6, "weyl-grid": 9.0, "moments": 7.5}
MIN_ROUNDS = {"chain-verify": 2, "weyl-grid": 3, "moments": 3}


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS[workload], round(seconds / REF_ROUND_S[workload]))


# verify-toeplitz draws its 20 lambdas as complex(U(-3, 3), U(0.4, 3.0)) from
# the scenario seed.  The resolvent test rejects lambda near i/2 for large n
# (the known SingularResolvent edge), so ordinary operations keep every draw
# at least LAMBDA_CLEAR away and edge operations put one within LAMBDA_NEAR.
LAMBDA_DRAWS = 20
LAMBDA_CLEAR = 0.5
LAMBDA_NEAR = 0.05


def toeplitz_lambdas(seed: int) -> np.ndarray:
    """The lambdas ``verify-toeplitz`` draws first from its scenario seed."""
    rng = np.random.default_rng(seed)
    return np.array(
        [complex(rng.uniform(-3, 3), rng.uniform(0.4, 3.0)) for _ in range(LAMBDA_DRAWS)]
    )


def _scenario_seed(rng, near: bool | None = None) -> int:
    while True:
        seed = int(rng.integers(1 << 31))
        if near is None:
            return seed
        gap = float(np.min(np.abs(toeplitz_lambdas(seed) - 0.5j)))
        if (gap < LAMBDA_NEAR) if near else (gap >= LAMBDA_CLEAR):
            return seed


def _upper(rng, re_span: float, im_lo: float, im_hi: float) -> list[float]:
    return [float(rng.uniform(-re_span, re_span)), float(rng.uniform(im_lo, im_hi))]


class _Writer:
    """Writes spec files into ``root/specs`` and names them by operation id."""

    def __init__(self, root: Path):
        self.root = root
        (root / "specs").mkdir(parents=True, exist_ok=True)

    def spec(self, name: str, spec) -> str:
        rel = f"specs/{name}.json"
        (self.root / rel).write_text(json.dumps(spec.to_json(), sort_keys=True))
        return rel


def make_op(cls: str, size: tuple, rng, writer: _Writer, name: str) -> dict:
    """One operation of class ``cls`` at ``size``; inputs drawn from ``rng``."""
    op = {"cls": cls, "size": list(size), "edge": cls.endswith("-edge"), "kind": "cli", "grid": 30,
          "params": {}}
    if cls == "toeplitz":
        p, n = size
        op.update(command="verify-toeplitz", seed=_scenario_seed(rng, near=False))
        op["spec"] = writer.spec(name, sampling.random_toeplitz_spec(rng, p, n))
    elif cls == "hankel":
        p, n = size
        op.update(command="verify-hankel", seed=_scenario_seed(rng))
        op["spec"] = writer.spec(name, sampling.random_hankel_spec(rng, p, n))
    elif cls == "chain-edge":
        side, p, n = size
        if side == "toeplitz":
            op.update(command="verify-toeplitz", seed=_scenario_seed(rng, near=True))
            op["spec"] = writer.spec(name, sampling.random_toeplitz_spec(rng, p, n))
        else:
            op.update(command="verify-hankel", seed=_scenario_seed(rng))
            op["spec"] = writer.spec(name, sampling.random_hankel_spec(rng, p, n))
    elif cls == "khrushchev":
        p, length, grid = size
        op.update(command="khrushchev", seed=_scenario_seed(rng), grid=grid)
        op["params"] = {"p": p, "length": length}
    elif cls in ("ball", "ball-edge"):
        p, n, grid = size if cls == "ball" else (*size, 100)
        op.update(command="ball", seed=_scenario_seed(rng), grid=grid)
        op["spec"] = writer.spec(name, sampling.random_hankel_spec(rng, p, n))
        op["params"] = {"z": _upper(rng, 2.0, 0.3, 2.0)}
    elif cls in ("asym-uniform", "asym-expsqrt", "asym-edge"):
        (max_order,) = size
        lam = _upper(rng, 1.0, 0.5, 2.0)
        if cls == "asym-uniform":
            a = float(rng.uniform(-2.0, 0.0))
            b = a + float(rng.uniform(0.5, 3.0))
            density = {"name": "uniform", "params": {"a": a, "b": b}}
        else:
            density = {"name": "exp_sqrt"}
        op.update(command="asymptotics", seed=_scenario_seed(rng))
        op["params"] = {"density": density, "max_order": max_order, "lambda": lam}
        op["oracle"] = oracles.asymptotics_oracle(density, max_order, complex(*lam))
    elif cls == "recover":
        (p,) = size
        op.update(kind="recover")
        op["spec"] = writer.spec(name, sampling.random_hankel_spec(rng, p, 2))
        pair = sampling.random_constant_pair(rng, p)
        R, Q = pair.constant_value
        op["pair"] = {"R": serialization.matrix_to_json(R), "Q": serialization.matrix_to_json(Q)}
    elif cls == "entropy":
        (n,) = size
        op.update(command="entropy", seed=_scenario_seed(rng))
        op["spec"] = writer.spec(name, sampling.random_hankel_spec(rng, 1, n))
        op["params"] = {"lambda": _upper(rng, 1.5, 0.5, 2.0)}
    else:
        raise ValueError(f"unknown operation class {cls!r}")
    return op


def _cycler(rng, sizes):
    """Endless seeded permutations of ``sizes``."""
    while True:
        for i in rng.permutation(len(sizes)):
            yield sizes[int(i)]


def generate(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Write the inputs of one run into ``out_dir`` and return the op plan.

    The plan is ``{"workload", "seed", "panel": [...], "rounds": [[...], ...]}``
    and is also written to ``out_dir/ops.json``.
    """
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = _Writer(out_dir)
    composition = ROUNDS[workload]

    panel_rng = np.random.default_rng([PANEL_SEED, WORKLOADS.index(workload)])
    panel = []
    for cls, _ in composition:
        sizes = SIZES[cls]
        op = make_op(cls, min(sizes, key=_cost_key), panel_rng, writer, f"panel-{cls}")
        panel.append(op)

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cyclers = {cls: _cycler(rng, SIZES[cls]) for cls, _ in composition}
    rounds = []
    counter = itertools.count()
    for r in range(rounds_for(workload, seconds)):
        slots = [(cls, next(cyclers[cls])) for cls, count in composition for _ in range(count)]
        ops = []
        for i in rng.permutation(len(slots)):
            cls, size = slots[int(i)]
            op = make_op(cls, size, rng, writer, f"op{next(counter):05d}")
            op["round"] = r
            ops.append(op)
        rounds.append(ops)
    plan = {"workload": workload, "seed": int(seed), "panel": panel, "rounds": rounds}
    (out_dir / "ops.json").write_text(json.dumps(plan, sort_keys=True))
    return plan


def _cost_key(size: tuple):
    """Smallest size first, so warm-up stays cheap; strings sort before numbers."""
    return tuple((0, v) if isinstance(v, str) else (1, v) for v in size)
