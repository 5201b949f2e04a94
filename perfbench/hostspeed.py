"""Host-speed correction of operation times.

On a virtual machine that shares its host (measured on a 2-vCPU Xeon), the
speed of a fixed piece of work wanders by 20-60% over seconds to minutes,
as the neighbours' load comes and goes.  Runs of the same code then
disagree by more than the benchmark's bounds, however long they are.  So
the timed loop runs a fixed *probe* (small LAPACK solves, vectorised
elementwise numpy and interpreted Python: the mix the library itself runs)
just before every operation and once after the last one, and
reports each operation's wall time scaled to a host on which the probe
takes ``PROBE_REF_S``::

    corrected = wall * PROBE_REF_S / median(probes within WINDOW of the op)

Set-up times are scaled the same way, by the probes just before and just
after the set-up.

The probe is the benchmark's own code and calls nothing in the library, so
a change to the library moves the corrected time in the same proportion as
the wall time.  The probe reacts to the host somewhat more strongly than
the operations do (slow over fast state: about 1.6x against 1.3x), so the
correction removes most of the drift, not all of it.  The raw wall times and each operation's factor are kept in the
result file.  The correction assumes the library leaves nothing running
between operations; ``thread_count`` lets the loop refuse a run in which it
does (a background thread would slow the probe and flatter the library).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# About the probe's median time on the reference machine (2-core Xeon,
# OpenBLAS 0.3.31 on one thread).  A constant: corrected times
# are in seconds on a host that runs the probe this fast.
PROBE_REF_S = 0.004
# Probes on each side of an operation whose median sets its factor.
WINDOW = 3
# Probes on each side of a set-up: in the launcher just before it starts the
# worker, and in the worker just after its warm-up.
SETUP_PROBES = 6

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((6, 6))
_A = _M @ _M.T + 6.0 * np.eye(6)
_B = _rng.standard_normal((6, 6))
_X = np.linspace(-1.5, 1.5, 2048)


def probe() -> float:
    """Seconds one fixed piece of work takes now."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(60):
        acc += float(np.linalg.solve(_A, _B[i % 6])[0])
        acc += float(np.sum(np.exp(-_X * _X) * np.cos(_X * i)))
        for j in range(40):
            acc += j * 0.5
    elapsed = time.perf_counter() - t
    if not np.isfinite(acc):
        raise RuntimeError("host-speed probe produced a non-finite value")
    return elapsed


def probes(count: int) -> list[float]:
    """``count`` probe times, after one untimed probe that warms its code."""
    probe()
    return [probe() for _ in range(count)]


def setup_factor(before: list[float], after: list[float]) -> float:
    """Correction factor of a set-up from the probes on either side of it."""
    return PROBE_REF_S / statistics.median(before + after)


def factors(probes: list[float], ops: int) -> list[float]:
    """Correction factor of each of ``ops`` operations.

    ``probes[i]`` ran just before operation ``i`` and ``probes[ops]`` after
    the last one; operation ``i`` takes the median of the probes from
    ``i - WINDOW`` to ``i + 1 + WINDOW``.
    """
    if len(probes) != ops + 1:
        raise ValueError(f"need {ops + 1} probes for {ops} operations, got {len(probes)}")
    return [
        PROBE_REF_S / statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 2])
        for i in range(ops)
    ]


def thread_count() -> int | None:
    """OS threads of this process (None where the platform does not say)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None
