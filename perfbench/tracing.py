"""Spans and counters around the library's public functions.

Used only in the traced run.  :meth:`Tracer.install` wraps every public
function of the layer modules, everywhere it is bound: the defining module
and every module that bound it with ``from ... import``.  It also wraps the
command handlers of ``cli`` and the evaluation methods of ``DensityFn``,
and the integrands handed to the quadrature rules, so that quadrature self
time excludes the integrand.  :meth:`Tracer.uninstall` restores the
originals.  Nothing under ``src/`` is edited.

A span records name, start, end, parent span and operation id, in compact
arrays kept in memory and written out at the end.  A layer's self time is
its spans' durations minus their child spans.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "toeplitz", "hankel", "snode", "quadrature", "densities", "asymptotics", "matcore")
_INTEGRATORS = ("integrate_interval", "integrate_line", "integrate_line_graded")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.parent = array("q")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.op = array("i")
        self.nested = array("b")  # 1 when a span of the same name is open above it
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.op_id = -1
        self.counts: Counter = Counter()
        self.gl_cold: dict[int, float] = {}
        self._passes: list[list[int]] = []  # points per integrator pass, per open check
        self._in_integrator = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open_span(self, nid: int) -> int:
        idx = len(self.t0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.nested.append(1 if self._open[nid] else 0)
        self.t1.append(0.0)
        self._stack.append(idx)
        self._open[nid] += 1
        self.t0.append(perf_counter())
        return idx

    def _close_span(self, idx: int, nid: int) -> None:
        self.t1[idx] = perf_counter()
        self._stack.pop()
        self._open[nid] -= 1

    def wrap(self, name: str, fn, before=None, after=None):
        """A traced stand-in for ``fn``; ``before(args)`` may rewrite arguments,
        ``after(args, elapsed, error)`` takes counts."""
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = tracer._open_span(nid)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._close_span(idx, nid)
                if after is not None:
                    after(args, kwargs, tracer.t1[idx] - tracer.t0[idx], error)

        traced.__wrapped__ = fn
        for attr in ("__name__", "__qualname__", "__module__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, None))
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        prefix = package.__name__ + "."
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                replacements[id(value)] = self.wrap(f"{layer}.{attr}", value, *self._hooks(layer, attr))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    self._patch(module, attr, replacements[id(value)])
        cli = sys.modules[prefix + "cli"]
        for command, handler in list(cli._HANDLERS.items()):
            self._patch(cli._HANDLERS, command, self.wrap("cli.handler", handler))
        densities = sys.modules[prefix + "densities"]
        cls = densities.DensityFn
        self._patch(cls, "__call__", self.wrap("densities.eval", cls.__call__, after=self._count_density))
        self._patch(cls, "log_det_at", self.wrap("densities.eval", cls.log_det_at, after=self._count_density))
        self._quadrature = sys.modules[prefix + "quadrature"]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- per-function counters ---------------------------------------------

    def _hooks(self, layer: str, attr: str):
        if layer == "quadrature" and attr in _INTEGRATORS:
            return self._wrap_integrand, self._count_integrator
        if layer == "quadrature" and attr == "integrate_with_check":
            return self._start_check, self._end_check
        if layer == "quadrature" and attr == "gauss_legendre":
            return self._gl_before, self._gl_after
        if layer == "snode" and attr == "frame_batch":
            return None, lambda a, k, dt, e: self.counts.update({"frame_points": len(np.ravel(a[1]))})
        if layer == "snode" and attr == "frame":
            return None, lambda a, k, dt, e: self.counts.update({"frame_points": 1})
        return None, None

    def _count_density(self, args, kwargs, elapsed, error):
        self.counts["density_calls"] += 1
        self.counts["density_points"] += int(np.size(args[1]))

    def _wrap_integrand(self, args, kwargs):
        fn = args[0]
        module = getattr(fn, "__module__", "") or ""
        layer = module.rsplit(".", 1)[-1] if module.rsplit(".", 1)[-1] in LAYERS else "quadrature"
        counts = self.counts

        def count_points(a, k, dt, e):
            counts["integrand_calls"] += 1
            counts["points"] += int(np.size(a[0]))
            counts["pass_points"] += int(np.size(a[0]))

        self._in_integrator += 1
        if self._in_integrator == 1:
            counts["pass_points"] = 0
        return (self.wrap(f"{layer}.integrand", fn, after=count_points), *args[1:]), kwargs

    def _count_integrator(self, args, kwargs, elapsed, error):
        self._in_integrator -= 1
        if self._in_integrator:
            return
        points = self.counts["pass_points"]
        if self._passes:
            self._passes[-1].append(points)
        else:
            self.counts["integrals"] += 1
            if error is None:
                self.counts["useful_points"] += points

    def _start_check(self, args, kwargs):
        self._passes.append([])
        return args, kwargs

    def _end_check(self, args, kwargs, elapsed, error):
        passes = self._passes.pop()
        self.counts["integrals"] += 1
        if error is None and passes:
            self.counts["useful_points"] += passes[-1]
        if error is not None and type(error).__name__ == "QuadratureNotConverged":
            self.counts["not_converged"] += 1

    def _gl_before(self, args, kwargs):
        self._gl_misses = self._quadrature._gl_nodes.cache_info().misses
        return args, kwargs

    def _gl_after(self, args, kwargs, elapsed, error):
        if self._quadrature._gl_nodes.cache_info().misses > self._gl_misses:
            n = int(args[2] if len(args) > 2 else kwargs["n"])
            self.gl_cold[n] = self.gl_cold.get(n, 0.0) + elapsed

    # -- analysis ----------------------------------------------------------

    def span_table(self):
        """Arrays (name id, duration, self time, nested flag) for every span."""
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        names = np.frombuffer(self.name, dtype=np.int32)
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool)
        return names, dur, dur - child, nested

    def write(self, path) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.t0)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.t0[i]:.9f}\t{self.t1[i]:.9f}\n"
                )
        return len(self.t0)
