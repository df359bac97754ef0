"""In-memory span tracing of resilnet layers, installed from outside the package.

``instrument`` replaces each traced function by a timing wrapper in every
loaded ``resilnet`` module that holds a reference to it, which covers both
imports (``resilnet.cli.scenario_one``) and calls inside the defining
module (``resilnet.graphs.spectral_bundle`` from ``algebraic_connectivity``).
Spans keep their parent id; a span opened on a thread with no open span of
its own (a ``scenario_one`` pool worker) takes the main thread's innermost
open span as parent, since the main thread is blocked inside that call.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int


def _solver_counts(tracer: "Tracer", name: str, result) -> None:
    tracer.add(f"{name}.iterations", result.iterations)
    tracer.add(f"{name}.unconverged", 0 if result.converged else 1)


def _scenario_counts(tracer: "Tracer", name: str, report) -> None:
    tracer.add("scenarios.sync_warnings", 1 if report.sync_check.warning else 0)


def _trajectory_counts(tracer: "Tracer", name: str, traj) -> None:
    tracer.add("dynamics.steps", traj.realizations * (traj.times.size - 1))
    # Computed from the array shapes, not measured.
    tracer.add("dynamics.trajectory_bytes",
               traj.theta.nbytes + traj.freq.nbytes + traj.times.nbytes)


# (span name, defining module, attribute, hook on the returned value)
TARGETS = (
    ("cli.main", "resilnet.cli", "main", None),
    ("gridcase.load_case", "resilnet.gridcase", "load_case", None),
    ("graphs.spectral_bundle", "resilnet.graphs", "spectral_bundle", None),
    ("vulnerability.vulnerability_measure", "resilnet.vulnerability",
     "vulnerability_measure", None),
    ("designs.optimality_certificate", "resilnet.designs",
     "optimality_certificate", None),
    ("optimize.solve_single_node", "resilnet.optimize", "solve_single_node",
     _solver_counts),
    ("optimize.solve_min_max", "resilnet.optimize", "solve_min_max",
     _solver_counts),
    ("scenarios.scenario_one", "resilnet.scenarios", "scenario_one",
     _scenario_counts),
    ("scenarios.scenario_two", "resilnet.scenarios", "scenario_two",
     _scenario_counts),
    ("scenarios.emit_report", "resilnet.scenarios", "emit_report", None),
    ("sdp.assemble_sdp", "resilnet.sdp", "assemble_sdp",
     lambda t, n, sdp: t.add("sdp.constraints", len(sdp.constraints))),
    ("sdp.format_sdpa", "resilnet.sdp", "format_sdpa",
     lambda t, n, text: t.add("sdp.bytes", len(text.encode()))),
    ("dynamics.steady_state", "resilnet.dynamics", "steady_state", None),
    ("dynamics.integrate_nonlinear", "resilnet.dynamics", "integrate_nonlinear",
     _trajectory_counts),
    ("dynamics.integrate_linearized", "resilnet.dynamics",
     "integrate_linearized", _trajectory_counts),
    ("dynamics.empirical_vulnerability", "resilnet.dynamics",
     "empirical_vulnerability", None),
    ("dynamics.export_trajectories_csv", "resilnet.dynamics",
     "export_trajectories_csv", None),
)
SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Collects spans and counts; ``enabled`` gates recording."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main) if tid != self._main else None
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, tid))
            if hook is not None:
                hook(self, name, result)
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    """Replace every reference to a traced function in loaded resilnet modules."""
    for name, modname, attr, hook in TARGETS:
        original = getattr(importlib.import_module(modname), attr)
        wrapper = tracer.wrap(name, original, hook)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("resilnet"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is the span's duration minus the part of its interval that
    its children cover; children on parallel threads overlap, so the union
    of their intervals is subtracted, not the sum.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
    for sp in spans:
        dur = sp.end - sp.start
        kids = [(max(s, sp.start), min(e, sp.end)) for s, e in children[sp.id]]
        row = out[sp.name]
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - _covered([k for k in kids if k[1] > k[0]])
    return out
