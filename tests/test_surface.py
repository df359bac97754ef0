"""Public surface: benchmark tracer targets and hooks, and every ``__all__``, resolve."""
import importlib
import pkgutil
from pathlib import Path

import resilnet
from resilnet import (
    DesignProblem,
    NoiseSpec,
    assemble_sdp,
    complete_graph_edges,
    load_case,
    steady_state,
)
from resilnet.sdp import format_sdpa

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_targets_resolve(monkeypatch):
    # Imported by module name from perfbench/, as the benchmark worker
    # imports it; a missing target would fail every traced run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for span, mod, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(mod), attr)), span


def test_tracer_hooks_read_real_results(monkeypatch):
    # A hook reads fields of its target's result, so a renamed field would
    # otherwise fail only a traced benchmark run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    case = load_case(ROOT / "cases" / "k5_toy.json")
    g, omega = case.graph(), case.omega()
    ss = steady_state(g, omega)
    spec = NoiseSpec.ou(node=2)
    n, l = 5, 2
    problem = DesignProblem(n, complete_graph_edges(n), v_prime=[1, 3])
    calls = {
        "optimize.solve_single_node": lambda f: f(problem, 1),
        "optimize.solve_min_max": lambda f: f(problem),
        "scenarios.scenario_one": lambda f: f(case, [1, 2]),
        "scenarios.scenario_two": lambda f: f(case, [1, 3]),
        "sdp.assemble_sdp": lambda f: f(problem),
        "sdp.format_sdpa": lambda f: f(assemble_sdp(problem)),
        "dynamics.integrate_nonlinear":
            lambda f: f(g, omega, ss.theta0, spec, h=0.01, T=1.0, R=2),
        "dynamics.integrate_linearized":
            lambda f: f(g, ss, spec, h=0.01, T=1.0, R=2),
    }
    hooked = [target for target in tracing.TARGETS if target[3] is not None]
    assert {span for span, *_ in hooked} == set(calls)
    tracer = tracing.Tracer()
    for span, mod, attr, hook in hooked:
        hook(tracer, span, calls[span](getattr(importlib.import_module(mod), attr)))
    counts = dict(tracer.counts)
    solvers = ("optimize.solve_single_node", "optimize.solve_min_max")
    assert set(counts) == {
        *(f"{s}.{key}" for s in solvers for key in ("iterations", "unconverged")),
        "scenarios.sync_warnings", "sdp.constraints", "sdp.bytes",
        "dynamics.steps", "dynamics.trajectory_bytes"}
    assert all(counts[f"{s}.unconverged"] == 0 for s in solvers)
    assert counts["scenarios.sync_warnings"] == 0
    # the count perfbench/oracles.py checks against the SDPA header
    tri = n * (n + 1) // 2
    assert counts["sdp.constraints"] == l * (tri + n) + (l - 1) + tri
    assert counts["sdp.bytes"] == len(format_sdpa(assemble_sdp(problem)).encode())
    assert counts["dynamics.steps"] == 2 * (2 * 100)
    assert counts["dynamics.trajectory_bytes"] > 0
    # A box pulse is integrated once whatever R is, so its 100 steps count once.
    span, mod, attr, hook = next(t for t in hooked if t[0] == "dynamics.integrate_nonlinear")
    box = NoiseSpec.box(node=2)
    hook(tracer, span, getattr(importlib.import_module(mod), attr)(
        g, omega, ss.theta0, box, h=0.01, T=1.0, R=2))
    assert tracer.counts["dynamics.steps"] - counts["dynamics.steps"] == 100


def test_every_all_name_exists():
    modules = [info.name for info in pkgutil.iter_modules(resilnet.__path__)]
    assert {"graphs", "vulnerability", "designs", "optimize"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"resilnet.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"resilnet.{name}.{attr}"
