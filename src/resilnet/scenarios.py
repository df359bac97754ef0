"""Grid design workflows: per-node sweeps and worst-case allocation.

Scenario "single" asks which candidate bus tolerates a new disturbance
best, before and after reallocating the susceptance budget for each
candidate separately. Scenario "minmax" reallocates once to protect a
whole node set. Both solve the unit-budget problem of unit_budget_problem,
whose budget is the case's total susceptance, and hand their solves to
_report, the one builder of a ScenarioReport: it rescales the results by
homogeneity (measure(c*b) = measure(b)/c), so reported measures and
weights are in physical per-unit terms. unit_budget_problem is the one
place a case's spectral floor is derived or range-checked, and
_reported_design the one place the reported design is chosen, for the
sync check and for emit_report alike.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterable

from .dynamics import NoSynchronizedStateError, steady_state
from .graphs import spectral_bundle
from .gridcase import GridCase
from .optimize import (
    DEFAULT_EPSILON_SCALE,
    DEFAULT_GAMMA,
    DesignProblem,
    InfeasibleDesignError,
    SolverResult,
    epsilon_from_sync,
    solve_min_max,
    solve_single_node,
)
from .vulnerability import vulnerability_measure

__all__ = [
    "NodeOutcome",
    "SolveDiagnostics",
    "SyncCheck",
    "ScenarioReport",
    "unit_budget_problem",
    "scenario_one",
    "scenario_two",
    "emit_report",
]

_IMPROVE_TOL = 1e-9


def _argmin_node(values: dict[int, float]) -> int:
    """Smallest node id among the (numerically tied) minimizers."""
    vmin = min(values.values())
    cut = vmin + _IMPROVE_TOL * max(1.0, abs(vmin))
    return min(k for k, v in values.items() if v <= cut)


@dataclass(frozen=True)
class NodeOutcome:
    """Measures of one candidate bus before and after optimization."""

    node: int
    before: float
    after: float | None
    feasible: bool
    increased: bool


@dataclass(frozen=True)
class SolveDiagnostics:
    """How one design was solved; bounds, gap and floor slack in physical units.

    ``method`` is "exact-flow" or "barrier"; ``lower_bound`` is a certified
    lower bound on the optimal objective, at most the design's objective,
    and ``gap`` >= 0 the objective minus it; ``converged`` means the gap is
    at most optimize.SOLVER_TOL relative. ``floor_slack`` is lambda_2 -
    epsilon of the design from its spectral bundle (SolverResult), like the
    objective behind the gap; SyncCheck reads its lambda_2 from it.
    """

    method: str
    newton_steps: int
    converged: bool
    lower_bound: float
    gap: float
    floor_slack: float

    @classmethod
    def of(cls, result: SolverResult, scale: float) -> "SolveDiagnostics":
        """Diagnostics of a unit-budget result for a case of total susceptance scale."""
        return cls(method=result.method, newton_steps=result.iterations,
                   converged=result.converged, lower_bound=result.lower_bound / scale,
                   gap=result.kkt_gap / scale, floor_slack=result.feasibility * scale)


@dataclass(frozen=True)
class SyncCheck:
    """Synchronization audit of the reported design. ``lambda2`` is its epsilon +
    floor_slack (b0's own when b0 is reported); it warns of the floor iff slack < 0."""

    gamma: float
    epsilon: float
    lambda2: float
    angle_gap: float | None
    warning: str | None


@dataclass(frozen=True)
class ScenarioReport:
    """Outcome of one scenario run; all quantities in physical units.

    ``b_out`` maps a bus id (as a string key, JSON-friendly) to that
    candidate's optimized weights for scenario "single", or holds the
    single shared vector under key "minmax"; ``solves`` holds each of those
    designs' solver diagnostics under the same key.
    """

    scenario: str
    case_name: str
    gamma: float
    epsilon: float
    budget: float
    edges: tuple[tuple[int, int], ...]
    per_node: tuple[NodeOutcome, ...]
    best_node_before: int
    best_node: int | None
    objective_before: float
    objective_after: float
    sum_before: float
    sum_after: float
    b0: tuple[float, ...]
    b_out: dict[str, tuple[float, ...]]
    sync_check: SyncCheck
    solves: dict[str, SolveDiagnostics]

    def unconverged(self) -> list[int]:
        """Buses whose design is not certified within the solver tolerance."""
        if "minmax" in self.solves:
            shared = self.solves["minmax"]
            return [] if shared.converged else [o.node for o in self.per_node]
        return [int(key) for key, d in self.solves.items() if not d.converged]

    def to_dict(self) -> dict:
        """Fields as a JSON-ready dict that serializes as ``dataclasses.asdict``'s;
        its tuples serialize as lists and are shared, not copied."""
        return _json_ready(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioReport":
        return cls(**{
            **d,
            "edges": tuple((int(a), int(b)) for a, b in d["edges"]),
            "per_node": tuple(NodeOutcome(**o) for o in d["per_node"]),
            "b0": tuple(d["b0"]),
            "b_out": {k: tuple(v) for k, v in d["b_out"].items()},
            "sync_check": SyncCheck(**d["sync_check"]),
            "solves": {k: SolveDiagnostics(**v) for k, v in d["solves"].items()},
        })


def _json_ready(value):
    """Dataclasses as dicts of their fields, rebuilt with the containers that hold
    them; every other value as it is."""
    if is_dataclass(value):
        return {f.name: _json_ready(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, tuple) and value and is_dataclass(value[0]):
        return [_json_ready(v) for v in value]
    return value


def unit_budget_problem(case: GridCase, buses: Iterable[int], gamma: float,
                        epsilon: float | None) -> tuple[DesignProblem, float]:
    """The case's unit-budget design problem over ``buses``, and its physical floor.

    ``epsilon`` is a physical floor in (0, total susceptance). When None,
    the unit-budget floor is max(epsilon_from_sync(omega, graph, gamma) /
    total susceptance, DEFAULT_EPSILON_SCALE), a heuristic (see
    epsilon_from_sync), and must lie below one like a given floor. ``gamma``
    must lie in (0, pi/2) either way. The problem's weights and measures
    scale back by the total susceptance.
    """
    if not 0.0 < gamma < math.pi / 2:
        raise ValueError(f"gamma must lie in (0, pi/2), got {gamma}")
    scale = case.total_susceptance
    graph = case.graph()
    if epsilon is None:
        sync = epsilon_from_sync(case.omega(), graph, gamma)
        eps_norm = max(sync / scale, DEFAULT_EPSILON_SCALE)
        epsilon = eps_norm * scale
        if not eps_norm < 1.0:
            raise ValueError(
                f"spectral floor {epsilon:.6g}, derived at gamma {gamma:.6g}, must lie "
                f"below {scale:.6g}, the total susceptance of {case.name}; lower "
                "--gamma or give --epsilon")
    elif 0.0 < epsilon < scale:
        eps_norm = epsilon / scale
    else:
        raise ValueError(f"epsilon must lie in (0, {scale:.6g}), the total "
                         f"susceptance of {case.name}; got {epsilon}")
    problem = DesignProblem(graph, v_prime=[case.node_of(b) for b in buses],
                            epsilon=eps_norm)
    return problem, epsilon


def _sync_check(case: GridCase, design: tuple[float, ...], gamma: float,
                eps_phys: float, lam2: float, floor_slack: float) -> SyncCheck:
    """Audit of the physical weights ``design``, whose bundle gave lam2 and floor_slack."""
    warnings, gap = [], None
    try:
        gap = steady_state(case.graph(design), case.omega()).max_angle_gap
        if gap > gamma:
            warnings.append(f"steady-state angle gap {gap:.4g} exceeds gamma {gamma:.4g}")
    except NoSynchronizedStateError as exc:
        warnings.append(f"no synchronized steady state found: {exc}")
    if floor_slack < 0.0:
        warnings.append(f"lambda_2 {lam2:.4g} below spectral floor {eps_phys:.4g}")
    return SyncCheck(gamma=gamma, epsilon=eps_phys, lambda2=lam2, angle_gap=gap,
                     warning="; ".join(warnings) or None)


def _reported_design(b_out: dict[str, tuple[float, ...]], best_node: int | None,
                     b0: tuple[float, ...]) -> tuple[str | None, tuple[float, ...]]:
    """b_out key and weights of the reported design: the shared min-max vector,
    else the best candidate's, else (None, b0) when no floor is reachable."""
    key = "minmax" if "minmax" in b_out else None if best_node is None else str(best_node)
    return key, b0 if key is None else b_out[key]


def _report(case: GridCase, scenario: str, buses: list[int], gamma: float,
            eps_phys: float, results: dict[str, SolverResult | None]) -> ScenarioReport:
    """The physical-unit report of a scenario's unit-budget solves.

    ``results`` maps each b_out key (a candidate bus id for "single", or
    "minmax") to its solve, None where the spectral floor is unreachable.
    Scenario "single" reports the best bus (min), "minmax" the worst (max).
    """
    scale = case.total_susceptance
    graph0 = case.graph()
    before: dict[int, float] = {}
    after: dict[int, float] = {}
    outcomes = []
    for c in buses:
        node = case.node_of(c)
        before[c] = vulnerability_measure(graph0, node)
        res = results[str(c) if scenario == "single" else "minmax"]
        if res is not None:
            after[c] = res.per_node[node] / scale
        outcomes.append(NodeOutcome(
            node=c, before=before[c], after=after.get(c), feasible=res is not None,
            increased=c in after and after[c] > before[c] + _IMPROVE_TOL,
        ))
    designs = {key: res for key, res in results.items() if res is not None}
    b_out = {key: tuple(float(v) for v in res.b_star * scale)
             for key, res in designs.items()}
    b0 = tuple(float(v) for v in case.susceptances())
    best = _argmin_node(after) if after else None
    aggregate = min if scenario == "single" else max
    objective_before = aggregate(before.values())
    solves = {key: SolveDiagnostics.of(res, scale) for key, res in designs.items()}
    key, design = _reported_design(b_out, best, b0)
    # b0's lambda_2 comes from the bundle behind the before measures.
    lam2 = (float(spectral_bundle(graph0).eigenvalues[1]) if key is None
            else eps_phys + solves[key].floor_slack)
    floor_slack = lam2 - eps_phys if key is None else solves[key].floor_slack
    return ScenarioReport(
        scenario=scenario,
        case_name=case.name,
        gamma=gamma,
        epsilon=eps_phys,
        budget=scale,
        edges=tuple((br.from_bus, br.to_bus) for br in case.branches),
        per_node=tuple(outcomes),
        best_node_before=_argmin_node(before),
        best_node=best,
        objective_before=objective_before,
        objective_after=aggregate(after.values()) if after else objective_before,
        sum_before=sum(before.values()),
        sum_after=sum(after.get(c, before[c]) for c in buses),
        b0=b0,
        b_out=b_out,
        sync_check=_sync_check(case, design, gamma, eps_phys, lam2, floor_slack),
        solves=solves,
    )


def _bus_ids(case: GridCase, ids: Iterable[int]) -> list[int]:
    """Distinct bus ids in ascending order, each checked by ``case.node_of``."""
    return [case.bus_of(k) for k in sorted({case.node_of(c) for c in ids})]


def scenario_one(
    case: GridCase,
    candidates: tuple[int, ...] | list[int],
    gamma: float = DEFAULT_GAMMA,
    epsilon: float | None = None,
) -> ScenarioReport:
    """Rank candidate buses by vulnerability before and after reallocation.

    Every candidate gets its own single-node optimization; candidates whose
    spectral floor is unreachable are flagged and excluded from the "after"
    ranking, and the run continues.
    """
    candidates = _bus_ids(case, candidates)
    if not candidates:
        raise ValueError("candidate set is empty")
    gens = set(case.generator_ids)
    rogue = [c for c in candidates if c not in gens]
    if rogue:
        raise ValueError(f"candidates must be generator buses; {rogue} are not")
    problem, eps_phys = unit_budget_problem(case, candidates, gamma, epsilon)
    results: dict[str, SolverResult | None] = {}
    for c in candidates:
        try:
            results[str(c)] = solve_single_node(problem, case.node_of(c))
        except InfeasibleDesignError:
            results[str(c)] = None
    return _report(case, "single", candidates, gamma, eps_phys, results)


def scenario_two(
    case: GridCase,
    v_prime: tuple[int, ...] | list[int],
    gamma: float = DEFAULT_GAMMA,
    epsilon: float | None = None,
) -> ScenarioReport:
    """Distribute the susceptance budget to protect a whole bus set.

    One worst-case optimization over the node set; raises
    InfeasibleDesignError, in physical units, when the spectral floor is
    unreachable.
    """
    v_prime = _bus_ids(case, v_prime)
    if not v_prime:
        raise ValueError("v_prime is empty")
    problem, eps_phys = unit_budget_problem(case, v_prime, gamma, epsilon)
    try:
        result = solve_min_max(problem)
    except InfeasibleDesignError as exc:
        # lambda_2 scales with the budget, like the floor.
        scale = case.total_susceptance
        raise InfeasibleDesignError(eps_phys, exc.attained * scale,
                                    exc.upper_bound * scale) from None
    return _report(case, "minmax", v_prime, gamma, eps_phys, {"minmax": result})


def emit_report(report: ScenarioReport, out_dir: str | Path) -> dict[str, Path]:
    """Write report.json, measures.csv, weights.csv, and plot-data files."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from None
    paths: dict[str, Path] = {}

    def _write(name: str, *lines: str) -> None:
        path = out / name
        try:
            path.write_text("\n".join(lines) + "\n")
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from None
        paths[name] = path

    _write("report.json", json.dumps(report.to_dict(), indent=2))
    nodes = [f"{o.node},{o.before:.17g},"
             + ("" if o.after is None else f"{o.after:.17g}") for o in report.per_node]
    b0 = [f"{w:.17g}" for w in report.b0]
    b_star = [f"{w:.17g}" for w in
              _reported_design(report.b_out, report.best_node, report.b0)[1]]
    _write("measures.csv", "node,before,after", *nodes)
    _write("weights.csv", "edge,b0,b_star",
           *(f"{i}-{j},{w0},{ws}" for (i, j), w0, ws in zip(report.edges, b0, b_star)))
    _write("figdata_bars.csv", "node,measure_before,measure_after", *nodes)
    for tag, weights in (("before", b0), ("after", b_star)):
        _write(f"figdata_network_{tag}.csv", "from,to,weight",
               *(f"{i},{j},{w}" for (i, j), w in zip(report.edges, weights)))
    return paths
