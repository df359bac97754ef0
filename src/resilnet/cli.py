"""resilnet command line: measure, design, simulate, export-sdp.

Exit codes: 0 success, 2 infeasible design or failed synchronization,
3 input error.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .dynamics import (
    DEFAULT_H,
    DEFAULT_R,
    DEFAULT_T,
    NoiseSpec,
    NoSynchronizedStateError,
    default_ou_sigma,
    simulate,
    stable_step,
    steady_state,
)
from .gridcase import CaseError, GridCase, load_case
from .optimize import DEFAULT_GAMMA, InfeasibleDesignError
from .scenarios import (_bus_ids, emit_report, scenario_one, scenario_two,
                        unit_budget_problem)
from .sdp import assemble_sdp, write_sdpa
from .vulnerability import vulnerability_measure, worst_case

__all__ = ["main"]


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # map argparse usage errors to exit 3
        raise InputError(message)


def _parse_nodes(spec: str, case: GridCase) -> list[int]:
    """Distinct bus ids of a node list, ascending."""
    spec = spec.strip().lower()
    if spec == "all":
        return [b.id for b in case.buses]
    if spec == "generators":
        return list(case.generator_ids)
    try:
        ids = [int(tok) for tok in spec.replace(" ", "").split(",") if tok]
    except ValueError:
        raise InputError(f"cannot parse node list {spec!r}") from None
    if not ids:
        raise InputError("empty node list")
    return _bus_ids(case, ids)


def _load_weights(path: str, m: int) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(f.strip() for f in r)]
    except OSError as exc:
        raise InputError(f"cannot read weights file {path}: {exc}") from None
    if not rows:
        raise InputError(f"weights file {path} is empty")
    col = -1
    start = 0
    header = [f.strip().lower() for f in rows[0]]
    if any(not _is_float(f) for f in rows[0]):
        start = 1
        for name in ("b_star", "weight", "b0"):
            if name in header:
                col = header.index(name)
                break
    values = []
    for r in rows[start:]:
        try:
            values.append(float(r[col]))
        except (ValueError, IndexError):
            raise InputError(f"bad weights row {r!r}") from None
    w = np.array(values)
    if w.size != m:
        raise InputError(f"weights file has {w.size} rows, case has {m} branches")
    if np.any(w < 0):
        raise InputError("weights must be nonnegative")
    return w


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def cmd_measure(args) -> int:
    case = load_case(args.case)
    nodes = _parse_nodes(args.nodes, case)
    graph = case.graph()
    print(f"case {case.name}: {case.n} buses, {len(case.branches)} branches, "
          f"total susceptance {case.total_susceptance:.6g}")
    if abs(case.injection_shift) > 0:
        print(f"injections mean-centered (shift {case.injection_shift:+.6g} pu per bus)")
    kind = {b.id: b.kind for b in case.buses}
    print(f"{'bus':>5} {'kind':<10} {'measure':>14}")
    for bus in nodes:
        val = vulnerability_measure(graph, case.node_of(bus))
        print(f"{bus:>5} {kind[bus]:<10} {val:>14.6g}")
    node, val = worst_case(graph, [case.node_of(b) for b in nodes])
    print(f"worst: bus {case.bus_of(node)} with measure {val:.6g}")
    return 0


def cmd_design(args) -> int:
    case = load_case(args.case)
    nodes = _parse_nodes(args.nodes, case)
    if args.mode == "single":
        report = scenario_one(case, nodes, gamma=args.gamma, epsilon=args.epsilon)
    else:
        report = scenario_two(case, nodes, gamma=args.gamma, epsilon=args.epsilon)
    paths = emit_report(report, args.out)
    print(f"scenario {report.scenario} on {report.case_name}: "
          f"objective {report.objective_before:.6g} -> {report.objective_after:.6g}")
    print(f"sum of measures {report.sum_before:.6g} -> {report.sum_after:.6g}")
    if report.best_node is not None:
        print(f"best node before: bus {report.best_node_before}; "
              f"best node after: bus {report.best_node}")
    skipped = [o.node for o in report.per_node if not o.feasible]
    if skipped:
        print(f"infeasible spectral floor for buses {skipped}; excluded from ranking")
    unconverged = report.unconverged()
    if unconverged:
        print(f"uncertified design for buses {unconverged}; "
              f"certified gap above tolerance (see report.json)")
    increased = [o.node for o in report.per_node if o.increased]
    if increased:
        print(f"measure increased at buses {increased}")
    if report.sync_check.warning:
        print(f"warning: {report.sync_check.warning}")
    print("wrote " + ", ".join(str(p) for p in paths.values()))
    return 0


def cmd_simulate(args) -> int:
    case = load_case(args.case)
    weights = _load_weights(args.weights, len(case.branches))
    node = case.node_of(args.node)
    graph = case.graph(weights)
    omega = case.omega()
    ss = steady_state(graph, omega)
    print(f"steady state: residual {ss.residual:.3e}, "
          f"max angle gap {ss.max_angle_gap:.4g} rad")
    if args.noise == "ou":
        spec = NoiseSpec.ou(node, sigma=default_ou_sigma(omega))
    else:
        spec = NoiseSpec.box(node)
    h, lam_n = stable_step(graph)
    if h < DEFAULT_H:
        print(f"step reduced to h={h:.3g} for stiffness lambda_n={lam_n:.4g}")
    csv_path = Path(args.out) / "trajectories.csv"
    measure = simulate(graph, omega, ss.theta0, spec, csv_path,
                       h=h, T=DEFAULT_T, R=DEFAULT_R, seed=args.seed)
    print(f"empirical vulnerability at bus {args.node} "
          f"({spec.kind}, R={len(measure.per_realization)}): {measure.value:.6g} "
          f"+/- {measure.stderr:.2g}")
    print(f"wrote {csv_path}")
    return 0


def cmd_export_sdp(args) -> int:
    case = load_case(args.case)
    nodes = _parse_nodes(args.nodes, case)
    problem, eps_phys = unit_budget_problem(case, nodes, args.gamma, args.epsilon)
    sdp = assemble_sdp(problem)
    write_sdpa(sdp, args.out)
    print(f"wrote {args.out}: dimension {sdp.dimension}, "
          f"{1 + sdp.coupling_count} constraints, eps {problem.epsilon:.6g} "
          f"(physical {eps_phys:.6g})")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="resilnet",
                     description="Vulnerability-aware susceptance design "
                                 "for oscillator networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="vulnerability of buses at the case weights")
    p.add_argument("--case", required=True)
    p.add_argument("--nodes", default="all")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("design", help="optimize the susceptance allocation")
    p.add_argument("--case", required=True)
    p.add_argument("--mode", choices=("single", "minmax"), required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", default="resilnet_out")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="validate a design by noisy integration")
    p.add_argument("--case", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--noise", choices=("ou", "box"), required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="resilnet_out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("export-sdp", help="write the SDP standard form")
    p.add_argument("--case", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_sdp)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except NoSynchronizedStateError as exc:
        print(f"no synchronized solution: {exc}", file=sys.stderr)
        return 2
    except (InputError, CaseError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
