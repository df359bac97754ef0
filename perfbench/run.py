"""resilnet benchmark: one workload per call, last stdout line is the JSON result.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 57 --seconds 25 --trace 0

Workloads: ``sweep`` (single-node designs through the CLI), ``protect``
(min-max design and SDP export through the CLI), ``validate`` (noisy
simulation through the dynamics library), or ``all`` for the three in turn.
The seed draws the inputs: a relabelling of the shipped 57-bus recipe for
``sweep`` and ``protect``, and a fresh 57-bus grid, bus and noise seed for
``validate``. The program only sees the generated case files. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run. See
perfbench/README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("sweep", "protect", "validate")
BASE_SEED = 57         # recipe seed of the grid that sweep and protect relabel
SWEEP_STRIDE = 6       # sweep designs every sixth generator of the base grid
SETUP_PROBES = 6       # fresh interpreters timed besides the worker's own set-up
DEADLINE_S = 170       # a one-workload call must end well inside 180 s
SPAN_METRICS_WITH_CALLS = (
    "graphs.spectral_bundle", "vulnerability.vulnerability_measure",
    "designs.optimality_certificate", "optimize.solve_single_node",
    "optimize.solve_min_max",
)
PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import resilnet.cli
from resilnet.gridcase import load_case
load_case(sys.argv[2])
print(time.perf_counter() - t0)
"""


def make_plan(workload: str, seed: int, work: Path) -> tuple[list[dict], object, int]:
    """The workload's fixed input list, its case and the recipe seed used.

    sweep and protect run on the base grid relabelled by the seed: the same
    network under other bus ids and branch order, so every seed costs the
    program the same work. sweep's list is one design request per bus of a
    fixed roster, every SWEEP_STRIDE-th generator. validate runs on a fresh
    grid drawn with the seed, at a generator bus and noise seed drawn from
    it; its cost is set by the fixed step count, not by the grid.
    """
    import numpy as np
    from casegen import make_case, relabel
    from resilnet.gridcase import write_case

    path = str(work / "case.json")
    if workload == "validate":
        case, used = make_case(seed)
        rng = np.random.default_rng([seed, 2])
        entries = [{"case": path, "bus": int(rng.choice(case.generator_ids)),
                    "noise_seed": int(rng.integers(2**31))}]
    else:
        base, used = make_case(BASE_SEED)
        case, new_id = relabel(base, seed)
        if workload == "sweep":
            roster = base.generator_ids[::SWEEP_STRIDE]
            entries = [{"case": path, "nodes": [new_id[b]]} for b in roster]
        else:
            entries = [{"case": path}]
    write_case(case, path)
    return entries, case, used


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def probe_setup(case_path: str) -> float:
    out = subprocess.run([sys.executable, "-c", PROBE, str(SRC), case_path],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def round_totals(records: list[dict], key: str) -> list[float]:
    """Sum of ``key`` over each round's records, in round order."""
    totals: dict[int, float] = {}
    for r in records:
        totals[r["round"]] = totals.get(r["round"], 0.0) + r[key]
    return [totals[k] for k in sorted(totals)]


def per_layer(result: dict, k: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced round; k is the number of traced rounds."""
    layers, counts = result["layers"], result["counts"]
    metrics: dict[str, tuple[float, str]] = {}
    for name, row in layers.items():
        metrics[f"{name}.s"] = (row["s"] / k, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] / k, "s")
        if name in SPAN_METRICS_WITH_CALLS:
            metrics[f"{name}.calls"] = (row["calls"] / k, "count")
    for solver in ("optimize.solve_single_node", "optimize.solve_min_max"):
        iters = counts.get(f"{solver}.iterations", 0.0)
        metrics[f"{solver}.iterations"] = (iters / k, "count")
        metrics[f"{solver}.s_per_iter"] = (layers[solver]["s"] / iters if iters else 0.0, "s")
        metrics[f"{solver}.unconverged"] = (counts.get(f"{solver}.unconverged", 0.0) / k, "count")
    metrics["scenarios.sync_warnings"] = (counts.get("scenarios.sync_warnings", 0.0) / k, "count")
    metrics["sdp.constraints"] = (counts.get("sdp.constraints", 0.0) / k, "count")
    metrics["sdp.bytes"] = (counts.get("sdp.bytes", 0.0) / k, "B")
    steps = counts.get("dynamics.steps", 0.0)
    integrate = (layers["dynamics.integrate_nonlinear"]["s"]
                 + layers["dynamics.integrate_linearized"]["s"])
    metrics["dynamics.steps"] = (steps / k, "count")
    metrics["dynamics.us_per_step"] = (1e6 * integrate / steps if steps else 0.0, "us")
    metrics["dynamics.trajectory_bytes"] = (
        counts.get("dynamics.trajectory_bytes", 0.0) / k, "B")
    metrics["trace.overhead_s"] = (result["overhead_s"], "s")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    import oracles

    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        entries, case, grid_seed = make_plan(workload, seed, work)
        setups = [probe_setup(entries[0]["case"]) for _ in range(SETUP_PROBES)]
        plan = {"workload": workload, "trace": trace, "seconds": seconds,
                "src": str(SRC), "entries": entries, "out": str(work / "out"),
                "result": str(work / "result.json")}
        (work / "plan.json").write_text(json.dumps(plan))
        with open(work / "worker.log", "w") as log:
            subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "plan.json")],
                           stdout=log, stderr=subprocess.STDOUT, check=True,
                           timeout=max(10.0, deadline - time.monotonic()))
        result = json.loads((work / "result.json").read_text())
        setups.append(result["setup_s"])

        check = oracles.CHECKS[workload]
        outcomes = []
        for rec in result["records"]:
            outcomes += check(case, entries[rec["entry"]], rec)
        failed = [(op, why) for op, ok, why in outcomes if not ok]
        plain = [r for r in result["records"] if not r["traced"]]
        traced = [r for r in result["records"] if r["traced"]]
        summary = {
            "workload": workload, "seed": seed, "trace": trace,
            "grid_seed": grid_seed, "case": case.name, "entries": entries,
            "wall_s": round_totals(plain, "wall_s"),
            "cpu_s": round_totals(plain, "cpu_s"),
            "entry_wall_s": [[r["entry"], r["wall_s"]] for r in plain],
            "setup_s": setups,
            "peak_rss_mb": result["peak_rss_mb"],
            "attempted": len(outcomes), "failed": failed,
            "env": {**result["env"], "git_commit": git_commit()},
        }
        if trace:
            summary["traced_wall_s"] = round_totals(traced, "wall_s")
            summary["layers"] = per_layer(result, len(summary["traced_wall_s"]))
            spans_path = WORK / f"{tag}-spans.json"
            spans_path.write_text(json.dumps(result["spans"]))
            summary["spans_file"] = str(spans_path)
        (WORK / f"{tag}-record.json").write_text(json.dumps(summary, indent=1))
        return summary
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(s: dict) -> dict:
    """Print the human-readable summary; return the metrics for the JSON line."""
    wall, cpu = quartiles(s["wall_s"]), quartiles(s["cpu_s"])
    setup = statistics.median(s["setup_s"])
    attempted, failed = s["attempted"], len(s["failed"])
    rounds = len(s["wall_s"])
    print(f"== {s['workload']} seed {s['seed']} trace {int(s['trace'])}: "
          f"{rounds} timed rounds of {len(s['entries'])} calls, "
          f"{len(s.get('traced_wall_s', []))} traced; case {s['case']} "
          f"(recipe seed {s['grid_seed']})")
    print("env " + json.dumps(s["env"], sort_keys=True))
    print(f"wall_s       {wall[1]:.4f} s   (q1 {wall[0]:.4f}, q3 {wall[2]:.4f}, n={rounds} rounds)")
    print(f"cpu_s        {cpu[1]:.4f} s   (q1 {cpu[0]:.4f}, q3 {cpu[2]:.4f})")
    print(f"peak_rss_mb  {s['peak_rss_mb']:.1f} MB")
    print(f"setup_s      {setup:.4f} s   (median of {len(s['setup_s'])}: "
          + ", ".join(f"{v:.3f}" for v in s["setup_s"]) + ")")
    print(f"error_rate   {failed / attempted:.4f}   ({failed} of {attempted} operations failed)")
    for op, why in s["failed"][:10]:
        print(f"  failed: {op}: {why.strip().splitlines()[-1] if why else ''}")
    if not s["trace"]:
        return {
            "wall_s": {"value": wall[1], "unit": "s"},
            "cpu_s": {"value": cpu[1], "unit": "s"},
            "peak_rss_mb": {"value": s["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"},
        }
    layers = s["layers"]
    traced_wall = statistics.fmean(s["traced_wall_s"])
    print(f"traced round {traced_wall:.4f} s (mean); per-layer values are per traced round")
    for name, (value, unit) in layers.items():
        share = ""
        if name.endswith(".s") or name.endswith(".self_s"):
            share = f"  {100.0 * value / traced_wall:5.1f}% of round"
        if value:
            print(f"  {name:<46} {value:>14.6g} {unit:<5}{share}")
    unconverged = {k: v for k, v in layers.items() if k.endswith(".unconverged") and v[0]}
    for name, (value, _) in unconverged.items():
        print(f"note: {name} = {value:g} per round: the solver's own converged flag is "
              "False although the output passed its oracle (see perfbench/README.md)")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the worker or probe it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "resilnet" / "__init__.py").is_file():
        print(f"perfbench: no resilnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        s = run_workload(name, args.seed, args.seconds, bool(args.trace),
                         time.monotonic() + DEADLINE_S)
        got = report(s)
        if len(names) > 1:
            got = {f"{name}.{k}": v for k, v in got.items()}
        metrics.update(got)
        attempted += s["attempted"]
        failed += len(s["failed"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
