"""Workload process: set up resilnet, run timed rounds, write a JSON record.

Run by run.py as ``python3 perfbench/worker.py PLAN.json`` in a fresh
interpreter, so set-up time and peak memory belong to one workload. The
first thing it does is the set-up being measured: import ``resilnet.cli``
and load the plan's case. A round runs every entry of the plan's fixed
input list once. Rounds repeat until the next one would end past the time
budget, and at least one always runs, so every run measures the same
inputs whatever the speed of the program or the host. With tracing on,
every round runs twice, untraced and then traced, so the pair gives the
tracing overhead.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path


def blas_info() -> dict:
    """BLAS library and its thread count, read from the loaded OpenBLAS."""
    import numpy as np

    info: dict = {"library": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_info(),
        "RESILNET_THREADS": os.environ.get("RESILNET_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, plan["src"])
    entries = plan["entries"]

    t0 = time.perf_counter()
    import resilnet.cli  # noqa: F401
    from resilnet.gridcase import load_case
    load_case(entries[0]["case"])
    setup_s = time.perf_counter() - t0

    import tracing
    import workloads

    run = workloads.BY_NAME[plan["workload"]]
    tracer = None
    if plan["trace"]:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    modes = (False, True) if tracer else (False,)
    out_root = Path(plan["out"])
    records: list[dict] = []
    budget = plan["seconds"]
    start = time.perf_counter()
    last = 0.0
    rnd = 0
    while rnd == 0 or time.perf_counter() - start + last <= budget:
        unit = time.perf_counter()
        for traced in modes:
            if tracer:
                tracer.enabled = traced
            for i, entry in enumerate(entries):
                out = out_root / f"r{rnd}-{int(traced)}-e{i}"
                out.mkdir(parents=True)
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    info = run(entry, out)
                except Exception:
                    info = {"error": traceback.format_exc(limit=3)}
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
                records.append({"round": rnd, "entry": i, "traced": traced,
                                "wall_s": wall, "cpu_s": cpu, "out": str(out), **info})
        if tracer:
            tracer.enabled = False
        last = time.perf_counter() - unit
        rnd += 1

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "env": environment(),
    }
    if tracer:
        result["layers"] = tracing.layer_totals(tracer.spans)
        result["counts"] = dict(tracer.counts)
        totals: dict[tuple[int, bool], float] = {}
        for r in records:
            key = (r["round"], r["traced"])
            totals[key] = totals.get(key, 0.0) + r["wall_s"]
        result["overhead_s"] = statistics.median(
            totals[(k, True)] - totals[(k, False)] for k in range(rnd))
        result["spans"] = [asdict(sp) for sp in tracer.spans]
    Path(plan["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
