"""Generate the shipped grid cases.

The 57-bus substitute mirrors the shape of the NY-region test system (57
buses, 29 generators, 28 loads, 94 lines) with synthetic but physically
plausible per-unit data; the real dataset is not public, so scenario
numbers on this case are illustrative. Regenerating with the same seed
reproduces the shipped file bit for bit.

Run from the repository root:  python3 tools/make_substitute_case.py
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from resilnet.dynamics import steady_state
from resilnet.graphs import algebraic_connectivity
from resilnet.gridcase import Bus, Branch, GridCase, write_case
from resilnet.optimize import DEFAULT_GAMMA, epsilon_from_sync

N_BUSES = 57
N_GENERATORS = 29
N_BRANCHES = 94
SEED = 57


def make_topology(rng: np.random.Generator) -> list[tuple[int, int]]:
    """Connected sparse topology: random spanning tree plus chords."""
    edges: list[tuple[int, int]] = []
    seen = set()
    for v in range(2, N_BUSES + 1):
        u = int(rng.integers(1, v))
        edges.append((u, v))
        seen.add((u, v))
    while len(edges) < N_BRANCHES:
        u = int(rng.integers(1, N_BUSES + 1))
        v = int(rng.integers(1, N_BUSES + 1))
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair in seen:
            continue
        seen.add(pair)
        edges.append(pair)
    return edges


def make_case() -> GridCase:
    rng = np.random.default_rng(SEED)
    edges = make_topology(rng)
    gen_ids = set(int(i) + 1 for i in
                  rng.choice(N_BUSES, size=N_GENERATORS, replace=False))
    power = np.zeros(N_BUSES)
    for i in range(N_BUSES):
        if i + 1 in gen_ids:
            power[i] = float(rng.uniform(0.1, 0.9))
    gen_total = power.sum()
    load_ids = [i for i in range(N_BUSES) if i + 1 not in gen_ids]
    draws = rng.uniform(0.2, 1.0, size=len(load_ids))
    draws *= gen_total / draws.sum()
    for i, d in zip(load_ids, draws):
        power[i] = -float(d)
    # Leave a small imbalance so the mean-centering path is exercised.
    power[next(iter(sorted(gen_ids)))] += 0.02

    reactance = rng.uniform(0.03, 0.25, size=N_BRANCHES)
    buses = tuple(
        Bus(id=i + 1,
            kind="generator" if i + 1 in gen_ids else "load",
            power_pu=round(float(power[i]), 6))
        for i in range(N_BUSES)
    )
    branches = tuple(
        Branch(from_bus=u, to_bus=v,
               susceptance_pu=round(1.0 / float(x), 6))
        for (u, v), x in zip(edges, reactance)
    )
    return GridCase(name="ny57_substitute", buses=buses, branches=branches)


def validate(case: GridCase) -> None:
    gens = case.generator_ids
    assert case.n == N_BUSES and len(case.branches) == N_BRANCHES
    assert len(gens) == N_GENERATORS
    graph = case.graph()
    omega = case.omega()
    scale = case.total_susceptance
    eps_phys = epsilon_from_sync(omega, graph, DEFAULT_GAMMA)
    lam2_phys = algebraic_connectivity(graph)
    uniform = case.graph(np.full(N_BRANCHES, scale / N_BRANCHES))
    lam2_uni = algebraic_connectivity(uniform)
    ss = steady_state(graph, omega)
    print(f"total susceptance  {scale:.4f}")
    print(f"eps (physical)     {eps_phys:.6f}")
    print(f"lambda2 b0         {lam2_phys:.6f}  (margin x{lam2_phys / eps_phys:.2f})")
    print(f"lambda2 uniform    {lam2_uni:.6f}  (margin x{lam2_uni / eps_phys:.2f})")
    print(f"steady-state gap   {ss.max_angle_gap:.6f}  (gamma {DEFAULT_GAMMA:.6f})")
    assert lam2_phys > 1.5 * eps_phys, "original susceptances too close to the floor"
    assert lam2_uni > 1.5 * eps_phys, "uniform allocation too close to the floor"
    assert ss.max_angle_gap <= DEFAULT_GAMMA, "steady state violates the angle premise"


def main() -> None:
    out = Path(__file__).resolve().parents[1] / "cases" / "ny57_substitute.json"
    case = make_case()
    validate(case)
    write_case(case, out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
