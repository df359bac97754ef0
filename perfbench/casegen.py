"""Seeded 57-bus grid cases for the benchmark.

``draw_case`` is the recipe of ``tools/make_substitute_case.py`` with the
seed as a parameter: a random spanning tree plus chords (the tool's own
``make_topology``), 29 generators, balanced loads with a small imbalance,
and random reactances. Seed 57 reproduces ``cases/ny57_substitute.json``.
A draw that fails the tool's own ``validate`` is redrawn from the next seed
of a fixed sequence, so a workload seed always maps to the same case.

``relabel`` renumbers a case's buses and reorders and reorients its
branches. The result is the same network under other names, so it costs
the program the same work.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

from resilnet.dynamics import NoSynchronizedStateError
from resilnet.gridcase import Branch, Bus, GridCase

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from make_substitute_case import (  # noqa: E402
    N_BRANCHES, N_BUSES, N_GENERATORS, make_topology, validate,
)

# Redraws step the seed by this odd stride, far from small workload seeds.
REDRAW_STRIDE = 100_003
MAX_DRAWS = 50


def draw_case(seed: int) -> GridCase:
    """One draw of the substitute recipe; no acceptance check."""
    rng = np.random.default_rng(seed)
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
    name = "ny57_substitute" if seed == 57 else f"grid57_seed{seed}"
    return GridCase(name=name, buses=buses, branches=branches)


def acceptable(case: GridCase) -> bool:
    """The substitute tool's ``validate``, with its report silenced."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            validate(case)
    except (AssertionError, NoSynchronizedStateError):
        return False
    return True


def make_case(seed: int) -> tuple[GridCase, int]:
    """First acceptable draw at seed, seed + stride, ...; returns the seed used."""
    for attempt in range(MAX_DRAWS):
        used = seed + attempt * REDRAW_STRIDE
        case = draw_case(used)
        if acceptable(case):
            return case, used
    raise RuntimeError(f"no acceptable grid within {MAX_DRAWS} draws of seed {seed}")


def relabel(case: GridCase, seed: int) -> tuple[GridCase, dict[int, int]]:
    """The case with bus ids permuted and branches shuffled and reoriented.

    Returns the new case and the map from old bus ids to new ones.
    """
    rng = np.random.default_rng([seed, 1])
    ids = [b.id for b in case.buses]
    new_id = dict(zip(ids, (int(i) for i in rng.permutation(ids))))
    buses = tuple(sorted(
        (Bus(id=new_id[b.id], kind=b.kind, power_pu=b.power_pu) for b in case.buses),
        key=lambda b: b.id))
    flip = rng.random(len(case.branches)) < 0.5
    branches = []
    for k in rng.permutation(len(case.branches)):
        br = case.branches[k]
        u, v = new_id[br.from_bus], new_id[br.to_bus]
        if flip[k]:
            u, v = v, u
        branches.append(Branch(from_bus=u, to_bus=v, susceptance_pu=br.susceptance_pu))
    return GridCase(name=f"{case.name}_relabel{seed}", buses=buses,
                    branches=tuple(branches)), new_id
