"""One call of each workload, as run inside the worker process.

Each call goes through resilnet's public entry points the way a user
does: the CLI for ``sweep`` and ``protect``, and the ``dynamics`` library
the way ``cmd_simulate`` drives it for ``validate``. Functions are looked up on
their modules at call time so that the tracer's wrappers take effect.
A call runs one entry of the plan's input list and returns what the
parent's oracles need beyond the files it wrote under ``out``.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from resilnet import cli, dynamics, graphs, gridcase

VALIDATE_REALIZATIONS = 4
VALIDATE_STEPS = 20_000   # fixed step count, so cost does not follow the grid's stiffness
CSV_POINTS = 2000         # cmd_simulate's stride rule: steps // 2000


def sweep(entry: dict, out: Path) -> dict:
    nodes = ",".join(str(b) for b in entry["nodes"])
    rc = cli.main(["design", "--case", entry["case"], "--mode", "single",
                   "--nodes", nodes, "--out", str(out)])
    return {"exit": {"design": rc}}


def protect(entry: dict, out: Path) -> dict:
    rc_design = cli.main(["design", "--case", entry["case"], "--mode", "minmax",
                          "--nodes", "generators", "--out", str(out)])
    rc_export = cli.main(["export-sdp", "--case", entry["case"],
                          "--nodes", "generators",
                          "--out", str(out / "problem.sdpa")])
    return {"exit": {"design": rc_design, "export": rc_export}}


def step_size(graph) -> float:
    """cmd_simulate's stiffness rule for the RK4 step."""
    lam_n = float(np.linalg.eigvalsh(graphs.laplacian(graph))[-1])
    h = dynamics.DEFAULT_H
    if h * lam_n >= 0.5:
        h = 0.4 / lam_n
    return h


def validate(entry: dict, out: Path) -> dict:
    case = gridcase.load_case(entry["case"])
    graph = case.graph()
    omega = case.omega()
    node = case.node_of(entry["bus"])
    ss = dynamics.steady_state(graph, omega)
    h = step_size(graph)
    T = VALIDATE_STEPS * h
    R = VALIDATE_REALIZATIONS
    seed = entry["noise_seed"]
    ou = dynamics.NoiseSpec.ou(node, sigma=dynamics.default_ou_sigma(omega))
    stride = max(1, VALIDATE_STEPS // CSV_POINTS)

    traj = dynamics.integrate_nonlinear(graph, omega, ss.theta0, ou,
                                        h=h, T=T, R=R, seed=seed)
    est_ou = dynamics.empirical_vulnerability(traj)
    dynamics.export_trajectories_csv(traj, out / "trajectories.csv", stride=stride)
    del traj
    traj = dynamics.integrate_nonlinear(graph, omega, ss.theta0,
                                        dynamics.NoiseSpec.box(node),
                                        h=h, T=T, R=R, seed=seed)
    est_box = dynamics.empirical_vulnerability(traj)
    del traj
    traj = dynamics.integrate_linearized(graph, ss, ou, h=h, T=T, R=R, seed=seed)
    est_lin = dynamics.empirical_vulnerability(traj)
    del traj
    return {
        "theta0": ss.theta0.tolist(),
        "h": h,
        "steps": VALIDATE_STEPS,
        "realizations": R,
        "stride": stride,
        "estimates": {"nonlinear_ou": est_ou.value, "nonlinear_box": est_box.value,
                      "linearized_ou": est_lin.value},
    }


BY_NAME = {"sweep": sweep, "protect": protect, "validate": validate}
