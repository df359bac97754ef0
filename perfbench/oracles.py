"""Independent checks of each call's outputs, run after the timed worker exits.

Each check returns a list of (operation, ok, reason). The reference values
come from numpy and scipy directly (pseudoinverses, breadth-first search, a
linear-programming lower bound, the SDPA text re-read and evaluated entry by
entry), not from resilnet's own solvers, so a wrong fast path cannot vouch
for itself.
"""
from __future__ import annotations

import csv
import math
import re
from collections import deque
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

GAMMA = math.pi / 16          # the CLI's default angle bound
EPS_FLOOR = 1e-4              # the CLI's unit-budget floor on the spectral floor
SOLVER_TOL = 1e-6             # SolverConfig.tol, relative to the objective
MEASURE_RTOL = 1e-8
TRACE_ATOL = 1e-9
STEADY_TOL = 1e-8
LINEAR_RTOL = 1e-3            # nonlinear vs linearized OU estimate
# Allowed relative gap between a min-max objective and its certified lower
# bound. solve_min_max leaves 6e-4 to 8e-4 on the grids tried; stopping it
# at 1,000 iterations leaves about 4e-3.
MINMAX_GAP = 2e-3
Check = tuple[str, bool, str]


def laplacian(n: int, edges, b) -> np.ndarray:
    L = np.zeros((n, n))
    for (i, j), w in zip(edges, b):
        L[i - 1, i - 1] += w
        L[j - 1, j - 1] += w
        L[i - 1, j - 1] -= w
        L[j - 1, i - 1] -= w
    return L


def pinv_diagonal(n: int, edges, b) -> np.ndarray:
    return np.diag(np.linalg.pinv(laplacian(n, edges, b)))


def unit_floor(case) -> float:
    """Unit-budget spectral floor the CLI derives for a case."""
    omega = case.omega()
    spread = max(abs(omega[i - 1] - omega[j - 1]) for i, j in case.edge_pairs())
    return max(spread * math.sin(GAMMA) / case.total_susceptance, EPS_FLOOR)


def lambda2(case, b) -> float:
    return float(np.linalg.eigvalsh(laplacian(case.n, case.edge_pairs(), b))[1])


def elfving_optimum(case, bus: int) -> tuple[float, float]:
    """Unit-budget single-node optimum bound and lambda_2 of its design.

    Routing the unit demand e_k - 1/n along a breadth-first shortest-path
    tree gives L1 flow mean-hop(k); Cauchy-Schwarz makes its square a lower
    bound on L+_kk for every unit-budget weighting, attained by weights
    proportional to the tree flows. The bound is the optimum when that
    design meets the spectral floor.
    """
    n, edges = case.n, case.edge_pairs()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for idx, (i, j) in enumerate(edges):
        adj[i].append((j, idx))
        adj[j].append((i, idx))
    k = case.node_of(bus)
    dist = [-1] * (n + 1)
    via = [-1] * (n + 1)
    parent = [0] * (n + 1)
    dist[k] = 0
    order = [k]
    queue = deque([k])
    while queue:
        u = queue.popleft()
        for v, idx in adj[u]:
            if dist[v] < 0:
                dist[v], via[v], parent[v] = dist[u] + 1, idx, u
                order.append(v)
                queue.append(v)
    size = [1] * (n + 1)
    flow = np.zeros(len(edges))
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
        flow[via[v]] = size[v] / n
    mean_hop = sum(dist[1:]) / n
    return mean_hop ** 2, lambda2(case, flow / flow.sum())


def min_max_lower_bound(case, b, targets) -> float:
    """Lower bound on min over unit-budget weightings of max_k L+_kk.

    For target weights p, f_p(b) = sum_k p_k L+_kk(b) is convex in b with
    gradient -g_e, g_e = sum_k p_k ((L+ a_e)_k)^2, and b.g = f_p(b). So for
    every unit-budget b', max_k L+_kk(b') >= f_p(b') >= 2 f_p(b) - max_e g_e.
    The p that maximises this bound at the given b comes from a small
    linear program. The bound ignores the spectral floor, which only raises
    the optimum; at the optimum b and p it is tight.
    """
    n, edges = case.n, case.edge_pairs()
    b = np.asarray(b, dtype=float) / np.sum(b)
    pinv = np.linalg.pinv(laplacian(n, edges, b))
    idx = [case.node_of(t) - 1 for t in targets]
    incidence = np.zeros((len(edges), n))
    for e, (i, j) in enumerate(edges):
        incidence[e, i - 1], incidence[e, j - 1] = 1.0, -1.0
    g = (incidence @ pinv[:, idx]) ** 2          # g[e, k] = ((L+ a_e)_k)^2
    d = np.diag(pinv)[idx]
    l = len(idx)
    # Variables p_1..p_l and s = max_e g_e.p: maximise 2 d.p - s.
    res = linprog(np.append(-2.0 * d, 1.0),
                  A_ub=np.hstack([g, -np.ones((len(edges), 1))]), b_ub=np.zeros(len(edges)),
                  A_eq=[np.append(np.ones(l), 0.0)], b_eq=[1.0],
                  bounds=[(0, None)] * l + [(None, None)])
    if not res.success:
        raise RuntimeError(f"lower-bound LP failed: {res.message}")
    return -float(res.fun)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def sweep(case, plan: dict, record: dict) -> list[Check]:
    buses = plan["nodes"]
    if "error" in record or record["exit"]["design"] != 0:
        why = record.get("error", f"exit {record.get('exit')}")
        return [(f"design bus {b}", False, why) for b in buses]
    out = Path(record["out"])
    rows = {int(r["node"]): r for r in _read_rows(out / "measures.csv")}
    scale = case.total_susceptance
    eps = unit_floor(case)
    before_ref = pinv_diagonal(case.n, case.edge_pairs(), case.susceptances())
    checks = []
    for bus in buses:
        op = f"design bus {bus}"
        row = rows.get(bus)
        if row is None or not row["after"]:
            checks.append((op, False, "no optimized measure reported"))
            continue
        before, after = float(row["before"]), float(row["after"])
        if not _close(before, before_ref[case.node_of(bus) - 1], MEASURE_RTOL):
            checks.append((op, False, f"before {before} != pinv {before_ref[case.node_of(bus) - 1]}"))
            continue
        bound, lam2 = elfving_optimum(case, bus)
        unit = after * scale
        if unit < bound * (1 - 1e-9):
            checks.append((op, False, f"objective {unit} below the Elfving bound {bound}"))
        elif lam2 >= eps and unit > bound * (1 + SOLVER_TOL):
            checks.append((op, False, f"objective {unit} above the Elfving optimum {bound}"))
        else:
            checks.append((op, True, ""))
    return checks


def _parse_sdpa(path: Path):
    text = path.read_text()
    header = [ln for ln in text.splitlines()[:20] if ln.startswith("*")]
    targets = eps = None
    for ln in header:
        if m := re.search(r"targets V' = \[([^\]]*)\]", ln):
            targets = [int(t) for t in m.group(1).split(",") if t.strip()]
        if m := re.search(r"spectral floor eps = (\S+)", ln):
            eps = float(m.group(1))
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("*")]
    count = int(body[0])
    sizes = [int(s) for s in body[2].split()]
    rhs = np.array([float(v) for v in body[3].split()])
    entries = np.array(" ".join(body[4:]).split(), dtype=float).reshape(-1, 5)
    return targets, eps, count, sizes, rhs, entries


def _check_min_max(case, b_star: np.ndarray, after: dict[int, float]) -> tuple[bool, str]:
    """Checks of a min-max design that a wrong or stopped-early solve fails.

    The weights must spend the whole budget and meet the spectral floor,
    the reported measures must be the pseudoinverse diagonal of those
    weights, and the objective must lie between the single-node bound and
    MINMAX_GAP above the certified lower bound.
    """
    n, edges = case.n, case.edge_pairs()
    scale = case.total_susceptance
    gens = case.generator_ids
    floor = unit_floor(case) * scale
    if not _close(b_star.sum(), scale, 1e-9) or b_star.min() < 0:
        return False, f"weights sum to {b_star.sum()} (budget {scale}), min {b_star.min()}"
    lam2 = lambda2(case, b_star)
    if lam2 < floor * (1 - 1e-6):
        return False, f"lambda_2 {lam2} below the floor {floor}"
    ref = pinv_diagonal(n, edges, b_star)
    bad = [g for g in gens
           if g not in after or not _close(after[g], ref[case.node_of(g) - 1], MEASURE_RTOL)]
    if bad:
        return False, f"measures disagree with pinv at buses {bad}"
    objective = max(after[g] for g in gens)
    bound = max(elfving_optimum(case, g)[0] for g in gens) / scale
    if objective < bound * (1 - 1e-9):
        return False, f"objective {objective} below the single-node bound {bound}"
    lower = min_max_lower_bound(case, b_star, gens) / scale
    if objective > lower * (1 + MINMAX_GAP):
        return False, f"objective {objective} more than {MINMAX_GAP} above the lower bound {lower}"
    return True, ""


def protect(case, plan: dict, record: dict) -> list[Check]:
    if "error" in record:
        return [("min-max design", False, record["error"]),
                ("SDP export", False, record["error"])]
    out = Path(record["out"])
    n, edges = case.n, case.edge_pairs()
    gens = case.generator_ids
    checks: list[Check] = []

    b_star = None
    if record["exit"]["design"] != 0:
        checks.append(("min-max design", False, f"exit {record['exit']['design']}"))
    else:
        b_star = np.array([float(r["b_star"]) for r in _read_rows(out / "weights.csv")])
        after = {int(r["node"]): float(r["after"]) for r in _read_rows(out / "measures.csv")}
        checks.append(("min-max design", *_check_min_max(case, b_star, after)))

    if record["exit"]["export"] != 0:
        checks.append(("SDP export", False, f"exit {record['exit']['export']}"))
        return checks
    targets, eps, count, sizes, rhs, entries = _parse_sdpa(out / "problem.sdpa")
    l, m = len(gens), len(edges)
    if eps is None or not _close(eps, unit_floor(case), 1e-12):
        checks.append(("SDP export", False, f"header eps {eps} != unit floor {unit_floor(case)}"))
        return checks
    expected = l * (n * (n + 1) // 2 + n) + (l - 1) + n * (n + 1) // 2
    if count - 1 != expected:
        checks.append(("SDP export", False, f"{count - 1} constraints, expected {expected}"))
        return checks
    if sizes != [n + 1] * l + [-m, n] or targets != [case.node_of(g) for g in gens]:
        checks.append(("SDP export", False, f"block layout {sizes} / targets {targets}"))
        return checks
    b = b_star if b_star is not None else case.susceptances()
    b = b / b.sum()
    M = laplacian(n, edges, b) + 1.0 / n
    t = float(np.max(np.diag(np.linalg.inv(M))[[k - 1 for k in targets]]))
    mat, blk, i, j, v = (entries[:, 0].astype(int), entries[:, 1].astype(int) - 1,
                         entries[:, 2].astype(int), entries[:, 3].astype(int), entries[:, 4])
    ii, jj = np.minimum(i, n) - 1, np.minimum(j, n) - 1
    z = np.zeros(v.size)
    s_blk = blk < l
    inner = s_blk & (j <= n)
    z[inner] = M[ii[inner], jj[inner]]
    border = s_blk & (i <= n) & (j == n + 1)
    k_of = np.array(targets)[np.minimum(blk, l - 1)]
    z[border] = (i[border] == k_of[border]).astype(float)
    z[s_blk & (i == n + 1)] = t
    dblk = blk == l
    z[dblk] = b[i[dblk] - 1]
    eblk = blk == l + 1
    z[eblk] = M[ii[eblk], jj[eblk]] - eps * (i[eblk] == j[eblk])
    traces = np.bincount(mat, weights=v * z * np.where(i == j, 1.0, 2.0),
                         minlength=count + 1)
    resid = np.abs(traces[1:] - rhs)
    worst = int(np.argmax(resid))
    if resid[worst] > TRACE_ATOL * max(1.0, abs(rhs[worst])):
        checks.append(("SDP export", False,
                       f"constraint {worst + 1}: trace {traces[worst + 1]} != rhs {rhs[worst]}"))
    else:
        checks.append(("SDP export", True, ""))
    return checks


def validate(case, plan: dict, record: dict) -> list[Check]:
    ops = ("steady state", "nonlinear OU", "nonlinear box", "linearized OU",
           "trajectory CSV")
    if "error" in record:
        return [(op, False, record["error"]) for op in ops]
    checks: list[Check] = []
    theta = np.array(record["theta0"])
    edges = case.edge_pairs()
    ei = np.array([e[0] for e in edges]) - 1
    ej = np.array([e[1] for e in edges]) - 1
    flow = case.susceptances() * np.sin(theta[ei] - theta[ej])
    mismatch = case.omega() - np.bincount(ei, flow, case.n) + np.bincount(ej, flow, case.n)
    resid = float(np.abs(mismatch).max())
    checks.append(("steady state", resid < STEADY_TOL, f"residual {resid:.3g}"))
    est = record["estimates"]
    for op, key in (("nonlinear OU", "nonlinear_ou"), ("nonlinear box", "nonlinear_box")):
        ok = math.isfinite(est[key]) and est[key] > 0
        checks.append((op, ok, f"estimate {est[key]}"))
    lin, nl = est["linearized_ou"], est["nonlinear_ou"]
    ok = math.isfinite(lin) and lin > 0 and abs(lin - nl) <= LINEAR_RTOL * abs(nl)
    checks.append(("linearized OU", ok, f"linearized {lin} vs nonlinear {nl}"))
    path = Path(record["out"]) / "trajectories.csv"
    expected = 1 + len(range(0, record["steps"] + 1, record["stride"])) * record["realizations"] * case.n
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    last = lines[-1].decode().split(",") if lines else []
    ok = (len(lines) == expected and len(last) == 5
          and all(math.isfinite(float(x)) for x in last))
    checks.append(("trajectory CSV", ok, f"{len(lines)} rows, expected {expected}"))
    return checks


CHECKS = {"sweep": sweep, "protect": protect, "validate": validate}
