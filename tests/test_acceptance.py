"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 5's lower-bound clause checks the per-node floor
(1 - 1/n)^2 / sum(b) at random nodes and its equality at the center of an
evenly weighted star, so that neither a false floor nor a slack one passes.
"""
import time
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from resilnet import (
    DesignProblem,
    NoiseSpec,
    algebraic_connectivity,
    assemble_sdp,
    build_graph,
    commute_decomposition,
    complete_graph_edges,
    complete_graph_optimum,
    decode_point,
    empirical_vulnerability,
    encode_point,
    integrate_nonlinear,
    load_case,
    lower_bound,
    optimality_certificate,
    scenario_one,
    scenario_two,
    solve_single_node,
    tree_optimum,
    vulnerability_gradient,
    vulnerability_measure,
)

from conftest import (
    batched_measure,
    random_connected_graph,
    random_tree,
    simplex_grid,
    support_connected_mask,
)

CASES_DIR = Path(__file__).resolve().parents[1] / "cases"


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_complete_graph_oracle():
    worst_obj = worst_w = worst_t = 0.0
    for n in (3, 4, 5, 6):
        prob = DesignProblem(n, complete_graph_edges(n), v_prime=[1])
        t0 = time.monotonic()
        res = solve_single_node(prob, 1)
        elapsed = time.monotonic() - t0
        target = ((n - 1) / n) ** 2
        d_obj = abs(res.objective - target)
        d_w = float(np.abs(res.b_star - complete_graph_optimum(n, 1)).max())
        worst_obj = max(worst_obj, d_obj)
        worst_w = max(worst_w, d_w)
        worst_t = max(worst_t, elapsed)
        assert d_obj < 1e-4 and d_w < 1e-3 and elapsed < 5.0
    _verdict("1", True,
             f"K3..K6 star oracle; max |obj err| {worst_obj:.2e} (tol 1e-4), "
             f"max weight err {worst_w:.2e} (tol 1e-3), max time {worst_t:.2f}s (< 5s)")


def test_criterion_2_tree_oracle():
    rng = np.random.default_rng(202)
    fixed_t7 = build_graph(7, [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (5, 7)],
                           np.ones(6))
    star_s4 = build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)], np.ones(4))
    p3 = build_graph(3, [(1, 2), (2, 3)], np.ones(2))
    cases = [(p3, 1), (star_s4, 1), (fixed_t7, 4)]
    cases += [(random_tree(rng, int(rng.integers(3, 11))), None) for _ in range(20)]
    worst_obj = worst_res = 0.0
    for tree, k in cases:
        if k is None:
            k = int(rng.integers(1, tree.n + 1))
        ref = tree_optimum(tree, k)
        ref_val = vulnerability_measure(tree.with_weights(ref), k)
        cert = optimality_certificate(tree.with_weights(ref), k)
        res_max = float(np.abs(cert.residuals).max())
        prob = DesignProblem(tree.n, tree.edge_pairs, v_prime=[k])
        solved = solve_single_node(prob, k)
        d_obj = abs(solved.objective - ref_val)
        worst_obj = max(worst_obj, d_obj)
        worst_res = max(worst_res, res_max)
        assert d_obj < 1e-4
        assert res_max < 1e-6
    _verdict("2", True,
             f"23 trees; max |obj err| {worst_obj:.2e} (tol 1e-4), "
             f"max |certificate residual| {worst_res:.2e} (tol 1e-6)")


def test_criterion_3_brute_force_equivalence():
    topologies = {
        "P2": (2, [(1, 2)]),
        "P3": (3, [(1, 2), (2, 3)]),
        "K3": (3, [(1, 2), (2, 3), (1, 3)]),
        "P4": (4, [(1, 2), (2, 3), (3, 4)]),
        "S3": (4, [(1, 2), (1, 3), (1, 4)]),
    }
    worst = 0.0
    for name, (n, edges) in topologies.items():
        grid = simplex_grid(len(edges), 1000)
        mask = support_connected_mask(n, edges, grid)
        grid = grid[mask]
        for k in range(1, n + 1):
            grid_min = float(batched_measure(n, edges, grid, k).min())
            prob = DesignProblem(n, edges, v_prime=[k])
            res = solve_single_node(prob, k)
            gap = abs(res.objective - grid_min)
            worst = max(worst, gap)
            assert gap <= 1e-3, (name, k, res.objective, grid_min)
    _verdict("3", True,
             f"all m<=3 topologies, every node, grid step 1e-3; "
             f"max |solver - grid| {worst:.2e} (tol 1e-3)")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(204)
    worst = 0.0
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(3, 11)))
        k = int(rng.integers(1, g.n + 1))
        ana = vulnerability_gradient(g, k)
        fd = np.zeros(g.m)
        h = 1e-6
        for l in range(g.m):
            bp, bm = np.array(g.b), np.array(g.b)
            bp[l] += h
            bm[l] -= h
            fd[l] = (vulnerability_measure(g.with_weights(bp), k)
                     - vulnerability_measure(g.with_weights(bm), k)) / (2 * h)
        rel = float(np.abs(ana - fd).max() / np.abs(ana).max())
        worst = max(worst, rel)
        assert rel < 1e-5
    _verdict("4", True,
             f"100 random graphs n<=10; max relative gradient error "
             f"{worst:.2e} (tol 1e-5)")


def test_criterion_5a_homogeneity():
    rng = np.random.default_rng(205)
    worst = 0.0
    for _ in range(1000):
        g = random_connected_graph(rng, int(rng.integers(3, 11)), unit_budget=True)
        k = int(rng.integers(1, g.n + 1))
        base = vulnerability_measure(g, k)
        for c in (0.5, 2.0, 10.0):
            err = abs(vulnerability_measure(g.with_weights(np.array(g.b) * c), k) * c
                      - base)
            worst = max(worst, err)
            assert err < 1e-10
    _verdict("5a", True,
             f"1000 random unit-budget graphs; max homogeneity defect "
             f"{worst:.2e} (tol 1e-10)")


def test_criterion_5b_lower_bound_as_specified():
    # Every node measures at least (1 - 1/n)^2 / sum(b) (Thomson's principle
    # plus Cauchy-Schwarz), with equality at the center of an evenly
    # weighted star; both the 3-path center and S5 are checked for it.
    p3 = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    s5 = build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)], [0.25] * 4)
    for star, center in ((p3, 2), (s5, 1)):
        gap = abs(lower_bound(star) - vulnerability_measure(star, center))
        assert gap < 1e-12, f"floor not tight at star center (gap {gap:.2e})"
    rng = np.random.default_rng(206)
    violations = []
    for _ in range(1000):
        g = random_connected_graph(rng, int(rng.integers(3, 11)), unit_budget=True)
        k = int(rng.integers(1, g.n + 1))
        measure = vulnerability_measure(g, k)
        floor = lower_bound(g)
        if measure < floor - 1e-9:
            violations.append((g.n, g.m, k, measure, floor))
    ok = not violations
    detail = (
        f"{len(violations)}/1000 graphs violate measure >= "
        f"(1-1/n)^2/sum(b) - 1e-9; first violation "
        f"(n={violations[0][0]}, m={violations[0][1]}, k={violations[0][2]}): "
        f"measure {violations[0][3]:.4f} < floor {violations[0][4]:.4f}"
        if violations else
        "no violations in 1000 graphs; tight at the P3 and S5 centers"
    )
    _verdict("5b", ok, detail)


def test_criterion_6_commute_identity():
    rng = np.random.default_rng(207)
    worst = 0.0
    for _ in range(200):
        g = random_connected_graph(rng, int(rng.integers(3, 13)), unit_budget=True)
        k = int(rng.integers(1, g.n + 1))
        from_k, pairs = commute_decomposition(g, k)
        gap = abs((g.n - 1) * from_k - pairs
                  - 2 * g.n ** 2 * vulnerability_measure(g, k))
        worst = max(worst, gap)
        assert gap < 1e-8
    _verdict("6", True,
             f"200 random graphs; max commute-identity defect {worst:.2e} "
             f"(tol 1e-8)")


def test_criterion_7_box_noise_ratio():
    t0 = time.monotonic()
    edges = complete_graph_edges(5)
    spec = NoiseSpec.box(node=1, delta=0.1, t0=5.0, duration=20.0)
    values = {}
    for name, b in (("uniform", [0.1] * 10),
                    ("optimized", complete_graph_optimum(5, 1))):
        g = build_graph(5, edges, b)
        traj = integrate_nonlinear(g, np.zeros(5), np.zeros(5), spec,
                                   h=0.01, T=60.0, R=200, seed=707)
        values[name] = empirical_vulnerability(traj).value
    elapsed = time.monotonic() - t0
    ratio = values["uniform"] / values["optimized"]
    ok = 2.0 <= ratio <= 3.0 and elapsed < 60.0
    _verdict("7", ok,
             f"empirical ratio uniform/optimized = {ratio:.3f} "
             f"(band [2.0, 3.0], small-angle prediction 2.5), "
             f"R=200, {elapsed:.1f}s (< 60s)")


def test_criterion_8_simulation_theory_ranking():
    rng = np.random.default_rng(208)
    n = 10
    edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
    seen = {(min(a, b), max(a, b)) for a, b in edges}
    while len(edges) < 16:
        u, v = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        pair = (min(u, v), max(u, v))
        if u != v and pair not in seen:
            seen.add(pair)
            edges.append(pair)
    m, k = len(edges), 3
    template = build_graph(n, edges, np.ones(m))
    incident = np.array([k in (i, j) for i, j in template.edge_pairs])
    uniform = np.full(m, 1.0 / m)
    prob = DesignProblem(n, edges, v_prime=[k])
    optimal = solve_single_node(prob, k).b_star

    def starved(factor: float) -> np.ndarray:
        b = np.where(incident, factor, 1.0)
        return b / b.sum()

    designs = {
        "optimal": optimal,
        "toward": starved(3.0),
        "uniform": uniform,
        "starve30": starved(0.30),
        "starve10": starved(0.10),
        "starve04": starved(0.04),
    }
    analytic = {name: vulnerability_measure(build_graph(n, edges, b), k)
                for name, b in designs.items()}
    ordered = sorted(analytic.values())
    separation = min(b / a for a, b in zip(ordered, ordered[1:]))
    assert separation > 1.2, f"designs too close to rank: {analytic}"

    spec = NoiseSpec.ou(node=k, tau=50.0, sigma=0.05)
    empirical = {}
    for name, b in designs.items():
        g = build_graph(n, edges, b)
        per = []
        for off in range(0, 200, 40):
            traj = integrate_nonlinear(g, np.zeros(n), np.zeros(n), spec,
                                       h=0.02, T=250.0, R=40, seed=808 + off)
            per.extend(empirical_vulnerability(traj).per_realization)
        empirical[name] = float(np.mean(per))
    names = list(designs)
    rho = float(spearmanr([analytic[x] for x in names],
                          [empirical[x] for x in names]).statistic)
    _verdict("8", rho >= 0.9,
             f"Spearman(analytic, empirical) = {rho:.3f} over 6 designs "
             f"(threshold 0.9); adjacent analytic separation x{separation:.2f}")


def test_criterion_9_substitute_case_scenarios():
    case = load_case(CASES_DIR / "ny57_substitute.json")
    assert case.n == 57 and len(case.branches) == 94
    candidates = list(case.generator_ids)
    assert len(candidates) == 29

    t0 = time.monotonic()
    rep1 = scenario_one(case, candidates)
    elapsed1 = time.monotonic() - t0
    infeasible = [o.node for o in rep1.per_node if not o.feasible]
    regressions = [o.node for o in rep1.per_node
                   if o.feasible and o.after > o.before + 1e-9]
    assert not regressions, f"per-node optimization regressed at {regressions}"
    assert elapsed1 < 600.0

    rep2 = scenario_two(case, candidates)
    strict_decrease = rep2.objective_after < rep2.objective_before - 1e-6
    assert strict_decrease
    _verdict("9", True,
             f"scenario 1 over 29 candidates in {elapsed1:.0f}s (< 600s), "
             f"0 regressions, {len(infeasible)} infeasible; scenario 2 "
             f"objective {rep2.objective_before:.4f} -> "
             f"{rep2.objective_after:.4f} (strict decrease)")


def test_criterion_10_sdp_round_trip():
    rng = np.random.default_rng(210)
    topologies = [
        (3, [(1, 2), (2, 3), (1, 3)], [2]),
        (5, complete_graph_edges(5), [1, 4]),
        (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)], [1, 3, 5]),
    ]
    worst = 0.0
    for n, edges, v_prime in topologies:
        prob = DesignProblem(n, edges, v_prime=v_prime, epsilon=1e-3)
        sdp = assemble_sdp(prob)
        l = len(v_prime)
        assert sdp.dimension == l * (n + 1) + len(edges) + n
        done = 0
        while done < 20:
            raw = rng.uniform(0.05, 1.0, size=len(edges))
            b = raw / raw.sum()
            g = build_graph(n, edges, b)
            if algebraic_connectivity(g) <= prob.epsilon:
                continue
            done += 1
            t = max(vulnerability_measure(g, k) for k in v_prime) + 1.0 / n \
                + float(rng.uniform(0, 1))
            b2, t2 = decode_point(sdp, encode_point(sdp, b, t))
            err = max(float(np.abs(b2 - b).max()), abs(t2 - t))
            worst = max(worst, err)
            assert err < 1e-9
    _verdict("10", True,
             f"3 topologies x 20 points; max round-trip error {worst:.2e} "
             f"(tol 1e-9); dimension formula verified")
