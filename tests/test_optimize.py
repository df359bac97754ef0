"""Design problem and the exact and barrier solvers."""
import math
from pathlib import Path

import numpy as np
import pytest

from resilnet import (
    DesignProblem,
    InfeasibleDesignError,
    algebraic_connectivity,
    build_graph,
    complete_graph_edges,
    complete_graph_optimum,
    epsilon_from_sync,
    load_case,
    optimality_certificate,
    solve_min_max,
    solve_single_node,
    tree_optimum,
    vulnerability_measure,
)
from resilnet import optimize
from resilnet.gridcase import Branch, Bus, GridCase
from resilnet.optimize import DEFAULT_GAMMA, SOLVER_TOL
from resilnet.scenarios import unit_budget_problem

from conftest import floor_aware_lower_bound, random_tree, unit_graph

CASES_DIR = Path(__file__).resolve().parents[1] / "cases"


def test_epsilon_from_sync():
    gamma = math.pi / 16
    eps = epsilon_from_sync([0.5, -0.5], unit_graph(2, [(1, 2)]), gamma)
    assert eps == pytest.approx(math.sin(gamma), abs=1e-12)
    assert eps == pytest.approx(0.19509, abs=1e-5)
    path = unit_graph(3, [(1, 2), (2, 3)])
    assert epsilon_from_sync([0.7, 0.7, 0.7], path, gamma) == 0.0
    eps3 = epsilon_from_sync([0.3, 0.1, -0.4], path, gamma)
    assert eps3 == pytest.approx(0.5 * math.sin(gamma), abs=1e-12)
    # omega holds one finite value per node, also at a node on no edge
    for omega, g, match in (([math.nan, 0.1, -0.1], path, "non-finite entry nan at node 1"),
                            ([0.1, 0.2, -0.1, 0.0], path, r"shape \(4,\), expected \(3,\)"),
                            ([0.1, -0.1, math.inf], unit_graph(3, [(1, 2)]),
                             "non-finite entry inf at node 3")):
        with pytest.raises(ValueError, match=match):
            epsilon_from_sync(omega, g, gamma)


def test_designproblem_validation():
    path = unit_graph(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="v_prime"):
        DesignProblem(path, v_prime=[])
    with pytest.raises(ValueError, match="epsilon"):
        DesignProblem(path, v_prime=[1], epsilon=1.5)
    with pytest.raises(ValueError, match="epsilon"):
        DesignProblem(path, v_prime=[1], epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        DesignProblem(path, v_prime=[1], epsilon=math.nan)
    # no floor given: small default floor
    assert DesignProblem(unit_graph(2, [(1, 2)]), v_prime=[1]).epsilon == pytest.approx(1e-4)
    # node ids are integers: no silent truncation, bools are not ids
    for bad in ([1.5], [True], [1, 2.0]):
        with pytest.raises(ValueError, match=f"v_prime entries must be integers, got {bad[-1]}"):
            DesignProblem(path, v_prime=bad)
    p3 = DesignProblem(path, v_prime=[np.int64(3), 1])
    assert p3.v_prime == (1, 3)
    for k in (True, 1.5):
        with pytest.raises(ValueError, match=f"node must be an integer, got {k}"):
            solve_single_node(p3, k)
    assert solve_single_node(p3, np.int64(2)).converged


def test_unit_budget_problem_floor():
    # P3 with frequencies (0.5, -0.2, -0.3) and total susceptance 2: the
    # largest edge spread is 0.7, so the unit-budget floor is 0.7 sin(gamma) / 2.
    buses = (Bus(1, "generator", 0.5), Bus(2, "load", -0.2), Bus(3, "load", -0.3))
    branches = (Branch(1, 2, 1.5), Branch(2, 3, 0.5))
    case = GridCase(name="p3_sync", buses=buses, branches=branches)
    gamma = math.pi / 16
    problem, eps_phys = unit_budget_problem(case, [1, 3], gamma, None)
    assert problem.epsilon == pytest.approx(0.7 * math.sin(gamma) / 2.0, rel=1e-12)
    assert problem.epsilon >= 1e-4
    assert eps_phys == problem.epsilon * 2.0
    assert problem.v_prime == (1, 3)
    # identical oscillators: the default floor, still at unit budget
    flat = GridCase(name="p3_flat", branches=branches,
                    buses=tuple(Bus(b.id, b.kind, 0.0) for b in buses))
    assert unit_budget_problem(flat, [1], gamma, None)[0].epsilon == pytest.approx(1e-4)
    # a physical floor is divided by the budget and returned as given
    problem, eps_phys = unit_budget_problem(case, [1], gamma, 0.5)
    assert (problem.epsilon, eps_phys) == (0.25, 0.5)
    for bad_gamma in (0.0, 2.0, math.nan):
        with pytest.raises(ValueError, match="gamma"):
            unit_budget_problem(case, [1], bad_gamma, 0.5)
    for bad_eps in (0.0, -1.0, 2.0, 3.0, math.nan):
        with pytest.raises(ValueError, match="total susceptance"):
            unit_budget_problem(case, [1], gamma, bad_eps)


def test_solver_complete_graph_oracle():
    for n, k in ((3, 1), (4, 2), (5, 3), (6, 1)):
        prob = DesignProblem(unit_graph(n, complete_graph_edges(n)), v_prime=[k])
        res = solve_single_node(prob, k)
        assert abs(res.objective - ((n - 1) / n) ** 2) < 1e-4
        assert np.abs(res.b_star - complete_graph_optimum(n, k)).max() < 1e-3
        assert res.converged
        assert optimality_certificate(prob.topology.with_weights(res.b_star), k).optimal
        assert res.feasibility >= -1e-7
        assert res.b_star.min() >= 0.0
        assert res.b_star.sum() == pytest.approx(1.0, abs=1e-9)


def test_solver_tree_oracle():
    rng = np.random.default_rng(31)
    for _ in range(6):
        n = int(rng.integers(3, 9))
        tree = random_tree(rng, n)
        k = int(rng.integers(1, n + 1))
        ref = tree_optimum(tree, k)
        ref_val = vulnerability_measure(tree.with_weights(ref), k)
        prob = DesignProblem(tree, v_prime=[k])
        res = solve_single_node(prob, k)
        assert abs(res.objective - ref_val) < 1e-4
        assert np.abs(res.b_star - ref).max() < 1e-3


def test_minmax_singleton_matches_single_node():
    prob = DesignProblem(unit_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]), v_prime=[2])
    a = solve_single_node(prob, 2)
    b = solve_min_max(prob)
    assert abs(a.objective - b.objective) < 1e-6


def test_minmax_k5_symmetric_optimum():
    prob = DesignProblem(unit_graph(5, complete_graph_edges(5)), v_prime=[1, 2, 3, 4, 5])
    res = solve_min_max(prob)
    assert abs(res.objective - 1.6) < 1e-4
    assert np.abs(res.b_star - 0.1).max() < 1e-3


def test_minmax_p3_leaves():
    prob = DesignProblem(unit_graph(3, [(1, 2), (2, 3)]), v_prime=[1, 3])
    res = solve_min_max(prob)
    assert np.abs(res.b_star - 0.5).max() < 1e-3
    assert abs(res.per_node[1] - res.per_node[3]) < 1e-4
    assert abs(res.objective - 10 / 9) < 1e-4


def test_solver_monotone_versus_uniform_start():
    rng = np.random.default_rng(32)
    for _ in range(5):
        n = int(rng.integers(4, 9))
        tree = random_tree(rng, n)
        extra = [(1, n)] if (1, n) not in [tuple(e) for e in tree.edge_pairs] else []
        edges = list(tree.edge_pairs) + extra
        uniform = np.full(len(edges), 1.0 / len(edges))
        g_uni = build_graph(n, edges, uniform)
        vp = sorted(set(int(x) for x in rng.integers(1, n + 1, size=3)))
        prob = DesignProblem(unit_graph(n, edges), v_prime=vp)
        res = solve_min_max(prob)
        before = max(vulnerability_measure(g_uni, k) for k in vp)
        assert res.objective <= before + 1e-9


def test_epsilon_monotonicity():
    edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
    values = []
    for eps in (1e-4, 0.05, 0.15, 0.3):
        prob = DesignProblem(unit_graph(4, edges), v_prime=[1], epsilon=eps)
        values.append(solve_single_node(prob, 1).objective)
    assert all(values[i] <= values[i + 1] + 1e-7 for i in range(len(values) - 1))


def test_solver_objective_respects_universal_floor():
    prob = DesignProblem(unit_graph(5, complete_graph_edges(5)), v_prime=[2])
    res = solve_single_node(prob, 2)
    g = build_graph(5, complete_graph_edges(5), res.b_star)
    # the optimized node can do no better than the per-node floor (1-1/n)^2,
    # and the complete-graph star attains it exactly
    assert res.objective >= (1 - 1 / 5) ** 2 - 1e-9
    assert res.objective == pytest.approx((1 - 1 / 5) ** 2, abs=1e-6)
    # the graph's worst node still obeys the trace floor 1/(n*lambda2)
    worst = max(vulnerability_measure(g, k) for k in range(1, 6))
    assert worst >= 1.0 / (5 * algebraic_connectivity(g)) - 1e-9


def test_solver_determinism():
    prob = DesignProblem(unit_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]),
                         v_prime=[1, 3])
    r1 = solve_min_max(prob)
    r2 = solve_min_max(prob)
    assert np.array_equal(r1.b_star, r2.b_star)
    assert r1.objective == r2.objective
    assert r1.iterations == r2.iterations


def test_infeasible_spectral_floor():
    # K5's algebraic connectivity over the unit simplex peaks at 0.5, at the
    # uniform weights; Z = (I - 11^T/5)/4 certifies a_l^T Z a_l = 0.5
    prob = DesignProblem(unit_graph(5, complete_graph_edges(5)), v_prime=[1], epsilon=0.8)
    with pytest.raises(InfeasibleDesignError) as exc:
        solve_single_node(prob, 1)
    assert exc.value.attained == pytest.approx(0.5, abs=1e-6)
    assert exc.value.upper_bound == pytest.approx(0.5, abs=1e-6)
    assert exc.value.epsilon == 0.8


def test_feasible_set_convexity_probe():
    rng = np.random.default_rng(33)
    edges = [(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)]
    eps = 0.05
    found = 0
    while found < 30:
        raw = rng.uniform(0.05, 1.0, size=(2, 5))
        b1, b2 = raw[0] / raw[0].sum(), raw[1] / raw[1].sum()
        g1 = build_graph(4, edges, b1)
        g2 = build_graph(4, edges, b2)
        if algebraic_connectivity(g1) < eps or algebraic_connectivity(g2) < eps:
            continue
        found += 1
        sigma = float(rng.uniform(0, 1))
        mix = build_graph(4, edges, sigma * b1 + (1 - sigma) * b2)
        assert mix.b.min() >= 0
        assert mix.b.sum() == pytest.approx(1.0, abs=1e-12)
        # connectivity of the mixture is guaranteed; the spectral floor
        # itself is concave in the weights, hence also preserved
        assert algebraic_connectivity(mix) >= min(
            algebraic_connectivity(g1), algebraic_connectivity(g2)) - 1e-9


def test_nonconvergence_returns_best_iterate(monkeypatch):
    monkeypatch.setattr(optimize, "MAX_ITERS", 2)
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]
    # the floor lies between lambda_2 of the exact flow design (0.0543) and
    # of the uniform start (0.0764), so the barrier method must run
    prob = DesignProblem(unit_graph(6, edges), v_prime=[1], epsilon=0.07)
    res = solve_single_node(prob, 1)
    assert res.method == "barrier"
    assert not res.converged
    assert res.iterations <= 2
    assert res.kkt_gap > SOLVER_TOL * res.objective
    # still feasible and no worse than the uniform start
    g_uni = build_graph(6, edges, [0.2] * 5)
    assert res.objective <= vulnerability_measure(g_uni, 1) + 1e-9
    assert res.feasibility >= -1e-7


# Objectives of an earlier barrier prototype on the 29 ny57 generators, per
# physical floor (None: the default floor), published to 7 decimals.
PROTOTYPE = {None: 53.5163356, 2.0: 53.5243555, 3.0: 54.1786515,
             4.0: 57.5068447, 4.5: 63.3660803}
# The barrier method's objectives and converged flags there, as ROADMAP
# item 1 publishes them (10 decimals).
PUBLISHED = {None: (53.5163355850, True), 2.0: (53.5243554738, True),
             3.0: (54.1786515079, True), 4.0: (57.5068446879, True),
             4.5: (63.3660802625, False)}


@pytest.mark.parametrize("eps_phys", list(PROTOTYPE))
def test_minmax_ny57_floors_against_prototype_and_lp_bound(eps_phys):
    case = load_case(CASES_DIR / "ny57_substitute.json")
    problem, _ = unit_budget_problem(case, case.generator_ids, DEFAULT_GAMMA,
                                     eps_phys)
    res = solve_min_max(problem)
    assert res.method == "barrier"
    assert res.objective <= PROTOTYPE[eps_phys] + 0.5e-7
    objective, converged = PUBLISHED[eps_phys]
    assert res.objective == pytest.approx(objective, rel=1e-10)
    assert res.converged == converged
    assert res.feasibility >= 0.0
    bound = floor_aware_lower_bound(problem.topology.with_weights(res.b_star),
                                    problem.v_prime, problem.epsilon)
    assert res.objective >= bound * (1 - 1e-12)
    assert res.lower_bound <= res.objective
    assert res.kkt_gap == pytest.approx(res.objective - res.lower_bound, abs=0.0)
    assert res.converged == (res.kkt_gap <= SOLVER_TOL * res.objective)
    if eps_phys is None:
        # the protect input: certified, and the oracle agrees
        assert res.converged
        assert res.objective - bound <= SOLVER_TOL * res.objective
        assert res.iterations < 200


def test_minmax_state_rejects_weights_below_the_floor():
    # C4 at weights w has lambda_2 = 2w, so the even design clears eps = 0.1;
    # two weak opposite edges leave M > 0 but M - eps*I indefinite.
    edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
    prob = DesignProblem(unit_graph(4, edges), v_prime=[1, 3], epsilon=0.1)
    model = optimize._MinMax(prob.topology, [0, 2], prob.epsilon)
    even = np.full(4, 0.25)
    state = model.state(even)
    assert state is not None
    g_even = prob.topology.with_weights(even)
    assert model.objective(state) == pytest.approx(
        max(vulnerability_measure(g_even, k) for k in (1, 3)), rel=1e-12)
    weak = np.array([0.49, 0.01, 0.49, 0.01])
    assert 0.0 < algebraic_connectivity(prob.topology.with_weights(weak)) < prob.epsilon
    assert model.state(weak) is None


def test_minmax_relabel_invariance():
    case = load_case(CASES_DIR / "ny57_substitute.json")
    problem, _ = unit_budget_problem(case, case.generator_ids, DEFAULT_GAMMA, None)
    ref = solve_min_max(problem)
    g = problem.topology
    rng = np.random.default_rng(61)
    perm = rng.permutation(g.n)           # old 0-based node -> new
    order = rng.permutation(g.m)          # new edge position -> old index
    edges = [(int(perm[g.edges[l][1]]) + 1, int(perm[g.edges[l][0]]) + 1)
             for l in order]
    relabelled = DesignProblem(unit_graph(g.n, edges),
                               v_prime=[int(perm[k - 1]) + 1 for k in problem.v_prime],
                               epsilon=problem.epsilon)
    res = solve_min_max(relabelled)
    assert res.objective == pytest.approx(ref.objective, rel=1e-9)
    assert res.converged and ref.converged
    # each run's certificate bounds the other's feasible design
    assert res.lower_bound <= ref.objective and ref.lower_bound <= res.objective
