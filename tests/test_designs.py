"""Closed-form optima, the shortest-path flow design, and the optimality certificate."""
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from resilnet import (
    DesignProblem,
    DisconnectedGraphError,
    algebraic_connectivity,
    build_graph,
    complete_graph_edges,
    complete_graph_optimum,
    load_case,
    optimality_certificate,
    solve_single_node,
    tree_optimum,
    vulnerability_measure,
)
from resilnet.designs import NotATreeError, shortest_path_flow

from conftest import batched_measure, random_connected_graph, random_tree, simplex_grid

CASES_DIR = Path(__file__).resolve().parents[1] / "cases"


def _path_counts_oracle(tree, k):
    """Exhaustive enumeration of all pair paths and k-paths."""
    n, m = tree.n, tree.m
    adj = [[] for _ in range(n)]
    for l, (i, j) in enumerate(tree.edges):
        adj[i].append((j, l))
        adj[j].append((i, l))

    def path_edges(src, dst):
        prev = {src: None}
        stack = [src]
        while stack:
            v = stack.pop()
            for u, l in adj[v]:
                if u not in prev:
                    prev[u] = (v, l)
                    stack.append(u)
        out = []
        v = dst
        while prev[v] is not None:
            v, l = prev[v]
            out.append(l)
        return out

    a = np.zeros(m)
    a_k = np.zeros(m)
    for i in range(n):
        for j in range(i + 1, n):
            for l in path_edges(i, j):
                a[l] += 1
    for j in range(n):
        if j != k - 1:
            for l in path_edges(k - 1, j):
                a_k[l] += 1
    return a, a_k


def test_complete_graph_optimum_k5():
    b = complete_graph_optimum(5, 1)
    edges = complete_graph_edges(5)
    for l, (i, j) in enumerate(edges):
        assert b[l] == (0.25 if 1 in (i, j) else 0.0)
    g = build_graph(5, edges, b)
    assert vulnerability_measure(g, 1) == pytest.approx(0.64, abs=1e-12)


def test_complete_graph_optimum_two_nodes():
    b = complete_graph_optimum(2, 1)
    assert np.array_equal(b, [1.0])
    g = build_graph(2, [(1, 2)], b)
    assert vulnerability_measure(g, 1) == pytest.approx(0.25, abs=1e-12)


def test_complete_graph_optimum_certificate_any_center():
    for k in (1, 3, 5):
        g = build_graph(5, complete_graph_edges(5), complete_graph_optimum(5, k))
        cert = optimality_certificate(g, k)
        assert cert.optimal
        assert cert.residuals.min() >= -1e-10


def test_complete_graph_optimum_invalid_node():
    with pytest.raises(ValueError):
        complete_graph_optimum(5, 6)
    with pytest.raises(ValueError):
        complete_graph_optimum(5, 0)


def test_complete_graph_value_and_dominance():
    rng = np.random.default_rng(20)
    for n in (3, 4, 5, 6):
        edges = complete_graph_edges(n)
        b = complete_graph_optimum(n, 1)
        g = build_graph(n, edges, b)
        star_val = vulnerability_measure(g, 1)
        assert abs(star_val - ((n - 1) / n) ** 2) < 1e-10
        for _ in range(1000 // 4):
            raw = rng.uniform(0.01, 1.0, size=len(edges))
            other = build_graph(n, edges, raw / raw.sum())
            assert star_val <= vulnerability_measure(other, 1) + 1e-12


def test_path_usage_counts_match_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(120):
        n = int(rng.integers(3, 10))
        tree = random_tree(rng, n)
        k = int(rng.integers(1, n + 1))
        a_ref, ak_ref = _path_counts_oracle(tree, k)
        s = np.sqrt(n * ak_ref - a_ref)
        assert np.abs(tree_optimum(tree, k) - s / s.sum()).max() < 1e-15


def test_path_usage_counts_rejects_non_tree():
    cycle = build_graph(3, [(1, 2), (2, 3), (1, 3)], np.ones(3))
    with pytest.raises(NotATreeError):
        tree_optimum(cycle, 1)
    forest = build_graph(4, [(1, 2), (3, 4), (1, 3), (2, 4)], np.ones(4))
    with pytest.raises(NotATreeError):
        tree_optimum(forest, 1)
    # n - 1 edges, but a triangle and an isolated node.
    split = build_graph(4, [(1, 2), (2, 3), (1, 3)], np.ones(3))
    with pytest.raises(NotATreeError, match="disconnected"):
        tree_optimum(split, 1)


def test_tree_optimum_examples():
    p3 = build_graph(3, [(1, 2), (2, 3)], [1.0, 1.0])
    b1 = tree_optimum(p3, 1)
    assert np.allclose(b1, [2 / 3, 1 / 3], atol=1e-15)
    g = build_graph(3, [(1, 2), (2, 3)], b1)
    assert vulnerability_measure(g, 1) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(tree_optimum(p3, 2), [0.5, 0.5], atol=1e-15)
    star = build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)], np.ones(4))
    assert np.allclose(tree_optimum(star, 1), 0.25, atol=1e-15)


def test_tree_optimum_properties():
    rng = np.random.default_rng(22)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        tree = random_tree(rng, n)
        k = int(rng.integers(1, n + 1))
        b = tree_optimum(tree, k)
        assert b.sum() == pytest.approx(1.0, abs=1e-12)
        assert b.min() > 0.0
        cert = optimality_certificate(tree.with_weights(b), k, tol=1e-8)
        assert cert.optimal
        assert np.abs(cert.residuals).max() < 1e-10


def test_tree_optimum_matches_grid_search():
    # grid over the weight simplex, step 0.02; zero-support rows dropped
    # (a tree disconnects whenever any edge weight vanishes)
    rng = np.random.default_rng(23)
    cases = [random_tree(rng, n) for n in (3, 4, 5, 6)]
    for tree in cases:
        n = tree.n
        k = int(rng.integers(1, n + 1))
        b_opt = tree_optimum(tree, k)
        closed = vulnerability_measure(tree.with_weights(b_opt), k)
        grid = simplex_grid(tree.m, 50)
        grid = grid[(grid > 0).all(axis=1)]
        best = batched_measure(n, tree.edge_pairs, grid, k).min()
        assert best >= closed - 1e-9
        assert best - closed <= 0.02 * max(1.0, closed)


def test_certificate_discriminates():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        tree = random_tree(rng, n)
        k = int(rng.integers(1, n + 1))
        b = tree_optimum(tree, k)
        assert optimality_certificate(tree.with_weights(b), k).optimal
        noise = 1.0 + 0.05 * rng.uniform(-1., 1., size=b.size)
        perturbed = b * noise
        perturbed /= perturbed.sum()
        assert not optimality_certificate(tree.with_weights(perturbed), k).optimal


def test_certificate_uniform_complete_graph_fails():
    g = build_graph(5, complete_graph_edges(5), [0.1] * 10)
    cert = optimality_certificate(g, 1)
    assert not cert.optimal
    assert cert.min_residual == pytest.approx(-2.4, abs=1e-10)


def _mean_hop(g, k):
    """Independent oracle: mean hop distance from node k (scipy BFS)."""
    rows = [i for i, _ in g.edges]
    cols = [j for _, j in g.edges]
    adj = csr_matrix((np.ones(g.m), (rows, cols)), shape=(g.n, g.n))
    hops = shortest_path(adj, directed=False, unweighted=True, indices=k - 1)
    return float(hops.sum()) / g.n


def _flow_optimum(g, k):
    flow = shortest_path_flow(g, k)
    return flow / flow.sum()


def test_shortest_path_optimum_matches_tree_and_complete_graph():
    rng = np.random.default_rng(25)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        tree = random_tree(rng, n)
        k = int(rng.integers(1, n + 1))
        assert np.abs(_flow_optimum(tree, k) - tree_optimum(tree, k)).max() < 1e-12
    for n in (3, 4, 5, 6):
        g = build_graph(n, complete_graph_edges(n), np.ones(n * (n - 1) // 2))
        for k in range(1, n + 1):
            assert np.abs(_flow_optimum(g, k)
                          - complete_graph_optimum(n, k)).max() < 1e-15
    forest = build_graph(4, [(1, 2), (3, 4)], np.ones(2))
    with pytest.raises(DisconnectedGraphError):
        _flow_optimum(forest, 1)
    with pytest.raises(ValueError):
        _flow_optimum(forest, 5)


def test_shortest_path_optimum_attains_mean_hop_squared():
    case = load_case(CASES_DIR / "ny57_substitute.json")
    graphs = [(case.graph(), [case.node_of(c) for c in case.generator_ids])]
    assert len(graphs[0][1]) == 29
    rng = np.random.default_rng(26)
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(3, 12)))
        graphs.append((g, [int(rng.integers(1, g.n + 1))]))
    for g, nodes in graphs:
        for k in nodes:
            b = _flow_optimum(g, k)
            assert b.min() >= 0.0
            assert b.sum() == pytest.approx(1.0, abs=1e-12)
            design = g.with_weights(b)
            assert vulnerability_measure(design, k) == pytest.approx(
                _mean_hop(g, k) ** 2, rel=1e-12)
            assert optimality_certificate(design, k).optimal


def test_shortest_path_optimum_relabel_invariance():
    case = load_case(CASES_DIR / "ny57_substitute.json")
    g = case.graph()
    rng = np.random.default_rng(27)
    for _ in range(5):
        perm = rng.permutation(g.n)           # old 0-based node -> new
        order = rng.permutation(g.m)          # new edge position -> old index
        edges = [(int(perm[g.edges[l][1]]) + 1, int(perm[g.edges[l][0]]) + 1)
                 for l in order]
        relabelled = build_graph(g.n, edges, np.ones(g.m))
        for bus in case.generator_ids:
            k = case.node_of(bus)
            b = _flow_optimum(g, k)
            b_new = _flow_optimum(relabelled, int(perm[k - 1]) + 1)
            assert np.abs(b_new - b[order]).max() < 1e-12


def test_solve_single_node_falls_back_when_floor_binds():
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)]
    g = build_graph(6, edges, np.ones(len(edges)))
    k = 1
    b = _flow_optimum(g, k)
    bound = _mean_hop(g, k) ** 2
    lam2 = algebraic_connectivity(g.with_weights(b))

    problem = DesignProblem(g, v_prime=[k])
    exact = solve_single_node(problem, k)
    assert exact.iterations == 0 and exact.converged
    assert exact.method == "exact-flow"
    assert exact.lower_bound == pytest.approx(bound, rel=1e-12)
    assert optimality_certificate(g.with_weights(exact.b_star), k).optimal
    assert exact.kkt_gap == pytest.approx(0.0, abs=1e-12)
    assert exact.feasibility >= 0.0
    assert np.array_equal(exact.b_star, b)
    assert exact.objective == pytest.approx(bound, rel=1e-12)

    floored = DesignProblem(g, v_prime=[k], epsilon=1.2 * lam2)
    res = solve_single_node(floored, k)
    assert res.iterations > 0
    assert res.method == "barrier" and res.converged
    assert bound <= res.lower_bound <= res.objective
    assert res.feasibility >= -1e-7
    assert res.objective >= bound * (1 - 1e-12)
