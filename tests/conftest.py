"""Shared helpers: seeded random graph factories and independent oracles."""
from __future__ import annotations

import numpy as np

from resilnet import build_graph
from resilnet.graphs import WeightedGraph


def random_connected_graph(rng: np.random.Generator, n: int,
                           extra_edges: int | None = None,
                           unit_budget: bool = False) -> WeightedGraph:
    """Random spanning tree plus chords, weights bounded away from zero."""
    edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
    seen = {(min(a, b), max(a, b)) for a, b in edges}
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n))
    attempts = 0
    while extra_edges > 0 and attempts < 50 * n:
        attempts += 1
        u, v = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        pair = (min(u, v), max(u, v))
        if u == v or pair in seen:
            continue
        seen.add(pair)
        edges.append(pair)
        extra_edges -= 1
    b = rng.uniform(0.5, 1.5, size=len(edges))
    if unit_budget:
        b = b / b.sum()
    return build_graph(n, edges, b)


def random_tree(rng: np.random.Generator, n: int) -> WeightedGraph:
    edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
    return build_graph(n, edges, np.ones(n - 1))


def reference_laplacian(g: WeightedGraph) -> np.ndarray:
    """Independent oracle: the weighted Laplacian, one edge at a time."""
    L = np.zeros((g.n, g.n))
    for (i, j), w in zip(g.edges, g.b):
        L[i, j] -= w
        L[j, i] -= w
        L[i, i] += w
        L[j, j] += w
    return L


def pinv_resistance(g: WeightedGraph, i: int, j: int) -> float:
    """Independent oracle: effective resistance via the eigen pseudoinverse."""
    lp = np.linalg.pinv(reference_laplacian(g))
    a, c = i - 1, j - 1
    return float(lp[a, a] + lp[c, c] - 2.0 * lp[a, c])


def pinv_measure(g: WeightedGraph, k: int) -> float:
    """Independent oracle: the resistance-sum form of the measure."""
    n = g.n
    total_k = sum(pinv_resistance(g, j, k) for j in range(1, n + 1) if j != k)
    total_all = sum(
        pinv_resistance(g, i, j)
        for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    return total_k / n - total_all / n ** 2


def simplex_grid(m: int, steps: int) -> np.ndarray:
    """All weight vectors with entries i/steps summing to 1 (boundary included)."""
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        i = np.arange(steps + 1)
        return np.column_stack([i, steps - i]) / steps
    if m == 3:
        i = np.repeat(np.arange(steps + 1), np.arange(steps + 1, 0, -1))
        j = np.concatenate([np.arange(steps + 1 - v) for v in range(steps + 1)])
        return np.column_stack([i, j, steps - i - j]) / steps
    import itertools
    rows = [
        np.diff((0,) + cuts + (steps,))
        for cuts in itertools.combinations_with_replacement(range(steps + 1), m - 1)
    ]
    return np.array(rows) / steps


def support_connected_mask(n: int, edges, B: np.ndarray) -> np.ndarray:
    """Row mask: does each weight vector's positive support span the graph?"""
    edges0 = [(min(i, j) - 1, max(i, j) - 1) for i, j in edges]
    patterns: dict[bytes, bool] = {}
    support = B > 0
    out = np.zeros(B.shape[0], dtype=bool)
    for row in range(B.shape[0]):
        key = support[row].tobytes()
        val = patterns.get(key)
        if val is None:
            adj = [[] for _ in range(n)]
            for (i, j), s in zip(edges0, support[row]):
                if s:
                    adj[i].append(j)
                    adj[j].append(i)
            seen = [False] * n
            seen[0] = True
            stack = [0]
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            val = all(seen)
            patterns[key] = val
        out[row] = val
    return out


def batched_measure(n: int, edges, B: np.ndarray, k: int,
                    chunk: int = 50000) -> np.ndarray:
    """Vulnerability of node k for many weight vectors at once.

    ``edges`` are 1-based pairs; rows of B must have connected support.
    """
    m = len(edges)
    ei = np.array([min(i, j) - 1 for i, j in edges])
    ej = np.array([max(i, j) - 1 for i, j in edges])
    k0 = k - 1
    rhs = np.zeros((n, 1))
    rhs[k0, 0] = 1.0
    out = np.empty(B.shape[0])
    for lo in range(0, B.shape[0], chunk):
        W = B[lo:lo + chunk]
        N = W.shape[0]
        M = np.full((N, n, n), 1.0 / n)
        for l in range(m):
            w = W[:, l]
            M[:, ei[l], ej[l]] -= w
            M[:, ej[l], ei[l]] -= w
            M[:, ei[l], ei[l]] += w
            M[:, ej[l], ej[l]] += w
        sol = np.linalg.solve(M, np.broadcast_to(rhs, (N, n, 1)))
        out[lo:lo + chunk] = sol[:, k0, 0] - 1.0 / n
    return out


def floor_aware_lower_bound(g: WeightedGraph, targets, eps: float) -> float:
    """Independent oracle: lower bound on the unit-budget min-max design.

    Bounds min over weightings b' (sum 1, lambda_2 >= eps) of
    max_{k in targets} L+_kk(b'), evaluated at g's weights normalized to
    unit budget. With X = pinv(L + 11^T/n - eps*I) and Z = PXP / tr(PXP)
    (P = I - 11^T/n), h(b') = sum_k pi_k L+_kk(b') - zeta tr(Z (L(b') - eps P))
    is convex for pi on the simplex and zeta >= 0, and at most the max
    wherever the floor holds; minimizing its linearization over the simplex
    gives 2 sum_k pi_k L+_kk + eps*zeta - max_l (S pi + zeta z)_l, with
    S[l, k] = ((L+ a_l)_k)^2 and z_l = a_l^T Z a_l. scipy's LP picks pi and
    zeta; the bound is then re-evaluated exactly, so it holds whatever the
    LP's tolerance.
    """
    from scipy.optimize import linprog

    n = g.n
    L = reference_laplacian(g) / g.b.sum()
    proj = np.eye(n) - 1.0 / n
    lp = np.linalg.pinv(L)
    X = proj @ np.linalg.pinv(L + 1.0 / n - eps * np.eye(n)) @ proj
    Z = X / np.trace(X)
    inc = np.zeros((g.m, n))
    for l, (i, j) in enumerate(g.edges):
        inc[l, i], inc[l, j] = 1.0, -1.0
    idx = [k - 1 for k in targets]
    S = (inc @ lp[:, idx]) ** 2
    z = np.einsum("li,ij,lj->l", inc, Z, inc)
    c = 2.0 * np.diag(lp)[idx]
    l = len(idx)
    # Variables pi (l), zeta, sigma = max_l (S pi + zeta z)_l.
    res = linprog(np.concatenate([-c, [-eps, 1.0]]),
                  A_ub=np.hstack([S, z[:, None], -np.ones((g.m, 1))]),
                  b_ub=np.zeros(g.m),
                  A_eq=[np.concatenate([np.ones(l), [0.0, 0.0]])], b_eq=[1.0],
                  bounds=[(0, None)] * (l + 1) + [(None, None)])
    assert res.success, res.message
    pi = np.maximum(res.x[:l], 0.0)
    pi, zeta = pi / pi.sum(), max(res.x[l], 0.0)
    return float(c @ pi + eps * zeta - (S @ pi + zeta * z).max())
