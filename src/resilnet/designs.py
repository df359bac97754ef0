"""Closed-form optimal weightings of a single node's vulnerability.

Minimizing L+_kk over the unit weight simplex is a c-optimal design
problem with c = e_k - 1/n, solved exactly by Elfving's theorem: the
optimum is (mean hop distance from k)^2, attained by weights proportional
to any shortest-path flow routing c (`shortest_path_flow`). Complete
graphs (a uniform star centered at the node) and trees (weights
proportional to subtree sizes) are the special cases kept as independent
closed forms. The per-edge certificate `gradient_l + measure >= 0` is
sufficient for global optimality of any candidate point and is exposed for
arbitrary graphs; a pass is a sufficient-condition verdict, never a
necessary one. Node arguments are 1-based Python or numpy integers; bools,
floats and nodes outside 1..n raise ValueError, as everywhere in the
package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (DisconnectedGraphError, WeightedGraph, _is_integer, _node_index,
                     complete_graph_edges)
from .vulnerability import vulnerability_gradient, vulnerability_measure

__all__ = [
    "CertificateResult",
    "complete_graph_optimum",
    "shortest_path_flow",
    "tree_optimum",
    "optimality_certificate",
]


class NotATreeError(ValueError):
    """Topology is not a spanning tree."""


@dataclass(frozen=True)
class CertificateResult:
    """Per-edge optimality residuals r_l = gradient_l + measure."""

    residuals: np.ndarray
    min_residual: float
    optimal: bool

    def __post_init__(self) -> None:
        self.residuals.setflags(write=False)


def complete_graph_optimum(n: int, k: int) -> np.ndarray:
    """Optimal K_n weights for node k: a uniform star centered at k.

    The vector covers all n(n-1)/2 edges of K_n in the canonical
    lexicographic order (``complete_graph_edges``), with explicit zeros on
    the edges not incident to k; the resulting measure is ((n-1)/n)^2.
    """
    if not _is_integer(n) or n < 2:
        raise ValueError(f"complete graph needs an integer n >= 2, got {n!r}")
    center = _node_index(k, n) + 1
    return np.array([1.0 / (n - 1) if center in e else 0.0 for e in complete_graph_edges(n)])


def _adjacency(g: WeightedGraph) -> list[list[tuple[int, int]]]:
    """Adjacency lists (neighbor, edge index) of the edge structure.

    Weights are ignored: the input is a topology.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for l, (i, j) in enumerate(g.edges):
        adj[i].append((j, l))
        adj[j].append((i, l))
    return adj


def _subtree_sizes(tree: WeightedGraph, k: int) -> np.ndarray:
    """Per edge, the number of nodes whose unique path from k crosses it.

    Removing edge l splits the tree; the count is the size of the part
    without k. One breadth-first traversal from k finds every size, and
    with m = n - 1 its reaching every node rules out cycles. Raises
    NotATreeError unless the topology is a spanning tree.
    """
    if tree.m != tree.n - 1:
        raise NotATreeError(
            f"tree needs m = n - 1 edges, got m={tree.m} with n={tree.n}"
        )
    adj = _adjacency(tree)
    root = _node_index(k, tree.n)
    up: list[tuple[int, int] | None] = [None] * tree.n  # (parent, edge to it)
    order = [root]
    for v in order:  # breadth-first: order grows while it is scanned
        for u, l in adj[v]:
            if u != root and up[u] is None:
                up[u] = (v, l)
                order.append(u)
    if len(order) < tree.n:
        raise NotATreeError("edge structure is disconnected, not a spanning tree")
    size = [1] * tree.n
    sizes = np.zeros(tree.m, dtype=int)
    for v in reversed(order[1:]):
        parent, l = up[v]
        sizes[l] = size[v]
        size[parent] += size[v]
    return sizes


def tree_optimum(tree: WeightedGraph, k: int) -> np.ndarray:
    """Optimal tree weights for node k: proportional to subtree sizes.

    An edge that splits off s nodes away from k carries a_k = s paths from
    k and a = s(n - s) paths in all, so the closed form sqrt(n a_k - a) is
    s itself. The certificate residuals vanish identically at this point.
    Raises NotATreeError unless the topology is a spanning tree.
    """
    s = _subtree_sizes(tree, k)
    return s / s.sum()


def shortest_path_flow(g: WeightedGraph, k: int) -> np.ndarray:
    """Flows routing the demand e_k - 1/n over the shortest-path DAG from k.

    Nodes are taken in decreasing hop distance from k; each node's
    throughput (1/n plus what its successors send up) is split evenly over
    all its edges to nodes one hop closer to k. The flows sum to the mean
    hop distance from k, whose square is Elfving's lower bound on L+_kk
    over the unit simplex; ``flow / flow.sum()`` attains it.

    Why it is optimal: by Thomson's principle L+_kk = min over flows f
    routing e_k - 1/n of sum f_l^2 / b_l, and by Cauchy-Schwarz that is at
    least (sum |f_l|)^2 on the unit simplex, with equality at b = |f| / sum |f|.
    Shortest-path flows minimize sum |f_l| = sum_j hop(k, j) / n.

    Optima are not unique when shortest paths tie; the even split depends
    only on the graph's structure, so relabelling nodes or reordering edges
    permutes the weights and leaves every measure unchanged. Weights are
    ignored; raises DisconnectedGraphError if the topology is disconnected.
    """
    k0 = _node_index(k, g.n)
    adj = _adjacency(g)
    dist = [-1] * g.n
    dist[k0] = 0
    order = [k0]
    for v in order:  # breadth-first: order grows while it is scanned
        for u, _ in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                order.append(u)
    if len(order) < g.n:
        raise DisconnectedGraphError(
            f"node {k} reaches {len(order)} of {g.n} nodes"
        )
    throughput = [1.0 / g.n] * g.n
    flow = np.zeros(g.m)
    for v in reversed(order[1:]):
        preds = [(u, l) for u, l in adj[v] if dist[u] == dist[v] - 1]
        share = throughput[v] / len(preds)
        for u, l in preds:
            flow[l] = share
            throughput[u] += share
    return flow


def optimality_certificate(
    g: WeightedGraph, k: int, tol: float = 1e-8
) -> CertificateResult:
    """Sufficient-condition check that g's weights minimize node k's measure.

    For unit total weight, nonnegative residuals r_l = gradient_l + measure
    certify global optimality over the weight simplex.
    """
    measure = vulnerability_measure(g, k)
    residuals = vulnerability_gradient(g, k) + measure
    min_residual = float(residuals.min())
    return CertificateResult(
        residuals=residuals,
        min_residual=min_residual,
        optimal=min_residual >= -tol,
    )
