"""Weighted-graph core: Laplacian, spectral, and resistance primitives.

Nodes are labelled 1..n at the public API (matching bus numbering in grid
cases); rows/columns of matrices and entries of weight vectors are 0-based.
The edge order given at construction is fixed and defines the index l used
by every weight vector, gradient, and constraint matrix in the package.

Edge l joins nodes ``g.ei[l]`` and ``g.ej[l]``; these read-only index arrays
are built once per topology and shared by ``with_weights``. They and
``laplacian(g, b)`` are the package's one edge-to-matrix path: every
Laplacian (regularized, cosine-weighted, or the spectral bundle's) comes
from ``laplacian``, and per-edge differences of a node vector x are
``x[g.ei] - x[g.ej]``.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CONNECTIVITY_RTOL",
    "GraphConstructionError",
    "DisconnectedGraphError",
    "SingularLaplacianError",
    "WeightedGraph",
    "SpectralBundle",
    "build_graph",
    "complete_graph_edges",
    "spectral_bundle",
    "laplacian",
    "algebraic_connectivity",
    "is_connected",
    "effective_resistance",
    "resistance_matrix",
    "commute_time",
    "transition_matrix",
]

# Eigenvalues below CONNECTIVITY_RTOL * lambda_n count as zero when deciding
# connectivity; the relative threshold survives rescaling of the budget.
CONNECTIVITY_RTOL = 1e-9

# Laplacian contributions of one edge, matching WeightedGraph._scatter.
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


class GraphConstructionError(ValueError):
    """Invalid node count, edge list, or weight vector."""


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph."""


class SingularLaplacianError(DisconnectedGraphError):
    """The regularized Laplacian L + 11^T/n is numerically singular."""


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Immutable weighted graph on nodes 1..n.

    ``edges`` holds 0-based pairs (i, j) with i < j, in construction order;
    ``b`` is the matching vector of nonnegative edge weights. ``ei`` and
    ``ej`` are the read-only arrays of the pairs' first and second nodes.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    b: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", _frozen(np.array(self.b, dtype=float)))
        object.__setattr__(self, "_bundle", None)
        ei = _frozen(np.array([e[0] for e in self.edges], dtype=np.intp))
        ej = _frozen(np.array([e[1] for e in self.edges], dtype=np.intp))
        object.__setattr__(self, "ei", ei)
        object.__setattr__(self, "ej", ej)
        # Flat positions of (i,i), (j,j), (i,j), (j,i) for each edge in turn,
        # so laplacian() accumulates every entry in edge order.
        n = self.n
        flat = np.stack([ei * n + ei, ej * n + ej, ei * n + ej, ej * n + ei], axis=1)
        object.__setattr__(self, "_scatter", _frozen(flat.ravel()))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """Edges as 1-based node pairs, in index order."""
        return tuple((i + 1, j + 1) for i, j in self.edges)

    def with_weights(self, b: Sequence[float]) -> "WeightedGraph":
        """Same topology, and the same index arrays, with a new weight vector."""
        g = copy.copy(self)
        object.__setattr__(g, "b", _frozen(_checked_weights(b, self.m)))
        object.__setattr__(g, "_bundle", None)
        return g


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked_weights(b: Iterable[float], m: int) -> np.ndarray:
    """b as a float vector of length m, finite and nonnegative."""
    weights = np.array(list(b), dtype=float)
    if weights.shape != (m,):
        raise GraphConstructionError(
            f"weight vector has length {weights.size}, expected {m}"
        )
    if not np.all(np.isfinite(weights)):
        idx = int(np.flatnonzero(~np.isfinite(weights))[0])
        raise GraphConstructionError(f"non-finite weight at edge index {idx + 1}")
    neg = np.flatnonzero(weights < 0)
    if neg.size:
        raise GraphConstructionError(f"negative weight at edge index {int(neg[0]) + 1}")
    return weights


@dataclass(frozen=True)
class SpectralBundle:
    """Cached spectral data of one graph.

    ``pseudoinverse`` is obtained from the identity
    L^+ = (L + 11^T/n)^{-1} - 11^T/n, valid for connected graphs; the
    eigendecomposition of L is kept alongside as an independent cross-check.
    """

    laplacian: np.ndarray
    reg_inverse: np.ndarray
    pseudoinverse: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.laplacian, self.reg_inverse, self.pseudoinverse,
                  self.eigenvalues, self.eigenvectors):
            a.setflags(write=False)


def build_graph(n: int, edges: Iterable[tuple[int, int]], b: Sequence[float]) -> WeightedGraph:
    """Construct a validated WeightedGraph from 1-based edge pairs.

    Raises GraphConstructionError naming the offending edge index (1-based)
    for self-loops, duplicate pairs, negative weights, or a length mismatch.
    """
    if n < 2:
        raise GraphConstructionError(f"need at least 2 nodes, got n={n}")
    pairs = []
    seen: set[tuple[int, int]] = set()
    for l, (i, j) in enumerate(edges, start=1):
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphConstructionError(
                f"edge {l}: endpoint out of range in ({i}, {j}) with n={n}"
            )
        if i == j:
            raise GraphConstructionError(f"edge {l}: self-loop at node {i}")
        pair = (min(i, j) - 1, max(i, j) - 1)
        if pair in seen:
            raise GraphConstructionError(
                f"edge {l}: duplicate pair ({pair[0] + 1}, {pair[1] + 1})"
            )
        seen.add(pair)
        pairs.append(pair)
    return WeightedGraph(n, tuple(pairs), _checked_weights(b, len(pairs)))


def complete_graph_edges(n: int) -> list[tuple[int, int]]:
    """Canonical lexicographic edge list of K_n, 1-based pairs."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def laplacian(g: WeightedGraph, b: np.ndarray | None = None) -> np.ndarray:
    """Dense weighted Laplacian of g's topology at weights b (default g.b)."""
    w = g.b if b is None else b
    signed = (np.asarray(w, dtype=float)[:, None] * _SIGNS).ravel()
    return np.bincount(g._scatter, signed, g.n * g.n).reshape(g.n, g.n)


def spectral_bundle(g: WeightedGraph) -> SpectralBundle:
    """Spectral data of g, computed once and cached on the graph.

    Raises SingularLaplacianError when L + 11^T/n is numerically singular,
    which happens exactly when the graph is (effectively) disconnected.
    """
    cached = getattr(g, "_bundle")
    if cached is not None:
        return cached
    L = laplacian(g)
    eigvals, eigvecs = np.linalg.eigh(L)
    lam_n = max(float(eigvals[-1]), 0.0)
    if min(float(eigvals[1]), 1.0) <= CONNECTIVITY_RTOL * max(lam_n, 1e-300):
        raise SingularLaplacianError(
            "regularized Laplacian is singular: graph is disconnected "
            f"(lambda_2 = {eigvals[1]:.3e})"
        )
    ones = np.full((g.n, g.n), 1.0 / g.n)
    reg_inverse = np.linalg.inv(L + ones)
    bundle = SpectralBundle(
        laplacian=L,
        reg_inverse=reg_inverse,
        pseudoinverse=reg_inverse - ones,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
    )
    object.__setattr__(g, "_bundle", bundle)
    return bundle


def algebraic_connectivity(g: WeightedGraph) -> float:
    """Second-smallest Laplacian eigenvalue; ~0 for disconnected graphs."""
    cached = getattr(g, "_bundle")
    eigvals = cached.eigenvalues if cached is not None else np.linalg.eigvalsh(laplacian(g))
    return max(float(eigvals[1]), 0.0)


def is_connected(g: WeightedGraph, tol: float = 1e-9) -> bool:
    """True iff lambda_2(b) > tol.

    Agrees with a traversal over the edges whose weight exceeds tol, for
    tolerances small against the working weight scale.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return algebraic_connectivity(g) > tol


def _require_connected(g: WeightedGraph) -> SpectralBundle:
    try:
        return spectral_bundle(g)
    except SingularLaplacianError:
        raise DisconnectedGraphError(
            "graph is disconnected; effective resistance is infinite"
        ) from None


def effective_resistance(g: WeightedGraph, i: int, j: int) -> float:
    """Effective resistance between nodes i and j (1-based)."""
    if not (1 <= i <= g.n and 1 <= j <= g.n):
        raise ValueError(f"node out of range: ({i}, {j}) with n={g.n}")
    if i == j:
        raise ValueError("effective resistance needs two distinct nodes")
    lp = _require_connected(g).pseudoinverse
    a, c = i - 1, j - 1
    return float(lp[a, a] + lp[c, c] - 2.0 * lp[a, c])


def resistance_matrix(g: WeightedGraph) -> np.ndarray:
    """All-pairs effective resistance matrix (zero diagonal)."""
    lp = _require_connected(g).pseudoinverse
    d = np.diag(lp)
    return d[:, None] + d[None, :] - 2.0 * lp


def commute_time(g: WeightedGraph, i: int, j: int) -> float:
    """Expected commute time C_ij = 2 (1^T b) Omega_ij of the random walk."""
    return 2.0 * float(np.sum(g.b)) * effective_resistance(g, i, j)


def transition_matrix(g: WeightedGraph) -> np.ndarray:
    """Random-walk transition matrix P = D^{-1} B; rows sum to 1."""
    L = laplacian(g)
    B = np.diag(np.diag(L)) - L
    deg = B.sum(axis=1)
    dead = np.flatnonzero(deg <= 0.0)
    if dead.size:
        raise ValueError(
            f"node {int(dead[0]) + 1} has zero weighted degree; random walk undefined"
        )
    return B / deg[:, None]
