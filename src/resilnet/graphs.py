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
``x[g.ei] - x[g.ej]``. The dense edges x nodes incidence that ``dynamics``
integrates on is built from them too, as ``eye(n)[g.ei] - eye(n)[g.ej]``.
``spectral_bundle`` caches per graph what callers read: (L + 11^T/n)^{-1},
which gives L^+ and the resistances, and the spectrum from one ``eigvalsh``.
"""
from __future__ import annotations

import copy
import numbers
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
    "resistance_matrix",
]

# spectral_bundle treats L + 11^T/n as singular when its smallest eigenvalue,
# min(lambda_2, 1), is at most CONNECTIVITY_RTOL * lambda_n. This tests the
# conditioning of the regularized Laplacian, not connectivity: the 1 does not
# scale with the weights, so a connected graph with weights near 1e9 fails too.
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

    ``reg_inverse`` is (L + 11^T/n)^{-1}; for a connected graph the
    pseudoinverse is L^+ = reg_inverse - 11^T/n. ``eigenvalues`` is the
    ascending Laplacian spectrum. The tests cross-check L^+ against the
    eigendecomposition of L.
    """

    reg_inverse: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        self.reg_inverse.setflags(write=False)
        self.eigenvalues.setflags(write=False)


def build_graph(n: int, edges: Iterable[tuple[int, int]], b: Sequence[float]) -> WeightedGraph:
    """Construct a validated WeightedGraph from 1-based edge pairs.

    Raises GraphConstructionError naming the offending edge index (1-based)
    for non-integer endpoints, self-loops, duplicate pairs, negative weights,
    or a length mismatch. ``n`` and the endpoints may be Python or numpy
    integers, but not bools.
    """
    if not _is_integer(n):
        raise GraphConstructionError(f"node count must be an integer, got n={n!r}")
    if n < 2:
        raise GraphConstructionError(f"need at least 2 nodes, got n={n}")
    pairs = []
    seen: set[tuple[int, int]] = set()
    for l, (i, j) in enumerate(edges, start=1):
        if not (_is_integer(i) and _is_integer(j)):
            raise GraphConstructionError(
                f"edge {l}: endpoints ({i!r}, {j!r}) must be integers"
            )
        i, j = int(i), int(j)
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
    return WeightedGraph(int(n), tuple(pairs), _checked_weights(b, len(pairs)))


def _is_integer(x: object) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _node_index(k: object, n: int) -> int:
    """0-based index of node k of an n-node network: the package's one node check.

    k may be a Python or numpy integer, not a bool, in 1..n; else ValueError.
    """
    if not _is_integer(k):
        raise ValueError(f"node must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise ValueError(f"node {k} out of range 1..{n}")
    return int(k) - 1


def _node_vector(name: str, values: Sequence[float], n: int) -> np.ndarray:
    """``values`` as a float array, checked to hold one finite entry per node."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{name} has non-finite entry {arr[bad[0]]} at node {bad[0] + 1}")
    return arr


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

    Raises SingularLaplacianError when L + 11^T/n is numerically singular
    (see CONNECTIVITY_RTOL): always for a disconnected graph, and also for
    a connected one whose weights are too large for the regularization.
    """
    cached = getattr(g, "_bundle")
    if cached is not None:
        return cached
    L = laplacian(g)
    eigvals = np.linalg.eigvalsh(L)
    lam_n = max(float(eigvals[-1]), 0.0)
    smallest = min(float(eigvals[1]), 1.0)
    if smallest <= CONNECTIVITY_RTOL * max(lam_n, 1e-300):
        raise SingularLaplacianError(
            "regularized Laplacian L + 11^T/n is numerically singular: its "
            f"smallest eigenvalue min(lambda_2, 1) = {smallest:.3e} is at most "
            f"{CONNECTIVITY_RTOL:g} * lambda_n = {lam_n:.3e} (the graph is "
            "disconnected, or its weights are too large)"
        )
    bundle = SpectralBundle(reg_inverse=np.linalg.inv(L + 1.0 / g.n),
                            eigenvalues=eigvals)
    object.__setattr__(g, "_bundle", bundle)
    return bundle


def algebraic_connectivity(g: WeightedGraph) -> float:
    """Second-smallest Laplacian eigenvalue; ~0 for disconnected graphs."""
    return max(float(np.linalg.eigvalsh(laplacian(g))[1]), 0.0)


def resistance_matrix(g: WeightedGraph) -> np.ndarray:
    """All-pairs effective resistance matrix (zero diagonal); g must be connected."""
    # The 11^T/n of the regularized inverse cancels in x_ii + x_jj - 2 x_ij.
    x = spectral_bundle(g).reg_inverse
    d = np.diag(x)
    return d[:, None] + d[None, :] - 2.0 * x
