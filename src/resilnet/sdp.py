"""Standard-form SDP assembly of the worst-case design problem.

The block-diagonal variable Z stacks, in order: one (n+1) x (n+1) PSD block
S_k = [[L + 11^T/n, e_k], [e_k^T, t]] per target node k, a diagonal block
holding the m edge weights, and the n x n PSD block
E = L + 11^T/n - eps*I. Minimizing Tr(W Z) subject to Tr(A Z) = 1, the
affine coupling constraints below, and Z >= 0 is exactly the unit-budget
design problem; the coupling constraints (which tie every S_k entry, the
shared slack t, and E to the edge-weight block) are spelled out here since
the block-diagonal form alone does not imply them.

Entries of constraint matrices are stored upper-triangular with symmetric
semantics: a value v at (i, j), i < j, means the matrix holds v at both
(i, j) and (j, i).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .graphs import build_graph, laplacian
from .optimize import DesignProblem

__all__ = [
    "SdpBlock",
    "SparseSymmetric",
    "SdpData",
    "assemble_sdp",
    "encode_point",
    "decode_point",
    "format_sdpa",
    "write_sdpa",
]


@dataclass(frozen=True)
class SdpBlock:
    kind: str   # "psd" or "diag"
    size: int
    label: str


@dataclass(frozen=True)
class SparseSymmetric:
    """Sparse symmetric matrix over the block layout.

    Entries are (block index 0-based, row, col, value) with 1-based
    block-local row <= col.
    """

    entries: tuple[tuple[int, int, int, float], ...]


@dataclass(frozen=True)
class SdpData:
    """Exact standard form min Tr(WZ) s.t. Tr(AZ)=1, couplings, Z >= 0.

    Always expressed at unit budget; problems with another budget are
    rescaled by homogeneity before assembly.
    """

    dimension: int
    blocks: tuple[SdpBlock, ...]
    objective: SparseSymmetric
    budget_matrix: SparseSymmetric
    constraints: tuple[tuple[SparseSymmetric, float], ...]
    n: int
    edges: tuple[tuple[int, int], ...]
    v_prime: tuple[int, ...]
    epsilon: float

    @property
    def m(self) -> int:
        return len(self.edges)

    def block_offsets(self) -> list[int]:
        offs = []
        pos = 0
        for blk in self.blocks:
            offs.append(pos)
            pos += blk.size
        return offs

    def to_dense(self, mat: SparseSymmetric) -> np.ndarray:
        """Materialize a constraint matrix as a dense d x d array."""
        offs = self.block_offsets()
        out = np.zeros((self.dimension, self.dimension))
        for blk, i, j, v in mat.entries:
            r = offs[blk] + i - 1
            c = offs[blk] + j - 1
            out[r, c] += v
            if r != c:
                out[c, r] += v
        return out


def _edge_coefficient_entries(
    diag_block: int, edges: tuple[tuple[int, int], ...]
) -> dict[tuple[int, int], list[tuple[int, int, int, float]]]:
    """Map (i, j) to the entries canceling that Laplacian term against the b block.

    Keys are 1-based matrix positions with i <= j; for edge l = (p, q),
    p < q, the Laplacian holds +b_l at (p, p) and (q, q) and -b_l at (p, q).
    Each list is in edge order.
    """
    out = defaultdict(list)
    for l, (p, q) in enumerate(edges, start=1):
        out[p, p].append((diag_block, l, l, -1.0))
        out[q, q].append((diag_block, l, l, -1.0))
        out[p, q].append((diag_block, l, l, 1.0))
    return out


def assemble_sdp(problem: DesignProblem) -> SdpData:
    """Assemble the standard-form SDP of the min-max design problem."""
    n = problem.n
    edges = problem.edges
    m = len(edges)
    targets = problem.v_prime
    l = len(targets)
    eps = problem.epsilon / problem.budget
    dimension = l * (n + 1) + m + n

    blocks = tuple(
        [SdpBlock("psd", n + 1, f"S_{k}") for k in targets]
        + [SdpBlock("diag", m, "b")]
        + [SdpBlock("psd", n, "E")]
    )
    diag_block = l
    e_block = l + 1

    objective = SparseSymmetric(((0, n + 1, n + 1, 1.0),))
    budget_matrix = SparseSymmetric(
        tuple((diag_block, i, i, 1.0) for i in range(1, m + 1))
    )

    constraints: list[tuple[SparseSymmetric, float]] = []

    def add(entries: Iterable[tuple[int, int, int, float]], rhs: float) -> None:
        constraints.append((SparseSymmetric(tuple(entries)), rhs))

    ties = _edge_coefficient_entries(diag_block, edges)

    for k_idx, k in enumerate(targets):
        # Laplacian part of S_k is affine in the edge-weight block.
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                own = 1.0 if i == j else 0.5
                add([(k_idx, i, j, own), *ties.get((i, j), ())], 1.0 / n)
        # Border column of S_k is the basis vector of node k.
        for i in range(1, n + 1):
            add([(k_idx, i, n + 1, 0.5)], 1.0 if i == k else 0.0)
        # All S_k share one slack t.
        if k_idx > 0:
            add(
                [(k_idx, n + 1, n + 1, 1.0), (0, n + 1, n + 1, -1.0)],
                0.0,
            )
    # E mirrors the Laplacian block shifted by the spectral floor.
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            own = 1.0 if i == j else 0.5
            add([(e_block, i, j, own), *ties.get((i, j), ())],
                1.0 / n - (eps if i == j else 0.0))

    return SdpData(
        dimension=dimension,
        blocks=blocks,
        objective=objective,
        budget_matrix=budget_matrix,
        constraints=tuple(constraints),
        n=n,
        edges=edges,
        v_prime=targets,
        epsilon=eps,
    )


def encode_point(sdp: SdpData, b: np.ndarray, t: float) -> np.ndarray:
    """Dense feasible Z from unit-budget weights b and slack t.

    Z satisfies every coupling constraint by construction and is PSD
    exactly when b is feasible and t >= max_k e_k^T (L + 11^T/n)^{-1} e_k.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (sdp.m,):
        raise ValueError(f"b has shape {b.shape}, expected ({sdp.m},)")
    n = sdp.n
    M = laplacian(build_graph(n, sdp.edges, np.ones(sdp.m)), b) + 1.0 / n
    Z = np.zeros((sdp.dimension, sdp.dimension))
    offs = sdp.block_offsets()
    for k_idx, k in enumerate(sdp.v_prime):
        o = offs[k_idx]
        Z[o:o + n, o:o + n] = M
        Z[o + k - 1, o + n] = 1.0
        Z[o + n, o + k - 1] = 1.0
        Z[o + n, o + n] = t
    od = offs[len(sdp.v_prime)]
    Z[od:od + sdp.m, od:od + sdp.m] = np.diag(b)
    oe = offs[len(sdp.v_prime) + 1]
    Z[oe:oe + n, oe:oe + n] = M - sdp.epsilon * np.eye(n)
    return Z


def decode_point(sdp: SdpData, Z: np.ndarray) -> tuple[np.ndarray, float]:
    """Extract (b, t) from any Z satisfying the coupling constraints."""
    offs = sdp.block_offsets()
    od = offs[len(sdp.v_prime)]
    b = np.diagonal(Z)[od:od + sdp.m].copy()
    t = float(Z[offs[0] + sdp.n, offs[0] + sdp.n])
    return b, t


def format_sdpa(sdp: SdpData) -> str:
    """Serialize to sparse SDPA-style text, 17 significant digits.

    Constraint 0 is the objective selector W, constraint 1 the budget
    selector A (right-hand side 1), and constraints 2.. the coupling
    constraints in assembly order. The diagonal edge-weight block is
    written with a negative dimension, per SDPA convention.
    """
    lines = [
        "* resilnet standard-form SDP export",
        "* problem: min Tr(W Z) s.t. Tr(A Z) = 1, couplings, Z >= 0",
        f"* nodes n = {sdp.n}, edges m = {sdp.m}, targets V' = {list(sdp.v_prime)}",
        f"* spectral floor eps = {sdp.epsilon:.17g} (unit budget)",
        "* blocks: " + ", ".join(
            f"{idx + 1}: {blk.label} ({blk.kind} {blk.size})"
            for idx, blk in enumerate(sdp.blocks)
        ),
        "* S_k = [[L + 11^T/n, e_k], [e_k^T, t]]; E = L + 11^T/n - eps*I",
        "* couplings, in order: per target k row-major upper-triangular",
        "*   Laplacian ties of S_k, then the e_k border column, then the",
        "*   shared-slack tie to S_1; finally the Laplacian ties of E.",
        "* matrix 0 below is W; constraint 1 is the budget selector A.",
        f"{1 + len(sdp.constraints)}",
        f"{len(sdp.blocks)}",
        " ".join(
            str(-blk.size if blk.kind == "diag" else blk.size)
            for blk in sdp.blocks
        ),
        " ".join(["1"] + [f"{rhs:.17g}" for _, rhs in sdp.constraints]),
    ]

    def emit(matno: int, mat: SparseSymmetric) -> None:
        for blk, i, j, v in mat.entries:
            lines.append(f"{matno} {blk + 1} {i} {j} {v:.17g}")

    emit(0, sdp.objective)
    emit(1, sdp.budget_matrix)
    for c_idx, (mat, _) in enumerate(sdp.constraints, start=2):
        emit(c_idx, mat)
    return "\n".join(lines) + "\n"


def write_sdpa(sdp: SdpData, path_or_file: str | IO[str]) -> None:
    """Write the SDPA-style text form to a path or open text file."""
    text = format_sdpa(sdp)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
