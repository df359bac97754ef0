"""Standard-form SDP assembly of the worst-case design problem.

The block-diagonal variable Z stacks, in order: one (n+1) x (n+1) PSD block
S_k = [[L + 11^T/n, e_k], [e_k^T, t]] per target node k, a diagonal block
holding the m edge weights, and the n x n PSD block
E = L + 11^T/n - eps*I. Minimizing Tr(W Z) subject to Tr(A Z) = 1, the
affine coupling constraints below, and Z >= 0 is exactly the unit-budget
design problem; the coupling constraints (which tie every S_k entry, the
shared slack t, and E to the edge-weight block) are spelled out here since
the block-diagonal form alone does not imply them.

A matrix is a tuple of (block, i, j, value) entries: a 0-based block index
and a 1-based block-local position i <= j, with symmetric semantics (v at
(i, j), i < j, is held at both (i, j) and (j, i)). ``SdpData`` stores the
design problem and the coupling constraints; the block layout, W and A are
derived from the problem, the layout in one place (``SdpData.layout``).
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import IO

import numpy as np

from .graphs import laplacian
from .optimize import DesignProblem

__all__ = [
    "SdpData",
    "assemble_sdp",
    "encode_point",
    "decode_point",
    "format_sdpa",
    "write_sdpa",
]

Entry = tuple[int, int, int, float]
Matrix = tuple[Entry, ...]


@dataclass(frozen=True)
class SdpData:
    """Exact standard form min Tr(WZ) s.t. Tr(AZ)=1, couplings, Z >= 0.

    ``constraints`` holds the coupling constraints as (entries, rhs) pairs
    in assembly order; everything else derives from ``problem``. Expressed
    at unit budget, as every DesignProblem is; the caller normalizes a
    physical budget first (see resilnet.scenarios.unit_budget_problem).
    """

    problem: DesignProblem
    constraints: tuple[tuple[Matrix, float], ...]

    def layout(self) -> list[tuple[str, int]]:
        """(label, SDPA size) per block; the diagonal block's size is negative."""
        n = self.problem.n
        return ([(f"S_{k}", n + 1) for k in self.problem.v_prime]
                + [("b", -len(self.problem.edges)), ("E", n)])

    def block_offsets(self) -> list[int]:
        sizes = [abs(size) for _, size in self.layout()]
        return [0, *itertools.accumulate(sizes[:-1])]

    @property
    def dimension(self) -> int:
        return sum(abs(size) for _, size in self.layout())

    @property
    def objective(self) -> Matrix:
        """W selects the shared slack t, held in the first S_k block."""
        return ((0, self.problem.n + 1, self.problem.n + 1, 1.0),)

    @property
    def budget_matrix(self) -> Matrix:
        """A sums the diagonal edge-weight block."""
        diag_block, m = len(self.problem.v_prime), len(self.problem.edges)
        return tuple((diag_block, i, i, 1.0) for i in range(1, m + 1))

    def to_dense(self, mat: Matrix) -> np.ndarray:
        """Materialize a constraint matrix as a dense d x d array."""
        offs = self.block_offsets()
        out = np.zeros((self.dimension, self.dimension))
        for blk, i, j, v in mat:
            r, c = offs[blk] + i - 1, offs[blk] + j - 1
            out[r, c] += v
            if r != c:
                out[c, r] += v
        return out


def _edge_coefficient_entries(
    diag_block: int, edges: tuple[tuple[int, int], ...]
) -> dict[tuple[int, int], list[Entry]]:
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


def _laplacian_ties(block: int, n: int, ties: dict[tuple[int, int], list[Entry]],
                    shift: float) -> list[tuple[Matrix, float]]:
    """Row-major upper-triangular ties of a block's L + 11^T/n - shift*I part."""
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            own = 1.0 if i == j else 0.5
            out.append((((block, i, j, own), *ties.get((i, j), ())),
                        1.0 / n - (shift if i == j else 0.0)))
    return out


def assemble_sdp(problem: DesignProblem) -> SdpData:
    """Assemble the standard-form SDP of the min-max design problem."""
    n, l = problem.n, len(problem.v_prime)
    ties = _edge_coefficient_entries(l, problem.edges)
    constraints = []
    for k_idx, k in enumerate(problem.v_prime):
        # Laplacian part of S_k is affine in the edge-weight block.
        constraints += _laplacian_ties(k_idx, n, ties, 0.0)
        # Border column of S_k is the basis vector of node k.
        constraints += [(((k_idx, i, n + 1, 0.5),), 1.0 if i == k else 0.0)
                        for i in range(1, n + 1)]
        # All S_k share one slack t.
        if k_idx > 0:
            constraints.append(
                (((k_idx, n + 1, n + 1, 1.0), (0, n + 1, n + 1, -1.0)), 0.0))
    # E mirrors the Laplacian block shifted by the spectral floor.
    constraints += _laplacian_ties(l + 1, n, ties, problem.epsilon)
    return SdpData(problem=problem, constraints=tuple(constraints))


def encode_point(sdp: SdpData, b: np.ndarray, t: float) -> np.ndarray:
    """Dense feasible Z from unit-budget weights b and slack t.

    Z satisfies every coupling constraint by construction and is PSD
    exactly when b is feasible and t >= max_k e_k^T (L + 11^T/n)^{-1} e_k.
    """
    p = sdp.problem
    n, m, l = p.n, len(p.edges), len(p.v_prime)
    b = np.asarray(b, dtype=float)
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    M = laplacian(p.template, b) + 1.0 / n
    Z = np.zeros((sdp.dimension, sdp.dimension))
    offs = sdp.block_offsets()
    for o, k in zip(offs, p.v_prime):
        Z[o:o + n, o:o + n] = M
        Z[o + k - 1, o + n] = 1.0
        Z[o + n, o + k - 1] = 1.0
        Z[o + n, o + n] = t
    od, oe = offs[l], offs[l + 1]
    Z[od:od + m, od:od + m] = np.diag(b)
    Z[oe:oe + n, oe:oe + n] = M - p.epsilon * np.eye(n)
    return Z


def decode_point(sdp: SdpData, Z: np.ndarray) -> tuple[np.ndarray, float]:
    """Extract (b, t) from any Z satisfying the coupling constraints."""
    p = sdp.problem
    offs = sdp.block_offsets()
    od = offs[len(p.v_prime)]
    b = np.diagonal(Z)[od:od + len(p.edges)].copy()
    return b, float(Z[p.n, p.n])


def format_sdpa(sdp: SdpData) -> str:
    """Serialize to sparse SDPA-style text, 17 significant digits.

    Matrix 0 is the objective selector W, constraint 1 the budget selector
    A (right-hand side 1), and constraints 2.. the coupling constraints in
    assembly order. The diagonal edge-weight block is written with a
    negative dimension, per SDPA convention.
    """
    p = sdp.problem
    layout = sdp.layout()
    lines = [
        "* resilnet standard-form SDP export",
        "* problem: min Tr(W Z) s.t. Tr(A Z) = 1, couplings, Z >= 0",
        f"* nodes n = {p.n}, edges m = {len(p.edges)}, targets V' = {list(p.v_prime)}",
        f"* spectral floor eps = {p.epsilon:.17g} (unit budget)",
        "* blocks: " + ", ".join(
            f"{idx + 1}: {label} ({'diag' if size < 0 else 'psd'} {abs(size)})"
            for idx, (label, size) in enumerate(layout)
        ),
        "* S_k = [[L + 11^T/n, e_k], [e_k^T, t]]; E = L + 11^T/n - eps*I",
        "* couplings, in order: per target k row-major upper-triangular",
        "*   Laplacian ties of S_k, then the e_k border column, then the",
        "*   shared-slack tie to S_1; finally the Laplacian ties of E.",
        "* matrix 0 below is W; constraint 1 is the budget selector A.",
        f"{1 + len(sdp.constraints)}",
        f"{len(layout)}",
        " ".join(str(size) for _, size in layout),
        " ".join(["1"] + [f"{rhs:.17g}" for _, rhs in sdp.constraints]),
    ]
    matrices = [sdp.objective, sdp.budget_matrix,
                *(mat for mat, _ in sdp.constraints)]
    for matno, mat in enumerate(matrices):
        for blk, i, j, v in mat:
            lines.append(f"{matno} {blk + 1} {i} {j} {v:.17g}")
    return "\n".join(lines) + "\n"


def write_sdpa(sdp: SdpData, path_or_file: str | IO[str]) -> None:
    """Write the SDPA-style text form to a path or open text file."""
    text = format_sdpa(sdp)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
