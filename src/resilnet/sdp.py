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
(i, j), i < j, is held at both (i, j) and (j, i)). ``SdpData`` stores only
the design problem. Everything else derives from it: the block layout in
one place (``SdpData.layout``), W, A, and the coupling constraints, which
come from one set of coupling rows per block kind. Every S_k block shares
the same Laplacian tie rows, and E reuses them; ``format_sdpa`` formats
each kind's rows once and stamps that text per block.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
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
class _Rows:
    """Coupling rows shared by every block of one kind.

    Row (i, j, own, others) is the constraint whose entries are ``own`` at
    (i, j) of the block it is stamped on, then ``others``, entries in fixed
    blocks.
    """

    rows: tuple[tuple[int, int, float, tuple[Entry, ...]], ...]

    @cached_property
    def text(self) -> str:
        """SDPA entry lines; field r is row r's matrix number, b the own block."""
        return "".join(
            f"{{{r}}} {{b}} {i} {j} {own:.17g}\n"
            + "".join(f"{{{r}}} {blk + 1} {a} {c} {v:.17g}\n"
                      for blk, a, c, v in others)
            for r, (i, j, own, others) in enumerate(self.rows))

    def stamp(self, first: int, block: int) -> str:
        """Entry lines on 0-based ``block``, numbering the rows from ``first``."""
        return self.text.format(*range(first, first + len(self.rows)), b=block + 1)


# (own block, rows, right-hand sides), one run of consecutive constraints.
Run = tuple[int, _Rows, tuple[float, ...]]


@dataclass(frozen=True)
class SdpData:
    """Exact standard form min Tr(WZ) s.t. Tr(AZ)=1, couplings, Z >= 0.

    ``problem`` is the only stored field. The coupling constraints, the
    layout, W and A derive from it; ``constraints`` is built on first read
    (only ``to_dense`` callers need it), while ``format_sdpa`` works from
    the shared coupling rows. Expressed at unit budget, as every
    DesignProblem is; the caller normalizes a physical budget first (see
    resilnet.scenarios.unit_budget_problem).
    """

    problem: DesignProblem

    def layout(self) -> list[tuple[str, int]]:
        """(label, SDPA size) per block; the diagonal block's size is negative."""
        n = self.problem.n
        return ([(f"S_{k}", n + 1) for k in self.problem.v_prime]
                + [("b", -self.problem.topology.m), ("E", n)])

    def block_offsets(self) -> list[int]:
        sizes = [abs(size) for _, size in self.layout()]
        return [0, *itertools.accumulate(sizes[:-1])]

    @property
    def dimension(self) -> int:
        return sum(abs(size) for _, size in self.layout())

    @property
    def coupling_count(self) -> int:
        """Number of coupling constraints, in closed form.

        Per S_k its tri Laplacian ties and n border entries, then l - 1
        shared-slack ties and the tri Laplacian ties of E.
        """
        n, l = self.problem.n, len(self.problem.v_prime)
        tri = n * (n + 1) // 2
        return l * (tri + n) + (l - 1) + tri

    @property
    def objective(self) -> Matrix:
        """W selects the shared slack t, held in the first S_k block."""
        return ((0, self.problem.n + 1, self.problem.n + 1, 1.0),)

    @property
    def budget_matrix(self) -> Matrix:
        """A sums the diagonal edge-weight block."""
        diag_block, m = len(self.problem.v_prime), self.problem.topology.m
        return tuple((diag_block, i, i, 1.0) for i in range(1, m + 1))

    @cached_property
    def constraints(self) -> tuple[tuple[Matrix, float], ...]:
        """Coupling constraints as (entries, rhs) pairs in assembly order."""
        return tuple((((block, i, j, own), *others), rhs)
                     for block, rows, rhs_run in self._runs()
                     for (i, j, own, others), rhs in zip(rows.rows, rhs_run))

    def _runs(self) -> list[Run]:
        """The coupling constraints in assembly order, as runs of shared rows."""
        p = self.problem
        n, l = p.n, len(p.v_prime)
        # Laplacian part of a block is affine in the edge-weight block: for
        # edge e = (a, c), a < c, L holds +b_e at (a, a) and (c, c) and -b_e
        # at (a, c). Each row lists its ties in edge order.
        ties = defaultdict(list)
        for e, (a, c) in enumerate(p.topology.edge_pairs, start=1):
            ties[a, a].append((l, e, e, -1.0))
            ties[c, c].append((l, e, e, -1.0))
            ties[a, c].append((l, e, e, 1.0))
        upper = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        laplacian_ties = _Rows(tuple((i, j, 1.0 if i == j else 0.5,
                                      tuple(ties.get((i, j), ())))
                                     for i, j in upper))
        # Border column of S_k is the basis vector of node k.
        border = _Rows(tuple((i, n + 1, 0.5, ()) for i in range(1, n + 1)))
        # All S_k share one slack t.
        slack = _Rows(((n + 1, n + 1, 1.0, ((0, n + 1, n + 1, -1.0),)),))

        def shifted(shift: float) -> tuple[float, ...]:
            return tuple(1.0 / n - (shift if i == j else 0.0) for i, j in upper)

        target_rhs = shifted(0.0)
        runs: list[Run] = []
        for k_idx, k in enumerate(p.v_prime):
            runs.append((k_idx, laplacian_ties, target_rhs))
            runs.append((k_idx, border,
                         tuple(1.0 if i == k else 0.0 for i in range(1, n + 1))))
            if k_idx > 0:
                runs.append((k_idx, slack, (0.0,)))
        # E mirrors the Laplacian block shifted by the spectral floor.
        runs.append((l + 1, laplacian_ties, shifted(p.epsilon)))
        return runs

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


def assemble_sdp(problem: DesignProblem) -> SdpData:
    """Assemble the standard-form SDP of the min-max design problem."""
    return SdpData(problem=problem)


def encode_point(sdp: SdpData, b: np.ndarray, t: float) -> np.ndarray:
    """Dense feasible Z from unit-budget weights b and slack t.

    Z satisfies every coupling constraint by construction and is PSD
    exactly when b is feasible and t >= max_k e_k^T (L + 11^T/n)^{-1} e_k.
    """
    p = sdp.problem
    n, m, l = p.n, p.topology.m, len(p.v_prime)
    b = np.asarray(b, dtype=float)
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    M = laplacian(p.topology, b) + 1.0 / n
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
    b = np.diagonal(Z)[od:od + p.topology.m].copy()
    return b, float(Z[p.n, p.n])


def format_sdpa(sdp: SdpData) -> str:
    """Serialize to sparse SDPA-style text, 17 significant digits.

    Matrix 0 is the objective selector W, constraint 1 the budget selector
    A (right-hand side 1), and constraints 2.. the coupling constraints in
    assembly order. The diagonal edge-weight block is written with a
    negative dimension, per SDPA convention. The text is stamped from the
    coupling rows shared per block kind, not from ``sdp.constraints``,
    which this never builds.
    """
    p = sdp.problem
    layout = sdp.layout()
    runs = sdp._runs()
    rhs = [v for _, _, run_rhs in runs for v in run_rhs]
    # The right-hand sides take a handful of values, all finite.
    rhs_text = {v: f"{v:.17g}" for v in set(rhs)}
    lines = [
        "* resilnet standard-form SDP export",
        "* problem: min Tr(W Z) s.t. Tr(A Z) = 1, couplings, Z >= 0",
        f"* nodes n = {p.n}, edges m = {p.topology.m}, targets V' = {list(p.v_prime)}",
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
        f"{1 + len(rhs)}",
        f"{len(layout)}",
        " ".join(str(size) for _, size in layout),
        " ".join(["1", *map(rhs_text.__getitem__, rhs)]),
    ]
    for matno, mat in enumerate((sdp.objective, sdp.budget_matrix)):
        for blk, i, j, v in mat:
            lines.append(f"{matno} {blk + 1} {i} {j} {v:.17g}")
    body = []
    first = 2
    for block, rows, _ in runs:
        body.append(rows.stamp(first, block))
        first += len(rows.rows)
    return "\n".join(lines) + "\n" + "".join(body)


def write_sdpa(sdp: SdpData, path_or_file: str | IO[str]) -> None:
    """Write the SDPA-style text form to a path or open text file."""
    text = format_sdpa(sdp)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
