"""Edge-weight design problem and its two solution methods.

The problem: minimize the worst-case vulnerability over a node set, over
the simplex of nonnegative edge weights summing to one, subject to a
spectral floor lambda_2(b) >= epsilon that keeps the network connected and
synchronizable. Callers with another budget c normalize first and rescale
by homogeneity: measure(c*b) = measure(b)/c and lambda_2(c*b) = c*lambda_2(b)
(resilnet.scenarios.unit_budget_problem does this for grid cases, and
derives their floor with epsilon_from_sync). DesignProblem, posed on one
WeightedGraph, takes the floor at unit budget as given.

Exact method (single node): the shortest-path flow design of
resilnet.designs (Elfving), with lower bound (mean hop)^2, whenever it
meets the floor. Barrier method (min-max, and single node otherwise): with
M = L(b) + 11^T/n and f_k = e_k^T M^-1 e_k, path following (Boyd and
Vandenberghe 2004, ch. 11) on the SDP min t s.t. [M e_k; e_k^T t] >= 0 per
target k and M - eps*I >= 0. Each block's barrier is -log det M -
log(t - f_k); t is eliminated through sum_k 1/(t - f_k) = s, and Newton
steps on b use the Schur-complemented Hessian in a diag(b)-scaled KKT
system. s grows PATH_STEP-fold per centering until neither objective nor
bound moves by STALL_RTOL; MAX_ITERS caps each path's Newton steps.

The lower bound is never nu/s: with A = M - eps*I and Z = P A^-1 P /
tr(P A^-1 P) (P = I - 11^T/n), h(b') = sum_k pi_k f_k(b') - zeta tr(Z A(b'))
is convex and at most max_k f_k(b') where the floor holds, for pi on the
simplex and zeta >= 0; a small LP picks pi and zeta for the best
linearization bound. ``converged`` means a relative gap <= SOLVER_TOL.
All factorizations are numpy.linalg: Cholesky factors test M > 0 and
A > 0 and give the log-determinants, and the inverses are L^-T L^-1.
When the uniform start misses the floor, phase 1 maximizes lambda_2 the
same way (Ghosh and Boyd 2006); failing that, its dual Z (Z >= 0, tr Z = 1,
Z1 = 0) certifies lambda_2 <= max_l a_l^T Z a_l for InfeasibleDesignError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .designs import shortest_path_flow
from .graphs import (DisconnectedGraphError, WeightedGraph, _is_integer, _node_index,
                     _node_vector, algebraic_connectivity, laplacian)

__all__ = [
    "InfeasibleDesignError",
    "DesignProblem",
    "SolverResult",
    "epsilon_from_sync",
    "solve_single_node",
    "solve_min_max",
]

DEFAULT_GAMMA = math.pi / 16
# Spectral floor at unit budget when no natural frequencies constrain the
# design. Positive, so designs stay connected. It can bind on large grids:
# the min-max design over the 228 generators of a synthetic 456-bus grid
# ends with lambda_2 = epsilon.
DEFAULT_EPSILON_SCALE = 1e-4

SOLVER_TOL = 1e-6      # certified relative gap of a converged design
MAX_ITERS = 400        # cap on the Newton steps of one path
PATH_STEP = 10.0       # growth of the path parameter s per centering
STALL_RTOL = 1e-10     # a path ends once a centering gains less than this


class InfeasibleDesignError(RuntimeError):
    """No weight vector reaches the floor; lambda_2 found and its certified bound."""

    def __init__(self, epsilon: float, attained: float, upper_bound: float):
        super().__init__(
            f"spectral floor epsilon={epsilon:.6g} is unreachable; "
            f"maximum attained lambda_2 = {attained:.6g} "
            f"(certified upper bound {upper_bound:.6g})"
        )
        self.epsilon = epsilon
        self.attained = attained
        self.upper_bound = upper_bound


def epsilon_from_sync(omega: Sequence[float], g: WeightedGraph, gamma: float) -> float:
    """Heuristic spectral floor for a synchronized state with angle gaps <= gamma.

    Evaluates max over the edges of g (weights ignored) of |omega_i -
    omega_j| times sin(gamma), for one finite omega per node; returns 0 for
    identical oscillators. The floor does not guarantee the gaps: on
    cases/ny57_substitute.json (29 generators, gamma = pi/16 = 0.196) the
    steady angle gaps are 0.284 for the min-max design and 0.200 for the
    single-node design. The CLI's sync check reports such misses.
    """
    if not 0.0 < gamma < math.pi / 2:
        raise ValueError(f"gamma must lie in (0, pi/2), got {gamma}")
    w = _node_vector("omega", omega, g.n)
    spread = float(np.abs(w[g.ei] - w[g.ej]).max(initial=0.0))
    return spread * math.sin(gamma)


@dataclass(frozen=True)
class DesignProblem:
    """A vulnerability-minimization instance on a fixed topology.

    ``topology`` is the validated network (its weights are ignored); a
    design b is ``topology.with_weights(b)``, weights free and summing to
    one. ``v_prime`` is the set of nodes where disturbances are expected.
    ``epsilon`` is the spectral floor at unit budget, in (0, 1); the
    default is DEFAULT_EPSILON_SCALE = 1e-4, which keeps designs connected
    and can bind on large grids. A grid case's floor comes from its
    natural frequencies (resilnet.scenarios.unit_budget_problem).
    """

    topology: WeightedGraph
    v_prime: tuple[int, ...]
    epsilon: float = DEFAULT_EPSILON_SCALE

    def __post_init__(self) -> None:
        if not self.v_prime:
            raise ValueError("v_prime must be a nonempty node set")
        bad = [k for k in self.v_prime if not _is_integer(k)]
        if bad:
            raise ValueError(f"v_prime entries must be integers, got {bad[0]!r}")
        vp = tuple(sorted(set(int(k) for k in self.v_prime)))
        if vp[0] < 1 or vp[-1] > self.n:
            raise ValueError(f"v_prime {vp} not contained in 1..{self.n}")
        object.__setattr__(self, "v_prime", vp)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        # The 11^T/n direction of L + 11^T/n carries eigenvalue exactly 1,
        # so the floor must stay strictly below the unit budget.
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    @property
    def n(self) -> int:
        return self.topology.n


@dataclass(frozen=True)
class SolverResult:
    """Optimal weights plus convergence and feasibility diagnostics.

    ``objective`` and ``per_node`` are vulnerability measures; ``lower_bound``
    certifies the optimum from below and ``kkt_gap`` is objective minus it.
    ``feasibility`` is lambda_2(b_star) - epsilon; ``iterations`` counts the
    Newton steps of ``method`` ("exact-flow" or "barrier").
    """

    b_star: np.ndarray
    objective: float
    per_node: dict[int, float]
    iterations: int
    kkt_gap: float
    feasibility: float
    converged: bool
    lower_bound: float
    method: str

    def __post_init__(self) -> None:
        self.b_star.setflags(write=False)


def _eliminate(c: np.ndarray, s: float) -> tuple[float, np.ndarray]:
    """u = t - max(c) at the root of sum_k 1/(t - c_k) = s, and the gaps t - c.

    Newton on the concave, increasing 1/sum_k 1/(t - c_k) climbs from u = 1/s.
    """
    d = c.max() - c
    u = 1.0 / s
    for _ in range(100):
        w = 1.0 / (u + d)
        step = w.sum() * (w.sum() / s - 1.0) / (w @ w)
        if step <= 1e-15 * u:
            break
        u += step
    return u, u + d


def _cholesky_inverse(L: np.ndarray) -> np.ndarray:
    """X^-1 = L^-T L^-1 from the lower Cholesky factor L of X.

    An LU inverse of X itself (np.linalg.inv or np.linalg.solve on X)
    drifts more along the path: on ny57, buses 4,6 at physical eps 5.05
    took 308 Newton steps with it, against 130 with this one.
    """
    L_inv = np.linalg.inv(L)
    return L_inv.T @ L_inv


class _MinMax:
    """Barrier of the targets' blocks and the floor; ``targets`` are 0-based."""

    def __init__(self, topology: WeightedGraph, targets: Sequence[int], eps: float):
        self.topology, self.n, self.eps = topology, topology.n, eps
        self.ei, self.ej = topology.ei, topology.ej
        self.targets = np.asarray(targets, dtype=int)
        self.l = self.targets.size
        self.eye = np.eye(self.n)
        self.nu = self.l * (self.n + 1) + self.n + topology.m

    def state(self, b: np.ndarray):
        """Cholesky factors of M and A = M - eps*I, M^-1 and the f_k, or None.

        None when the factorizations fail: b misses the floor.
        """
        M = laplacian(self.topology, b) + 1.0 / self.n
        try:
            LA = np.linalg.cholesky(M - self.eps * self.eye)
            LM = np.linalg.cholesky(M)
        except LinAlgError:
            return None
        M_inv = _cholesky_inverse(LM)
        return LM, LA, M_inv, M_inv[self.targets, self.targets]

    def objective(self, state) -> float:
        return float(state[3].max()) - 1.0 / self.n

    def _edge_form(self, inv: np.ndarray) -> np.ndarray:
        """B^T X^-1 B (B the incidence matrix) from X^-1."""
        X = inv[:, self.ei] - inv[:, self.ej]
        return X[self.ei] - X[self.ej]

    def barrier(self, state, s: float, derivs: bool):
        LM, LA, M_inv, f = state
        u, gaps = _eliminate(f, s)
        logdet_M = 2.0 * np.log(np.diag(LM)).sum()
        logdet_A = 2.0 * np.log(np.diag(LA)).sum()
        value = s * (f.max() + u) - np.log(gaps).sum() - self.l * logdet_M - logdet_A
        if not derivs:
            return value
        w = 1.0 / gaps
        w2 = w * w
        U = M_inv[:, self.targets]
        D = U[self.ei] - U[self.ej]          # df_k/db_l = -D[l, k]^2
        S = D * D
        R, RA = self._edge_form(M_inv), self._edge_form(_cholesky_inverse(LA))
        # Schur complement over t of the w^2 terms, centred against cancellation.
        Sc = S - ((S @ w2) / w2.sum())[:, None]
        hess = 2.0 * ((D * w) @ D.T) * R + (Sc * w2) @ Sc.T + self.l * R * R + RA * RA
        return value, -S @ w - self.l * np.diag(R) - np.diag(RA), hess

    def lower_bound(self, state, s: float) -> float:
        _, LA, M_inv, f = state
        U = M_inv[:, self.targets]
        D = U[self.ei] - U[self.ej]
        A_inv = _cholesky_inverse(LA)
        RA = self._edge_form(A_inv)
        # tr(P A^-1 P), since A^-1 1 = 1 / (1 - eps).
        z = np.diag(RA) / (np.trace(A_inv) - 1.0 / (1.0 - self.eps))
        # (1 - 1/n)^2 bounds every L+_kk at unit budget (vulnerability.lower_bound).
        return max((1.0 - 1.0 / self.n) ** 2,
                   _lp_bound(2.0 * (f - 1.0 / self.n), D * D, z, self.eps))


class _Connectivity:
    """Barrier of min t s.t. Q^T L(b) Q + t I >= 0, Q a basis of 1's complement."""

    def __init__(self, topology: WeightedGraph):
        n = topology.n
        Q = np.linalg.qr(np.eye(n, n - 1) - 1.0 / n)[0]
        self.QB = (Q[topology.ei] - Q[topology.ej]).T   # Q^T a_l per column
        self.nu = n - 1 + topology.m

    def state(self, b: np.ndarray):
        return np.linalg.eigh((self.QB * b) @ self.QB.T)

    def objective(self, state) -> float:
        return -float(state[0][0])

    def barrier(self, state, s: float, derivs: bool):
        lam, V = state
        u, gaps = _eliminate(-lam, s)
        value = s * (u - lam[0]) - np.log(gaps).sum()
        if not derivs:
            return value
        w = 1.0 / gaps
        Y = V.T @ self.QB
        S = (Y * Y).T
        h_bt = S @ (w * w)
        C = (Y.T * w) @ Y
        return value, -S @ w, C * C - np.outer(h_bt, h_bt) / (w @ w)

    def lower_bound(self, state, s: float) -> float:
        """-max_l a_l^T Z a_l, Z = Q (Q^T L Q + tI)^-1 Q^T normalized to trace 1."""
        lam, V = state
        w = 1.0 / _eliminate(-lam, s)[1]
        return -float((((V.T @ self.QB) ** 2).T @ w).max() / w.sum())


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    return min(1.0, float(np.min(-v[neg] / dv[neg]))) if neg.any() else 1.0


def _lp_bound(c: np.ndarray, S: np.ndarray, z: np.ndarray, eps: float) -> float:
    """Best c.pi + eps*zeta - max_l (S pi + zeta z)_l over pi in the simplex, zeta >= 0.

    Every such (pi, zeta) gives a valid bound. Candidates are the dual
    iterates of Mehrotra's predictor-corrector on min tau over mu in the
    simplex with z.mu >= eps and tau >= c_k - (S^T mu)_k (standard form with
    tau shifted to be nonnegative); each is scored exactly.
    """
    m, l = S.shape
    A = np.zeros((l + 2, m + l + 2))
    A[:l, :m], A[:l, m], A[:l, m + 1:-1] = S.T, 1.0, -np.eye(l)
    A[l, :m], A[l, -1], A[l + 1, :m] = z, -1.0, 1.0
    b = np.concatenate([c + max(0.0, float((S.max(axis=0) - c).min())), [eps, 1.0]])
    cost = np.eye(1, m + l + 2, m)[0]
    gram = A @ A.T
    x, y = A.T @ np.linalg.solve(gram, b), np.linalg.solve(gram, A @ cost)
    r = cost - A.T @ y
    x, r = x + max(-1.5 * x.min(), 0.0), r + max(-1.5 * r.min(), 0.0)
    x, r = x + 0.5 * (x @ r) / r.sum(), r + 0.5 * (x @ r) / x.sum()
    best = -math.inf
    for _ in range(50):
        rp, rd, mu = b - A @ x, cost - A.T @ y - r, x @ r / x.size
        if mu <= 1e-14 * (1.0 + abs(b @ y)):
            break
        d = x / r
        K = (A * d) @ A.T

        def direction(rxr):
            dy = np.linalg.solve(K, rp + A @ (d * rd - rxr / r))
            dr = rd - A.T @ dy
            return (rxr - x * dr) / r, dy, dr

        try:
            dx, dy, dr = direction(-x * r)
            sigma = ((x + _max_step(x, dx) * dx) @ (r + _max_step(r, dr) * dr)
                     / (x.size * mu)) ** 3
            dx, dy, dr = direction(sigma * mu - x * r - dx * dr)
        except LinAlgError:
            break
        ap, ad = 0.995 * _max_step(x, dx), 0.995 * _max_step(r, dr)
        x, y, r = x + ap * dx, y + ad * dy, r + ad * dr
        pi = np.maximum(y[:l], 0.0)
        if pi.sum() > 0.0:  # the bound is jointly homogeneous in (pi, zeta)
            pi, zeta = pi / pi.sum(), max(float(y[l]), 0.0) / pi.sum()
            best = max(best, float(c @ pi + eps * zeta - (S @ pi + zeta * z).max()))
    return best


def _follow_path(model, b: np.ndarray, scale: float, goal: float = -math.inf):
    """Follow the central path of ``model`` plus -sum(log b) from b > 0.

    Returns the best point visited, its state and objective, the best lower
    bound and the Newton steps; stops early at an objective below ``goal``.
    """
    state = model.state(b)
    best = (model.objective(state), b, state)
    m, s = b.size, model.nu / scale
    lower, steps, previous = -math.inf, 0, math.inf
    while True:
        while steps < MAX_ITERS:
            value, grad, hess = model.barrier(state, s, True)
            value, grad = value - np.log(b).sum(), grad - 1.0 / b
            kkt = np.zeros((m + 1, m + 1))
            kkt[:m, :m] = hess * np.outer(b, b) + np.eye(m)
            kkt[:m, m] = kkt[m, :m] = b
            try:
                dx = b * np.linalg.solve(kkt, np.append(-b * grad, 0.0))[:m]
            except LinAlgError:
                break
            decrement2 = -float(grad @ dx)
            if decrement2 <= 1e-10:
                break
            steps += 1
            t = 1.0
            for _ in range(60):
                cand = (b + t * dx) / (b + t * dx).sum()
                cand_state = model.state(cand) if cand.min() > 0.0 else None
                # Near the centre take full steps: at large s the
                # sufficient-decrease test drowns in round-off.
                if cand_state is not None and (
                        decrement2 < 1e-2
                        or model.barrier(cand_state, s, False) - np.log(cand).sum()
                        <= value - 0.25 * t * decrement2):
                    break
                t *= 0.5
            else:
                break
            b, state = cand, cand_state
            if model.objective(state) < best[0]:
                best = (model.objective(state), b, state)
        objective = model.objective(state)
        bound = max(lower, model.lower_bound(state, s))
        if (objective < goal or steps >= MAX_ITERS
                or max(previous - objective, bound - lower) <= STALL_RTOL * scale):
            return best[1], best[2], best[0], bound, steps
        previous, lower, s = objective, bound, s * PATH_STEP


def _result(problem: DesignProblem, model: _MinMax, b: np.ndarray, state,
            lower: float, iterations: int, method: str) -> SolverResult:
    """Diagnostics of the point b with certified lower bound ``lower``."""
    per_node = {int(k) + 1: float(fv) - 1.0 / problem.n
                for k, fv in zip(model.targets, state[3])}
    objective = max(per_node.values())
    return SolverResult(
        b_star=b, objective=objective, per_node=per_node, iterations=iterations,
        kkt_gap=objective - lower,
        feasibility=algebraic_connectivity(problem.topology.with_weights(b)) - problem.epsilon,
        converged=objective - lower <= SOLVER_TOL * abs(objective),
        lower_bound=lower, method=method)


def _solve(problem: DesignProblem, targets: Sequence[int]) -> SolverResult:
    eps = problem.epsilon
    model = _MinMax(problem.topology, sorted(set(int(k) - 1 for k in targets)), eps)
    b = np.full(problem.topology.m, 1.0 / problem.topology.m)
    phase1_steps = 0
    if model.state(b) is None:
        b, _, attained, upper, phase1_steps = _follow_path(
            _Connectivity(problem.topology), b, scale=eps, goal=-eps)
        if model.state(b) is None:
            raise InfeasibleDesignError(eps, -attained, -upper)
    b, state, _, lower, steps = _follow_path(
        model, b, scale=model.objective(model.state(b)))
    return _result(problem, model, b, state, lower, phase1_steps + steps, "barrier")


def solve_single_node(problem: DesignProblem, k: int) -> SolverResult:
    """Minimize the vulnerability of node k over the feasible weight set."""
    k0 = _node_index(k, problem.n)
    try:
        flow = shortest_path_flow(problem.topology, k)
    except DisconnectedGraphError:
        return _solve(problem, [k])
    b = flow / flow.sum()
    model = _MinMax(problem.topology, [k0], problem.epsilon)
    state = model.state(b)  # None when the flow design misses the floor
    if state is None:
        return _solve(problem, [k])
    # The flows sum to the mean hop distance; its square is Elfving's bound.
    return _result(problem, model, b, state, float(flow.sum()) ** 2, 0, "exact-flow")


def solve_min_max(problem: DesignProblem) -> SolverResult:
    """Minimize the worst-case vulnerability over the problem's node set."""
    return _solve(problem, problem.v_prime)
