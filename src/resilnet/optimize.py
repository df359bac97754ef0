"""Edge-weight design problem and its two solution methods.

The problem: minimize the worst-case vulnerability over a node set, over
the simplex of nonnegative edge weights summing to one, subject to a
spectral floor lambda_2(b) >= epsilon that keeps the network connected and
synchronizable. Callers with another budget c normalize first and rescale
by homogeneity: measure(c*b) = measure(b)/c and lambda_2(c*b) = c*lambda_2(b)
(resilnet.scenarios.unit_budget_problem does this for grid cases).

Exact method (single node only). `solve_single_node` first builds the
shortest-path flow design of resilnet.designs.shortest_path_optimum, which
minimizes the node's measure over the whole simplex (Elfving's theorem).
It returns that design, with iterations = 0, whenever the topology is
connected, the design meets the spectral floor, and the regularized
Laplacian factorizes there.

Iterative method (min-max, and single node when the exact design misses
the floor). It minimizes a log-sum-exp smoothing of
max_k e_k^T (L + 11^T/n)^{-1} e_k plus a log-det barrier on
L + 11^T/n - eps*I, by projected gradient descent on the simplex with
backtracking line search; the smoothing parameter and the barrier weight
are annealed downward between phases. Its tunables are the module
constants below; there is no config object. Exact analytic gradients make
this reliable; the SDP exporter (resilnet.sdp) preserves interoperability
with external conic solvers. For a single node the exact design's value
stays a lower bound on what this method returns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .designs import shortest_path_optimum
from .graphs import DisconnectedGraphError, WeightedGraph, build_graph, laplacian

__all__ = [
    "InfeasibleDesignError",
    "DesignProblem",
    "SolverResult",
    "design_problem",
    "epsilon_from_sync",
    "project_simplex",
    "solve_single_node",
    "solve_min_max",
]

DEFAULT_GAMMA = math.pi / 16
# Spectral floor used when no natural frequencies constrain the design;
# small enough to leave the optimum unaffected, positive to force
# connectivity.
DEFAULT_EPSILON_SCALE = 1e-4

# Iterative solver; these values suit n up to a few hundred.
SOLVER_TOL = 1e-6      # target accuracy of the objective
MAX_ITERS = 60000      # global cap on projected-gradient steps
PHASE_ITERS = 5000     # cap per annealing phase
REL_OBJ_TOL = 1e-9     # relative objective stall threshold
STALL_WINDOW = 20      # iterations over which the stall is measured
PG_NORM_TOL = 1e-7     # projected-gradient norm threshold
MU_INIT = 1e-2         # initial barrier weight
MU_FINAL = 1e-8
ANNEAL = 0.1           # decay of mu and tau per phase
ZERO_CLIP = 1e-7       # weight below which edges report 0
PHASE1_ITERS = 200     # supergradient steps for the feasibility check


class InfeasibleDesignError(RuntimeError):
    """No weight vector on the simplex reaches the spectral floor."""

    def __init__(self, epsilon: float, attained: float):
        super().__init__(
            f"spectral floor epsilon={epsilon:.6g} is unreachable; "
            f"maximum attained lambda_2 = {attained:.6g}"
        )
        self.epsilon = epsilon
        self.attained = attained


def epsilon_from_sync(
    omega: Sequence[float], edges: Iterable[tuple[int, int]], gamma: float
) -> float:
    """Spectral floor guaranteeing a synchronized state with angle gaps <= gamma.

    Evaluates max over edges of |omega_i - omega_j| times sin(gamma);
    returns 0 for identical oscillators.
    """
    if not 0.0 < gamma < math.pi / 2:
        raise ValueError(f"gamma must lie in (0, pi/2), got {gamma}")
    w = np.asarray(omega, dtype=float)
    e = np.array(list(edges), dtype=int).reshape(-1, 2) - 1
    spread = float(np.abs(w[e[:, 0]] - w[e[:, 1]]).max(initial=0.0))
    return spread * math.sin(gamma)


def project_simplex(v: Sequence[float], budget: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {b >= 0, sum(b) = budget}."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u + (budget - css) / idx > 0)[0][-1])
    theta = (css[rho] - budget) / (rho + 1)
    return np.maximum(v - theta, 0.0)


@dataclass(frozen=True)
class DesignProblem:
    """A vulnerability-minimization instance on a fixed topology.

    ``edges`` are 1-based node pairs; weights are free and sum to one.
    ``v_prime`` is the set of nodes where disturbances are expected.
    ``epsilon`` is the spectral floor at unit budget (see design_problem
    for its derivation). ``template`` is the validated topology at unit
    weights.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    v_prime: tuple[int, ...]
    epsilon: float
    template: WeightedGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Validates pairs, self-loops, duplicates, and normalizes to i < j.
        template = build_graph(self.n, self.edges, np.ones(len(self.edges)))
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "edges", template.edge_pairs)
        if not self.v_prime:
            raise ValueError("v_prime must be a nonempty node set")
        vp = tuple(sorted(set(int(k) for k in self.v_prime)))
        if vp[0] < 1 or vp[-1] > self.n:
            raise ValueError(f"v_prime {vp} not contained in 1..{self.n}")
        object.__setattr__(self, "v_prime", vp)
        # The 11^T/n direction of L + 11^T/n carries eigenvalue exactly 1,
        # so the floor must stay strictly below the unit budget.
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    def graph(self, b: Sequence[float]) -> WeightedGraph:
        return self.template.with_weights(b)


def design_problem(
    n: int,
    edges: Iterable[tuple[int, int]],
    v_prime: Iterable[int],
    omega: Sequence[float] | None = None,
    gamma: float = DEFAULT_GAMMA,
    epsilon: float | None = None,
) -> DesignProblem:
    """Build a unit-budget DesignProblem, deriving the floor when not given.

    Without ``epsilon`` the floor is epsilon_from_sync(omega, edges, gamma),
    at least DEFAULT_EPSILON_SCALE, or that default when there is no
    ``omega``.
    """
    if not 0.0 < gamma < math.pi / 2:
        raise ValueError(f"gamma must lie in (0, pi/2), got {gamma}")
    edges = tuple((int(i), int(j)) for i, j in edges)
    if omega is not None:
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (n,):
            raise ValueError(f"omega has shape {omega.shape}, expected ({n},)")
    if epsilon is None:
        epsilon = DEFAULT_EPSILON_SCALE
        if omega is not None:
            epsilon = max(epsilon_from_sync(omega, edges, gamma), epsilon)
    return DesignProblem(n=n, edges=edges, v_prime=tuple(v_prime),
                         epsilon=float(epsilon))


@dataclass(frozen=True)
class SolverResult:
    """Optimal weights plus convergence and feasibility diagnostics.

    ``objective`` and ``per_node`` are vulnerability measures (pseudoinverse
    diagonal entries); ``kkt_gap`` is the simplex stationarity gap of the
    final point (zero at an exact optimum with inactive spectral floor);
    ``feasibility`` is lambda_2(b_star) - epsilon. ``iterations`` is 0 when
    the exact single-node design was returned.
    """

    b_star: np.ndarray
    objective: float
    per_node: dict[int, float]
    iterations: int
    kkt_gap: float
    feasibility: float
    converged: bool
    certificate_optimal: bool | None = None

    def __post_init__(self) -> None:
        self.b_star.setflags(write=False)


class _Objective:
    """Smoothed worst-case objective with spectral barrier on one topology.

    Works at unit budget. ``template`` fixes the topology;
    ``targets`` are 0-based node indices whose reg-inverse diagonal entries
    are being minimized.
    """

    def __init__(self, template: WeightedGraph, targets: Sequence[int], eps: float):
        self.template = template
        self.n = template.n
        self.m = template.m
        self.ei, self.ej = template.ei, template.ej
        self.targets = np.asarray(targets, dtype=int)
        self.eps = eps
        self.rhs = np.eye(self.n)[:, self.targets]
        self.eye = np.eye(self.n)

    def reg_laplacian(self, b: np.ndarray) -> np.ndarray:
        return laplacian(self.template, b) + 1.0 / self.n

    def state(self, b: np.ndarray):
        """Factorizations and target columns at b, or None when infeasible."""
        M = self.reg_laplacian(b)
        A = M - self.eps * self.eye
        try:
            cA = cho_factor(A, lower=True, check_finite=False)
            cM = cho_factor(M, lower=True, check_finite=False)
        except LinAlgError:
            return None
        U = cho_solve(cM, self.rhs, check_finite=False)
        f = U[self.targets, np.arange(self.targets.size)]
        logdet = 2.0 * float(np.sum(np.log(np.diag(cA[0]))))
        return cA, U, f, logdet

    def composite(self, state, tau: float, mu: float) -> tuple[float, np.ndarray]:
        """(smoothed objective value, softmax weights over targets)."""
        _, _, f, logdet = state
        if f.size == 1:
            return float(f[0]) - mu * logdet, np.ones(1)
        fmax = float(f.max())
        ex = np.exp((f - fmax) / tau)
        sw = float(ex.sum())
        return fmax + tau * math.log(sw) - mu * logdet, ex / sw

    def gradient(self, state, weights: np.ndarray, mu: float) -> np.ndarray:
        cA, U, _, _ = state
        diff = U[self.ei, :] - U[self.ej, :]
        grad = -(diff * diff) @ weights
        if mu > 0.0:
            a_inv = cho_solve(cA, self.eye, check_finite=False)
            quad = (np.diag(a_inv)[self.ei] + np.diag(a_inv)[self.ej]
                    - 2.0 * a_inv[self.ei, self.ej])
            grad = grad - mu * quad
        return grad

    def lambda2(self, b: np.ndarray) -> float:
        return float(np.linalg.eigvalsh(laplacian(self.template, b))[1])


def _phase1_max_lambda2(obj: _Objective, b0: np.ndarray, iters: int
                        ) -> tuple[np.ndarray, float]:
    """Approximately maximize lambda_2 over the simplex (concave problem)."""
    b = b0.copy()
    best_b, best_val = b, obj.lambda2(b)
    step = 1.0
    for _ in range(iters):
        vals, vecs = np.linalg.eigh(laplacian(obj.template, b))
        lam = float(vals[1])
        v2 = vecs[:, 1]
        g = (v2[obj.ei] - v2[obj.ej]) ** 2
        moved = False
        while step > 1e-14:
            cand = project_simplex(b + step * g, 1.0)
            if obj.lambda2(cand) > lam:
                b = cand
                step *= 1.5
                moved = True
                break
            step *= 0.5
        val = obj.lambda2(b)
        if val > best_val:
            best_val, best_b = val, b.copy()
        if not moved:
            break
    return best_b, best_val


def _solve(problem: DesignProblem, targets: Sequence[int]) -> SolverResult:
    eps = problem.epsilon
    targets0 = sorted(set(int(k) - 1 for k in targets))
    obj = _Objective(problem.template, targets0, eps)
    l = len(targets0)

    b = np.full(obj.m, 1.0 / obj.m)
    if obj.lambda2(b) <= eps:
        b, attained = _phase1_max_lambda2(obj, b, PHASE1_ITERS)
        if attained <= eps * (1.0 + 1e-12):
            raise InfeasibleDesignError(eps, attained)

    state = obj.state(b)
    if state is None:
        raise InfeasibleDesignError(eps, obj.lambda2(b))
    f_scale = max(float(state[2].max()), 1e-3)
    # Smoothing bias is tau*log(l); keep it below the objective target.
    tau_final = max(1e-9, SOLVER_TOL * max(1.0, f_scale) / (8.0 * math.log(max(l, 2))))
    if l > 1:
        tau = max(0.1 * f_scale, tau_final)
    else:
        tau = tau_final
    mu = MU_INIT

    best_b = b.copy()
    best_true = float(state[2].max())
    total_iters = 0
    converged = True

    while True:
        # One projected-gradient phase at fixed (tau, mu).
        F, weights = obj.composite(state, tau, mu)
        final_phase = tau <= tau_final and mu <= MU_FINAL
        step = 1.0
        history = [F]
        pg_norm = math.inf
        for _ in range(PHASE_ITERS):
            if total_iters >= MAX_ITERS:
                converged = False
                break
            total_iters += 1
            if final_phase and total_iters % 25 == 0:
                # Simplex stationarity gap bounds the suboptimality of the
                # convex objective; exit once it certifies the target.
                g0 = obj.gradient(state, weights, 0.0)
                gap = float(g0 @ b - g0.min())
                if gap <= 0.5 * SOLVER_TOL * max(1.0, abs(F)):
                    break
            grad = obj.gradient(state, weights, mu)
            pg_norm = float(np.linalg.norm(b - project_simplex(b - grad, 1.0)))
            accepted = False
            while step > 1e-18:
                cand = project_simplex(b - step * grad, 1.0)
                d = cand - b
                dn = float(d @ d)
                if dn == 0.0:
                    break
                cand_state = obj.state(cand)
                if cand_state is not None:
                    F_cand, w_cand = obj.composite(cand_state, tau, mu)
                    if F_cand <= F + float(grad @ d) + dn / (2.0 * step):
                        b, state, F, weights = cand, cand_state, F_cand, w_cand
                        true_val = float(state[2].max())
                        if true_val < best_true:
                            best_true, best_b = true_val, b.copy()
                        step *= 1.5
                        accepted = True
                        break
                step *= 0.5
            if not accepted:
                break
            history.append(F)
            if len(history) > STALL_WINDOW:
                history.pop(0)
                spread = max(history) - min(history)
                if spread < REL_OBJ_TOL * max(1.0, abs(F)):
                    # Intermediate phases hand off on stall alone; the final
                    # phase also needs a stationary point.
                    if not final_phase or pg_norm < PG_NORM_TOL:
                        break
        else:
            converged = False
        if total_iters >= MAX_ITERS:
            converged = False
            break
        if final_phase:
            break
        tau = max(tau * ANNEAL, tau_final)
        mu = max(mu * ANNEAL, MU_FINAL)

    # Final polish: clip numerically-zero weights, renormalize, keep if it
    # does not hurt the objective or the spectral floor.
    polished = best_b.copy()
    polished[polished < ZERO_CLIP] = 0.0
    total = polished.sum()
    if total > 0.0:
        polished /= total
        pol_state = obj.state(polished)
        if pol_state is not None:
            pol_true = float(pol_state[2].max())
            if (pol_true <= best_true + 1e-12
                    and obj.lambda2(polished) >= eps - 1e-7):
                best_b, best_true = polished, pol_true

    final_state = obj.state(best_b)
    assert final_state is not None
    return _result(problem, obj, targets0, best_b, final_state, total_iters,
                   converged, tau_final)


def _result(problem: DesignProblem, obj: _Objective, targets0: list[int],
            b: np.ndarray, state, iterations: int, converged: bool,
            tau: float) -> SolverResult:
    """Diagnostics of the point b."""
    n = problem.n
    f = state[2]
    # Stationarity gap over the simplex at the (tiny-tau) smoothed objective.
    _, w = obj.composite(state, max(tau, 1e-12), 0.0)
    g = obj.gradient(state, w, 0.0)
    kkt_gap = float(g @ b - g.min())
    # The gap certifies suboptimality of the convex objective even when the
    # phase-exit criteria were not all met.
    converged = converged or kkt_gap <= SOLVER_TOL * max(1.0, float(f.max()))

    per_node = {k + 1: float(fv) - 1.0 / n for k, fv in zip(targets0, f)}
    certificate = None
    if len(targets0) == 1:
        # designs.optimality_certificate from the solve in hand: g is the
        # measure's gradient. Residual tolerance tied to the solve accuracy:
        # the sufficient condition may hold with equality at the optimum.
        residuals = g + (float(f[0]) - 1.0 / n)
        certificate = float(residuals.min()) >= -max(1e-8, SOLVER_TOL)
    return SolverResult(
        b_star=b,
        objective=max(per_node.values()),
        per_node=per_node,
        iterations=iterations,
        kkt_gap=kkt_gap,
        feasibility=obj.lambda2(b) - problem.epsilon,
        converged=converged,
        certificate_optimal=certificate,
    )


def solve_single_node(problem: DesignProblem, k: int) -> SolverResult:
    """Minimize the vulnerability of node k over the feasible weight set.

    Returns the exact shortest-path flow design (iterations = 0) when it
    meets the spectral floor, and the iterative solver's result otherwise;
    see the module docstring.
    """
    if not 1 <= k <= problem.n:
        raise ValueError(f"node {k} out of range 1..{problem.n}")
    try:
        b = shortest_path_optimum(problem.template, k)
    except DisconnectedGraphError:
        return _solve(problem, [k])
    eps = problem.epsilon
    obj = _Objective(problem.template, [k - 1], eps)
    state = obj.state(b) if obj.lambda2(b) >= eps else None
    if state is None:
        return _solve(problem, [k])
    return _result(problem, obj, [k - 1], b, state, iterations=0,
                   converged=True, tau=0.0)


def solve_min_max(problem: DesignProblem) -> SolverResult:
    """Minimize the worst-case vulnerability over the problem's node set."""
    return _solve(problem, problem.v_prime)
