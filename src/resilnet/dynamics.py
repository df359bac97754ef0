"""Noisy coupled-oscillator dynamics and the empirical vulnerability.

Validation loop for the analytic measure: compute a synchronized steady
state, integrate the nonlinear or linearized dynamics under a disturbance
at one node, and estimate the time-averaged squared spread of frequencies
around their mean. All phases live in a co-rotating frame (natural
frequencies are mean-centered) and are reported mean-zero per time step to
suppress the neutral rotation mode.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .graphs import WeightedGraph, laplacian, spectral_bundle

__all__ = [
    "DEFAULT_H",
    "DEFAULT_T",
    "DEFAULT_R",
    "NoSynchronizedStateError",
    "NoiseSpec",
    "SteadyState",
    "TrajectoryEnsemble",
    "EmpiricalMeasure",
    "default_ou_sigma",
    "make_noise",
    "steady_state",
    "integrate_nonlinear",
    "integrate_linearized",
    "empirical_vulnerability",
    "export_trajectories_csv",
]

DEFAULT_H = 0.01
DEFAULT_T = 200.0
DEFAULT_R = 100
DEFAULT_OU_TAU = 50.0
DEFAULT_BOX_DELTA = 0.1
DEFAULT_BOX_START = 10.0
DEFAULT_BOX_DURATION = 20.0


class NoSynchronizedStateError(RuntimeError):
    """Newton iteration found no synchronized fixed point."""


def default_ou_sigma(omega: Sequence[float]) -> float:
    """Default disturbance strength: 5% of the frequency spread, capped at 1."""
    w = np.asarray(omega, dtype=float)
    spread = float(w.max() - w.min()) if w.size else 0.0
    return 0.05 * min(spread, 1.0) if spread > 0 else 0.05


@dataclass(frozen=True)
class NoiseSpec:
    """Disturbance applied to one node's natural frequency.

    Exactly one kind is active: an Ornstein-Uhlenbeck process with
    correlation time ``tau`` and stationary standard deviation ``sigma``,
    or a box pulse of amplitude ``delta`` on [t0, t0 + duration).
    """

    kind: str
    node: int
    tau: float = 0.0
    sigma: float = 0.0
    delta: float = 0.0
    t0: float = 0.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("ornstein_uhlenbeck", "box"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.node < 1:
            raise ValueError(f"target node must be >= 1, got {self.node}")
        if self.kind == "ornstein_uhlenbeck" and self.tau <= 0:
            raise ValueError("OU correlation time tau must be positive")
        if self.kind == "box" and self.duration <= 0:
            raise ValueError("box duration must be positive")

    @classmethod
    def ou(cls, node: int, tau: float = DEFAULT_OU_TAU,
           sigma: float = 0.05) -> "NoiseSpec":
        return cls(kind="ornstein_uhlenbeck", node=node, tau=tau, sigma=sigma)

    @classmethod
    def box(cls, node: int, delta: float = DEFAULT_BOX_DELTA,
            t0: float = DEFAULT_BOX_START,
            duration: float = DEFAULT_BOX_DURATION) -> "NoiseSpec":
        return cls(kind="box", node=node, delta=delta, t0=t0, duration=duration)

    @property
    def onset(self) -> float:
        """Time before which trajectory samples are transient."""
        return self.t0 if self.kind == "box" else 0.0


def make_noise(spec: NoiseSpec, h: float, T: float, seed: int) -> np.ndarray:
    """Disturbance signal on the uniform grid 0, h, ..., T.

    OU uses the exact one-step update
    eta(t+h) = eta(t) e^{-h/tau} + sigma sqrt(1 - e^{-2h/tau}) xi
    started from the stationary distribution; the box pulse ignores the seed.
    """
    steps = int(round(T / h))
    times = np.arange(steps + 1) * h
    if spec.kind == "box":
        return np.where((times >= spec.t0) & (times < spec.t0 + spec.duration),
                        spec.delta, 0.0)
    # Imported here: scipy.signal dominates the package's import time and
    # only OU noise needs it.
    from scipy.signal import lfilter

    rho = math.exp(-h / spec.tau)
    q = spec.sigma * math.sqrt(1.0 - rho * rho)
    rng = np.random.default_rng(seed)
    eta0 = spec.sigma * rng.standard_normal()
    xi = rng.standard_normal(steps)
    driven = lfilter([1.0], [1.0, -rho], q * xi)
    out = np.empty(steps + 1)
    out[0] = eta0
    out[1:] = driven + eta0 * np.power(rho, np.arange(1, steps + 1))
    return out


def _noise_matrix(spec: NoiseSpec, h: float, T: float, R: int,
                  seed: int) -> np.ndarray:
    """Per-realization disturbance rows; row r uses seed + r."""
    return np.stack([make_noise(spec, h, T, seed + r) for r in range(R)])


@dataclass(frozen=True)
class SteadyState:
    """Synchronized fixed point in the co-rotating frame, mean-zero gauge."""

    theta0: np.ndarray
    residual: float
    max_angle_gap: float

    def __post_init__(self) -> None:
        self.theta0.setflags(write=False)


def steady_state(g: WeightedGraph, omega: Sequence[float],
                 tol: float = 1e-10) -> SteadyState:
    """Newton solution of the synchronized fixed point.

    Natural frequencies are mean-centered (rotating frame); the reported
    ``max_angle_gap`` ranges over edges with positive weight, so callers
    can verify the small-angle premise of the analytic measure.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (g.n,):
        raise ValueError(f"omega has shape {omega.shape}, expected ({g.n},)")
    w = omega - omega.mean()
    theta = np.zeros(g.n)
    residual = math.inf
    for _ in range(50):
        d = theta[g.ei] - theta[g.ej]
        flow = g.b * np.sin(d)
        mismatch = w - (np.bincount(g.ei, flow, g.n) - np.bincount(g.ej, flow, g.n))
        residual = float(np.abs(mismatch).max())
        if residual < tol:
            break
        lcos = laplacian(g, g.b * np.cos(d))
        try:
            delta = np.linalg.solve(lcos + 1.0 / g.n, mismatch)
        except np.linalg.LinAlgError:
            raise NoSynchronizedStateError(
                "Newton step is singular; no synchronized solution found"
            ) from None
        theta = theta + delta
        theta -= theta.mean()
        if not np.all(np.isfinite(theta)) or np.abs(theta).max() > 1e6:
            raise NoSynchronizedStateError("Newton iteration diverged")
    else:
        raise NoSynchronizedStateError(
            f"no synchronized solution within 50 Newton steps "
            f"(residual {residual:.3e}); check the synchronization condition"
        )
    gaps = np.abs(theta[g.ei] - theta[g.ej])[g.b > 0]
    gap = float(gaps.max()) if gaps.size else 0.0
    return SteadyState(theta0=theta, residual=residual, max_angle_gap=gap)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Phase and frequency trajectories over noise realizations.

    ``theta`` and ``freq`` have shape (realizations, nodes, len(times));
    frequencies come from central differences of the phases, one-sided at
    the endpoints. ``onset`` marks where the disturbance starts; samples
    before it are transient for the empirical estimator.
    """

    times: np.ndarray
    theta: np.ndarray
    freq: np.ndarray
    realizations: int
    seed: int
    onset: float

    def __post_init__(self) -> None:
        self.times.setflags(write=False)
        self.theta.setflags(write=False)
        self.freq.setflags(write=False)


def _central_differences(theta: np.ndarray, h: float) -> np.ndarray:
    freq = np.empty_like(theta)
    freq[:, :, 1:-1] = (theta[:, :, 2:] - theta[:, :, :-2]) / (2.0 * h)
    freq[:, :, 0] = (theta[:, :, 1] - theta[:, :, 0]) / h
    freq[:, :, -1] = (theta[:, :, -1] - theta[:, :, -2]) / h
    return freq


def _stability_guard(h: float, lam_n: float) -> None:
    if h * lam_n >= 0.5:
        raise ValueError(
            f"step h={h} too large for stiffness lambda_n={lam_n:.4g}; "
            f"use h < {0.5 / lam_n:.4g}"
        )


def integrate_nonlinear(
    g: WeightedGraph,
    omega: Sequence[float],
    theta_init: Sequence[float],
    noise: NoiseSpec,
    h: float = DEFAULT_H,
    T: float = DEFAULT_T,
    R: int = DEFAULT_R,
    seed: int = 0,
) -> TrajectoryEnsemble:
    """Integrate the full sine-coupled dynamics under the disturbance.

    Classical fourth-order stepping for the drift; the disturbance enters
    as a per-step constant added to the target node's natural frequency
    (exact OU updates between steps). Realization r is seeded with
    seed + r, so results are independent of execution order.
    """
    bundle = spectral_bundle(g)
    _stability_guard(h, float(bundle.eigenvalues[-1]))
    omega = np.asarray(omega, dtype=float)
    w = omega - omega.mean()
    steps = int(round(T / h))
    times = np.arange(steps + 1) * h
    k0 = noise.node - 1
    if k0 >= g.n:
        raise ValueError(f"noise target {noise.node} out of range 1..{g.n}")
    H = _noise_matrix(noise, h, T, R, seed)
    # Dense incidence: the batched drift is two matmuls over all realizations.
    inc = np.zeros((g.m, g.n))
    inc[np.arange(g.m), g.ei] = 1.0
    inc[np.arange(g.m), g.ej] = -1.0
    wts = np.asarray(g.b)

    def drift(state: np.ndarray, weff: np.ndarray) -> np.ndarray:
        flow = np.sin(state @ inc.T) * wts
        return weff - flow @ inc

    theta = np.empty((R, g.n, steps + 1))
    state = np.broadcast_to(np.asarray(theta_init, dtype=float), (R, g.n)).copy()
    theta[:, :, 0] = state
    base = np.tile(w, (R, 1))
    for t in range(steps):
        weff = base.copy()
        weff[:, k0] += H[:, t]
        k1 = drift(state, weff)
        k2 = drift(state + 0.5 * h * k1, weff)
        k3 = drift(state + 0.5 * h * k2, weff)
        k4 = drift(state + h * k3, weff)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        theta[:, :, t + 1] = state
    theta -= theta.mean(axis=1, keepdims=True)
    return TrajectoryEnsemble(
        times=times,
        theta=theta,
        freq=_central_differences(theta, h),
        realizations=R,
        seed=seed,
        onset=noise.onset,
    )


def integrate_linearized(
    g: WeightedGraph,
    steady: SteadyState,
    noise: NoiseSpec,
    h: float = DEFAULT_H,
    T: float = DEFAULT_T,
    R: int = DEFAULT_R,
    seed: int = 0,
) -> TrajectoryEnsemble:
    """Integrate the linearization around the steady state.

    The system matrix is the Laplacian with weights b_ij cos(gap_ij); the
    deterministic part advances by the exact matrix exponential, with the
    disturbance held constant over each step. Phases are reported as
    steady state plus deviation, so they compare directly against the
    nonlinear integrator.
    """
    theta0 = np.asarray(steady.theta0, dtype=float)
    lam, V = np.linalg.eigh(laplacian(g, g.b * np.cos(theta0[g.ei] - theta0[g.ej])))
    _stability_guard(h, float(lam[-1]))
    steps = int(round(T / h))
    times = np.arange(steps + 1) * h
    k0 = noise.node - 1
    if k0 >= g.n:
        raise ValueError(f"noise target {noise.node} out of range 1..{g.n}")
    H = _noise_matrix(noise, h, T, R, seed)

    z = np.clip(lam * h, 0.0, None)
    decay = np.exp(-z)
    phi1 = np.where(z > 1e-8, (1.0 - decay) / np.where(z > 1e-8, z, 1.0),
                    1.0 - 0.5 * z)
    propagator = (V * decay) @ V.T
    forcing = ((V * (h * phi1)) @ V.T)[:, k0]

    theta = np.empty((R, g.n, steps + 1))
    dev = np.zeros((R, g.n))
    theta[:, :, 0] = theta0
    for t in range(steps):
        dev = dev @ propagator + H[:, t, None] * forcing[None, :]
        theta[:, :, t + 1] = theta0 + dev
    theta -= theta.mean(axis=1, keepdims=True)
    return TrajectoryEnsemble(
        times=times,
        theta=theta,
        freq=_central_differences(theta, h),
        realizations=R,
        seed=seed,
        onset=noise.onset,
    )


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Point estimate of the empirical vulnerability with its Monte-Carlo error.

    ``low_realizations`` flags estimates from a single realization, where
    no ensemble averaging (and no standard error) is possible.
    """

    value: float
    stderr: float
    per_realization: tuple[float, ...]
    low_realizations: bool

    def __float__(self) -> float:
        return self.value


def empirical_vulnerability(traj: TrajectoryEnsemble) -> EmpiricalMeasure:
    """Time-averaged ensemble mean of the squared frequency spread.

    Averages sum_i (freq_i - mean_j freq_j)^2 over the samples at or after
    the disturbance onset, then over realizations.
    """
    mask = traj.times >= traj.onset - 1e-12
    f = traj.freq[:, :, mask]
    spread = f - f.mean(axis=1, keepdims=True)
    per_real = (spread * spread).sum(axis=1).mean(axis=1)
    value = float(per_real.mean())
    if traj.realizations >= 2:
        stderr = float(per_real.std(ddof=1) / math.sqrt(traj.realizations))
        low = False
    else:
        stderr = 0.0
        low = True
    return EmpiricalMeasure(
        value=value,
        stderr=stderr,
        per_realization=tuple(float(v) for v in per_real),
        low_realizations=low,
    )


def export_trajectories_csv(traj: TrajectoryEnsemble, path_or_file: str | IO[str],
                            stride: int = 1) -> None:
    """Write trajectories as CSV rows (time, realization, node, theta, freq)."""
    def _write(fh: IO[str]) -> None:
        writer = csv.writer(fh)
        writer.writerow(["time", "realization", "node", "theta", "freq"])
        n = traj.theta.shape[1]
        for t in range(0, traj.times.size, stride):
            for r in range(traj.realizations):
                for i in range(n):
                    writer.writerow([
                        f"{traj.times[t]:.10g}", r, i + 1,
                        f"{traj.theta[r, i, t]:.10g}",
                        f"{traj.freq[r, i, t]:.10g}",
                    ])

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
