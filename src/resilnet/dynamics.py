"""Noisy coupled-oscillator dynamics and the empirical vulnerability.

Validation loop for the analytic measure: compute a synchronized steady
state, integrate the nonlinear or linearized dynamics under a disturbance
at one node, and estimate the time-averaged squared spread of frequencies
around their mean. All phases live in a co-rotating frame (natural
frequencies are mean-centered) and are reported mean-zero per time step to
suppress the neutral rotation mode.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .graphs import WeightedGraph, _is_integer, laplacian, spectral_bundle

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
# Samples per block of the estimator's spread sum: each block's frequencies
# are differenced from the phases, so no full-length frequency array exists.
_SPREAD_CHUNK = 2048
# Edge states that integrate_nonlinear maps to phases with one matmul.
_STEP_BLOCK = 128


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
        if not _is_integer(self.node):
            raise ValueError(f"target node must be an integer, got {self.node!r}")
        if self.node < 1:
            raise ValueError(f"target node must be >= 1, got {self.node}")
        for name in ("tau", "sigma", "delta", "t0", "duration"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"noise {name} must be finite, got {value}")
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


def _step_count(h: float, T: float) -> int:
    """Steps of size h in [0, T], after checking that h and T are usable."""
    for name, value in (("h", h), ("T", T)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not math.isfinite(T / h):
        raise ValueError(f"T/h is not finite for h={h} and T={T}")
    return int(round(T / h))


def _check_seed(seed: int) -> None:
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got seed={seed!r}")


def make_noise(spec: NoiseSpec, h: float, T: float, seed: int) -> np.ndarray:
    """Disturbance signal on the uniform grid 0, h, ..., T.

    OU uses the exact one-step update
    eta(t+h) = eta(t) e^{-h/tau} + sigma sqrt(1 - e^{-2h/tau}) xi
    started from the stationary distribution; the box pulse ignores the seed,
    which must still be a non-negative integer.
    """
    _check_seed(seed)
    steps = _step_count(h, T)
    times = np.arange(steps + 1) * h
    if spec.kind == "box":
        return np.where((times >= spec.t0) & (times < spec.t0 + spec.duration),
                        spec.delta, 0.0)
    rho = math.exp(-h / spec.tau)
    q = spec.sigma * math.sqrt(1.0 - rho * rho)
    rng = np.random.default_rng(seed)
    eta0 = spec.sigma * rng.standard_normal()
    xi = rng.standard_normal(steps)
    # The zero-started recurrence y_t = q xi_t + rho y_{t-1}, in the order of
    # operations scipy.signal.lfilter uses; importing scipy.signal would
    # cost more time and memory than this loop.
    driven = np.fromiter(itertools.accumulate((q * xi).tolist(),
                                              lambda y, x: x + rho * y),
                         float, steps)
    out = np.empty(steps + 1)
    out[0] = eta0
    out[1:] = driven + eta0 * np.power(rho, np.arange(1, steps + 1))
    return out


def _noise_matrix(spec: NoiseSpec, h: float, T: float, R: int,
                  seed: int) -> np.ndarray:
    """Per-realization disturbance rows; row r uses seed + r.

    A box pulse ignores the seed, so it has one row whatever R is.
    """
    # Checked before the offsets are added: True + r would pass as an int.
    _check_seed(seed)
    rows = 1 if spec.kind == "box" else R
    return np.stack([make_noise(spec, h, T, seed + r) for r in range(rows)])


@dataclass(frozen=True)
class SteadyState:
    """Synchronized fixed point in the co-rotating frame, mean-zero gauge."""

    theta0: np.ndarray
    residual: float
    max_angle_gap: float

    def __post_init__(self) -> None:
        self.theta0.setflags(write=False)


def _node_vector(name: str, values: Sequence[float], n: int) -> np.ndarray:
    """``values`` as a float array, checked to hold one finite entry per node."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{name} has non-finite entry {arr[bad[0]]} at node {bad[0] + 1}")
    return arr


def steady_state(g: WeightedGraph, omega: Sequence[float],
                 tol: float = 1e-10) -> SteadyState:
    """Newton solution of the synchronized fixed point.

    Natural frequencies are mean-centered (rotating frame); the reported
    ``max_angle_gap`` ranges over edges with positive weight, so callers
    can verify the small-angle premise of the analytic measure.
    """
    omega = _node_vector("omega", omega, g.n)
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
    """Phase trajectories over noise realizations, with frequencies on demand.

    ``theta`` is the time-major (len(times), realizations, nodes) array the
    integrators write, read-only. Frequencies are central differences of
    the phases in time, one-sided at the endpoints, and are not stored:
    ``freq_block`` computes them for a range of samples, and ``freq``
    builds the full array on each access; both are time-major too.
    ``times`` is the uniform grid ``arange(len(times)) * h``, so
    ``times[1]`` is the step. ``onset`` marks where the disturbance starts;
    samples before it are transient for the empirical estimator.
    """

    times: np.ndarray
    theta: np.ndarray
    onset: float

    def __post_init__(self) -> None:
        if self.times.size < 2:
            raise ValueError(f"need at least 2 samples, got {self.times.size}")
        if self.theta.ndim != 3:
            raise ValueError(f"theta must have 3 axes (time, realization, node), "
                             f"got shape {self.theta.shape}")
        if self.theta.shape[0] != self.times.size:
            raise ValueError(f"theta has {self.theta.shape[0]} samples on its first "
                             f"axis, times has {self.times.size}")
        self.times.setflags(write=False)
        self.theta.setflags(write=False)

    @property
    def realizations(self) -> int:
        return self.theta.shape[1]

    def freq_block(self, lo: int, hi: int) -> np.ndarray:
        """Time-major (hi - lo, realizations, nodes) frequencies of samples lo..hi-1.

        Reads only the phases of samples lo-1..hi, so a caller that walks
        the samples block by block never holds more than one block.
        """
        if not 0 <= lo < hi <= self.times.size:
            raise ValueError(f"need 0 <= lo < hi <= {self.times.size}, got lo={lo}, hi={hi}")
        theta, h = self.theta, self.times[1]
        last = theta.shape[0] - 1
        out = np.empty((hi - lo,) + theta.shape[1:])
        # Central differences at the interior samples a..b-1 (possibly none).
        a, b = max(lo, 1), min(hi, last)
        np.subtract(theta[a + 1:b + 1], theta[a - 1:b - 1], out=out[a - lo:b - lo])
        np.divide(out[a - lo:b - lo], 2.0 * h, out=out[a - lo:b - lo])
        if lo == 0:
            out[0] = (theta[1] - theta[0]) / h
        if hi == last + 1:
            out[-1] = (theta[-1] - theta[-2]) / h
        return out

    @property
    def freq(self) -> np.ndarray:
        """Read-only (len(times), realizations, nodes) frequencies, built on each access."""
        freq = self.freq_block(0, self.times.size)
        freq.setflags(write=False)
        return freq


def _horizon(g: WeightedGraph, noise: NoiseSpec, h: float, T: float,
             R: int) -> tuple[int, int]:
    """Step count and 0-based target node of a run, checked before any work."""
    k0 = noise.node - 1
    if k0 >= g.n:
        raise ValueError(f"noise target {noise.node} out of range 1..{g.n}")
    if not _is_integer(R):
        raise ValueError(f"realization count must be an integer, got R={R!r}")
    if R < 1:
        raise ValueError(f"need at least one realization, got R={R}")
    steps = _step_count(h, T)
    if steps < 1:
        raise ValueError(f"horizon T={T} holds no step of h={h}")
    return steps, k0


def _ensemble(theta: np.ndarray, h: float, onset: float) -> TrajectoryEnsemble:
    """Gauge time-major phases (steps+1, realizations, n) in place and wrap them.

    Only the phases are kept; the ensemble computes frequencies from them
    on demand.
    """
    theta -= theta.mean(axis=2, keepdims=True)
    return TrajectoryEnsemble(times=np.arange(theta.shape[0]) * h, theta=theta,
                              onset=onset)


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
    seed + r, so results are independent of execution order. A box pulse
    ignores the seed, so it is integrated once and the ensemble holds that
    one run whatever R is; R counts random realizations only.

    The coupling depends on phases only through the edge differences
    d = theta B^T (B the edges x nodes incidence), so RK4 integrates d
    alone: each stage argument is d + c h U_t - f (c h K), with the edge
    coupling K = diag(b) B B^T and the edge forcing U_t = weff_t B^T, and
    costs one matmul and one sine. The mean-zero phases with edge
    differences d are d B L1^+, where L1 = B^T B is the unweighted
    Laplacian, so each block of ``_STEP_BLOCK`` edge states is mapped to
    phases by one matmul with that fixed edges x nodes map. Every RK4
    increment is a multiple of B^T, so only rounding enters the cycle
    space, and the map sends the cycle space to zero. Phases are stored
    time-major, one contiguous (realizations, nodes) row per step; that
    (steps + 1, realizations, n) array is the ensemble's ``theta``, the
    only array kept, and frequencies are differenced from it on demand.
    ``omega`` and ``theta_init`` must have one finite entry per node, and
    ``seed`` must be a non-negative integer, even for a box pulse.
    """
    steps, k0 = _horizon(g, noise, h, T, R)
    omega = _node_vector("omega", omega, g.n)
    theta_init = _node_vector("theta_init", theta_init, g.n)
    bundle = spectral_bundle(g)
    _stability_guard(h, float(bundle.eigenvalues[-1]))
    w = omega - omega.mean()
    H = _noise_matrix(noise, h, T, R, seed).T.copy()
    # d' = weff B^T - sin(d) K.
    inc = np.eye(g.n)[g.ei] - np.eye(g.n)[g.ej]
    incT = inc.T.copy()
    K = (np.asarray(g.b)[:, None] * inc) @ incT
    K_half, K_full, K_sixth = (0.5 * h) * K, h * K, (h / 6.0) * K
    # B L1^+ = B (L1 + 11^T/n)^{-1}, since B 1 = 0; L1 is connected because
    # the weighted graph is.
    phase_map = np.linalg.solve(laplacian(g, np.ones(g.m)) + 1.0 / g.n, incT).T
    # U_t = (w + eta_t e_k) B^T, scaled by h and h/2, is built per block.
    u, e = w @ incT, incT[k0]

    rows = H.shape[1]
    theta = np.empty((steps + 1, rows, g.n))
    theta[0] = theta_init
    edge_states = np.empty((_STEP_BLOCK, rows, g.m))
    d = theta[0] @ incT
    for t0 in range(0, steps, _STEP_BLOCK):
        t1 = min(t0 + _STEP_BLOCK, steps)
        # Built in place: an expression here raised validate's peak RSS by 0.4 MB.
        U_full = H[t0:t1, :, None] * e
        U_full += u
        U_full *= h
        U_half = 0.5 * U_full
        block = edge_states[:t1 - t0]
        # ndarray.dot skips the matmul ufunc's dispatch, a large share of
        # the cost of products this small.
        for d_next, u_h, u_f in zip(block, U_half, U_full):
            f1 = np.sin(d)
            mid = d + u_h
            f2 = np.sin(mid - f1.dot(K_half))
            f3 = np.sin(mid - f2.dot(K_half))
            end = d + u_f
            f4 = np.sin(end - f3.dot(K_full))
            f2 += f3
            f2 += f2
            f1 += f4
            f1 += f2
            np.subtract(end, f1.dot(K_sixth), out=d_next)
            d = d_next
        np.matmul(block, phase_map, out=theta[t0 + 1:t1 + 1])
    return _ensemble(theta, h, noise.onset)


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
    nonlinear integrator. Storage (time-major phases only, frequencies on
    demand), box handling (one run whatever R is) and the seed check are
    as in ``integrate_nonlinear``. ``steady.theta0`` must have one finite
    entry per node of ``g``.
    """
    steps, k0 = _horizon(g, noise, h, T, R)
    theta0 = _node_vector("steady.theta0", steady.theta0, g.n)
    lam, V = np.linalg.eigh(laplacian(g, g.b * np.cos(theta0[g.ei] - theta0[g.ej])))
    _stability_guard(h, float(lam[-1]))
    H = _noise_matrix(noise, h, T, R, seed).T.copy()

    z = np.clip(lam * h, 0.0, None)
    decay = np.exp(-z)
    phi1 = np.where(z > 1e-8, (1.0 - decay) / np.where(z > 1e-8, z, 1.0),
                    1.0 - 0.5 * z)
    propagator = (V * decay) @ V.T
    forcing = ((V * (h * phi1)) @ V.T)[:, k0]

    theta = np.empty((steps + 1, H.shape[1], g.n))
    dev = np.zeros((H.shape[1], g.n))
    theta[0] = theta0
    for t in range(steps):
        dev = dev @ propagator + H[t, :, None] * forcing[None, :]
        np.add(theta0, dev, out=theta[t + 1])
    return _ensemble(theta, h, noise.onset)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Empirical vulnerability of each realization, and their ensemble mean.

    ``value`` is the mean of ``per_realization`` and ``stderr`` its
    Monte-Carlo standard error. ``low_realizations`` flags estimates from a
    single realization, where no ensemble averaging (and no standard
    error) is possible; a box pulse always gives one. Measures of separate
    batches pool by joining their ``per_realization``.
    """

    per_realization: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.per_realization:
            raise ValueError("need at least one realization")

    @property
    def value(self) -> float:
        return float(np.mean(self.per_realization))

    @property
    def stderr(self) -> float:
        R = len(self.per_realization)
        return 0.0 if R < 2 else float(np.std(self.per_realization, ddof=1) / math.sqrt(R))

    @property
    def low_realizations(self) -> bool:
        return len(self.per_realization) < 2

    def __float__(self) -> float:
        return self.value


def empirical_vulnerability(traj: TrajectoryEnsemble) -> EmpiricalMeasure:
    """Time-averaged squared frequency spread of each realization.

    Averages sum_i (freq_i - mean_j freq_j)^2 over the samples at or after
    the disturbance onset. The spread is summed over blocks of
    ``_SPREAD_CHUNK`` samples, each block's frequencies taken from
    ``traj.freq_block``, so no full-length temporary is made.
    Raises ``ValueError`` when no sample lies at or after the
    onset.
    """
    # The samples at or after the onset are a suffix of the sorted times.
    start = int(np.searchsorted(traj.times, traj.onset - 1e-12))
    count = traj.times.size - start
    if count < 1:
        raise ValueError(f"onset {traj.onset} lies after the last sample "
                         f"t={traj.times[-1]:.10g}; nothing to average")
    per_real = np.zeros(traj.realizations)
    for lo in range(start, traj.times.size, _SPREAD_CHUNK):
        f = traj.freq_block(lo, min(lo + _SPREAD_CHUNK, traj.times.size))
        spread = f - f.mean(axis=2, keepdims=True)
        per_real += np.einsum("tri,tri->r", spread, spread)
    per_real /= count
    return EmpiricalMeasure(per_realization=tuple(per_real.tolist()))


def export_trajectories_csv(traj: TrajectoryEnsemble, path_or_file: str | IO[str],
                            stride: int = 1) -> None:
    """Write trajectories as CSV rows (time, realization, node, theta, freq).

    Every ``stride``-th sample is written, starting at time 0. The output is
    what ``csv.writer`` gives for these rows (``\\r\\n`` line ends, no field
    needs quoting). One printf-style ``%.10g`` template covers the
    realizations x nodes rows of a time slice: the slice's time string is
    joined in once, and all of its rows are formatted with a single ``%``.
    Each written slice's frequencies come from ``traj.freq_block``.
    """
    if not _is_integer(stride) or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    R, n = traj.theta.shape[1:]
    # The time string goes in front of every row suffix.
    suffixes = [""] + [f",{r},{i + 1},%.10g,%.10g\r\n" for r, i in np.ndindex(R, n)]

    def _write(fh: IO[str]) -> None:
        fh.write("time,realization,node,theta,freq\r\n")
        for t in range(0, traj.times.size, stride):
            pairs = np.stack((traj.theta[t], traj.freq_block(t, t + 1)[0]), axis=-1)
            template = f"{traj.times[t]:.10g}".join(suffixes)
            fh.write(template % tuple(pairs.ravel().tolist()))

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
