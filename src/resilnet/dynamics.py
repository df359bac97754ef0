"""Noisy coupled-oscillator dynamics and the empirical vulnerability.

Validation loop for the analytic measure: compute a synchronized steady
state, stream the nonlinear (RK4) or linearized (exact per-mode) dynamics
under a disturbance at one node as blocks of phases, and estimate the
time-averaged squared spread of frequencies around their mean, either from a
stored ensemble or, in ``simulate``, from one pass over the stream. All phases
live in a co-rotating frame (natural frequencies are mean-centered) and are
reported mean-zero per time step to suppress the neutral rotation mode.
"""
from __future__ import annotations

import itertools
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, ContextManager, Iterable, Iterator, Sequence

import numpy as np

from .graphs import (WeightedGraph, _is_integer, _node_index, _node_vector, laplacian,
                     spectral_bundle)

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
    "stable_step",
    "integrate_nonlinear",
    "integrate_linearized",
    "empirical_vulnerability",
    "export_trajectories_csv",
    "simulate",
]

DEFAULT_H = 0.01
DEFAULT_T = 200.0
DEFAULT_R = 100
DEFAULT_OU_TAU = 50.0
DEFAULT_BOX_DELTA = 0.1
DEFAULT_BOX_START = 10.0
DEFAULT_BOX_DURATION = 20.0
# RK4 needs h * lambda_n below this; the integrators refuse larger steps.
STEP_STIFFNESS_LIMIT = 0.5
# simulate's CSV holds the first max(1, CSV_VALUES // (n * samples))
# realizations, as earlier versions did; all 100 on ny57 would take 0.5 GB.
CSV_VALUES = 12_500_000
# Steps per block of a run's stream: noise, RK4 edge states, phases, frequencies.
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
        if self.kind == "ornstein_uhlenbeck" and not (self.tau > 0 and self.sigma >= 0):
            raise ValueError(f"OU needs correlation time tau > 0 and sigma >= 0, "
                             f"got tau={self.tau}, sigma={self.sigma}")
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


def _step_count(h: float, T: float, seed: int) -> int:
    """Steps of size h in [0, T], after checking h, T and the noise seed."""
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got seed={seed!r}")
    for name, value in (("h", h), ("T", T)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not math.isfinite(T / h):
        raise ValueError(f"T/h is not finite for h={h} and T={T}")
    return int(round(T / h))


def _noise_blocks(spec: NoiseSpec, h: float, samples: int, rows: int,
                  seed: int) -> Iterator[np.ndarray]:
    """Disturbance samples 0..samples-1 in (block, rows) arrays of ``_STEP_BLOCK``.
    OU: eta(t+h) = eta(t) e^{-h/tau} + sigma sqrt(1 - e^{-2h/tau}) xi, exact, from
    the stationary law, row r drawing from seed + r. A box pulse is one row."""
    if spec.kind == "box":
        t = np.arange(samples) * h
        pulse = np.where((t >= spec.t0) & (t < spec.t0 + spec.duration), spec.delta, 0.0)
        yield from np.split(pulse[:, None], range(_STEP_BLOCK, samples, _STEP_BLOCK))
        return
    rho = math.exp(-h / spec.tau)
    q = spec.sigma * math.sqrt(1.0 - rho * rho)
    rngs = [np.random.default_rng(seed + r) for r in range(rows)]
    eta0 = np.array([spec.sigma * rng.standard_normal() for rng in rngs])
    driven = [0.0] * rows
    for lo in range(0, samples, _STEP_BLOCK):
        hi = min(lo + _STEP_BLOCK, samples)
        first = max(lo, 1)
        out = np.empty((hi - lo, rows))
        out[:first - lo] = eta0
        for r, rng in enumerate(rngs):
            # y_t = q xi_t + rho y_{t-1} in scipy.signal.lfilter's order, without scipy.
            ys = list(itertools.accumulate((q * rng.standard_normal(hi - first)).tolist(),
                                           lambda y, x: x + rho * y, initial=driven[r]))
            driven[r] = ys[-1]
            out[first - lo:, r] = ys[1:]
        out[first - lo:] += eta0 * np.power(rho, np.arange(first, hi))[:, None]
        yield out


def make_noise(spec: NoiseSpec, h: float, T: float, seed: int) -> np.ndarray:
    """Disturbance on the grid 0, h, ..., T: row 0 of the integrators' noise
    stream. A box pulse ignores the seed, which must still be valid."""
    samples = _step_count(h, T, seed) + 1
    return _stack(_noise_blocks(spec, h, samples, 1, seed), samples)[:, 0]


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

    ``theta`` is the read-only time-major (len(times), realizations, nodes)
    array the integrators write; ``freq`` differences it (``_with_freq``) on
    each access. ``times`` is ``arange(len(times)) * h``, so ``times[1]`` is
    the step. Samples before ``onset`` are transient for the estimator.
    """

    times: np.ndarray
    theta: np.ndarray
    onset: float

    def __post_init__(self) -> None:
        if self.times.size < 2:
            raise ValueError(f"need at least 2 samples, got {self.times.size}")
        if not (math.isfinite(self.times[1]) and self.times[1] > 0 and np.allclose(
                self.times, np.arange(self.times.size) * self.times[1], rtol=1e-9, atol=0)):
            raise ValueError(f"times must be 0, h, 2h, ... with finite h > 0, "
                             f"got times[:3] = {self.times[:3].tolist()}")
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

    def _blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """The stored phases cut where a run's stream cuts them, with frequencies."""
        cuts = range(1, self.times.size, _STEP_BLOCK)
        return _with_freq(iter(np.split(self.theta, cuts)), self.times[1])

    @property
    def freq(self) -> np.ndarray:
        """Read-only (len(times), realizations, nodes) frequencies, built on each access."""
        freq = _stack((f for _, _, f in self._blocks()), self.times.size)
        freq.setflags(write=False)
        return freq


def stable_step(g: WeightedGraph) -> tuple[float, float]:
    """The step ``resilnet simulate`` takes on g, DEFAULT_H cut to 0.4 / lambda_n
    where DEFAULT_H * lambda_n reaches STEP_STIFFNESS_LIMIT, and lambda_n, the
    largest eigenvalue of L(b), which both integrators' guards read."""
    lam_n = float(spectral_bundle(g).eigenvalues[-1])
    return (0.4 / lam_n if DEFAULT_H * lam_n >= STEP_STIFFNESS_LIMIT else DEFAULT_H), lam_n


def _horizon(g: WeightedGraph, noise: NoiseSpec, h: float, T: float, R: int,
             seed: int) -> tuple[np.ndarray, int, int]:
    """Sample times, rows (one for a box pulse) and 0-based target node, checked;
    the step against g's stiffness last, so a bad target costs no spectrum."""
    k0 = _node_index(noise.node, g.n)
    if not _is_integer(R):
        raise ValueError(f"realization count must be an integer, got R={R!r}")
    if R < 1:
        raise ValueError(f"need at least one realization, got R={R}")
    steps = _step_count(h, T, seed)
    if steps < 1:
        raise ValueError(f"horizon T={T} holds no step of h={h}")
    lam_n = stable_step(g)[1]
    if h * lam_n >= STEP_STIFFNESS_LIMIT:
        raise ValueError(f"step h={h} too large for stiffness lambda_n={lam_n:.4g}; "
                         f"use h < {STEP_STIFFNESS_LIMIT / lam_n:.4g}")
    return np.arange(steps + 1) * h, 1 if noise.kind == "box" else R, k0


def _stack(blocks: Iterable[np.ndarray], samples: int) -> np.ndarray:
    """Copy consecutive time-major blocks into one preallocated array."""
    out, lo = None, 0
    for block in blocks:
        if out is None:
            out = np.empty((samples,) + block.shape[1:])
        out[lo:lo + len(block)] = block
        lo += len(block)
    return out


def _gauged(phases: np.ndarray) -> np.ndarray:
    """Time-major phases shifted in place to mean zero at every sample."""
    phases -= phases.mean(axis=2, keepdims=True)
    return phases


def _nonlinear_run(g: WeightedGraph, omega: Sequence[float], theta_init: Sequence[float],
                   noise: NoiseSpec, h: float, T: float, R: int,
                   seed: int) -> tuple[np.ndarray, int, Iterator[np.ndarray]]:
    """Checked run's times, rows and gauged phase blocks: sample 0, then one per block."""
    times, rows, k0 = _horizon(g, noise, h, T, R, seed)
    omega = _node_vector("omega", omega, g.n)
    theta_init = _node_vector("theta_init", theta_init, g.n)
    w = omega - omega.mean()
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
    start = np.repeat(theta_init[None], rows, axis=0)

    def advance(d: np.ndarray, eta: np.ndarray, block: np.ndarray) -> np.ndarray:
        # Built in place (an expression raised validate's peak RSS by 0.4 MB) and
        # freed on return, before the stream's consumer runs.
        U_full = eta[:, :, None] * e
        U_full += u
        U_full *= h
        U_half = 0.5 * U_full
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
        return d

    def phases() -> Iterator[np.ndarray]:
        d = start @ incT
        yield _gauged(start[None])
        edge_states = np.empty((_STEP_BLOCK, rows, g.m))
        for eta in _noise_blocks(noise, h, times.size - 1, rows, seed):
            d = advance(d, eta, edge_states[:len(eta)])
            yield _gauged(edge_states[:len(eta)] @ phase_map)

    return times, rows, phases()


def integrate_nonlinear(g: WeightedGraph, omega: Sequence[float], theta_init: Sequence[float],
                        noise: NoiseSpec, h: float = DEFAULT_H, T: float = DEFAULT_T,
                        R: int = DEFAULT_R, seed: int = 0) -> TrajectoryEnsemble:
    """Integrate the full sine-coupled dynamics under the disturbance.

    Classical fourth-order stepping for the drift; the disturbance is a
    per-step constant added to the target node's natural frequency (exact
    OU updates between steps), seeded with seed + r for realization r. A
    box pulse ignores the seed, so the ensemble holds one run whatever R is.

    The coupling depends on phases only through the edge differences
    d = theta B^T (B the edges x nodes incidence), so RK4 integrates d:
    each stage argument is d + c h U_t - f (c h K), with K = diag(b) B B^T
    and U_t = weff_t B^T, one matmul and one sine. The mean-zero phases are
    d B L1^+ (L1 = B^T B), one matmul per block of edge states; the map
    sends the cycle space, which only rounding enters, to zero. The blocks
    fill one preallocated (steps + 1, realizations, n) ``theta``. ``omega``
    and ``theta_init`` need one finite entry per node; ``seed`` must be a
    non-negative integer.
    """
    times, _, phases = _nonlinear_run(g, omega, theta_init, noise, h, T, R, seed)
    return TrajectoryEnsemble(times, _stack(phases, times.size), noise.onset)


def _modes(g: WeightedGraph, steady: SteadyState, h: float, k: int) -> tuple[np.ndarray, ...]:
    """(z, forcing, level, basis) of the linearized run at step h, target node k (0-based),
    from one ``eigh`` of L_c = V diag(lam) V^T, the Laplacian of b cos(gap) at theta*.
    Under noise eta held over a step, mode j advances exactly, c_j <- e^{-z_j} c_j + eta
    forcing_j: z = lam h clipped at 0, forcing = h phi1(z) V[k], phi1(z) = (1 - e^{-z})/z.
    L(b) - L_c, the Laplacian of b (1 - cos gap), is PSD, so the stiffness guard keeps
    z < 0.5. The gauge is linear: the phases are level + c basis, theta* and V^T gauged."""
    if not isinstance(steady, SteadyState):
        raise TypeError(f"steady must be a SteadyState, got {type(steady).__name__}")
    theta0 = _node_vector("steady.theta0", steady.theta0, g.n)
    lam, V = np.linalg.eigh(laplacian(g, g.b * np.cos(theta0[g.ei] - theta0[g.ej])))
    z = np.clip(lam * h, 0.0, None)
    phi1 = np.where(z > 1e-8, (1.0 - np.exp(-z)) / np.where(z > 1e-8, z, 1.0), 1.0 - 0.5 * z)
    return z, h * phi1 * V[k], theta0 - theta0.mean(), V.T - V.mean(axis=0)[:, None]


def _linearized_run(g: WeightedGraph, steady: SteadyState, noise: NoiseSpec, h: float,
                    T: float, R: int, seed: int) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Checked run's times and gauged phase blocks: sample 0, then one per block."""
    times, rows, k0 = _horizon(g, noise, h, T, R, seed)
    z, forcing, level, basis = _modes(g, steady, h, k0)
    # c_i = e^{-iz} (c_0 + sum_{s<i} e^{(s+1)z} eta_s forcing); factors < e^{_STEP_BLOCK/2}.
    powers = np.arange(1, _STEP_BLOCK + 1)[:, None, None] * z
    grow, shrink = np.exp(powers) * forcing, np.exp(-powers)

    def phases() -> Iterator[np.ndarray]:
        c, modes = np.zeros((rows, g.n)), np.empty((_STEP_BLOCK, rows, g.n))
        yield np.repeat(level[None, None], rows, axis=1)
        for eta in _noise_blocks(noise, h, times.size - 1, rows, seed):
            c_block = np.multiply(eta[:, :, None], grow[:len(eta)], out=modes[:len(eta)])
            c_block[0] += c
            np.cumsum(c_block, axis=0, out=c_block)
            c_block *= shrink[:len(eta)]
            c = c_block[-1].copy()
            block = c_block @ basis
            yield np.add(block, level, out=block)

    return times, phases()


def integrate_linearized(g: WeightedGraph, steady: SteadyState, noise: NoiseSpec,
                         h: float = DEFAULT_H, T: float = DEFAULT_T, R: int = DEFAULT_R,
                         seed: int = 0) -> TrajectoryEnsemble:
    """Integrate the linearization around the steady state: each mode of L_c, the Laplacian
    of b_ij cos(gap_ij), advances exactly under noise held over a step, from one ``eigh``
    (``_modes``) and one matmul per block. Stable for any h, it still applies the RK4 guard
    on lambda_n of L(b) (``stable_step``), so both integrators refuse the same h. Checks
    (``steady.theta0`` as ``omega``), storage and box pulses are ``integrate_nonlinear``'s."""
    times, phases = _linearized_run(g, steady, noise, h, T, R, seed)
    return TrajectoryEnsemble(times, _stack(phases, times.size), noise.onset)


def _with_freq(phases: Iterator[np.ndarray],
               h: float) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(first sample, phases, frequencies) per block: central differences in time,
    one-sided at the run's ends; a block waits for the next one's first sample."""
    block = next(phases)
    before, lo = block[:1], 0
    for after in itertools.chain(phases, [None]):
        window = np.concatenate((before, block, block[-1:] if after is None else after[:1]))
        freq = np.subtract(window[2:], window[:-2])
        np.divide(freq, 2.0 * h, out=freq)
        if lo == 0:
            freq[0] = (window[2] - window[1]) / h
        if after is None:
            freq[-1] = (window[-2] - window[-3]) / h
        del window  # a stream holds only the blocks it needs
        yield lo, block, freq
        before, lo, block = block[-1:].copy(), lo + len(block), after


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Empirical vulnerability of each realization, and their ensemble mean.

    ``value`` is the mean of ``per_realization`` and ``stderr`` its
    Monte-Carlo standard error. ``low_realizations`` flags estimates from a
    single realization, where no ensemble averaging (and no standard
    error) is possible; a box pulse always gives one.
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


class _SpreadSum:
    """Block-by-block sums behind ``empirical_vulnerability``."""

    def __init__(self, times: np.ndarray, onset: float, realizations: int) -> None:
        # The samples at or after the onset are a suffix of the sorted times.
        self.start = int(np.searchsorted(times, onset - 1e-12))
        self.count = times.size - self.start
        if self.count < 1:
            raise ValueError(f"onset {onset} lies after the last sample "
                             f"t={times[-1]:.10g}; nothing to average")
        self.total = np.zeros(realizations)

    def add(self, lo: int, freq: np.ndarray) -> None:
        f = freq[max(self.start - lo, 0):]
        spread = f - f.mean(axis=2, keepdims=True)
        self.total += np.einsum("tri,tri->r", spread, spread)

    def measure(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(per_realization=tuple((self.total / self.count).tolist()))


def empirical_vulnerability(traj: TrajectoryEnsemble) -> EmpiricalMeasure:
    """Time average of each realization's squared frequency spread
    sum_i (freq_i - mean_j freq_j)^2 at and after the onset, summed block by
    block as ``simulate`` sums a run; ``ValueError`` if no sample is there."""
    spread = _SpreadSum(traj.times, traj.onset, traj.realizations)
    for lo, _, freq in traj._blocks():
        spread.add(lo, freq)
    return spread.measure()


def _csv_rows(fh: IO[str], realizations: int, n: int, h: float,
              stride: int) -> Callable[[int, np.ndarray, np.ndarray], None]:
    """Write the CSV header; return the writer of a block's rows: every ``stride``-th
    sample from time 0, first ``realizations`` realizations, as ``csv.writer`` would."""
    # The time string goes in front of every row suffix.
    suffixes = [""] + [f",{r},{i + 1},%.10g,%.10g\r\n"
                       for r, i in np.ndindex(realizations, n)]
    fh.write("time,realization,node,theta,freq\r\n")

    def write(lo: int, theta: np.ndarray, freq: np.ndarray) -> None:
        for t in range(-lo % stride, len(theta), stride):
            pairs = np.stack((theta[t, :realizations], freq[t, :realizations]), axis=-1)
            fh.write(f"{(lo + t) * h:.10g}".join(suffixes) % tuple(pairs.ravel().tolist()))

    return write


def _text_out(path_or_file: str | os.PathLike | IO[str]) -> ContextManager[IO[str]]:
    """A text file to write: the one given, left open, or the path opened for
    writing, its parent directory made first."""
    if hasattr(path_or_file, "write"):
        return nullcontext(path_or_file)
    Path(path_or_file).parent.mkdir(parents=True, exist_ok=True)
    return open(path_or_file, "w", newline="")


def export_trajectories_csv(traj: TrajectoryEnsemble,
                            path_or_file: str | os.PathLike | IO[str],
                            stride: int = 1) -> None:
    """Write trajectories as CSV rows (time, realization, node, theta, freq),
    every ``stride``-th sample from time 0, as ``simulate`` does."""
    if not _is_integer(stride) or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    with _text_out(path_or_file) as fh:
        write = _csv_rows(fh, traj.realizations, traj.theta.shape[2], traj.times[1], stride)
        for block in traj._blocks():
            write(*block)


def simulate(g: WeightedGraph, omega: Sequence[float], theta_init: Sequence[float],
             noise: NoiseSpec, csv: str | os.PathLike | IO[str], h: float = DEFAULT_H,
             T: float = DEFAULT_T, R: int = DEFAULT_R, seed: int = 0) -> EmpiricalMeasure:
    """One pass of ``integrate_nonlinear``'s run that stores no ensemble: each
    block of phases and frequencies goes to the spread sum and to ``csv`` (a
    path or an open text file) before the next is made.

    The estimate and the CSV bytes are those of ``empirical_vulnerability`` and
    ``export_trajectories_csv`` on the stored run, with stride max(1, steps //
    2000) and only the first max(1, CSV_VALUES // (n * samples)) realizations
    written; the estimate uses all of them, one for a box pulse. Arguments are
    checked as in ``integrate_nonlinear``, before ``csv`` is opened.
    """
    times, rows, phases = _nonlinear_run(g, omega, theta_init, noise, h, T, R, seed)
    spread = _SpreadSum(times, noise.onset, rows)
    written = max(1, min(rows, CSV_VALUES // (g.n * times.size)))
    with _text_out(csv) as fh:
        write = _csv_rows(fh, written, g.n, h, max(1, (times.size - 1) // 2000))
        for lo, theta, freq in _with_freq(phases, h):
            spread.add(lo, freq)
            write(lo, theta, freq)
    return spread.measure()
