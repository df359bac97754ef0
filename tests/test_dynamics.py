"""Steady states, integrators, noise processes, empirical estimator."""
import csv
import dataclasses
import io
import itertools
import math
import types
from pathlib import Path

import numpy as np
import pytest

from resilnet import (
    NoiseSpec,
    build_graph,
    complete_graph_edges,
    complete_graph_optimum,
    empirical_vulnerability,
    integrate_linearized,
    integrate_nonlinear,
    make_noise,
    steady_state,
)
from resilnet import dynamics, gridcase
from resilnet.dynamics import (
    EmpiricalMeasure,
    NoSynchronizedStateError,
    TrajectoryEnsemble,
    default_ou_sigma,
    export_trajectories_csv,
    stable_step,
)
from resilnet.graphs import SingularLaplacianError, WeightedGraph

from conftest import reference_laplacian


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="tau"):
        NoiseSpec.ou(node=1, tau=0.0)
    with pytest.raises(ValueError, match="duration"):
        NoiseSpec.box(node=1, duration=0.0)
    with pytest.raises(ValueError, match=r"sigma >= 0, got tau=50.0, sigma=-0.1"):
        NoiseSpec.ou(node=1, sigma=-0.1)
    assert NoiseSpec.ou(node=1, sigma=0.0).sigma == 0.0
    NoiseSpec(kind="box", node=1, sigma=-0.1, duration=1.0)  # a box pulse has no sigma
    with pytest.raises(ValueError, match="kind"):
        NoiseSpec(kind="spikes", node=1)
    for node in (True, 1.5, 2.0):
        with pytest.raises(ValueError, match=f"target node must be an integer, got {node}"):
            NoiseSpec.box(node=node)
    assert NoiseSpec.ou(node=np.int64(2)).node == 2
    assert NoiseSpec.ou(node=2).onset == 0.0
    assert NoiseSpec.box(node=2, t0=7.5).onset == 7.5


def test_box_noise_signal():
    spec = NoiseSpec.box(node=1, delta=0.3, t0=1.0, duration=2.0)
    sig = make_noise(spec, h=0.5, T=4.0, seed=0)
    assert np.array_equal(sig, [0, 0, 0.3, 0.3, 0.3, 0.3, 0, 0, 0])
    zero = make_noise(NoiseSpec.box(node=1, delta=0.0, t0=1.0, duration=2.0),
                      h=0.5, T=4.0, seed=0)
    assert not zero.any()


def test_ou_exact_discretization_matches_recursion():
    spec = NoiseSpec.ou(node=1, tau=3.0, sigma=0.7)
    h, T, seed = 0.05, 5.0, 123
    sig = make_noise(spec, h, T, seed)
    rng = np.random.default_rng(seed)
    eta = 0.7 * rng.standard_normal()
    xi = rng.standard_normal(int(round(T / h)))
    rho = math.exp(-h / 3.0)
    q = 0.7 * math.sqrt(1 - rho * rho)
    ref = [eta]
    for x in xi:
        eta = eta * rho + q * x
        ref.append(eta)
    assert np.allclose(sig, ref, atol=1e-12)


def test_ou_stationary_statistics():
    spec = NoiseSpec.ou(node=1, tau=2.0, sigma=0.3)
    sig = make_noise(spec, h=0.05, T=50000.0, seed=7)
    assert sig.size == 10 ** 6 + 1
    assert sig.var() == pytest.approx(0.09, rel=0.02)
    lag1 = np.corrcoef(sig[:-1], sig[1:])[0, 1]
    assert lag1 == pytest.approx(math.exp(-0.05 / 2.0), rel=0.02)


def _reference_ou(spec, h, T, seed):
    """OU samples with all normals drawn at once, by the scalar recurrence."""
    steps = int(round(T / h))
    rho = math.exp(-h / spec.tau)
    q = spec.sigma * math.sqrt(1.0 - rho * rho)
    rng = np.random.default_rng(seed)
    eta0 = spec.sigma * rng.standard_normal()
    driven = list(itertools.accumulate((q * rng.standard_normal(steps)).tolist(),
                                       lambda y, x: x + rho * y))
    return np.concatenate(([eta0], driven + eta0 * np.power(rho, np.arange(1, steps + 1))))


def test_noise_matrix_rows_use_seed_offsets():
    # The integrators' noise stream over several blocks, the last partial:
    # row r is make_noise(seed + r), bit for bit what drawing every normal
    # at once gives, and a box pulse is one row whatever R is.
    block = dynamics._STEP_BLOCK
    spec = NoiseSpec.ou(node=1, tau=1.0, sigma=0.2)
    h, samples = 0.01, 3 * block + 41
    T = (samples - 1) * h
    blocks = list(dynamics._noise_blocks(spec, h, samples, 4, 99))
    assert [len(b) for b in blocks] == [block] * 3 + [41]
    M = np.concatenate(blocks)
    assert M.shape == (samples, 4)
    for r in range(4):
        assert np.array_equal(M[:, r], make_noise(spec, h, T, 99 + r))
        assert np.array_equal(M[:, r], _reference_ou(spec, h, T, 99 + r))
    box = NoiseSpec.box(node=1, t0=0.5, duration=1.0)
    B = np.concatenate(list(dynamics._noise_blocks(box, h, samples, 4, 99)))
    assert np.array_equal(B, make_noise(box, h, T, 0)[:, None])


def test_seed_must_be_a_non_negative_integer():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    ss = steady_state(g, np.zeros(3))
    for spec in (NoiseSpec.ou(node=1, tau=1.0, sigma=0.2),
                 NoiseSpec.box(node=1, t0=0.5, duration=1.0)):
        for seed in (-1, 1.5, True, "3"):
            match = f"seed must be a non-negative integer, got seed={seed!r}"
            with pytest.raises(ValueError, match=match):
                make_noise(spec, 0.01, 2.0, seed)
            with pytest.raises(ValueError, match=match):
                integrate_nonlinear(g, np.zeros(3), np.zeros(3), spec,
                                    h=0.01, T=1.0, R=2, seed=seed)
            with pytest.raises(ValueError, match=match):
                integrate_linearized(g, ss, spec, h=0.01, T=1.0, R=2, seed=seed)
        # numpy integers are seeds, and give the same signal as Python ints
        assert np.array_equal(make_noise(spec, 0.01, 2.0, np.int64(5)),
                              make_noise(spec, 0.01, 2.0, 5))


def test_default_ou_sigma():
    assert default_ou_sigma([0.5, -0.5]) == pytest.approx(0.05)
    assert default_ou_sigma([3.0, -3.0]) == pytest.approx(0.05)
    assert default_ou_sigma([0.2, -0.2]) == pytest.approx(0.02)
    assert default_ou_sigma([0.0, 0.0]) == pytest.approx(0.05)


def test_steady_state_trivial_and_arcsin():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    ss = steady_state(g, np.zeros(3))
    assert np.abs(ss.theta0).max() == 0.0
    assert ss.residual == 0.0
    g2 = build_graph(2, [(1, 2)], [1.0])
    ss2 = steady_state(g2, [0.5, -0.5])
    assert ss2.theta0[0] - ss2.theta0[1] == pytest.approx(math.asin(0.5), abs=1e-10)
    assert abs(ss2.theta0.sum()) < 1e-12


def test_steady_state_gap_small_under_strong_connectivity():
    # When lambda2 dominates the edgewise frequency spread divided by
    # sin(gamma), the synchronized state keeps all angle gaps within gamma.
    # (The multiplied-by-sin form used for the design floor is far weaker;
    # reports carry a warning when the gap check fails.)
    rng = np.random.default_rng(50)
    gamma = math.pi / 16
    checked = 0
    for _ in range(40):
        n = int(rng.integers(3, 8))
        edges = [(i, i + 1) for i in range(1, n)] + ([(1, n)] if n > 2 else [])
        b = rng.uniform(0.5, 1.5, size=len(edges))
        g = build_graph(n, edges, b)
        from resilnet import algebraic_connectivity
        omega = rng.normal(size=n)
        omega -= omega.mean()
        spread = math.sqrt(sum((omega[i - 1] - omega[j - 1]) ** 2 for i, j in edges))
        scale = 0.9 * algebraic_connectivity(g) * math.sin(gamma) / spread
        ss = steady_state(g, omega * scale)
        assert ss.max_angle_gap <= gamma + 1e-9
        checked += 1
    assert checked == 40


def test_steady_state_unsolvable():
    g = build_graph(2, [(1, 2)], [1.0])
    with pytest.raises(NoSynchronizedStateError):
        steady_state(g, [3.0, -3.0])


def test_nonlinear_preserves_fixed_point():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [0.3, 0.2, 0.3, 0.2])
    omega = np.array([0.1, -0.05, 0.05, -0.1])
    ss = steady_state(g, omega, tol=1e-13)
    spec = NoiseSpec.box(node=1, delta=0.0, t0=1.0, duration=1.0)
    traj = integrate_nonlinear(g, omega, ss.theta0, spec, h=0.01, T=100.0, R=1, seed=0)
    assert np.abs(traj.theta - traj.theta[:1]).max() < 1e-8


def test_stability_guard():
    g = build_graph(2, [(1, 2)], [100.0])
    spec = NoiseSpec.box(node=1)
    with pytest.raises(ValueError, match="use h <"):
        integrate_nonlinear(g, [0, 0], [0, 0], spec, h=0.01, T=1.0, R=1, seed=0)


def test_integrators_refuse_the_same_step():
    # lambda_n(L) = 3 on the unit path, but the steady state's cos weights are
    # 0.6, so lambda_n(L_c) = 1.8: h = 0.175 passes a guard on L_c only.
    g = build_graph(3, [(1, 2), (2, 3)], [1.0, 1.0])
    omega = np.array([0.8, 0.0, -0.8])
    ss = steady_state(g, omega, tol=1e-13)
    spec = NoiseSpec.ou(node=2, tau=1.0, sigma=0.1)
    assert stable_step(g) == (0.01, pytest.approx(3.0))
    with pytest.raises(ValueError, match="use h <") as nonlinear:
        integrate_nonlinear(g, omega, ss.theta0, spec, h=0.175, T=1.0, R=1, seed=0)
    with pytest.raises(ValueError, match="use h <") as linearized:
        integrate_linearized(g, ss, spec, h=0.175, T=1.0, R=1, seed=0)
    assert str(linearized.value) == str(nonlinear.value)


def test_nonlinear_shift_invariance():
    # coupling antisymmetry conserves the mean frequency, so a constant
    # phase shift of the start leaves the gauged output unchanged
    g = build_graph(3, [(1, 2), (2, 3)], [0.6, 0.4])
    omega = np.array([0.1, 0.0, -0.1])
    spec = NoiseSpec.box(node=2, delta=0.05, t0=0.5, duration=1.0)
    a = integrate_nonlinear(g, omega, np.zeros(3), spec, h=0.01, T=5.0, R=2, seed=1)
    b = integrate_nonlinear(g, omega, np.full(3, 0.37), spec, h=0.01, T=5.0, R=2, seed=1)
    assert np.abs(a.theta - b.theta).max() < 1e-12
    assert np.abs(a.freq - b.freq).max() < 1e-10


def test_freq_consistent_with_central_differences():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.ou(node=1, tau=5.0, sigma=0.1)
    traj = integrate_nonlinear(g, np.zeros(3), np.zeros(3), spec, h=0.01, T=2.0,
                               R=2, seed=5)
    manual = (traj.theta[2:] - traj.theta[:-2]) / 0.02
    assert np.array_equal(traj.freq[1:-1], manual)


def test_linearized_zero_noise_is_identically_steady():
    g = build_graph(3, [(1, 2), (2, 3)], [0.6, 0.4])
    omega = np.array([0.1, 0.0, -0.1])
    ss = steady_state(g, omega, tol=1e-13)
    spec = NoiseSpec.box(node=1, delta=0.0, t0=0.0, duration=1.0)
    traj = integrate_linearized(g, ss, spec, h=0.01, T=5.0, R=1, seed=0)
    assert np.abs(traj.theta - ss.theta0[None, None, :]).max() < 1e-14


def test_linearized_rejects_steady_state_of_another_graph():
    small = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    large = build_graph(4, [(1, 2), (2, 3), (3, 4)], [0.4, 0.3, 0.3])
    spec = NoiseSpec.box(node=1, t0=0.0, duration=1.0)
    for g, other, n, m in ((large, small, 4, 3), (small, large, 3, 4)):
        ss = steady_state(other, np.zeros(m))
        with pytest.raises(ValueError,
                           match=rf"steady.theta0 has shape \({m},\), expected \({n},\)"):
            integrate_linearized(g, ss, spec, h=0.01, T=1.0, R=1, seed=0)


@pytest.mark.parametrize("steady", [np.zeros(3), [0.0, 0.0, 0.0], None],
                         ids=["ndarray", "list", "none"])
def test_linearized_requires_a_steady_state(steady):
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.box(node=1, t0=0.0, duration=1.0)
    with pytest.raises(TypeError, match=f"steady must be a SteadyState, "
                                        f"got {type(steady).__name__}"):
        integrate_linearized(g, steady, spec, h=0.01, T=1.0, R=1, seed=0)


def test_integrators_refuse_a_disconnected_network(tmp_path):
    # Edges (2, 3) and (1, 4) of the 4-cycle carry no weight: L(b) is singular,
    # and the stiffness guard's spectral bundle refuses it before any output.
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [1.0, 0.0, 1.0, 0.0])
    spec = NoiseSpec.box(node=1)
    zeros = np.zeros(4)
    with pytest.raises(SingularLaplacianError):
        integrate_nonlinear(g, zeros, zeros, spec, h=0.01, T=1.0, R=1, seed=0)
    with pytest.raises(SingularLaplacianError):
        integrate_linearized(g, dynamics.SteadyState(zeros, 0.0, 0.0), spec,
                             h=0.01, T=1.0, R=1, seed=0)
    with pytest.raises(SingularLaplacianError):
        dynamics.simulate(g, zeros, zeros, spec, tmp_path / "out" / "trajectories.csv",
                          h=0.01, T=1.0, R=1, seed=0)
    assert not (tmp_path / "out").exists()


def test_linearized_flat_state_matrix_is_minus_laplacian():
    # at the zero steady state, one exact step equals expm(-L h)
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)],
                    [0.25, 0.15, 0.25, 0.15, 0.2])
    ss = steady_state(g, np.zeros(4))
    spec = NoiseSpec.box(node=2, delta=0.4, t0=0.0, duration=100.0)
    h = 0.02
    traj = integrate_linearized(g, ss, spec, h=h, T=1.0, R=1, seed=0)
    from scipy.linalg import expm
    L = reference_laplacian(g)
    state = np.zeros(4)
    forcing = np.zeros(4)
    forcing[1] = 0.4
    phi = expm(-L * h)
    # integral of expm(-L s) ds over one step, on the mean-zero subspace
    lam, V = np.linalg.eigh(L)
    z = lam * h
    phi1 = np.where(z > 1e-12, (1 - np.exp(-z)) / np.where(z > 0, z, 1.0), 1.0)
    psi = (V * (h * phi1)) @ V.T
    for t in range(traj.times.size - 1):
        state = phi @ state + psi @ forcing
        gauged = state - state.mean()
        assert np.abs(traj.theta[t + 1, 0] - gauged).max() < 1e-8


def test_linearized_matches_analytic_box_response():
    # piecewise-constant forcing: the exponential integrator is exact in h
    g = build_graph(5, complete_graph_edges(5), [0.1] * 10)
    ss = steady_state(g, np.zeros(5))
    delta, k = 0.25, 3
    spec = NoiseSpec.box(node=k, delta=delta, t0=0.0, duration=50.0)
    traj = integrate_linearized(g, ss, spec, h=0.05, T=8.0, R=1, seed=0)
    L = reference_laplacian(g)
    lam, V = np.linalg.eigh(L)
    e_k = np.zeros(5)
    e_k[k - 1] = delta
    coef = V.T @ e_k
    for idx, t in enumerate(traj.times):
        with np.errstate(divide="ignore", invalid="ignore"):
            resp = np.where(lam > 1e-12, (1 - np.exp(-lam * t)) / lam, 0.0)
        analytic = V @ (resp * coef)
        analytic -= analytic.mean()
        assert np.abs(traj.theta[idx, 0] - analytic).max() < 1e-8


def test_linearized_agrees_with_nonlinear_to_second_order():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [0.3, 0.2, 0.3, 0.2])
    omega = np.array([0.15, -0.05, 0.0, -0.10])
    ss = steady_state(g, omega, tol=1e-13)
    gaps = []
    for delta in (0.08, 0.04):
        spec = NoiseSpec.box(node=2, delta=delta, t0=2.0, duration=10.0)
        nl = integrate_nonlinear(g, omega, ss.theta0, spec, h=0.005, T=30.0, R=1, seed=3)
        li = integrate_linearized(g, ss, spec, h=0.005, T=30.0, R=1, seed=3)
        gaps.append(np.abs(nl.theta - li.theta).max())
    assert 3.0 < gaps[0] / gaps[1] < 5.5


def _reference_linearized(g, steady, noise, h, T, R, seed):
    """The exponential integrator stepped in node space, one realization at a
    time: dev <- dev P + eta_t f, P = V e^{-z} V^T, f = (V h phi1(z) V^T) e_k."""
    steps = int(round(T / h))
    theta0 = np.asarray(steady.theta0)
    cos_graph = WeightedGraph(g.n, g.edges, g.b * np.cos(theta0[g.ei] - theta0[g.ej]))
    lam, V = np.linalg.eigh(reference_laplacian(cos_graph))
    z = np.clip(lam * h, 0.0, None)
    decay = np.exp(-z)
    phi1 = np.where(z > 1e-8, (1.0 - decay) / np.where(z > 1e-8, z, 1.0), 1.0 - 0.5 * z)
    propagator = (V * decay) @ V.T
    forcing = ((V * (h * phi1)) @ V.T)[:, noise.node - 1]
    theta = np.empty((steps + 1, R, g.n))
    for r in range(R):
        eta = make_noise(noise, h, T, seed + r)
        dev = np.zeros(g.n)
        theta[0, r] = theta0
        for t in range(steps):
            dev = dev @ propagator + eta[t] * forcing
            theta[t + 1, r] = theta0 + dev
    return theta - theta.mean(axis=2, keepdims=True)


@pytest.mark.parametrize("kind", ["ou", "box"])
@pytest.mark.parametrize("h_lam", [0.1, 0.49])
def test_linearized_matches_reference_recurrence(kind, h_lam):
    # ny57 at a mild and at the largest step the guard accepts, over 441
    # steps (no multiple of the block), with the box onset inside a block.
    case = gridcase.load_case(Path(__file__).parent.parent / "cases" / "ny57_substitute.json")
    g, omega = case.graph(), case.omega()
    ss = steady_state(g, omega)
    lam_n = np.linalg.eigvalsh(reference_laplacian(
        WeightedGraph(g.n, g.edges, g.b * np.cos(ss.theta0[g.ei] - ss.theta0[g.ej]))))[-1]
    h, steps, R, seed = h_lam / lam_n, 441, 3, 57
    T = steps * h
    assert steps % dynamics._STEP_BLOCK
    if kind == "ou":
        noise = NoiseSpec.ou(node=6, tau=50 * h, sigma=default_ou_sigma(omega))
    else:
        noise = NoiseSpec.box(node=6, delta=0.05, t0=200.5 * h, duration=150 * h)
    traj = integrate_linearized(g, ss, noise, h=h, T=T, R=R, seed=seed)
    runs = 1 if kind == "box" else R
    ref = _reference_linearized(g, ss, noise, h, T, runs, seed)
    assert traj.theta.shape == ref.shape == (steps + 1, runs, g.n)
    start = int(np.searchsorted(traj.times, traj.onset - 1e-12))
    assert kind == "ou" or (start - 1) % dynamics._STEP_BLOCK
    scale = np.abs(ref - ref[:1]).max()
    assert scale > 0
    assert np.abs(traj.theta - ref).max() <= 1e-11 * scale
    expected = empirical_vulnerability(TrajectoryEnsemble(traj.times, ref, noise.onset))
    assert np.allclose(empirical_vulnerability(traj).per_realization,
                       expected.per_realization, rtol=1e-12, atol=0)


def test_empirical_zero_noise_is_zero():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.box(node=1, delta=0.0, t0=1.0, duration=1.0)
    traj = integrate_nonlinear(g, np.zeros(3), np.zeros(3), spec, h=0.01, T=5.0,
                               R=3, seed=0)
    m = empirical_vulnerability(traj)
    assert m.value < 1e-20
    assert m.low_realizations


def test_empirical_single_realization_flagged():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.ou(node=1, tau=5.0, sigma=0.05)
    traj = integrate_nonlinear(g, np.zeros(3), np.zeros(3), spec, h=0.01, T=2.0,
                               R=1, seed=0)
    m = empirical_vulnerability(traj)
    assert m.low_realizations and m.stderr == 0.0


def test_ensemble_and_measure_hold_only_their_data():
    # Everything else is derived: the realization count from theta's shape,
    # and the estimate, its error and the low-R flag from per_realization.
    assert [f.name for f in dataclasses.fields(TrajectoryEnsemble)] == ["times", "theta", "onset"]
    assert [f.name for f in dataclasses.fields(EmpiricalMeasure)] == ["per_realization"]
    with pytest.raises(ValueError, match="need at least one realization"):
        EmpiricalMeasure(())
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.ou(node=1, tau=5.0, sigma=0.05)
    a, b = (empirical_vulnerability(integrate_nonlinear(
        g, np.zeros(3), np.zeros(3), spec, h=0.01, T=2.0, R=R, seed=seed))
        for R, seed in ((3, 0), (2, 3)))
    whole = empirical_vulnerability(integrate_nonlinear(
        g, np.zeros(3), np.zeros(3), spec, h=0.01, T=2.0, R=5, seed=0))
    # Batches pool by joining their realizations.
    pooled = EmpiricalMeasure(a.per_realization + b.per_realization)
    assert pooled.per_realization == whole.per_realization
    assert (pooled.value, pooled.stderr) == (whole.value, whole.stderr)
    values = np.array(whole.per_realization)
    assert whole.value == float(values.mean())
    assert whole.stderr == float(values.std(ddof=1) / math.sqrt(5))
    assert not whole.low_realizations and float(whole) == whole.value


def test_empirical_excludes_pre_onset_transient():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    # put the system far from equilibrium before onset: the estimator must
    # not see the settling transient
    spec = NoiseSpec.box(node=1, delta=0.0, t0=50.0, duration=10.0)
    theta_init = np.array([0.3, -0.1, -0.2])
    traj = integrate_nonlinear(g, np.zeros(3), theta_init, spec, h=0.01, T=60.0,
                               R=2, seed=0)
    m = empirical_vulnerability(traj)
    assert m.value < 1e-12
    assert traj.onset == 50.0


def test_empirical_monte_carlo_error_scaling():
    # quadrupling R roughly halves the Monte-Carlo standard error
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.ou(node=1, tau=2.0, sigma=0.1)

    def run(R, seed):
        traj = integrate_nonlinear(g, np.zeros(3), np.zeros(3), spec,
                                   h=0.02, T=40.0, R=R, seed=seed)
        return empirical_vulnerability(traj)

    small = [run(8, 1000 + 8 * i).value for i in range(24)]
    large = [run(32, 2000 + 32 * i).value for i in range(24)]
    ratio = np.std(small, ddof=1) / np.std(large, ddof=1)
    assert 1.4 < ratio < 2.9


def test_empirical_step_insensitivity():
    g = build_graph(5, complete_graph_edges(5), [0.1] * 10)
    spec = NoiseSpec.box(node=1, delta=0.1, t0=2.0, duration=10.0)
    vals = []
    for h in (0.01, 0.02):
        traj = integrate_nonlinear(g, np.zeros(5), np.zeros(5), spec,
                                   h=h, T=40.0, R=1, seed=0)
        vals.append(empirical_vulnerability(traj).value)
    assert abs(vals[0] - vals[1]) / vals[0] < 0.01


def test_box_ratio_tracks_analytic_prediction():
    # desk-scale version of the design-validation experiment
    edges = complete_graph_edges(5)
    spec = NoiseSpec.box(node=1, delta=0.1, t0=5.0, duration=20.0)
    vals = {}
    for name, b in (("uniform", [0.1] * 10), ("optimized", complete_graph_optimum(5, 1))):
        g = build_graph(5, edges, b)
        traj = integrate_nonlinear(g, np.zeros(5), np.zeros(5), spec,
                                   h=0.01, T=60.0, R=2, seed=11)
        vals[name] = empirical_vulnerability(traj).value
    ratio = vals["uniform"] / vals["optimized"]
    analytic = 1.6 / 0.64
    assert abs(ratio - analytic) / analytic < 0.05


def test_trajectory_csv_export():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.ou(node=1, tau=5.0, sigma=0.05)
    traj = integrate_nonlinear(g, np.zeros(3), np.zeros(3), spec, h=0.1, T=1.0,
                               R=2, seed=0)
    buf = io.StringIO()
    export_trajectories_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "time,realization,node,theta,freq"
    assert len(lines) == 1 + 11 * 2 * 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "1"


def _reference_rk4(g, omega, theta_init, noise, h, T, R, seed):
    """Plain RK4, one realization at a time, with an edge-list drift."""
    steps = int(round(T / h))
    w = np.asarray(omega, dtype=float)
    w = w - w.mean()
    k0 = noise.node - 1

    def drift(x, weff):
        flow = g.b * np.sin(x[g.ei] - x[g.ej])
        return weff - (np.bincount(g.ei, flow, g.n) - np.bincount(g.ej, flow, g.n))

    theta = np.empty((steps + 1, R, g.n))
    for r in range(R):
        eta = make_noise(noise, h, T, seed + r)
        state = np.array(theta_init, dtype=float)
        theta[0, r] = state
        for t in range(steps):
            weff = w.copy()
            weff[k0] += eta[t]
            k1 = drift(state, weff)
            k2 = drift(state + 0.5 * h * k1, weff)
            k3 = drift(state + 0.5 * h * k2, weff)
            k4 = drift(state + h * k3, weff)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            theta[t + 1, r] = state
    return theta - theta.mean(axis=2, keepdims=True)


@pytest.mark.parametrize("noise", [
    NoiseSpec.ou(node=2, tau=1.5, sigma=0.2),
    NoiseSpec.box(node=4, delta=0.3, t0=0.7, duration=2.0),
])
def test_nonlinear_matches_reference_rk4(noise):
    g = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4)],
                    [0.6, 0.3, 0.5, 0.4, 0.7, 0.2])
    omega = np.array([0.2, -0.1, 0.05, -0.25, 0.1])
    theta_init = np.array([0.3, -0.2, 0.1, 0.0, -0.4])
    h, T, R, seed = 0.01, 4.0, 3, 21
    traj = integrate_nonlinear(g, omega, theta_init, noise, h=h, T=T, R=R, seed=seed)
    # A box pulse is one run whatever R is.
    runs = 1 if noise.kind == "box" else R
    ref = _reference_rk4(g, omega, theta_init, noise, h, T, runs, seed)
    assert traj.theta.shape == ref.shape == (401, runs, 5)
    assert np.abs(traj.theta - ref).max() < 1e-12
    ref_freq = np.empty_like(ref)
    ref_freq[1:-1] = (ref[2:] - ref[:-2]) / (2 * h)
    ref_freq[0] = (ref[1] - ref[0]) / h
    ref_freq[-1] = (ref[-1] - ref[-2]) / h
    assert np.abs(traj.freq - ref_freq).max() < 1e-9
    assert not traj.theta.flags.writeable and not traj.freq.flags.writeable


def test_box_ensemble_is_one_run():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)], [0.5, 0.3, 0.4, 0.2])
    omega = np.array([0.1, -0.05, 0.0, -0.05])
    spec = NoiseSpec.box(node=3, delta=0.2, t0=0.5, duration=1.5)
    many = integrate_nonlinear(g, omega, np.zeros(4), spec, h=0.01, T=4.0, R=4, seed=3)
    one = integrate_nonlinear(g, omega, np.zeros(4), spec, h=0.01, T=4.0, R=1, seed=9)
    assert many.theta.shape == (401, 1, 4) and many.realizations == 1
    assert np.array_equal(many.theta, one.theta)
    assert np.array_equal(many.freq, one.freq)
    m = empirical_vulnerability(many)
    assert m.stderr == 0.0 and m.low_realizations
    assert m.value == pytest.approx(empirical_vulnerability(one).value, rel=1e-14)
    assert m.value > 0


def test_box_ensemble_estimate_differences_one_row(monkeypatch):
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)], [0.5, 0.3, 0.4, 0.2])
    omega = np.array([0.1, -0.05, 0.0, -0.05])
    spec = NoiseSpec.box(node=3, delta=0.2, t0=0.5, duration=1.5)
    many = integrate_nonlinear(g, omega, np.zeros(4), spec, h=0.01, T=4.0, R=4, seed=3)
    per_real = _blocked_spread(many, many.freq)
    rows = []
    with_freq = dynamics._with_freq

    def counting(phases, h):
        for lo, theta, freq in with_freq(phases, h):
            rows.append(freq.shape[1])
            yield lo, theta, freq

    monkeypatch.setattr(dynamics, "_with_freq", counting)
    m = empirical_vulnerability(many)
    assert rows and set(rows) == {1}
    assert m.per_realization == tuple(per_real.tolist())
    assert len(m.per_realization) == 1
    assert m.value == float(per_real.mean())
    assert m.stderr == 0.0 and m.low_realizations


def test_degenerate_horizons_rejected(monkeypatch):
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    ss = steady_state(g, np.zeros(3))
    spec = NoiseSpec.ou(node=1, tau=1.0, sigma=0.1)
    for run in (lambda **kw: integrate_nonlinear(g, np.zeros(3), np.zeros(3), **kw),
                lambda **kw: integrate_linearized(g, ss, **kw)):
        with pytest.raises(ValueError, match="no step"):
            run(noise=spec, h=0.01, T=0.004, R=2, seed=0)
        with pytest.raises(ValueError, match="at least one realization"):
            run(noise=spec, h=0.01, T=1.0, R=0, seed=0)
        for R in (2.0, True):
            with pytest.raises(ValueError,
                               match=f"realization count must be an integer, got R={R}"):
                run(noise=spec, h=0.01, T=1.0, R=R, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            run(noise=NoiseSpec.ou(node=4), h=0.01, T=1.0, R=1, seed=0)

    def no_bundle(graph):
        raise AssertionError("spectral bundle computed for a bad target")

    monkeypatch.setattr(dynamics, "spectral_bundle", no_bundle)
    with pytest.raises(ValueError, match="out of range"):
        integrate_nonlinear(g, np.zeros(3), np.zeros(3), NoiseSpec.box(node=9),
                            h=0.01, T=1.0, R=1, seed=0)


def test_empirical_rejects_onset_after_last_sample():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.box(node=1, t0=5.0)
    traj = integrate_nonlinear(g, np.zeros(3), np.zeros(3), spec, h=0.01, T=1.0,
                               R=2, seed=0)
    with pytest.raises(ValueError, match="after the last sample"):
        empirical_vulnerability(traj)


def test_empirical_blocked_sum_matches_full_formula():
    # long enough for many blocks, with the onset inside one
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [0.3, 0.2, 0.3, 0.2])
    spec = NoiseSpec.ou(node=2, tau=2.0, sigma=0.1)
    traj = integrate_nonlinear(g, np.zeros(4), np.zeros(4), spec, h=0.01, T=50.0,
                               R=3, seed=4)
    assert traj.times.size > 2 * dynamics._STEP_BLOCK
    traj = TrajectoryEnsemble(times=traj.times, theta=traj.theta, onset=7.3)
    start = int(np.searchsorted(traj.times, traj.onset - 1e-12))
    assert (start - 1) % dynamics._STEP_BLOCK  # the onset cuts a block
    f = traj.freq[start:]
    spread = f - f.mean(axis=2, keepdims=True)
    per_real = (spread * spread).sum(axis=2).mean(axis=0)
    m = empirical_vulnerability(traj)
    assert np.allclose(m.per_realization, per_real, rtol=1e-12, atol=0)
    assert m.value == pytest.approx(per_real.mean(), rel=1e-12)
    assert m.stderr == pytest.approx(per_real.std(ddof=1) / math.sqrt(3), rel=1e-9)


def _reference_csv(traj, stride):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["time", "realization", "node", "theta", "freq"])
    freq = traj.freq  # built on each access
    for t in range(0, traj.times.size, stride):
        for r in range(traj.realizations):
            for i in range(traj.theta.shape[2]):
                writer.writerow([f"{traj.times[t]:.10g}", r, i + 1,
                                 f"{traj.theta[t, r, i]:.10g}",
                                 f"{freq[t, r, i]:.10g}"])
    return buf.getvalue().encode()


@pytest.mark.parametrize("stride", [1, 3])
def test_trajectory_csv_bytes_match_csv_writer(tmp_path, stride):
    rng = np.random.default_rng(8)
    shape = (7, 2, 3)
    # The differences of these phases put -0.0 (t=1), subnormals (t=3) and
    # values of 1e5 and above (t>=4) in the freq column.
    scale = np.array([0.0, 1e-300, -0.0, -3.5, 1e-310, 2.5e3, -123456789.123])
    theta = np.abs(rng.standard_normal(shape)) * scale[:, None, None]
    traj = TrajectoryEnsemble(times=np.arange(7) * 0.0123, theta=theta, onset=0.0)
    freq = traj.freq
    assert np.any((freq == 0) & np.signbit(freq))
    assert np.any((freq != 0) & (np.abs(freq) < np.finfo(float).tiny))
    assert np.any(np.abs(freq) >= 1e5)
    path = tmp_path / "traj.csv"
    export_trajectories_csv(traj, path, stride=stride)
    assert path.read_bytes() == _reference_csv(traj, stride)
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.ou(node=1, tau=5.0, sigma=0.05)
    run = integrate_nonlinear(g, np.zeros(3), np.zeros(3), spec, h=0.1, T=1.0,
                              R=2, seed=0)
    buf = io.StringIO(newline="")
    export_trajectories_csv(run, buf, stride=stride)
    assert buf.getvalue().encode() == _reference_csv(run, stride)


@pytest.mark.parametrize("noise", [
    NoiseSpec.ou(node=2, tau=1.5, sigma=0.2),
    NoiseSpec.box(node=4, delta=0.3, t0=0.7, duration=2.0),
])
def test_nonlinear_matches_reference_rk4_across_blocks(noise):
    # several blocks of edge states mapped to phases, the last one partial
    block = dynamics._STEP_BLOCK
    steps = 3 * block + block // 3
    assert steps % block
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4)]
    omega = np.array([0.2, -0.1, 0.05, -0.25, 0.1])
    theta_init = np.array([0.3, -0.2, 0.1, 0.0, -0.4])
    h, R, seed = 4.0 / steps, 3, 21
    T = steps * h
    # The second graph gives edge (2, 4), on the cycle 2-3-4, zero weight:
    # the phase map still counts it, while its row of K is zero.
    for b in ([0.6, 0.3, 0.5, 0.4, 0.7, 0.2], [0.6, 0.3, 0.5, 0.4, 0.7, 0.0]):
        g = build_graph(5, edges, b)
        traj = integrate_nonlinear(g, omega, theta_init, noise, h=h, T=T, R=R, seed=seed)
        runs = 1 if noise.kind == "box" else R
        ref = _reference_rk4(g, omega, theta_init, noise, h, T, runs, seed)
        assert traj.theta.shape == ref.shape == (steps + 1, runs, 5)
        assert np.abs(traj.theta - ref).max() < 1e-12
        ref_freq = np.empty_like(ref)
        ref_freq[1:-1] = (ref[2:] - ref[:-2]) / (2 * h)
        ref_freq[0] = (ref[1] - ref[0]) / h
        ref_freq[-1] = (ref[-1] - ref[-2]) / h
        assert np.abs(traj.freq - ref_freq).max() < 1e-9


@pytest.mark.parametrize("noise", [
    NoiseSpec.ou(node=2, tau=1.5, sigma=0.2),
    NoiseSpec.box(node=4, delta=0.3, t0=1.37, duration=2.0),
], ids=["ou", "box"])
def test_streamed_run_matches_stored_path_bit_for_bit(noise, monkeypatch):
    # The single pass of simulate (each block of one run to the spread sum
    # and the CSV writer) against the stored ensemble of the same run, on a
    # horizon that is no multiple of the block and, for the box, with the
    # onset inside a block; 6,073 steps make simulate's CSV stride 3.
    block = dynamics._STEP_BLOCK
    g = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4)],
                    [0.6, 0.3, 0.5, 0.4, 0.7, 0.2])
    omega = np.array([0.2, -0.1, 0.05, -0.25, 0.1])
    theta_init = np.array([0.3, -0.2, 0.1, 0.0, -0.4])
    h, R, seed, stride = 0.01, 3, 21, 3
    T = (47 * block + 57) * h
    traj = integrate_nonlinear(g, omega, theta_init, noise, h=h, T=T, R=R, seed=seed)
    start = int(np.searchsorted(traj.times, traj.onset - 1e-12))
    assert (traj.times.size - 1) % block
    assert (traj.times.size - 1) // 2000 == stride
    assert noise.kind == "ornstein_uhlenbeck" or (start - 1) % block

    freq_ref, seen = traj.freq, []
    with_freq = dynamics._with_freq

    def checked(phases, h):
        for lo, theta, freq in with_freq(phases, h):
            assert np.array_equal(theta, traj.theta[lo:lo + len(theta)])
            assert np.array_equal(freq, freq_ref[lo:lo + len(freq)])
            seen.extend(range(lo, lo + len(theta)))
            yield lo, theta, freq

    monkeypatch.setattr(dynamics, "_with_freq", checked)
    streamed = io.StringIO(newline="")
    measure = dynamics.simulate(g, omega, theta_init, noise, streamed,
                                h=h, T=T, R=R, seed=seed)
    monkeypatch.undo()
    assert seen == list(range(traj.times.size))
    assert measure.per_realization == empirical_vulnerability(traj).per_realization
    stored = io.StringIO(newline="")
    export_trajectories_csv(traj, stored, stride=stride)
    assert streamed.getvalue() == stored.getvalue()
    assert stored.getvalue().encode() == _reference_csv(traj, stride)


def test_trajectory_csv_rejects_stride_below_one():
    traj = TrajectoryEnsemble(times=np.arange(3) * 0.1, theta=np.zeros((3, 1, 2)), onset=0.0)
    for stride in (0, -2, True, 2.5):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=f"stride must be a positive integer, got {stride}"):
            export_trajectories_csv(traj, buf, stride=stride)
        assert buf.getvalue() == ""


def _blocked_spread(traj, freq):
    """The estimator's per-realization sum of ``freq`` over a run's blocks:
    sample 0, then ``_STEP_BLOCK`` samples at a time, cut at the onset."""
    start = int(np.searchsorted(traj.times, traj.onset - 1e-12))
    per_real = np.zeros(traj.realizations)
    cuts = [0, *range(1, traj.times.size, dynamics._STEP_BLOCK), traj.times.size]
    for lo, hi in zip(cuts, cuts[1:]):
        if hi > start:
            f = freq[max(lo, start):hi]
            spread = f - f.mean(axis=2, keepdims=True)
            per_real += np.einsum("tri,tri->r", spread, spread)
    return per_real / (traj.times.size - start)


def test_estimator_and_csv_never_build_full_freq(monkeypatch):
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [0.3, 0.2, 0.3, 0.2])
    omega = np.array([0.05, 0.0, -0.02, -0.03])
    ou = integrate_nonlinear(g, omega, np.zeros(4), NoiseSpec.ou(node=2, tau=2.0, sigma=0.1),
                             h=0.01, T=50.0, R=3, seed=4)
    assert ou.times.size > 2 * dynamics._STEP_BLOCK
    # onset inside a block
    ou = TrajectoryEnsemble(times=ou.times, theta=ou.theta, onset=7.3)
    box = integrate_nonlinear(g, omega, np.zeros(4),
                              NoiseSpec.box(node=3, delta=0.2, t0=1.5, duration=2.0),
                              h=0.01, T=8.0, R=3, seed=0)
    assert box.realizations == 1
    expected = []
    for traj in (ou, box):
        freq, again = traj.freq, traj.freq
        assert not freq.flags.writeable and not np.shares_memory(freq, again)
        assert np.array_equal(freq, again)
        with pytest.raises(AttributeError):
            traj.freq = again
        stored = types.SimpleNamespace(times=traj.times, theta=traj.theta, freq=freq,
                                       realizations=traj.realizations)
        expected.append((_blocked_spread(traj, freq), _reference_csv(stored, 1)))

    def no_full_freq(self):
        raise AssertionError("full freq array built")

    monkeypatch.setattr(TrajectoryEnsemble, "freq", property(no_full_freq))
    for traj, (per_real, csv_bytes) in zip((ou, box), expected):
        m = empirical_vulnerability(traj)
        assert m.per_realization == tuple(per_real.tolist())
        assert m.value == float(per_real.mean())
        R = per_real.size
        assert m.stderr == (float(per_real.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0)
        buf = io.StringIO(newline="")
        export_trajectories_csv(traj, buf)
        assert buf.getvalue().encode() == csv_bytes


@pytest.mark.parametrize("times, theta, message", [
    (np.arange(3) * 0.1, np.zeros((4, 1, 2)),
     "theta has 4 samples on its first axis, times has 3"),
    (np.arange(1) * 0.1, np.zeros((1, 1, 2)), "need at least 2 samples, got 1"),
    (np.arange(3) * 0.1, np.zeros((3, 2)),
     r"theta must have 3 axes \(time, realization, node\), got shape \(3, 2\)"),
    # times[1] is the step the frequencies divide by, so times must be
    # arange(len(times)) * times[1].
    (np.array([1.0, 1.5, 2.0]), np.zeros((3, 1, 2)), r"got times\[:3\] = \[1.0, 1.5, 2.0\]"),
    (np.array([0.0, 0.5, 2.0]), np.zeros((3, 1, 2)), r"got times\[:3\] = \[0.0, 0.5, 2.0\]"),
    (np.zeros(3), np.zeros((3, 1, 2)), r"finite h > 0, got times\[:3\] = \[0.0, 0.0, 0.0\]"),
    (np.arange(3) * -0.1, np.zeros((3, 1, 2)), r"finite h > 0"),
    (np.array([0.0, np.inf, np.inf]), np.zeros((3, 1, 2)), r"finite h > 0"),
    (np.array([0.0, np.nan, 0.2]), np.zeros((3, 1, 2)), r"finite h > 0"),
    (np.arange(5) * 0.1 + [0, 0, 0, 1e-6, 0], np.zeros((5, 1, 2)), "times must be 0, h, 2h"),
], ids=["samples-mismatch", "one-sample", "not-3-axes", "first-not-zero", "non-uniform",
        "zero-step", "negative-step", "infinite-step", "nan-step", "one-sample-off"])
def test_trajectory_ensemble_rejects_mismatched_inputs(times, theta, message):
    with pytest.raises(ValueError, match=message):
        TrajectoryEnsemble(times=times, theta=theta, onset=0.0)


def test_trajectory_ensemble_accepts_times_up_to_rounding():
    # A quotient and a running sum of the step differ from arange * h only by rounding.
    for times in (np.arange(1000) / 3.0, np.r_[0.0, np.cumsum(np.full(999, 0.01))]):
        assert not np.array_equal(times, np.arange(times.size) * times[1])
        theta = np.zeros((times.size, 1, 2))
        assert TrajectoryEnsemble(times=times, theta=theta, onset=0.0).times is times


@pytest.mark.parametrize("samples", [2, 3, 5])
def test_freq_block_matches_differences_on_every_range(samples):
    # The one frequency rule gives the same bytes however a run is cut
    # into blocks, one-sample blocks at either end included.
    h = 0.1
    theta = np.random.default_rng(samples).standard_normal((samples, 2, 3))
    traj = TrajectoryEnsemble(times=np.arange(samples) * h, theta=theta, onset=0.0)
    ref = np.empty_like(theta)
    ref[1:-1] = (theta[2:] - theta[:-2]) / (2 * h)
    ref[0] = (theta[1] - theta[0]) / h
    ref[-1] = (theta[-1] - theta[-2]) / h
    assert np.array_equal(traj.freq, ref)
    for inner in itertools.product((False, True), repeat=samples - 1):
        cuts = [0, *(t for t, cut in enumerate(inner, 1) if cut), samples]
        blocks = [theta[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        out = list(dynamics._with_freq(iter(blocks), h))
        assert [lo for lo, _, _ in out] == cuts[:-1]
        for (lo, block, freq), hi in zip(out, cuts[1:]):
            assert block is blocks[cuts.index(lo)]
            assert np.array_equal(freq, ref[lo:hi])


@pytest.mark.parametrize("bad", [0.0, -0.01, math.nan, math.inf])
def test_step_and_horizon_must_be_positive_and_finite(bad):
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    ss = steady_state(g, np.zeros(3))
    spec = NoiseSpec.ou(node=1, tau=1.0, sigma=0.1)
    for message, kw in ((f"h must be positive and finite, got {bad}", {"h": bad, "T": 1.0}),
                        (f"T must be positive and finite, got {bad}", {"h": 0.01, "T": bad}),
                        ("T/h is not finite for h=1e-300 and T=10000000000.0",
                         {"h": 1e-300, "T": 1e10})):
        with pytest.raises(ValueError, match=message):
            make_noise(spec, seed=0, **kw)
        with pytest.raises(ValueError, match=message):
            integrate_nonlinear(g, np.zeros(3), np.zeros(3), spec, R=1, **kw)
        with pytest.raises(ValueError, match=message):
            integrate_linearized(g, ss, spec, R=1, **kw)


@pytest.mark.parametrize("field", ["tau", "sigma", "delta", "t0", "duration"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_noise_spec_rejects_non_finite_fields(field, value):
    for base in (NoiseSpec.ou(node=1), NoiseSpec.box(node=1)):
        with pytest.raises(ValueError, match=f"noise {field} must be finite"):
            dataclasses.replace(base, **{field: value})


def test_nonlinear_checks_node_vector_shapes():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.box(node=1)
    with pytest.raises(ValueError, match=r"omega has shape \(2,\), expected \(3,\)"):
        integrate_nonlinear(g, np.zeros(2), np.zeros(3), spec, h=0.01, T=1.0, R=1)
    with pytest.raises(ValueError, match=r"theta_init has shape \(3, 1\), expected \(3,\)"):
        integrate_nonlinear(g, np.zeros(3), np.zeros((3, 1)), spec, h=0.01, T=1.0, R=1)
    with pytest.raises(ValueError, match=r"omega has shape \(4,\), expected \(3,\)"):
        steady_state(g, np.zeros(4))
    with pytest.raises(ValueError, match="omega has non-finite entry nan at node 2"):
        integrate_nonlinear(g, [0.1, math.nan, -0.1], np.zeros(3), spec, h=0.01, T=1.0, R=1)
    with pytest.raises(ValueError, match="theta_init has non-finite entry inf at node 2"):
        integrate_nonlinear(g, np.zeros(3), [0.0, math.inf, 0.0], spec, h=0.01, T=1.0, R=1)
    with pytest.raises(ValueError, match="omega has non-finite entry nan at node 2"):
        steady_state(g, [0.1, math.nan, -0.1])
