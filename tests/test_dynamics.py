"""Steady states, integrators, noise processes, empirical estimator."""
import io
import math

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
from resilnet.dynamics import (
    NoSynchronizedStateError,
    _noise_matrix,
    default_ou_sigma,
    export_trajectories_csv,
)

from conftest import reference_laplacian


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="tau"):
        NoiseSpec.ou(node=1, tau=0.0)
    with pytest.raises(ValueError, match="duration"):
        NoiseSpec.box(node=1, duration=0.0)
    with pytest.raises(ValueError, match="kind"):
        NoiseSpec(kind="spikes", node=1)
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


def test_noise_matrix_rows_use_seed_offsets():
    spec = NoiseSpec.ou(node=1, tau=1.0, sigma=0.2)
    M = _noise_matrix(spec, 0.01, 2.0, 4, seed=99)
    for r in range(4):
        assert np.array_equal(M[r], make_noise(spec, 0.01, 2.0, 99 + r))


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
    assert np.abs(traj.theta - traj.theta[:, :, :1]).max() < 1e-8


def test_stability_guard():
    g = build_graph(2, [(1, 2)], [100.0])
    spec = NoiseSpec.box(node=1)
    with pytest.raises(ValueError, match="use h <"):
        integrate_nonlinear(g, [0, 0], [0, 0], spec, h=0.01, T=1.0, R=1, seed=0)


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
    manual = (traj.theta[:, :, 2:] - traj.theta[:, :, :-2]) / 0.02
    assert np.array_equal(traj.freq[:, :, 1:-1], manual)


def test_linearized_zero_noise_is_identically_steady():
    g = build_graph(3, [(1, 2), (2, 3)], [0.6, 0.4])
    omega = np.array([0.1, 0.0, -0.1])
    ss = steady_state(g, omega, tol=1e-13)
    spec = NoiseSpec.box(node=1, delta=0.0, t0=0.0, duration=1.0)
    traj = integrate_linearized(g, ss, spec, h=0.01, T=5.0, R=1, seed=0)
    assert np.abs(traj.theta - ss.theta0[None, :, None]).max() < 1e-14


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
        assert np.abs(traj.theta[0, :, t + 1] - gauged).max() < 1e-8


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
        assert np.abs(traj.theta[0, :, idx] - analytic).max() < 1e-8


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


def test_empirical_zero_noise_is_zero():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.box(node=1, delta=0.0, t0=1.0, duration=1.0)
    traj = integrate_nonlinear(g, np.zeros(3), np.zeros(3), spec, h=0.01, T=5.0,
                               R=3, seed=0)
    m = empirical_vulnerability(traj)
    assert m.value < 1e-20
    assert not m.low_realizations


def test_empirical_single_realization_flagged():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    spec = NoiseSpec.ou(node=1, tau=5.0, sigma=0.05)
    traj = integrate_nonlinear(g, np.zeros(3), np.zeros(3), spec, h=0.01, T=2.0,
                               R=1, seed=0)
    m = empirical_vulnerability(traj)
    assert m.low_realizations and m.stderr == 0.0


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
