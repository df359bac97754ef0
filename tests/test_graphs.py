"""Graph core: construction, spectra, resistance."""
import numpy as np
import pytest

from resilnet import (
    DesignProblem,
    DisconnectedGraphError,
    GraphConstructionError,
    NoiseSpec,
    SingularLaplacianError,
    algebraic_connectivity,
    build_graph,
    commute_decomposition,
    complete_graph_edges,
    complete_graph_optimum,
    integrate_linearized,
    integrate_nonlinear,
    optimality_certificate,
    resistance_matrix,
    solve_single_node,
    spectral_bundle,
    steady_state,
    tree_optimum,
    vulnerability_gradient,
    vulnerability_measure,
)
from resilnet.designs import shortest_path_flow
from resilnet.gridcase import Branch, Bus, GridCase
from resilnet.graphs import laplacian

from conftest import (
    pinv_resistance,
    random_connected_graph,
    random_tree,
    reference_laplacian,
)


def test_build_smallest_graph():
    g = build_graph(2, [(1, 2)], [1.0])
    assert g.n == 2 and g.m == 1
    assert g.edge_pairs == ((1, 2),)


def test_build_path_p3():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    assert g.edges == ((0, 1), (1, 2))


def test_build_normalizes_pair_order_but_keeps_edge_order():
    g = build_graph(3, [(3, 2), (2, 1)], [0.1, 0.2])
    assert g.edge_pairs == ((2, 3), (1, 2))
    assert g.b[0] == 0.1


def test_duplicate_edge_rejected():
    with pytest.raises(GraphConstructionError, match="edge 2"):
        build_graph(3, [(1, 2), (1, 2)], [0.5, 0.5])
    with pytest.raises(GraphConstructionError, match="duplicate"):
        build_graph(3, [(1, 2), (2, 1)], [0.5, 0.5])


def test_self_loop_rejected():
    with pytest.raises(GraphConstructionError, match="self-loop"):
        build_graph(3, [(1, 1), (2, 3)], [0.5, 0.5])


def test_negative_weight_rejected():
    with pytest.raises(GraphConstructionError, match="edge index 2"):
        build_graph(3, [(1, 2), (2, 3)], [0.5, -0.5])


def test_with_weights_validates_like_build_graph():
    g = build_graph(3, [(1, 2), (2, 3)], [1.0, 1.0])
    for bad in ([np.nan, 1.0], [1.0, np.inf], [1.0, -np.inf]):
        with pytest.raises(GraphConstructionError) as exc:
            build_graph(3, [(1, 2), (2, 3)], bad)
        with pytest.raises(GraphConstructionError, match="non-finite") as exc_ww:
            g.with_weights(bad)
        assert str(exc_ww.value) == str(exc.value)
    with pytest.raises(GraphConstructionError, match="negative weight at edge index 1"):
        g.with_weights([-0.5, -1.0])
    with pytest.raises(GraphConstructionError, match="length"):
        g.with_weights([1.0])


def test_with_weights_shares_index_arrays():
    g = build_graph(4, [(2, 1), (3, 4), (1, 3)], [1.0, 2.0, 3.0])
    h = g.with_weights([0.5, 0.0, 0.25])
    assert h.ei is g.ei and h.ej is g.ej
    assert g.ei.tolist() == [0, 2, 0] and g.ej.tolist() == [1, 3, 2]
    assert g.b.tolist() == [1.0, 2.0, 3.0] and h.b.tolist() == [0.5, 0.0, 0.25]
    with pytest.raises(ValueError):
        g.ei[0] = 1


def test_laplacian_matches_reference_loop():
    rng = np.random.default_rng(404)
    for _ in range(200):
        g = random_connected_graph(rng, int(rng.integers(2, 16)))
        b = rng.uniform(0.0, 2.0, size=g.m)
        b[rng.random(g.m) < 0.3] = 0.0
        g0 = g.with_weights(np.where(rng.random(g.m) < 0.3, 0.0, g.b))
        assert np.abs(laplacian(g0) - reference_laplacian(g0)).max() <= 1e-14
        expected = reference_laplacian(g.with_weights(b))
        assert np.abs(laplacian(g, b) - expected).max() <= 1e-14


def test_non_integer_nodes_rejected():
    with pytest.raises(GraphConstructionError, match=r"edge 1: endpoints \(1, 2\.5\)"):
        build_graph(3, [(1, 2.5), (2, 3)], [0.5, 0.5])
    with pytest.raises(GraphConstructionError, match="edge 2: endpoints"):
        build_graph(3, [(1, 2), (2.0, 3)], [0.5, 0.5])
    with pytest.raises(GraphConstructionError, match="edge 1: endpoints"):
        build_graph(3, [(True, 2)], [0.5])
    for bad in (0, 4):
        with pytest.raises(GraphConstructionError,
                           match=rf"edge 2: endpoint out of range in \(2, {bad}\) with n=3"):
            build_graph(3, [(1, 2), (2, bad)], [0.5, 0.5])
        with pytest.raises(GraphConstructionError, match="edge 1: endpoint out of range"):
            build_graph(3, [(bad, 1)], [0.5])
    for n in (3.0, True, np.float64(3.0)):
        with pytest.raises(GraphConstructionError, match="node count must be an integer"):
            build_graph(n, [(1, 2), (2, 3)], [0.5, 0.5])
    g = build_graph(np.int64(3), [(np.int32(1), np.int64(2)), (2, np.uint8(3))], [0.5, 0.5])
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))
    assert all(type(v) is int for v in (g.n, *g.edges[0], *g.edges[1]))


def test_length_mismatch_rejected():
    with pytest.raises(GraphConstructionError, match="length"):
        build_graph(3, [(1, 2), (2, 3)], [0.5])


def test_weights_are_immutable():
    g = build_graph(2, [(1, 2)], [1.0])
    with pytest.raises(ValueError):
        g.b[0] = 2.0


def _bundle_pinv(g):
    """L^+ as the bundle gives it."""
    return spectral_bundle(g).pinv


def test_bundle_single_edge():
    g = build_graph(2, [(1, 2)], [1.0])
    sb = spectral_bundle(g)
    assert np.allclose(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(sb.eigenvalues, [0.0, 2.0])
    assert abs(_bundle_pinv(g)[0, 0] - 0.25) < 1e-12


def test_bundle_complete_graph_spectrum():
    g = build_graph(5, complete_graph_edges(5), [0.1] * 10)
    sb = spectral_bundle(g)
    assert abs(sb.eigenvalues[0]) < 1e-12
    assert np.allclose(sb.eigenvalues[1:], 0.5, atol=1e-12)


def test_bundle_has_only_inverse_and_spectrum():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    sb = spectral_bundle(g)
    assert set(vars(sb)) == {"pinv", "eigenvalues"}
    for a in (sb.pinv, sb.eigenvalues):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_bundle_pseudoinverse_identities():
    rng = np.random.default_rng(1)
    for _ in range(25):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        sb = spectral_bundle(g)
        L, lp = laplacian(g), _bundle_pinv(g)
        assert np.abs(lp @ np.ones(g.n)).max() < 1e-10
        assert np.abs(lp @ L @ lp - lp).max() < 1e-9
        assert np.abs(L @ lp @ L - L).max() < 1e-9
        # rows of L sum to zero, off-diagonals nonpositive
        assert np.abs(L.sum(axis=1)).max() < 1e-12
        off = L - np.diag(np.diag(L))
        assert off.max() <= 1e-15
        # eigenvalue 0 carries the constant vector
        lam, vecs = np.linalg.eigh(L)
        assert abs(sb.eigenvalues[0]) < 1e-9 * sb.eigenvalues[-1]
        assert abs(lam[0]) < 1e-9 * lam[-1]
        v1 = vecs[:, 0]
        assert np.abs(np.abs(v1) - 1.0 / np.sqrt(g.n)).max() < 1e-8


def test_bundle_matches_eigen_path():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_connected_graph(rng, 7)
        lam, vecs = np.linalg.eigh(laplacian(g))
        assert np.abs(spectral_bundle(g).eigenvalues - lam).max() < 1e-12 * lam[-1]
        inv_lam = np.where(lam > 1e-9 * lam[-1], 1.0 / np.where(lam > 0, lam, 1.0), 0.0)
        lp_eig = (vecs * inv_lam) @ vecs.T
        assert np.abs(lp_eig - _bundle_pinv(g)).max() < 1e-9


def test_bundle_disconnected_raises():
    g = build_graph(4, [(1, 2), (3, 4)], [1.0, 1.0])
    with pytest.raises(SingularLaplacianError, match="numerically singular"):
        spectral_bundle(g)


def test_bundle_singular_error_is_connectivity_at_any_scale():
    # P3 at weight 1e9 is well conditioned: its end nodes measure 5/(9w).
    g = build_graph(3, [(1, 2), (2, 3)], [1e9, 1e9])
    lp = spectral_bundle(g).pinv
    assert lp[0, 0] == pytest.approx(5.0 / 9e9, rel=1e-12)
    assert lp[1, 1] == pytest.approx(2.0 / 9e9, rel=1e-12)
    # lambda_2 below CONNECTIVITY_RTOL * lambda_n: numerically disconnected.
    weak = build_graph(3, [(1, 2), (2, 3)], [1.0, 1e-12])
    with pytest.raises(SingularLaplacianError) as exc:
        spectral_bundle(weak)
    msg = str(exc.value)
    assert "Laplacian is numerically singular: lambda_2 = " in msg
    assert "at most 1e-09 * lambda_n = 2.000e+00" in msg
    assert "disconnected, or nearly so" in msg
    with pytest.raises(SingularLaplacianError, match="lambda_n = 0.000e"):
        spectral_bundle(g.with_weights([0.0, 0.0]))


def test_bundle_is_cached():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    assert spectral_bundle(g) is spectral_bundle(g)


def test_algebraic_connectivity_examples():
    g5 = build_graph(5, complete_graph_edges(5), [0.1] * 10)
    assert abs(algebraic_connectivity(g5) - 0.5) < 1e-12
    g3 = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    assert abs(algebraic_connectivity(g3) - 0.5) < 1e-12
    g4 = build_graph(4, [(1, 2), (3, 4)], [1.0, 1.0])
    assert algebraic_connectivity(g4) < 1e-12


def test_resistance_single_edge_and_series():
    g = build_graph(2, [(1, 2)], [1.0])
    assert abs(resistance_matrix(g)[0, 1] - 1.0) < 1e-12
    p3 = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    assert abs(resistance_matrix(p3)[0, 2] - 4.0) < 1e-12


def test_resistance_triangle_parallel():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)], [1 / 3] * 3)
    # direct 3 ohms in parallel with series 3+3: 3*6/9 = 2
    assert abs(resistance_matrix(g)[0, 1] - 2.0) < 1e-12
    assert abs(resistance_matrix(g)[0, 1] - pinv_resistance(g, 1, 2)) < 1e-10


def test_resistance_symmetry_and_disconnected():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 6)
    omega = resistance_matrix(g)
    assert omega[1, 4] == pytest.approx(omega[4, 1], abs=1e-12)
    disc = build_graph(4, [(1, 2), (3, 4)], [1.0, 1.0])
    with pytest.raises(DisconnectedGraphError):
        resistance_matrix(disc)


def test_resistance_triangle_inequality_property():
    rng = np.random.default_rng(5)
    for _ in range(60):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        omega = resistance_matrix(g)
        lp = np.linalg.pinv(laplacian(g))
        d = np.diag(lp)
        assert np.abs(omega - (d[:, None] + d[None, :] - 2.0 * lp)).max() < 1e-10
        assert np.all(np.diag(omega) == 0.0)
        for i in range(g.n):
            for j in range(g.n):
                for k in range(g.n):
                    assert omega[i, k] <= omega[i, j] + omega[j, k] + 1e-9


def test_tree_resistance_is_reciprocal_path_sum():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        t = random_tree(rng, n)
        b = rng.uniform(0.3, 2.0, size=t.m)
        t = t.with_weights(b)
        # path from 1 to n by walking the unique tree path
        parent = {0: None}
        order = [0]
        adj = [[] for _ in range(n)]
        for (i, j), w in zip(t.edges, t.b):
            adj[i].append((j, w))
            adj[j].append((i, w))
        stack = [0]
        while stack:
            v = stack.pop()
            for u, w in adj[v]:
                if u not in parent:
                    parent[u] = (v, w)
                    stack.append(u)
        expected = 0.0
        v = n - 1
        while parent[v] is not None:
            v_prev, w = parent[v]
            expected += 1.0 / w
            v = v_prev
        assert abs(resistance_matrix(t)[0, n - 1] - expected) < 1e-10


def test_resistance_scaling_law():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 7)
    base = resistance_matrix(g)[0, 4]
    for c in (0.5, 2.0, 10.0):
        scaled = g.with_weights(np.array(g.b) * c)
        assert abs(resistance_matrix(scaled)[0, 4] - base / c) < 1e-10


# Every public function that takes one node, on the path 1-2-3-4 (a tree, so
# tree_optimum applies), reduced to an array so int and np.int64 runs compare.
_P4 = build_graph(4, [(1, 2), (2, 3), (3, 4)], [0.5, 1.0, 0.5])
_OMEGA = np.array([0.2, -0.1, 0.1, -0.2])
_RUN = dict(h=0.01, T=0.05, R=1, seed=0)
_CASE = GridCase("p4", tuple(Bus(10 * i, "load", 0.0) for i in range(1, 5)),
                 tuple(Branch(10 * i, 10 * i + 10, 1.0) for i in range(1, 4)))
NODE_TAKERS = {
    "vulnerability_measure": lambda k: vulnerability_measure(_P4, k),
    "vulnerability_gradient": lambda k: vulnerability_gradient(_P4, k),
    "commute_decomposition": lambda k: commute_decomposition(_P4, k),
    "shortest_path_flow": lambda k: shortest_path_flow(_P4, k),
    "tree_optimum": lambda k: tree_optimum(_P4, k),
    "complete_graph_optimum": lambda k: complete_graph_optimum(4, k),
    "optimality_certificate": lambda k: optimality_certificate(_P4, k).residuals,
    "solve_single_node": lambda k: solve_single_node(
        DesignProblem(_P4, v_prime=[1]), k).b_star,
    "integrate_nonlinear": lambda k: integrate_nonlinear(
        _P4, _OMEGA, np.zeros(4), NoiseSpec.ou(node=k), **_RUN).theta,
    "integrate_linearized": lambda k: integrate_linearized(
        _P4, steady_state(_P4, _OMEGA), NoiseSpec.ou(node=k), **_RUN).theta,
    "GridCase.bus_of": lambda k: _CASE.bus_of(k),
}


@pytest.mark.parametrize("call", NODE_TAKERS.values(), ids=NODE_TAKERS.keys())
@pytest.mark.parametrize("bad", [2.0, True, 0, 5], ids=["float", "bool", "zero", "n+1"])
def test_every_node_argument_follows_one_rule(call, bad):
    # NoiseSpec words its own rejection of non-integer and non-positive
    # targets; the integrators reject n + 1 through the shared check.
    match = "out of range 1..4" if bad == 5 else "node"
    with pytest.raises(ValueError, match=match):
        call(bad)
    np.testing.assert_array_equal(np.asarray(call(np.int64(2))), np.asarray(call(2)))
