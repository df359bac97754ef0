"""Graph core: construction, spectra, resistance, random walks."""
import numpy as np
import pytest

from resilnet import (
    DisconnectedGraphError,
    GraphConstructionError,
    SingularLaplacianError,
    algebraic_connectivity,
    build_graph,
    commute_time,
    complete_graph_edges,
    effective_resistance,
    is_connected,
    resistance_matrix,
    spectral_bundle,
    transition_matrix,
)
from resilnet.designs import complete_graph_optimum
from resilnet.graphs import laplacian

from conftest import (
    pinv_resistance,
    random_connected_graph,
    random_tree,
    reference_laplacian,
    traversal_connected,
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


def test_length_mismatch_rejected():
    with pytest.raises(GraphConstructionError, match="length"):
        build_graph(3, [(1, 2), (2, 3)], [0.5])


def test_weights_are_immutable():
    g = build_graph(2, [(1, 2)], [1.0])
    with pytest.raises(ValueError):
        g.b[0] = 2.0


def test_bundle_single_edge():
    g = build_graph(2, [(1, 2)], [1.0])
    sb = spectral_bundle(g)
    assert np.allclose(sb.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(sb.eigenvalues, [0.0, 2.0])
    assert abs(sb.pseudoinverse[0, 0] - 0.25) < 1e-12


def test_bundle_complete_graph_spectrum():
    g = build_graph(5, complete_graph_edges(5), [0.1] * 10)
    sb = spectral_bundle(g)
    assert abs(sb.eigenvalues[0]) < 1e-12
    assert np.allclose(sb.eigenvalues[1:], 0.5, atol=1e-12)


def test_bundle_pseudoinverse_identities():
    rng = np.random.default_rng(1)
    for _ in range(25):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        sb = spectral_bundle(g)
        L, lp = sb.laplacian, sb.pseudoinverse
        assert np.abs(lp @ np.ones(g.n)).max() < 1e-10
        assert np.abs(lp @ L @ lp - lp).max() < 1e-9
        assert np.abs(L @ lp @ L - L).max() < 1e-9
        # rows of L sum to zero, off-diagonals nonpositive
        assert np.abs(L.sum(axis=1)).max() < 1e-12
        off = L - np.diag(np.diag(L))
        assert off.max() <= 1e-15
        # eigenvalue 0 carries the constant vector
        assert abs(sb.eigenvalues[0]) < 1e-9 * sb.eigenvalues[-1]
        v1 = sb.eigenvectors[:, 0]
        assert np.abs(np.abs(v1) - 1.0 / np.sqrt(g.n)).max() < 1e-8


def test_bundle_matches_eigen_path():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_connected_graph(rng, 7)
        sb = spectral_bundle(g)
        lam, vecs = sb.eigenvalues, sb.eigenvectors
        inv_lam = np.where(lam > 1e-9 * lam[-1], 1.0 / np.where(lam > 0, lam, 1.0), 0.0)
        lp_eig = (vecs * inv_lam) @ vecs.T
        assert np.abs(lp_eig - sb.pseudoinverse).max() < 1e-9


def test_bundle_disconnected_raises():
    g = build_graph(4, [(1, 2), (3, 4)], [1.0, 1.0])
    with pytest.raises(SingularLaplacianError):
        spectral_bundle(g)


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


def test_is_connected_examples():
    g = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    assert is_connected(g, tol=1e-9)
    g0 = build_graph(3, [(1, 2), (2, 3)], [1.0, 0.0])
    assert not is_connected(g0, tol=1e-9)
    star = build_graph(5, complete_graph_edges(5), complete_graph_optimum(5, 1))
    assert is_connected(star, tol=1e-9)


def test_is_connected_matches_traversal_on_random_graphs():
    rng = np.random.default_rng(3)
    tol = 1e-9
    agreements = 0
    for _ in range(1000):
        g = random_connected_graph(rng, int(rng.integers(3, 10)))
        b = np.array(g.b)
        kill = rng.random(g.m) < 0.35
        b[kill] = 0.0
        g = g.with_weights(b)
        assert is_connected(g, tol) == traversal_connected(g, tol)
        agreements += 1
    assert agreements == 1000


def test_resistance_single_edge_and_series():
    g = build_graph(2, [(1, 2)], [1.0])
    assert abs(effective_resistance(g, 1, 2) - 1.0) < 1e-12
    p3 = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    assert abs(effective_resistance(p3, 1, 3) - 4.0) < 1e-12


def test_resistance_triangle_parallel():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)], [1 / 3] * 3)
    # direct 3 ohms in parallel with series 3+3: 3*6/9 = 2
    assert abs(effective_resistance(g, 1, 2) - 2.0) < 1e-12
    assert abs(effective_resistance(g, 1, 2) - pinv_resistance(g, 1, 2)) < 1e-10


def test_resistance_symmetry_and_disconnected():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 6)
    assert effective_resistance(g, 2, 5) == pytest.approx(
        effective_resistance(g, 5, 2), abs=1e-12)
    disc = build_graph(4, [(1, 2), (3, 4)], [1.0, 1.0])
    with pytest.raises(DisconnectedGraphError):
        effective_resistance(disc, 1, 3)


def test_resistance_triangle_inequality_property():
    rng = np.random.default_rng(5)
    for _ in range(60):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        omega = resistance_matrix(g)
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
        assert abs(effective_resistance(t, 1, n) - expected) < 1e-10


def test_resistance_scaling_law():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 7)
    base = effective_resistance(g, 1, 5)
    for c in (0.5, 2.0, 10.0):
        scaled = g.with_weights(np.array(g.b) * c)
        assert abs(effective_resistance(scaled, 1, 5) - base / c) < 1e-10


def test_commute_time_examples():
    p3 = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    assert abs(commute_time(p3, 1, 3) - 8.0) < 1e-12
    g = build_graph(2, [(1, 2)], [1.0])
    assert abs(commute_time(g, 1, 2) - 2.0) < 1e-12


def test_commute_time_unit_budget_is_twice_resistance():
    rng = np.random.default_rng(8)
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(3, 9)), unit_budget=True)
        i, j = 1, g.n
        assert abs(commute_time(g, i, j) - 2.0 * effective_resistance(g, i, j)) < 1e-10
        assert commute_time(g, i, j) == pytest.approx(commute_time(g, j, i), abs=1e-12)


def test_transition_matrix_examples():
    g = build_graph(2, [(1, 2)], [1.0])
    assert np.allclose(transition_matrix(g), [[0, 1], [1, 0]])
    p3 = build_graph(3, [(1, 2), (2, 3)], [0.5, 0.5])
    P = transition_matrix(p3)
    assert np.allclose(P[1], [0.5, 0.0, 0.5])
    star = build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)], [0.25] * 4)
    P = transition_matrix(star)
    for leaf in range(1, 5):
        assert P[leaf, 0] == 1.0


def test_transition_matrix_rows_and_support():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 8)
    P = transition_matrix(g)
    assert np.allclose(P.sum(axis=1), 1.0)
    B = np.zeros((g.n, g.n))
    for (i, j), w in zip(g.edges, g.b):
        B[i, j] = B[j, i] = w
    assert np.array_equal(P > 0, B > 0)


def test_transition_matrix_isolated_node():
    g = build_graph(3, [(1, 2), (2, 3)], [1.0, 0.0])
    with pytest.raises(ValueError, match="zero weighted degree"):
        transition_matrix(g)
