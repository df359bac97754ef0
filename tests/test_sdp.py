"""Standard-form SDP assembly, encode/decode, and SDPA export."""
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from resilnet import (
    DesignProblem,
    assemble_sdp,
    build_graph,
    complete_graph_edges,
    complete_graph_optimum,
    decode_point,
    encode_point,
    load_case,
    vulnerability_measure,
    write_sdpa,
)
from resilnet.optimize import DEFAULT_GAMMA
from resilnet.scenarios import unit_budget_problem
from resilnet.sdp import format_sdpa

CASES_DIR = Path(__file__).resolve().parents[1] / "cases"

TOPOLOGIES = {
    "triangle": (3, [(1, 2), (2, 3), (1, 3)]),
    "k5": (5, complete_graph_edges(5)),
    "two_squares": (6, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (5, 6), (3, 6)]),
}


def _random_feasible(rng, n, edges, eps):
    while True:
        raw = rng.uniform(0.05, 1.0, size=len(edges))
        b = raw / raw.sum()
        g = build_graph(n, edges, b)
        from resilnet import algebraic_connectivity
        if algebraic_connectivity(g) > eps:
            return b, g


def test_dimension_formula():
    prob = DesignProblem(3, [(1, 2), (2, 3), (1, 3)], v_prime=[1], epsilon=1e-3)
    assert assemble_sdp(prob).dimension == 1 * 4 + 3 + 3
    prob = DesignProblem(5, complete_graph_edges(5), v_prime=[1, 3], epsilon=1e-3)
    assert assemble_sdp(prob).dimension == 2 * 6 + 10 + 5
    n, edges = TOPOLOGIES["two_squares"]
    prob = DesignProblem(n, edges, v_prime=[2, 4, 6], epsilon=1e-3)
    assert assemble_sdp(prob).dimension == 3 * 7 + 7 + 6


def test_objective_and_budget_selectors():
    prob = DesignProblem(3, [(1, 2), (2, 3), (1, 3)], v_prime=[2], epsilon=1e-3)
    sdp = assemble_sdp(prob)
    W = sdp.to_dense(sdp.objective)
    assert W.sum() == 1.0 and W[3, 3] == 1.0
    A = sdp.to_dense(sdp.budget_matrix)
    # indicator of the scalar weight blocks
    expected = np.zeros(sdp.dimension)
    expected[4:7] = 1.0
    assert np.array_equal(np.diag(A), expected)
    assert np.array_equal(A, np.diag(np.diag(A)))


def test_encode_satisfies_all_constraints():
    rng = np.random.default_rng(40)
    for name, (n, edges) in TOPOLOGIES.items():
        prob = DesignProblem(n, edges, v_prime=[1, min(3, n)], epsilon=1e-3)
        sdp = assemble_sdp(prob)
        b, g = _random_feasible(rng, n, edges, prob.epsilon)
        t = max(vulnerability_measure(g, k) for k in prob.v_prime) + 1.0 / n
        Z = encode_point(sdp, b, t)
        assert np.trace(sdp.to_dense(sdp.budget_matrix) @ Z) == pytest.approx(1.0, abs=1e-12)
        assert np.trace(sdp.to_dense(sdp.objective) @ Z) == pytest.approx(t, abs=1e-12)
        for mat, rhs in sdp.constraints:
            assert np.trace(sdp.to_dense(mat) @ Z) == pytest.approx(rhs, abs=1e-10)
        assert np.linalg.eigvalsh(Z).min() >= -1e-9


def test_round_trip_identity():
    rng = np.random.default_rng(41)
    for name, (n, edges) in TOPOLOGIES.items():
        prob = DesignProblem(n, edges, v_prime=[1], epsilon=1e-3)
        sdp = assemble_sdp(prob)
        for _ in range(20):
            b, g = _random_feasible(rng, n, edges, prob.epsilon)
            t = vulnerability_measure(g, 1) + 1.0 / n + float(rng.uniform(0, 0.5))
            b2, t2 = decode_point(sdp, encode_point(sdp, b, t))
            assert np.abs(b2 - b).max() < 1e-9
            assert abs(t2 - t) < 1e-9


def test_decoded_point_is_feasible_with_slack_bound():
    # the PSD border block forces t >= e_k (L + 11^T/n)^{-1} e_k
    rng = np.random.default_rng(42)
    n, edges = TOPOLOGIES["triangle"]
    prob = DesignProblem(n, edges, v_prime=[2], epsilon=1e-3)
    sdp = assemble_sdp(prob)
    b, g = _random_feasible(rng, n, edges, prob.epsilon)
    f = vulnerability_measure(g, 2) + 1.0 / n
    Z_tight = encode_point(sdp, b, f)
    assert np.linalg.eigvalsh(Z_tight).min() >= -1e-9
    Z_bad = encode_point(sdp, b, f - 1e-3)
    assert np.linalg.eigvalsh(Z_bad).min() < -1e-7
    b2, t2 = decode_point(sdp, Z_tight)
    g2 = build_graph(n, edges, b2)
    assert t2 >= vulnerability_measure(g2, 2) + 1.0 / n - 1e-9
    assert b2.min() >= 0 and abs(b2.sum() - 1.0) < 1e-9


def test_thm3_optimum_round_trip():
    prob = DesignProblem(5, complete_graph_edges(5), v_prime=[1], epsilon=1e-4)
    sdp = assemble_sdp(prob)
    b = complete_graph_optimum(5, 1)
    Z = encode_point(sdp, b, 0.64 + 0.2)
    assert np.linalg.eigvalsh(Z).min() >= -1e-12
    b2, t2 = decode_point(sdp, Z)
    assert np.abs(b2 - b).max() == 0.0
    assert t2 == pytest.approx(0.84, abs=1e-12)


# (n, edges, targets, floor): one, two and three targets.
SDPA_PROBLEMS = [
    (3, [(1, 2), (2, 3), (1, 3)], [1], 1e-3),
    (5, complete_graph_edges(5), [1, 3], 0.05),
    (*TOPOLOGIES["two_squares"], [2, 4, 6], 0.02),
]


def _reference_sdpa_lines(sdp):
    """Every non-comment SDPA line, formatted one constraint entry at a time."""
    layout = sdp.layout()
    matrices = [sdp.objective, sdp.budget_matrix,
                *(mat for mat, _ in sdp.constraints)]
    return [
        f"{1 + len(sdp.constraints)}",
        f"{len(layout)}",
        " ".join(str(size) for _, size in layout),
        " ".join(["1"] + [f"{rhs:.17g}" for _, rhs in sdp.constraints]),
        *(f"{matno} {blk + 1} {i} {j} {v:.17g}"
          for matno, mat in enumerate(matrices) for blk, i, j, v in mat),
    ]


def test_sdpa_text_round_trips_matrices():
    for n, edges, v_prime, eps in SDPA_PROBLEMS:
        _check_sdpa_round_trip(n, edges, v_prime, eps)


def _check_sdpa_round_trip(n, edges, v_prime, eps):
    prob = DesignProblem(n, edges, v_prime=v_prime, epsilon=eps)
    sdp = assemble_sdp(prob)
    text = format_sdpa(sdp)
    lines = [ln for ln in text.splitlines() if not ln.startswith("*")]
    ncon = int(lines[0])
    nblocks = int(lines[1])
    dims = [int(x) for x in lines[2].split()]
    rhs = [float(x) for x in lines[3].split()]
    assert ncon == 1 + len(sdp.constraints) == 1 + sdp.coupling_count
    assert nblocks == len(sdp.layout())
    assert dims == [n + 1] * len(v_prime) + [-len(edges), n]
    assert len(rhs) == ncon
    assert rhs[0] == 1.0
    # byte-equal to formatting sdp.constraints one entry at a time
    comments = [ln for ln in text.splitlines() if ln.startswith("*")]
    assert text == "\n".join(comments + _reference_sdpa_lines(sdp)) + "\n"
    # rebuild every matrix from the entry lines and compare densely
    mats = {i: np.zeros((sdp.dimension, sdp.dimension)) for i in range(ncon + 1)}
    offsets = sdp.block_offsets()
    for ln in lines[4:]:
        matno, blk, i, j, v = ln.split()
        matno, blk, i, j = int(matno), int(blk) - 1, int(i), int(j)
        v = float(v)
        r, c = offsets[blk] + i - 1, offsets[blk] + j - 1
        mats[matno][r, c] += v
        if r != c:
            mats[matno][c, r] += v
    assert np.array_equal(mats[0], sdp.to_dense(sdp.objective))
    assert np.array_equal(mats[1], sdp.to_dense(sdp.budget_matrix))
    for idx, (mat, rhs_val) in enumerate(sdp.constraints, start=2):
        assert np.array_equal(mats[idx], sdp.to_dense(mat))
        assert rhs[idx - 1] == rhs_val
    # E's diagonal ties carry the floor, and every S_k after the first has
    # one shared-slack tie to S_1
    l, tri = len(v_prime), n * (n + 1) // 2
    e_diag = [rhs_val for mat, rhs_val in sdp.constraints[-tri:]
              if mat[0][1] == mat[0][2]]
    assert e_diag == [1.0 / n - eps] * n
    slack = [mat for mat, _ in sdp.constraints
             if mat[0][1:3] == (n + 1, n + 1)]
    assert slack == [((k, n + 1, n + 1, 1.0), (0, n + 1, n + 1, -1.0))
                     for k in range(1, l)]


def test_write_sdpa_to_file(tmp_path):
    prob = DesignProblem(3, [(1, 2), (2, 3)], v_prime=[1], epsilon=1e-3)
    sdp = assemble_sdp(prob)
    path = tmp_path / "problem.dat-s"
    write_sdpa(sdp, str(path))
    assert path.read_text() == format_sdpa(sdp)
    buf = io.StringIO()
    write_sdpa(sdp, buf)
    assert buf.getvalue() == format_sdpa(sdp)


def test_seventeen_digit_values_round_trip():
    prob = DesignProblem(3, [(1, 2), (2, 3)], v_prime=[1], epsilon=1e-3)
    sdp = assemble_sdp(prob)
    text = format_sdpa(sdp)
    for ln in text.splitlines():
        if ln.startswith("*") or len(ln.split()) != 5:
            continue
        value = ln.split()[4]
        assert float(value) == float(f"{float(value):.17g}")


@pytest.mark.parametrize("buses, size, sha256", [
    ((4, 6, 15), 269_949,
     "90ed1790068655ec2342a9b21e83e46f0a17e88492ab009e74a14928d7f4bc2e"),
    (None, 2_122_039,  # all generators
     "587d6639a3923c420d30376ff561bf6e2f181814814df0afda8cf46fa9f50ac9"),
])
def test_ny57_export_bytes_are_pinned(buses, size, sha256):
    # The floor is derived as `resilnet export-sdp` derives it.
    case = load_case(CASES_DIR / "ny57_substitute.json")
    buses = buses or case.generator_ids
    problem, _ = unit_budget_problem(case, buses, DEFAULT_GAMMA, None)
    text = format_sdpa(assemble_sdp(problem)).encode()
    assert len(text) == size
    assert hashlib.sha256(text).hexdigest() == sha256
