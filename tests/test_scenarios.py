"""Scenario workflows and report emission."""
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from resilnet import load_case, scenario_one, scenario_two, vulnerability_measure
from resilnet.gridcase import Bus, Branch, CaseError, GridCase
from resilnet.scenarios import ScenarioReport, emit_report, unit_budget_problem
from resilnet.optimize import solve_single_node
from resilnet import build_graph, worst_case

CASES_DIR = Path(__file__).resolve().parents[1] / "cases"


def _k5_case():
    return load_case(CASES_DIR / "k5_toy.json")


def _p3_case():
    return GridCase(
        name="p3_toy",
        buses=(Bus(1, "generator", 0.0), Bus(2, "load", 0.0),
               Bus(3, "generator", 0.0)),
        branches=(Branch(1, 2, 0.5), Branch(2, 3, 0.5)),
    )


def test_scenarios_check_bus_ids_with_the_case():
    ny57 = load_case(CASES_DIR / "ny57_substitute.json")
    k5 = _k5_case()
    for run, case, ids, bad in ((scenario_two, ny57, [True, 3], "True"),
                                (scenario_two, k5, [2.6, 3], "2.6"),
                                (scenario_one, k5, ["1"], "'1'")):
        with pytest.raises(CaseError, match=f"bus id must be an integer, got {bad}"):
            run(case, ids)
    report = scenario_two(k5, [np.int64(3), 2, np.int32(3)])
    assert [o.node for o in report.per_node] == [2, 3]
    assert all(type(o.node) is int for o in report.per_node)
    assert scenario_one(k5, [np.int64(4)]).best_node == 4


def test_scenario_one_k5_toy():
    case = _k5_case()
    report = scenario_one(case, list(case.generator_ids))
    assert report.scenario == "single"
    assert report.best_node == 1  # every node equal; tie-break smallest id
    for o in report.per_node:
        assert o.feasible
        assert o.before == pytest.approx(1.6, abs=1e-9)
        assert o.after == pytest.approx(0.64, abs=1e-4)
        assert not o.increased
    assert report.objective_after <= report.objective_before + 1e-9
    assert report.sync_check.warning is None


def test_scenario_one_requires_generator_candidates():
    case = _p3_case()
    with pytest.raises(ValueError, match="generator"):
        scenario_one(case, [2])


def test_scenario_one_single_candidate_matches_single_solve():
    case = _k5_case()
    report = scenario_one(case, [3])
    prob, eps_phys = unit_budget_problem(case, [3], report.gamma, None)
    assert eps_phys == report.epsilon
    res = solve_single_node(prob, case.node_of(3))
    scale = case.total_susceptance
    (outcome,) = report.per_node
    assert outcome.node == 3
    assert outcome.after == pytest.approx(res.objective / scale, abs=1e-8)
    assert report.b_out["3"] == pytest.approx(res.b_star * scale, abs=1e-8)
    # A one-bus min-max is the same design: ny57 bus 3's flow design meets its floor.
    ny57 = load_case(CASES_DIR / "ny57_substitute.json")
    one, two = scenario_one(ny57, [3]), scenario_two(ny57, [3])
    assert two.solves["minmax"].method == one.solves["3"].method == "exact-flow"
    assert two.b_out["minmax"] == one.b_out["3"]
    assert two.per_node[0].after == one.per_node[0].after


def test_scenario_two_p3_toy():
    case = _p3_case()
    report = scenario_two(case, [1, 3])
    assert report.scenario == "minmax"
    weights = np.array(report.b_out["minmax"])
    assert np.abs(weights - 0.5).max() < 1e-3
    outcomes = {o.node: o for o in report.per_node}
    assert outcomes[1].after == pytest.approx(outcomes[3].after, abs=1e-4)
    assert report.objective_after <= report.objective_before + 1e-9


def test_scenario_two_symmetric_case_no_improvement_is_valid():
    case = _k5_case()
    report = scenario_two(case, list(case.generator_ids))
    # uniform weights are already optimal for the full node set
    assert report.objective_after == pytest.approx(report.objective_before,
                                                   abs=1e-4)
    assert report.objective_after <= report.objective_before + 1e-9


def test_scenario_two_beats_random_audit_vectors():
    case = _p3_case()
    report = scenario_two(case, [1, 3])
    rng = np.random.default_rng(60)
    nodes = [case.node_of(c) for c in (1, 3)]
    for _ in range(100):
        raw = rng.uniform(0.05, 1.0, size=2)
        b = raw / raw.sum() * case.total_susceptance
        g = build_graph(case.n, case.edge_pairs(), b)
        _, audit_obj = worst_case(g, nodes)
        assert report.objective_after <= audit_obj + 1e-6


def _unreachable_floor_report():
    # K5's largest lambda_2 is half the total susceptance, 0.5 here.
    return scenario_one(_k5_case(), [1, 2], epsilon=0.6)


def test_every_floor_unreachable_reports_case_weights(tmp_path):
    report = _unreachable_floor_report()
    assert [(o.feasible, o.after, o.increased) for o in report.per_node] == [
        (False, None, False), (False, None, False)]
    assert report.best_node is None
    assert report.b_out == {} and report.solves == {}
    assert report.objective_after == report.objective_before
    assert report.sum_after == report.sum_before
    assert "below spectral floor 0.6" in report.sync_check.warning
    paths = emit_report(report, tmp_path)
    rows = paths["weights.csv"].read_text().strip().splitlines()[1:]
    assert tuple(float(row.split(",")[2]) for row in rows) == report.b0


def test_report_json_round_trip(tmp_path):
    for tag, report in (("minmax", scenario_two(_p3_case(), [1, 3])),
                        ("unreachable", _unreachable_floor_report())):
        paths = emit_report(report, tmp_path / tag)
        loaded = json.loads(paths["report.json"].read_text())
        assert ScenarioReport.from_dict(loaded) == report


def test_to_dict_serializes_like_asdict():
    ny57 = load_case(CASES_DIR / "ny57_substitute.json")
    reports = [scenario_one(ny57, ny57.generator_ids[::6]),
               scenario_two(_p3_case(), [1, 3])]
    for report in reports:
        assert (json.dumps(report.to_dict(), indent=2)
                == json.dumps(asdict(report), indent=2))


def _csv_body(path):
    header, *rows = path.read_text().strip().splitlines()
    return header, [row.split(",") for row in rows]


def test_emit_report_file_set(tmp_path):
    ny57 = load_case(CASES_DIR / "ny57_substitute.json")
    reports = {"k5": scenario_one(_k5_case(), [1, 2]),
               "ny57": scenario_one(ny57, ny57.generator_ids[::6]),
               "p3": scenario_two(_p3_case(), [1, 3])}
    assert len(reports["ny57"].per_node) == 5
    for tag, report in reports.items():
        paths = emit_report(report, tmp_path / tag)
        assert set(paths) == {"report.json", "measures.csv", "weights.csv",
                              "figdata_bars.csv", "figdata_network_before.csv",
                              "figdata_network_after.csv"}
        header, measures = _csv_body(paths["measures.csv"])
        assert header == "node,before,after"
        assert [(int(n), float(b), float(a)) for n, b, a in measures] == [
            (o.node, o.before, o.after) for o in report.per_node]
        assert _csv_body(paths["figdata_bars.csv"]) == (
            "node,measure_before,measure_after", measures)

        design = (report.b_out["minmax"] if report.scenario == "minmax"
                  else report.b_out[str(report.best_node)])
        edges = [f"{i}-{j}" for i, j in report.edges]
        header, weights = _csv_body(paths["weights.csv"])
        assert header == "edge,b0,b_star"
        assert [e for e, _, _ in weights] == edges
        assert tuple(float(w) for _, w, _ in weights) == report.b0
        assert tuple(float(w) for _, _, w in weights) == design
        assert sum(design) == pytest.approx(report.budget, rel=1e-12)
        for name, expected in (("before", report.b0), ("after", design)):
            header, network = _csv_body(paths[f"figdata_network_{name}.csv"])
            assert header == "from,to,weight"
            assert [f"{i}-{j}" for i, j, _ in network] == edges
            assert tuple(float(w) for _, _, w in network) == expected


def test_emit_report_handles_equal_columns(tmp_path):
    case = _k5_case()
    report = scenario_two(case, list(case.generator_ids))
    paths = emit_report(report, tmp_path)
    rows = paths["measures.csv"].read_text().strip().splitlines()[1:]
    for row in rows:
        _, before, after = row.split(",")
        assert abs(float(before) - float(after)) < 1e-3


def test_scenario_one_independent_of_candidate_order():
    case = _k5_case()
    report = scenario_one(case, [2, 1])
    assert report.best_node == 1
    assert scenario_one(case, [1, 2]).per_node == report.per_node


def test_sync_check_warns_when_angle_gap_exceeds_gamma():
    # weak lines against a wide injection spread: the spectral floor is
    # met, yet the steady state violates the small-angle premise, so the
    # report must carry an explicit warning rather than fail
    case = GridCase(
        name="strained",
        buses=(Bus(1, "generator", 0.45), Bus(2, "generator", 0.45),
               Bus(3, "load", -0.30), Bus(4, "load", -0.30),
               Bus(5, "load", -0.30)),
        branches=tuple(Branch(i, j, 0.1)
                       for i in range(1, 6) for j in range(i + 1, 6)),
    )
    report = scenario_two(case, [1, 2])
    assert report.sync_check.warning is not None
    assert (report.sync_check.angle_gap is None
            or report.sync_check.angle_gap > report.gamma)


def test_scenario_one_monotone_on_substitute_case():
    case = load_case(CASES_DIR / "ny57_substitute.json")
    candidates = list(case.generator_ids)[:3]
    report = scenario_one(case, candidates)
    g0 = case.graph()
    for o in report.per_node:
        assert o.feasible
        assert o.before == pytest.approx(
            vulnerability_measure(g0, case.node_of(o.node)), abs=1e-9)
        assert o.after <= o.before + 1e-9


def test_solve_diagnostics_and_unconverged_buses(monkeypatch):
    from resilnet import optimize
    case = _k5_case()
    # At unit budget the star design's lambda_2 is 0.25, below this floor,
    # so each candidate goes to the barrier method.
    floor = 0.3 * case.total_susceptance
    report = scenario_one(case, [1, 2], epsilon=floor)
    for key, d in report.solves.items():
        assert d.method == "barrier" and d.converged and d.newton_steps > 0
        assert d.floor_slack >= 0.0
        after = next(o.after for o in report.per_node if str(o.node) == key)
        assert d.lower_bound == pytest.approx(after - d.gap, rel=1e-12)
    assert report.unconverged() == []
    monkeypatch.setattr(optimize, "MAX_ITERS", 1)
    report = scenario_one(case, [1, 2], epsilon=floor)
    assert report.unconverged() == [1, 2]
