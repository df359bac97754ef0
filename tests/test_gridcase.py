"""Case file parsing, validation, and serialization."""
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from resilnet import (
    GraphConstructionError,
    algebraic_connectivity,
    build_graph,
    load_case,
    write_case,
)
from resilnet.graphs import laplacian
from resilnet.gridcase import (
    Bus,
    Branch,
    CaseError,
    GridCase,
    case_to_dict,
    parse_bus_branch_text,
    parse_case_json,
)

ROOT = Path(__file__).resolve().parents[1]
CASES_DIR = ROOT / "cases"

MINIMAL = """
{
  "name": "two_bus",
  "buses": [
    {"id": 1, "kind": "generator", "power_pu": 0.5},
    {"id": 2, "kind": "load", "power_pu": -0.5}
  ],
  "branches": [
    {"from": 1, "to": 2, "reactance_pu": 0.1}
  ]
}
"""


def test_minimal_case_reciprocal_susceptance():
    case = parse_case_json(MINIMAL)
    assert case.n == 2
    assert case.branches[0].susceptance_pu == pytest.approx(10.0)
    assert case.total_susceptance == pytest.approx(10.0)
    assert np.allclose(case.omega(), [0.5, -0.5])
    g = case.graph()
    assert g.m == 1 and g.b[0] == pytest.approx(10.0)


def test_mean_centering_shift_recorded():
    case = parse_case_json(json.dumps({
        "name": "imbalanced",
        "buses": [
            {"id": 1, "kind": "generator", "power_pu": 0.52},
            {"id": 2, "kind": "load", "power_pu": -0.5},
        ],
        "branches": [{"from": 1, "to": 2, "susceptance_pu": 5.0}],
    }))
    assert case.injection_shift == pytest.approx(-0.01)
    assert case.omega().sum() == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(case.omega(), [0.51, -0.51])


def test_both_reactance_and_susceptance_rejected():
    raw = json.loads(MINIMAL)
    raw["branches"][0]["susceptance_pu"] = 10.0
    with pytest.raises(CaseError, match="exactly one"):
        parse_case_json(json.dumps(raw))
    del raw["branches"][0]["susceptance_pu"]
    del raw["branches"][0]["reactance_pu"]
    with pytest.raises(CaseError, match="exactly one"):
        parse_case_json(json.dumps(raw))


def test_schema_violations():
    raw = json.loads(MINIMAL)
    raw["buses"][0]["power_pu"] = -0.1
    with pytest.raises(CaseError, match="bus 1.*negative"):
        parse_case_json(json.dumps(raw))
    raw = json.loads(MINIMAL)
    raw["buses"][1]["power_pu"] = 0.1
    with pytest.raises(CaseError, match="bus 2.*positive"):
        parse_case_json(json.dumps(raw))
    raw = json.loads(MINIMAL)
    raw["buses"][1]["id"] = 1
    with pytest.raises(CaseError, match="duplicate bus id 1"):
        parse_case_json(json.dumps(raw))
    raw = json.loads(MINIMAL)
    raw["branches"][0]["to"] = 9
    with pytest.raises(CaseError, match="unknown endpoint"):
        parse_case_json(json.dumps(raw))
    with pytest.raises(CaseError, match="invalid JSON"):
        parse_case_json("{nope")
    with pytest.raises(CaseError, match="invalid JSON"):
        parse_case_json('{"buses": [' + "1" * 5000 + "]}")
    # sections that are not arrays of objects
    for section, value, match in (
        ("buses", 5, "buses must be a JSON array, got 5"),
        ("branches", {"a": 1}, "branches must be a JSON array"),
        ("branches", [5], r"branches\[0\]: must be a JSON object, got 5"),
        ("buses", ["x"], r"buses\[0\]: must be a JSON object, got 'x'"),
    ):
        raw = json.loads(MINIMAL)
        raw[section] = value
        with pytest.raises(CaseError, match=match):
            parse_case_json(json.dumps(raw))
    # non-finite numbers, and ids that int() would truncate or coerce
    for section, key, value, match in (
        ("buses", "power_pu", float("nan"), "bus 1: power_pu must be finite"),
        ("buses", "power_pu", float("inf"), "bus 1: power_pu must be finite"),
        ("branches", "susceptance_pu", float("nan"), "branch 1-2: .*finite"),
        ("branches", "reactance_pu", float("nan"), "branch 1-2: .*finite"),
        ("buses", "id", 1.7, r"buses\[0\]: id must be an integer"),
        ("buses", "id", True, r"buses\[0\]: id must be an integer"),
        ("branches", "from", 1.2, r"branches\[0\]: id must be an integer"),
        ("branches", "to", 2.9, r"branches\[0\]: id must be an integer"),
        # numbers that float() would coerce from booleans and strings
        ("buses", "power_pu", True, r"buses\[0\]: power_pu must be a number, got True"),
        ("buses", "power_pu", "0.5", r"buses\[0\]: power_pu must be a number, got '0.5'"),
        ("branches", "susceptance_pu", "2",
         r"branches\[0\]: susceptance_pu must be a number, got '2'"),
        ("branches", "susceptance_pu", True,
         r"branches\[0\]: susceptance_pu must be a number, got True"),
        ("branches", "reactance_pu", True,
         r"branches\[0\]: reactance_pu must be a number, got True"),
        ("branches", "reactance_pu", "0.1",
         r"branches\[0\]: reactance_pu must be a number, got '0.1'"),
        ("buses", "power_pu", 10 ** 400, "bus 1: power_pu must be finite, got inf"),
        ("branches", "susceptance_pu", -10 ** 400, "branch 1-2: .*got -inf"),
    ):
        raw = json.loads(MINIMAL)
        if key == "susceptance_pu":
            del raw[section][0]["reactance_pu"]
        raw[section][0][key] = value
        with pytest.raises(CaseError, match=match):
            parse_case_json(json.dumps(raw))


def test_duplicate_branch_rejected():
    with pytest.raises(CaseError, match="duplicate branch"):
        GridCase(
            name="dup",
            buses=(Bus(1, "generator", 0.0), Bus(2, "load", 0.0)),
            branches=(Branch(1, 2, 1.0), Branch(2, 1, 2.0)),
        )


def test_round_trip_json(tmp_path):
    case = parse_case_json(MINIMAL)
    out = tmp_path / "normalized.json"
    write_case(case, out)
    again = load_case(out)
    assert again == case
    assert case_to_dict(again) == case_to_dict(case)


def test_text_layout_converter():
    text = """
    # small system
    BUS
    1 2 0.5     # generator
    2 0 -0.3
    3 1 -0.2
    BRANCH
    1 2 0.2
    2 3 0.5
    END
    """
    case = parse_bus_branch_text(text, name="tiny")
    assert case.name == "tiny"
    assert [b.kind for b in case.buses] == ["generator", "load", "load"]
    assert case.branches[0].susceptance_pu == pytest.approx(5.0)
    assert case.branches[1].susceptance_pu == pytest.approx(2.0)


def test_text_layout_errors():
    with pytest.raises(CaseError, match="line 2"):
        parse_bus_branch_text("BUS\n1 9 0.5\n")
    with pytest.raises(CaseError, match="before a BUS/BRANCH"):
        parse_bus_branch_text("1 2 0.5\n")


def test_load_case_sniffs_format(tmp_path):
    as_json = tmp_path / "case.json"
    as_json.write_text(MINIMAL)
    as_text = tmp_path / "case.txt"
    as_text.write_text("BUS\n1 2 0.5\n2 0 -0.5\nBRANCH\n1 2 0.1\n")
    assert load_case(as_json).branches[0].susceptance_pu == pytest.approx(10.0)
    assert load_case(as_text).branches[0].susceptance_pu == pytest.approx(10.0)
    with pytest.raises(CaseError, match="cannot read"):
        load_case(tmp_path / "missing.json")


def test_substitute_case_shape_and_round_trip(tmp_path):
    case = load_case(CASES_DIR / "ny57_substitute.json")
    assert case.n == 57
    assert len(case.branches) == 94
    kinds = [b.kind for b in case.buses]
    assert kinds.count("generator") == 29
    assert kinds.count("load") == 28
    # round-trips to an identical normalized form
    out = tmp_path / "again.json"
    write_case(case, out)
    assert load_case(out) == case
    assert algebraic_connectivity(case.graph()) > 1e-9


def test_substitute_case_regenerates_from_its_tool(tmp_path, monkeypatch, capsys):
    # Imported by module name from tools/, as the benchmark's case
    # generator imports it.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    tool = importlib.import_module("make_substitute_case")
    case = tool.make_case()
    tool.validate(case)
    assert "eps (physical)" in capsys.readouterr().out
    write_case(case, tmp_path / "ny57.json")
    shipped = CASES_DIR / "ny57_substitute.json"
    assert (tmp_path / "ny57.json").read_bytes() == shipped.read_bytes()


def test_node_bus_mapping_with_gapped_ids():
    case = parse_case_json(json.dumps({
        "name": "gaps",
        "buses": [
            {"id": 10, "kind": "generator", "power_pu": 0.5},
            {"id": 3, "kind": "load", "power_pu": -0.5},
        ],
        "branches": [{"from": 10, "to": 3, "susceptance_pu": 1.0}],
    }))
    # buses sort by id: node 1 is bus 3, node 2 is bus 10
    assert case.node_of(3) == 1 and case.node_of(10) == 2
    assert case.bus_of(1) == 3 and case.bus_of(2) == 10
    assert case.edge_pairs() == ((2, 1),)
    # numpy integers are bus ids; floats, bools and strings are not
    assert case.node_of(np.int64(10)) == 2 and case.node_of(np.int32(3)) == 1
    for bad in (3.0, True, "3", np.float64(10.0)):
        with pytest.raises(CaseError, match=re.escape(f"bus id must be an integer, got {bad!r}")):
            case.node_of(bad)
    with pytest.raises(CaseError, match="unknown bus id 4"):
        case.node_of(4)


def test_graph_shares_one_topology(monkeypatch):
    import resilnet.gridcase as gridcase
    case = load_case(CASES_DIR / "ny57_substitute.json")
    calls = []
    monkeypatch.setattr(gridcase, "build_graph",
                        lambda *args: calls.append(args) or build_graph(*args))
    rng = np.random.default_rng(0)
    b = rng.uniform(0.5, 2.0, len(case.branches))
    g0, g1, g2 = case.graph(), case.graph(b), case.graph()
    assert len(calls) == 1
    assert g1.ei is g0.ei and g1.ej is g0.ej and g2.ei is g0.ei
    for g, w in ((g0, case.susceptances()), (g1, b)):
        ref = build_graph(case.n, case.edge_pairs(), w)
        assert g.edges == ref.edges
        assert np.array_equal(laplacian(g), laplacian(ref))
    m = len(case.branches)
    for w in (np.ones(m - 1), np.r_[-1.0, np.ones(m - 1)], np.r_[np.ones(m - 1), np.nan]):
        with pytest.raises(GraphConstructionError) as got:
            case.graph(w)
        with pytest.raises(GraphConstructionError) as want:
            build_graph(case.n, case.edge_pairs(), w)
        assert str(got.value) == str(want.value)
