"""Command-line surface: subcommands, outputs, exit codes."""
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resilnet.cli import main

ROOT = Path(__file__).resolve().parents[1]
CASES_DIR = ROOT / "cases"
K5 = str(CASES_DIR / "k5_toy.json")
NY57 = str(CASES_DIR / "ny57_substitute.json")


def test_measure_prints_table(capsys):
    assert main(["measure", "--case", K5]) == 0
    out = capsys.readouterr().out
    assert "worst: bus 1" in out
    assert out.count("generator") == 5


def test_measure_subset(capsys):
    assert main(["measure", "--case", K5, "--nodes", "2,4"]) == 0
    out = capsys.readouterr().out
    assert "worst: bus 2" in out
    assert main(["measure", "--case", K5, "--nodes", "2,2,1"]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()
            if "generator" in line]
    assert rows == ["1", "2"]


def test_design_single_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "design"
    code = main(["design", "--case", K5, "--mode", "single",
                 "--nodes", "1,2", "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["scenario"] == "single"
    assert report["best_node"] == 1
    assert (out_dir / "weights.csv").exists()
    stdout = capsys.readouterr().out
    assert "objective" in stdout
    assert "uncertified" not in stdout
    assert set(report["solves"]) == {"1", "2"}
    for solve in report["solves"].values():
        assert solve["method"] == "exact-flow"
        assert solve["newton_steps"] == 0 and solve["converged"]
        assert abs(solve["gap"]) <= 1e-12 and solve["floor_slack"] > 0


def test_design_minmax(tmp_path):
    out_dir = tmp_path / "minmax"
    code = main(["design", "--case", K5, "--mode", "minmax",
                 "--nodes", "generators", "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["scenario"] == "minmax"
    weights = np.array(report["b_out"]["minmax"])
    assert weights.sum() == pytest.approx(1.0, abs=1e-6)
    solve = report["solves"]["minmax"]
    assert solve["method"] == "barrier" and solve["converged"]
    assert 0 <= solve["gap"] <= 1e-6 * report["objective_after"]
    assert solve["lower_bound"] == pytest.approx(
        report["objective_after"] - solve["gap"], rel=1e-12)


def test_design_prints_unconverged_buses(tmp_path, capsys, monkeypatch):
    from resilnet import optimize
    monkeypatch.setattr(optimize, "MAX_ITERS", 1)
    code = main(["design", "--case", K5, "--mode", "minmax",
                 "--nodes", "1,2", "--out", str(tmp_path)])
    assert code == 0
    assert "uncertified design for buses [1, 2]" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert not report["solves"]["minmax"]["converged"]


def test_design_infeasible_epsilon_exit_2(tmp_path, capsys):
    code = main(["design", "--case", K5, "--mode", "minmax",
                 "--nodes", "generators", "--epsilon", "0.8",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_design_infeasible_reports_physical_floor(tmp_path, capsys):
    # The floor and lambda_2 are printed in the case's units (total
    # susceptance 1032.5), not at unit budget. The largest lambda_2 on
    # ny57 is about 5.13: above the 4.98 that a supergradient heuristic
    # reached, and certified from above.
    code = main(["design", "--case", NY57, "--mode", "minmax",
                 "--nodes", "4,6", "--epsilon", "100", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "epsilon=100 " in err
    attained = float(re.search(r"attained lambda_2 = (\S+)", err).group(1))
    upper = float(re.search(r"certified upper bound (\S+)\)", err).group(1))
    assert 4.98 <= attained <= upper <= attained * (1 + 1e-5)


def test_input_errors_exit_3(tmp_path, capsys):
    assert main(["measure", "--case", str(tmp_path / "nope.json")]) == 3
    assert main(["measure", "--case", K5, "--nodes", "1,99"]) == 3
    assert "input error: unknown bus id 99" in capsys.readouterr().err
    assert main(["design", "--case", K5, "--mode", "bogus",
                 "--nodes", "1"]) == 3
    err = capsys.readouterr().err
    assert "input error" in err
    # a section that is not a JSON array is an input error, not a traceback
    bad = tmp_path / "bad.json"
    bad.write_text('{"buses": 5, "branches": []}')
    assert main(["measure", "--case", str(bad)]) == 3
    assert "input error: buses must be a JSON array" in capsys.readouterr().err


FLOOR_COMMANDS = (["design", "--mode", "single"], ["design", "--mode", "minmax"],
                  ["export-sdp"])


@pytest.mark.parametrize("epsilon", ["2000", "-1", "nan"])
def test_physical_floor_out_of_range_exit_3(tmp_path, capsys, epsilon):
    # The message names the floor as given and ny57's total susceptance
    # (1032.55), not their ratio at unit budget.
    for command in FLOOR_COMMANDS:
        code = main([*command, "--case", NY57, "--nodes", "generators",
                     "--epsilon", epsilon, "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"got {float(epsilon)}" in err
        assert "1032.55" in err and "total susceptance" in err


@pytest.mark.parametrize("command", FLOOR_COMMANDS, ids=["single", "minmax", "export-sdp"])
def test_derived_floor_out_of_range_exit_3(command, tmp_path, capsys):
    # Buses 1 and 3 of k5_toy at +50 and -50 derive a physical floor of
    # 100 sin(pi/16) = 19.5, above the total susceptance of 1.
    case = json.loads(Path(K5).read_text())
    case["buses"][0]["power_pu"], case["buses"][2]["power_pu"] = 50.0, -50.0
    case["buses"][2]["kind"] = "load"
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(case))
    out = tmp_path / "out"
    assert main([*command, "--case", str(path), "--nodes", "generators",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "spectral floor 19.509, derived at gamma 0.19635, must lie below 1" in err
    assert "total susceptance of k5_toy" in err and "--gamma" in err and "--epsilon" in err
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["0", "1.6", "nan"])
def test_gamma_out_of_range_exit_3_with_epsilon(tmp_path, capsys, gamma):
    # An explicit floor does not use gamma, but gamma is still range-checked.
    for command in FLOOR_COMMANDS:
        code = main([*command, "--case", NY57, "--nodes", "generators",
                     "--gamma", gamma, "--epsilon", "1.0",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "gamma must lie in (0, pi/2)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", FLOOR_COMMANDS, ids=["single", "minmax", "export-sdp"])
def test_request_validates_one_network(command, tmp_path, monkeypatch, capsys):
    # The case's branch network is built once; the floor and the design
    # problem are posed on that graph, not on a rebuilt copy.
    import resilnet.graphs as graphs
    import resilnet.gridcase as gridcase
    import resilnet.optimize as optimize
    build_graph, calls = graphs.build_graph, []
    for module in (graphs, gridcase, optimize):
        monkeypatch.setattr(module, "build_graph",
                            lambda *args: calls.append(args) or build_graph(*args),
                            raising=False)
    assert main([*command, "--case", NY57, "--nodes", "generators",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_export_sdp(tmp_path):
    out = tmp_path / "k5.dat-s"
    code = main(["export-sdp", "--case", K5, "--nodes", "1,2",
                 "--out", str(out)])
    assert code == 0
    body = out.read_text()
    lines = [ln for ln in body.splitlines() if not ln.startswith("*")]
    # d = 2*6 + 10 + 5 = 27 across blocks 6,6,-10,5
    assert lines[2].split() == ["6", "6", "-10", "5"]


def test_export_sdp_makes_its_directory(tmp_path):
    out = tmp_path / "new" / "p.sdpa"
    assert main(["export-sdp", "--case", K5, "--nodes", "all", "--out", str(out)]) == 0
    assert out.read_text().startswith("*")


def test_measure_exact_at_large_susceptance(tmp_path, capsys):
    # Every K5 bus measures 1.6 at unit susceptance, so 1.6e-09 at x1e9.
    from resilnet.gridcase import Branch, GridCase, load_case, write_case
    k5 = load_case(K5)
    big = GridCase(k5.name, k5.buses, tuple(
        Branch(br.from_bus, br.to_bus, br.susceptance_pu * 1e9) for br in k5.branches))
    write_case(big, tmp_path / "k5e9.json")
    assert main(["measure", "--case", str(tmp_path / "k5e9.json")]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines() if "generator" in ln]
    assert [r[2] for r in rows] == ["1.6e-09"] * 5


def test_simulate_writes_trajectories(tmp_path, capsys, monkeypatch):
    import resilnet.cli as cli
    monkeypatch.setattr(cli, "DEFAULT_T", 20.0)
    monkeypatch.setattr(cli, "DEFAULT_R", 8)
    out_dir = tmp_path / "sim"
    weights = tmp_path / "w.csv"
    rows = ["edge,b0,b_star"] + [f"e{i},0.1,0.1" for i in range(10)]
    weights.write_text("\n".join(rows) + "\n")
    code = main(["simulate", "--case", K5, "--weights", str(weights),
                 "--noise", "box", "--node", "1", "--seed", "3",
                 "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "empirical vulnerability" in out
    header = (out_dir / "trajectories.csv").read_text().splitlines()[0]
    assert header == "time,realization,node,theta,freq"


@pytest.mark.parametrize("noise, realizations", [("box", 1), ("ou", 8)])
def test_simulate_realization_count(tmp_path, capsys, monkeypatch,
                                    noise, realizations):
    # The box pulse is deterministic, so one realization says it all.
    import resilnet.cli as cli
    monkeypatch.setattr(cli, "DEFAULT_T", 20.0)
    monkeypatch.setattr(cli, "DEFAULT_R", 8)
    weights = tmp_path / "w.csv"
    weights.write_text("edge,b_star\n" + "e,0.1\n" * 10)
    code = main(["simulate", "--case", K5, "--weights", str(weights),
                 "--noise", noise, "--node", "1", "--out", str(tmp_path)])
    assert code == 0
    assert f"R={realizations})" in capsys.readouterr().out


def _k5_ou_run(tmp_path, monkeypatch, out):
    import resilnet.cli as cli
    monkeypatch.setattr(cli, "DEFAULT_T", 20.0)
    monkeypatch.setattr(cli, "DEFAULT_R", 8)
    weights = tmp_path / "w.csv"
    weights.write_text("edge,b_star\n" + "e,0.1\n" * 10)
    assert main(["simulate", "--case", K5, "--weights", str(weights), "--noise", "ou",
                 "--node", "1", "--seed", "5", "--out", str(out)]) == 0
    return (out / "trajectories.csv").read_text().splitlines()


def test_simulate_single_pass_matches_stored_run(tmp_path, capsys, monkeypatch):
    # One streamed run of all 8 realizations (2,000 steps, no multiple of the
    # block) gives the stored ensemble's estimate and CSV, bit for bit.
    import resilnet.cli as cli
    from resilnet import dynamics, load_case
    measures = []

    def recording(*args, **kwargs):
        measures.append(dynamics.simulate(*args, **kwargs))
        return measures[-1]

    monkeypatch.setattr(cli, "simulate", recording)
    lines = _k5_ou_run(tmp_path, monkeypatch, tmp_path / "sim")
    assert "(ornstein_uhlenbeck, R=8)" in capsys.readouterr().out
    case = load_case(K5)
    graph, omega = case.graph(np.full(10, 0.1)), case.omega()
    spec = dynamics.NoiseSpec.ou(case.node_of(1), sigma=dynamics.default_ou_sigma(omega))
    traj = dynamics.integrate_nonlinear(graph, omega, dynamics.steady_state(graph, omega).theta0,
                                        spec, h=0.01, T=20.0, R=8, seed=5)
    assert (traj.times.size - 1) % dynamics._STEP_BLOCK
    assert measures[0].per_realization == dynamics.empirical_vulnerability(traj).per_realization
    buf = io.StringIO(newline="")
    dynamics.export_trajectories_csv(traj, buf, stride=1)
    assert lines == buf.getvalue().splitlines()


def test_simulate_csv_holds_the_capped_realizations(tmp_path, capsys, monkeypatch):
    # The cap limits the CSV to the first realizations; the estimate still
    # uses all of them.
    import resilnet.dynamics as dynamics
    full = _k5_ou_run(tmp_path, monkeypatch, tmp_path / "full")
    assert {row.split(",")[1] for row in full[1:]} == {str(r) for r in range(8)}
    estimate = capsys.readouterr().out.splitlines()[-2]
    # A realization is 5 nodes x 2,001 samples; one value short of 3 of them
    # leaves room for 2.
    monkeypatch.setattr(dynamics, "CSV_VALUES", 3 * 5 * 2001 - 1)
    capped = _k5_ou_run(tmp_path, monkeypatch, tmp_path / "capped")
    assert capsys.readouterr().out.splitlines()[-2] == estimate
    assert "R=8)" in estimate
    assert capped == full[:1] + [row for row in full[1:] if int(row.split(",")[1]) < 2]


def test_simulate_step_rule_matches_benchmark_copy(tmp_path, monkeypatch):
    # perfbench/workloads.step_size copies dynamics.stable_step's stiffness
    # rule, which cmd_simulate takes its step from.
    import importlib

    import resilnet.cli as cli
    from resilnet import load_case
    from resilnet.dynamics import DEFAULT_H, stable_step

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    step_size = importlib.import_module("workloads").step_size
    seen = []

    class Stop(Exception):
        pass

    def stop(graph, omega, theta_init, spec, csv, h, T, R, seed):
        seen.append((graph, h))
        raise Stop

    monkeypatch.setattr(cli, "simulate", stop)
    for path in (K5, NY57):
        weights = tmp_path / "w.csv"
        weights.write_text("edge,b_star\n" + "".join(
            f"e,{b!r}\n" for b in load_case(path).graph().b.tolist()))
        with pytest.raises(Stop):
            main(["simulate", "--case", path, "--weights", str(weights),
                  "--noise", "box", "--node", "1", "--out", str(tmp_path)])
    (k5, h_k5), (ny57, h_ny57) = seen
    assert h_k5 == DEFAULT_H == stable_step(k5)[0] == step_size(k5)
    assert h_ny57 < DEFAULT_H and h_ny57 == stable_step(ny57)[0] == step_size(ny57)


@pytest.mark.parametrize("noise", ["ou", "box"])
def test_simulate_negative_seed_exit_3(tmp_path, capsys, monkeypatch, noise):
    import resilnet.cli as cli
    monkeypatch.setattr(cli, "DEFAULT_T", 2.0)
    weights = tmp_path / "w.csv"
    weights.write_text("edge,b_star\n" + "e,0.1\n" * 10)
    code = main(["simulate", "--case", K5, "--weights", str(weights),
                 "--noise", noise, "--node", "1", "--seed", "-1",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert ("input error: seed must be a non-negative integer, got seed=-1"
            in capsys.readouterr().err)
    # a rejected run writes nothing, not even its output directory
    assert not (tmp_path / "out").exists()


def test_simulate_bad_weights_exit_3(tmp_path, capsys):
    weights = tmp_path / "w.csv"
    weights.write_text("edge,b_star\n1-2,0.5\n")
    code = main(["simulate", "--case", K5, "--weights", str(weights),
                 "--noise", "ou", "--node", "1"])
    assert code == 3
    assert "10 branches" in capsys.readouterr().err


def test_simulate_unknown_bus_exit_3(tmp_path, capsys):
    weights = tmp_path / "w.csv"
    weights.write_text("edge,b_star\n" + "e,0.1\n" * 10)
    code = main(["simulate", "--case", K5, "--weights", str(weights),
                 "--noise", "box", "--node", "999", "--out", str(tmp_path)])
    assert code == 3
    assert "input error: unknown bus id 999" in capsys.readouterr().err


def test_runtime_path_imports_no_scipy(tmp_path):
    # scipy is a test-only dependency. The suite's conftest imports it, so
    # the commands run in a fresh interpreter.
    script = f"""
import sys
from resilnet import cli
from resilnet.cli import main
K5, OUT = {K5!r}, {str(tmp_path)!r}
assert main(["measure", "--case", K5]) == 0
assert main(["design", "--case", K5, "--mode", "single", "--nodes", "1,2",
             "--out", OUT + "/single"]) == 0
assert main(["design", "--case", K5, "--mode", "minmax", "--nodes", "generators",
             "--out", OUT + "/minmax"]) == 0
assert main(["export-sdp", "--case", K5, "--nodes", "1,2",
             "--out", OUT + "/k5.dat-s"]) == 0
cli.DEFAULT_T = 20.0  # the box pulse starts at t = 10
assert main(["simulate", "--case", K5, "--weights", OUT + "/minmax/weights.csv",
             "--noise", "box", "--node", "1", "--out", OUT + "/sim"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    report = json.loads((tmp_path / "minmax" / "report.json").read_text())
    assert report["solves"]["minmax"]["converged"]
