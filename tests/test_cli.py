import ast
from pathlib import Path

import numpy as np
import pytest
import yaml

from dnmpc import certify, coordination
from dnmpc.cli import ScenarioError, cmd_certify, load_scenario, main
from dnmpc.coordination import AgentTrace, TrajectoryLog

SCENARIO = Path(__file__).resolve().parents[1] / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"


def _variant(tmp_path, **overrides):
    raw = yaml.safe_load(SCENARIO.read_text())
    raw.update(overrides)
    path = tmp_path / "variant.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_bundled_scenario_loads_with_expected_structure():
    sc = load_scenario(SCENARIO)
    assert len(sc.agents) == 3
    assert sc.h == 0.1
    assert sc.T_p == 0.6
    assert sc.u_bar == pytest.approx(8 * np.sqrt(2))
    world = sc.build_world()
    assert world.neighbor_sets[0] == frozenset({1, 2})
    assert world.neighbor_sets[1] == frozenset({0})
    assert world.neighbor_sets[2] == frozenset({0})
    assert len(world.obstacles) == 2


def test_weights_are_positive_definite_and_seeded():
    a = load_scenario(SCENARIO)
    b = load_scenario(SCENARIO)
    assert np.array_equal(a.Q, b.Q)
    assert np.array_equal(a.P, b.P)
    assert np.all(np.linalg.eigvalsh(a.Q) > 0)
    assert np.all(np.linalg.eigvalsh(a.P) > 0)
    assert np.allclose(a.Q, a.Q.T)
    other = load_scenario(SCENARIO, seed=9)
    assert not np.array_equal(a.Q, other.Q)


def test_threshold_ordering_validated(tmp_path):
    path = _variant(tmp_path, eps_omega=0.1, eps_psi=0.05)
    with pytest.raises(ScenarioError, match="eps_omega"):
        load_scenario(path)


def test_overlapping_initial_agents_rejected(tmp_path):
    raw = yaml.safe_load(SCENARIO.read_text())
    raw["agents"][1]["start"] = [-6.0, 3.6, 0.0]  # 0.1 from agent 0
    path = tmp_path / "overlap.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ScenarioError, match="initial configuration"):
        load_scenario(path)


def test_missing_field_named(tmp_path):
    raw = yaml.safe_load(SCENARIO.read_text())
    del raw["u_bar"]
    path = tmp_path / "missing.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ScenarioError, match="u_bar"):
        load_scenario(path)


def test_tube_cap_mapping_rejected(tmp_path):
    path = _variant(tmp_path, tube_cap={"inter-agent": 0.15, "neighbor": 0.2})
    with pytest.raises(ScenarioError, match="tube_cap"):
        load_scenario(path)


def test_parse_error_reported(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("agents: [unclosed\n")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(path)


def test_certify_exit_codes(tmp_path, capsys):
    assert cmd_certify(SCENARIO) == 0
    out = capsys.readouterr().out
    assert "w_max" in out and "consistent" in out
    heavy = _variant(tmp_path, w_bar=0.5)
    assert cmd_certify(heavy) == 1


def test_certify_reports_declared_L_g_below_estimate(capsys):
    """The bundled scenario declares L_g = 8.5883, while the unicycle field's
    state-Lipschitz constant is sup |v| = u_bar ~ 11.31: the sampled estimate
    exceeds the declared value, and the disturbance bound at the estimate,
    about 0.0298, falls below w_bar = 0.1. This is reported without changing
    the exit code, which covers the disturbance bound at the declared L_g."""
    assert main(["certify", str(SCENARIO)]) == 0
    values = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert values["L_g_sound"] == "false"
    assert 8.5883 < float(values["L_g_estimate"]) <= 1.1 * 8 * np.sqrt(2)
    scenario = load_scenario(SCENARIO)
    assert float(values["w_max_at_L_g_estimate"]) == certify.disturbance_bound(
        scenario.eps_psi, scenario.eps_omega, scenario.L_V, float(values["L_g_estimate"]),
        scenario.h, scenario.T_p)
    assert float(values["w_max_at_L_g_estimate"]) == pytest.approx(0.0298, abs=5e-4)
    assert float(values["w_max_at_L_g_estimate"]) < float(values["w_max"])


def test_certify_reports_where_the_tube_closes_the_window(capsys):
    """The certificate covers only the uncapped tube. With the declared L_g
    the tube diameter passes the 0.98 m between the bundled scenario's
    connectivity (1.99 m) and separation (1.01 m) thresholds at tau ~ 0.438 s,
    with the estimated L_g at ~ 0.370 s, both inside T_p = 0.6 s."""
    assert main(["certify", str(SCENARIO)]) == 0
    values = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert float(values["window_closes_at_tau"]) == pytest.approx(0.438, abs=1e-3)
    assert float(values["window_closes_at_tau_at_L_g_estimate"]) == pytest.approx(
        0.370, abs=1e-3)


def test_solver_settings_default_to_the_solver_config(tmp_path):
    raw = yaml.safe_load(SCENARIO.read_text())
    del raw["max_iterations"], raw["constraint_tol"]
    path = tmp_path / "defaults.yaml"
    path.write_text(yaml.safe_dump(raw))
    config = load_scenario(path).build_config()
    assert (config.max_iterations, config.constraint_tol) == (200, 1e-6)
    bundled = load_scenario(SCENARIO).build_config()
    assert (bundled.max_iterations, bundled.constraint_tol) == (100, 1e-4)


def test_main_malformed_path_exits_2(capsys):
    assert main(["certify", "/nonexistent/scenario.yaml"]) == 2
    assert "error" in capsys.readouterr().err


def test_columns_manifest(capsys):
    assert main(["columns", str(SCENARIO)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [ln.split("\t")[1] for ln in lines]
    assert names[0] == "t"
    assert "x0" in names and "u1" in names and "V" in names
    assert "m_inter_agent" in names and "status" in names
    # indices are 1-based and contiguous for gnuplot `using`
    assert [int(ln.split("\t")[0]) for ln in lines] == list(range(1, len(lines) + 1))


def test_columns_match_csv_header(tmp_path, capsys):
    assert main(["columns", str(SCENARIO)]) == 0
    names = [ln.split("\t")[1] for ln in capsys.readouterr().out.strip().splitlines()]
    traces = [AgentTrace(times=[0.0], states=[spec.start], inputs=[np.full(2, np.nan)],
                         w_norms=[0.0], V=[0.0])
              for spec in load_scenario(SCENARIO).agents]
    path = tmp_path / "log.csv"
    TrajectoryLog(traces=traces).to_csv(path)
    assert path.read_text().splitlines()[0].split(",") == names


def test_verify_reports_malformed_csv(tmp_path, capsys):
    traces = [AgentTrace(times=[0.0], states=[spec.start], inputs=[np.full(2, np.nan)],
                         w_norms=[0.0], V=[0.0])
              for spec in load_scenario(SCENARIO).agents]
    full = tmp_path / "full.csv"
    TrajectoryLog(traces=traces).to_csv(full)
    rows = [line.split(",") for line in full.read_text().splitlines()]
    drop = rows[0].index("m_neighbor")
    path = tmp_path / "no_neighbor.csv"
    path.write_text("\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows) + "\n")
    assert main(["verify", str(path), str(SCENARIO)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "m_neighbor" in err
    # a file cut off inside its last row
    path.write_text(full.read_text()[:-20])
    assert main(["verify", str(path), str(SCENARIO)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # an unparsable field, in a numeric column and in a step's solver fields
    for column in ("V", "cost"):
        bad = [list(r) for r in rows]
        bad[1][rows[0].index("step")] = "0"
        bad[1][rows[0].index(column)] = "abc"
        path.write_text("\n".join(",".join(r) for r in bad) + "\n")
        assert main(["verify", str(path), str(SCENARIO)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "abc" in err
    # a header without rows, and logs that lack one agent's rows: without
    # agent 0 the ids are not 0..k-1, without agent 2 the scenario has more
    # agents than the log
    agent = rows[0].index("agent")
    for kept, message in (([], "no data rows"), (["1", "2"], "agent ids [1, 2]"),
                          (["0", "1"], "2 agent traces, the scenario 3")):
        path.write_text("\n".join(",".join(r) for r in rows
                                  if r is rows[0] or r[agent] in kept) + "\n")
        assert main(["verify", str(path), str(SCENARIO)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("goal, message", [
    ([6.0, 3.0, 0.0], "desired configuration: agent 0 collides with agent1"),
    ([6.0, 1.4, 0.0], "desired configuration: agent 0 is out of sensing range of agent1"),
])
def test_infeasible_goals_rejected(tmp_path, goal, message):
    """Agent 1's goal 0.5 m from agent 0's overlaps it; 2.1 m away it leaves
    the sensing range (2.0) of its neighbor, agent 0."""
    raw = yaml.safe_load(SCENARIO.read_text())
    raw["agents"][1]["goal"] = goal
    path = tmp_path / "goals.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


@pytest.mark.parametrize("overrides, options, message", [
    ({"total_time": 0.15}, [], "sampling time must divide the total time"),
    ({"L_V": -0.0471}, [], "Lipschitz constants must be positive"),
    ({"u_bar": -1.0}, [], "input bound"),
    ({"w_bar": -0.1}, [], "disturbance bound"),
    ({"L_g": -8.5883}, [], "Lipschitz constant must be positive"),
    ({}, ["--total-time", "0.15"], "--total-time 0.15: sampling time must divide"),
    ({}, ["--total-time", "0"], "--total-time 0.0: total time must be positive"),
    ({}, ["--total-time", "-1"], "--total-time -1.0: total time must be positive"),
], ids=["total_time", "L_V", "u_bar", "w_bar", "L_g", "run-total-time-0.15",
        "run-total-time-0", "run-total-time-negative"])
def test_bad_values_fail_before_any_solve(tmp_path, monkeypatch, capsys, overrides,
                                          options, message):
    """A bad scenario value fails at load as a ScenarioError, and a bad
    --total-time before the run starts: both reach the CLI as `error: ...`
    with exit code 2, with no solve, and `run` writes no artifacts."""
    solves = []
    monkeypatch.setattr(coordination, "solve_fhocp", lambda *args, **kw: solves.append(args))
    path = _variant(tmp_path, **overrides)
    commands = [["run", str(path), "--out", str(tmp_path / "out")] + options]
    if overrides:
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)
        commands.append(["certify", str(path)])
    for argv in commands:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert not solves
    assert not (tmp_path / "out").exists()


def test_run_writes_artifacts_when_solver_raises(tmp_path, monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise RuntimeError("solver diverged: forced")

    monkeypatch.setattr(coordination, "solve_fhocp", diverge)
    out_dir = tmp_path / "out"
    assert main(["run", str(SCENARIO), "--out", str(out_dir), "--total-time", "0.2"]) == 1
    assert (out_dir / "trajectory.csv").exists()
    assert "solver diverged: forced" in (out_dir / "report.txt").read_text()
    assert "run aborted" in capsys.readouterr().err


def test_aborted_run_csv_reads_back(tmp_path, monkeypatch):
    """The 8th solve_fhocp call of a 0.5 s run raises: with the schedule
    [2, 0, 1] and one call per solve, the run aborts at agent 0, t = 0.2,
    leaving traces of unequal length. The partial CSV reads back to the same
    bytes, and verify on the read-back log reproduces report.txt."""
    solve_fhocp = coordination.solve_fhocp
    calls = []

    def eighth_call_raises(*args, **kwargs):
        calls.append(None)
        if len(calls) == 8:
            raise RuntimeError("solver diverged: forced")
        return solve_fhocp(*args, **kwargs)

    monkeypatch.setattr(coordination, "solve_fhocp", eighth_call_raises)
    out_dir = tmp_path / "out"
    assert main(["run", str(SCENARIO), "--out", str(out_dir), "--total-time", "0.5"]) == 1
    report = dict(line.split(" = ", 1)
                  for line in (out_dir / "report.txt").read_text().splitlines())
    assert report["aborted"] == "'agent 0 solver failed at t = 0.200: solver diverged: forced'"
    path = out_dir / "trajectory.csv"
    log = TrajectoryLog.from_csv(path, h=0.1)
    assert [len(trace.times) for trace in log.traces] == [21, 21, 31]
    again = tmp_path / "again.csv"
    log.to_csv(again)
    assert again.read_bytes() == path.read_bytes()
    scenario = load_scenario(SCENARIO)
    checks = certify.verify(log, scenario.build_world(), scenario).checks
    for name, check in checks.items():
        key = name.replace("-", "_")
        assert report[f"{key}_pass"] == str(check.passed).lower(), name
        assert float(report[f"{key}_worst_margin"]) == check.worst_margin, name
        assert float(report[f"{key}_worst_time"]) == check.worst_time, name


def test_run_then_verify_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["run", str(SCENARIO), "--out", str(out_dir), "--total-time", "0.3"])
    # the truncated run cannot have converged, so expect the spec failure code,
    # but artifacts must exist and re-verification must reproduce the report
    assert code in (0, 1)
    assert (out_dir / "trajectory.csv").exists()
    report_text = (out_dir / "report.txt").read_text()
    assert "inter_agent_separation_pass = true" in report_text
    # solve counts in the report match the flags of the logged solves
    report = dict(line.split(" = ", 1) for line in report_text.splitlines())
    metas = [meta for trace in TrajectoryLog.from_csv(out_dir / "trajectory.csv", h=0.1).traces
             for meta in trace.step_meta]
    assert int(report["solves"]) == len(metas) == 9
    assert int(report["terminal_relaxed_solves"]) == sum(m["terminal_relaxed"] for m in metas)
    assert int(report["tube_capped_solves"]) == sum(m["tube_capped"] for m in metas)
    # no terminal tier is tried before t = 0.9 (agents are far from their
    # goals), so none is skipped either; test_coordination covers t = 0.9-1.1
    assert int(report["terminal_excluded_solves"]) == 0
    # and no terminal tier, the only one the suboptimal stop applies to
    assert int(report["suboptimal_stop_solves"]) == 0
    # 9 solves x (10 substeps x 4 RK4 stages + 1 for the step's last logged
    # row, the others reuse a stage's sample); the bundled generator
    # 0.1 sin(2t) (1, 1, 1) stays inside w_bar = 0.1 until t = 0.31
    assert int(report["disturbance_samples"]) == 369
    assert int(report["disturbance_clipped_samples"]) == 0
    first = capsys.readouterr().out
    code2 = main(["verify", str(out_dir / "trajectory.csv"), str(SCENARIO)])
    second = capsys.readouterr().out
    assert code2 == code
    for key in ("inter-agent-separation", "obstacle-clearance", "solver-feasible"):
        line1 = [l for l in first.splitlines() if l.startswith(key)]
        line2 = [l for l in second.splitlines() if l.startswith(key)]
        assert line1 == line2


def test_run_reports_clipped_disturbance_samples(tmp_path):
    """Past t = 0.31 the bundled generator's norm 0.173 |sin(2t)| exceeds
    w_bar = 0.1 and DisturbanceSignal clips it; report.txt counts those samples."""
    out_dir = tmp_path / "out"
    main(["run", str(SCENARIO), "--out", str(out_dir), "--total-time", "0.4"])
    report = dict(line.split(" = ", 1) for line in (out_dir / "report.txt").read_text().splitlines())
    assert int(report["disturbance_samples"]) == 492
    assert 0 < int(report["disturbance_clipped_samples"]) < 492


def test_run_report_values_are_plain(tmp_path):
    """Every report.txt value reads as a bool, a number, a quoted string or
    an infinity: no numpy scalar reprs such as np.float64(...)."""
    out_dir = tmp_path / "out"
    main(["run", str(SCENARIO), "--out", str(out_dir), "--total-time", "0.2"])
    lines = (out_dir / "report.txt").read_text().splitlines()
    assert len(lines) > 30
    for line in lines:
        key, value = line.split(" = ", 1)
        if value in ("true", "false", "inf", "-inf"):
            continue
        parsed = ast.literal_eval(value)
        assert type(parsed) in (int, float, str), line
