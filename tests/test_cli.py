import ast
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from dnmpc import certify, cli, coordination, ocp
from dnmpc.cli import ScenarioError, cmd_certify, load_scenario, main
from dnmpc.coordination import AgentTrace, TrajectoryLog
from dnmpc.dynamics import UNICYCLE
from oracles import unicycle_field

SCENARIO = Path(__file__).resolve().parents[1] / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"


def _variant(tmp_path, **overrides):
    raw = yaml.safe_load(SCENARIO.read_text())
    raw.update(overrides)
    path = tmp_path / "variant.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def _weights(R=2, **given):
    """The weights section with an identity R of the given size (the
    unicycle's is 2) and the `given` identity matrices, of the sizes given."""
    return {"R": np.eye(R).tolist(),
            **{name: np.eye(size).tolist() for name, size in given.items()}}


def _disturbance(**fields):
    """The bundled scenario's disturbance section, with `fields` replaced."""
    return {**yaml.safe_load(SCENARIO.read_text())["disturbance"], **fields}


def _agents_with(k, **fields):
    """The bundled scenario's agents, with agent k's `fields` replaced."""
    agents = yaml.safe_load(SCENARIO.read_text())["agents"]
    agents[k].update(fields)
    return agents


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


def test_every_agent_is_a_unicycle():
    """The simulation's agents are one unicycle each, the layout of every
    state, input and CSV row; perfbench counts the agents by `sim.models`."""
    sim = load_scenario(SCENARIO).build_simulation()
    assert sim.models == [UNICYCLE] * 3
    assert [ed.model for ed in sim.errordyns] == sim.models


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


def test_seeded_uniforms_are_default_rngs_bitwise():
    """The recipe's own PCG64 draw gives the floats of numpy's
    `default_rng(seed).uniform(0.0, 1.0, (3, 3))`, byte for byte, for seeds
    of one to four 32-bit words and beyond, and rejects a negative seed as
    numpy does."""
    seeds = [*range(2001), 2**32 - 1, 2**32, 2**64 + 17, 2**127,
             123456789012345678901234567890]
    for seed in seeds:
        ours = np.array(cli._seeded_uniforms(seed, 9)).reshape(3, 3)
        assert ours.tobytes() == np.random.default_rng(seed).uniform(
            0.0, 1.0, (3, 3)).tobytes(), seed
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        cli._seeded_uniforms(-1, 9)


def test_bundled_weights_are_pinned():
    """The bundled scenario's Q and P (seed 18), float for float as numpy's
    Generator drew them before the recipe had its own generator."""
    scenario = load_scenario(SCENARIO)
    assert scenario.seed == 18
    assert scenario.Q.tolist() == [
        [0.5998264423043932, 0.10001744966079155, 0.11564303627340623],
        [0.10001744966079155, 0.742442829823215, 0.14259977610882013],
        [0.11564303627340623, 0.14259977610882013, 0.618840242432484]]
    assert scenario.P.tolist() == [
        [0.3598958653826359, 0.06001046979647493, 0.06938582176404373],
        [0.06001046979647493, 0.445465697893929, 0.08555986566529207],
        [0.06938582176404373, 0.08555986566529207, 0.3713041454594904]]


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


def test_certify_reports_declared_L_g_below_exact(capsys):
    """The bundled scenario declares L_g = 8.5883, while the unicycle field's
    state-Lipschitz constant is sup |v| = u_bar ~ 11.31, and the disturbance
    bound at it, about 0.02186, falls below w_bar = 0.1. This is reported
    without changing the exit code, which covers the disturbance bound at the
    declared L_g."""
    assert main(["certify", str(SCENARIO)]) == 0
    values = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert values["L_g_sound"] == "false"
    scenario = load_scenario(SCENARIO)
    assert float(values["L_g_exact"]) == scenario.u_bar == 8 * np.sqrt(2)
    assert float(values["w_max_at_L_g_exact"]) == certify.disturbance_bound(
        scenario.eps_psi, scenario.eps_omega, scenario.L_V, scenario.u_bar,
        scenario.h, scenario.T_p)
    assert float(values["w_max_at_L_g_exact"]) == pytest.approx(0.02186, abs=1e-5)
    assert float(values["w_max_at_L_g_exact"]) < float(values["w_max"])


def test_certify_L_g_exact_is_reached_and_not_exceeded(capsys):
    """Two states whose headings are 1e-6 apart, at v = u_bar, give the
    unicycle field a difference quotient of the printed L_g_exact, and no
    sampled pair of states under an input of the ball exceeds it."""
    assert main(["certify", str(SCENARIO)]) == 0
    values = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    L_g = float(values["L_g_exact"])
    u_bar = load_scenario(SCENARIO).u_bar

    def quotients(z_a, z_b, u):
        df = unicycle_field(z_a, u) - unicycle_field(z_b, u)
        return np.linalg.norm(df, axis=-1) / np.linalg.norm(z_a - z_b, axis=-1)

    z_a = np.array([1.0, -2.0, 0.7])
    witness = quotients(z_a, z_a + [0.0, 0.0, 1e-6], np.array([u_bar, 0.0]))
    assert witness == pytest.approx(L_g, rel=1e-8)
    rng = np.random.default_rng(0)
    z_a, z_b = rng.uniform(-np.pi, np.pi, (2, 10_000, 3))
    u = rng.normal(size=(10_000, 2))
    u *= u_bar * rng.uniform(size=(10_000, 1)) / np.linalg.norm(u, axis=1, keepdims=True)
    assert quotients(z_a, z_b, u).max() <= L_g


def test_certify_reports_where_the_tube_closes_the_window(capsys):
    """The certificate covers only the uncapped tube. With the declared L_g
    the tube diameter passes the 0.98 m between the bundled scenario's
    connectivity (1.99 m) and separation (1.01 m) thresholds at tau ~ 0.438 s,
    with the exact L_g at ~ 0.3565 s, both inside T_p = 0.6 s."""
    assert main(["certify", str(SCENARIO)]) == 0
    values = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert float(values["window_closes_at_tau"]) == pytest.approx(0.438, abs=1e-3)
    assert float(values["window_closes_at_tau_at_L_g_exact"]) == pytest.approx(
        0.3565, abs=1e-4)


def test_solver_settings_are_the_ocp_constants():
    """Every solve, of every run and every test, runs at one tolerance and
    one iteration cap, which no scenario sets."""
    assert (ocp.CONSTRAINT_TOL, ocp.MAX_ITERATIONS) == (1e-4, 100)


@pytest.mark.parametrize("seed", [18.9, True, "18"])
def test_seed_override_must_be_an_integer(seed):
    """A seed given to `load_scenario` is checked as the file's is, not
    truncated: 18.9 is not seed 18, nor True seed 1."""
    with pytest.raises(ScenarioError, match=re.escape(
            f"{SCENARIO}: seed override must be an integer, got {seed!r}")):
        load_scenario(SCENARIO, seed=seed)


def test_main_malformed_path_exits_2(capsys):
    assert main(["certify", "/nonexistent/scenario.yaml"]) == 2
    assert "error" in capsys.readouterr().err


def test_columns_manifest(capsys):
    assert main(["columns"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [ln.split("\t")[1] for ln in lines]
    assert names[0] == "t"
    assert "x0" in names and "u1" in names and "V" in names
    assert "m_inter_agent" in names and "status" in names
    # indices are 1-based and contiguous for gnuplot `using`
    assert [int(ln.split("\t")[0]) for ln in lines] == list(range(1, len(lines) + 1))


def _start_log():
    """The bundled agents' t = 0 rows, as a finalized log holds them."""
    return TrajectoryLog(
        traces=[AgentTrace(times=[0.0], states=[spec.start], inputs=[np.full(2, np.nan)],
                           w_norms=[0.0], V=[0.0], margins=np.full((1, 4), np.inf))
                for spec in load_scenario(SCENARIO).agents])


def test_columns_match_csv_header(tmp_path, capsys):
    """`dnmpc columns` needs no scenario: every log has the unicycle's header."""
    assert main(["columns"]) == 0
    names = [ln.split("\t")[1] for ln in capsys.readouterr().out.strip().splitlines()]
    path = tmp_path / "log.csv"
    _start_log().to_csv(path)
    assert path.read_text().splitlines()[0].split(",") == names


def test_verify_reports_malformed_csv(tmp_path, capsys):
    full = tmp_path / "full.csv"
    _start_log().to_csv(full)
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
    # an unparsable field, in a numeric column and in a step's solver fields,
    # on a row of step 0, whose inputs are numbers
    for column in ("V", "cost"):
        bad = [list(r) for r in rows]
        bad[1][rows[0].index("step")] = "0"
        bad[1][rows[0].index("u0")] = bad[1][rows[0].index("u1")] = "0.0"
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


def test_verify_rejects_a_position_that_hides_a_close_pass(tmp_path, capsys):
    """Agent 2 sits 0.5 m from agent 0, where separation needs 1.01 m:
    `dnmpc verify` fails the check. With agent 2's position NaN at a later
    sample the CSV is rejected, exit 2, naming the line and the column, not
    passed with agent 2's columns dropped from the check."""
    starts = [[-6.0, 3.5, 0.0], [-6.0, 2.3, 0.0], [-6.0, 4.0, 0.0]]
    log = TrajectoryLog(traces=[AgentTrace(
        times=np.array([0.0, 0.01, 0.02]), states=np.tile(start, (3, 1)),
        inputs=np.array([[np.nan, np.nan], [0.0, 0.0], [0.0, 0.0]]), w_norms=np.zeros(3),
        V=np.zeros(3), margins=np.zeros((3, 4)),
        step_meta=[{"t": 0.0, "status": "optimal", "cost": 1.0, "errsq_int": 0.0,
                    "terminal_relaxed": False, "tube_capped": True}])
        for start in starts])
    path = tmp_path / "close.csv"
    log.to_csv(path)
    assert main(["verify", str(path), str(SCENARIO)]) == 1
    separation = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("inter-agent-separation")]
    assert separation[0].split()[1:3] == ["FAIL", "worst_margin=-0.51"]
    log.traces[2].states[2, 0] = np.nan
    log.to_csv(path)
    assert main(["verify", str(path), str(SCENARIO)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: line 10: x0 'nan' is not finite\n"


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
    ({"tube_cap": -0.1}, [], "tube_cap must be nonnegative, got -0.1"),
    ({"tube_cap": "wide"}, [],
     "field 'tube_cap' must be a number (could not convert string to float: 'wide')"),
    ({"agents": []}, [], "field 'agents' must be a non-empty list of mappings"),
    ({"agents": [1, 2, 3]}, [], "field 'agents' must be a non-empty list of mappings"),
    ({"agents": _agents_with(0, start=[-6.0, 3.5])}, [],
     "agent 0 start must be 3 finite numbers"),
    ({"agents": _agents_with(1, start=[-6.0, float("nan"), 0.0])}, [],
     "agent 1 start must be 3 finite numbers"),
    ({"weights": _weights(Q=3)}, [], "unknown field 'Q' of weights"),
    ({"weights": _weights(P=3)}, [], "unknown field 'P' of weights"),
    ({"weights": _weights(R=3)}, [], "weight R must be 2x2, got 3x3"),
    ({"weights": {"R": [[1.0, 0.0], [0.0, -1.0]]}}, [],
     "R must be positive definite"),
    ({"seed": -1}, [], "invalid field (expected non-negative integer)"),
    ({"disturbance": _disturbance(amplitude=float("nan"))}, [],
     "disturbance amplitude must be finite, got nan"),
    ({"disturbance": _disturbance(frequency=float("inf"))}, [],
     "disturbance frequency must be finite, got inf"),
    ({"disturbance": _disturbance(amplitude="abc")}, [],
     "disturbance amplitude must be a number, got 'abc'"),
    ({"disturbance": _disturbance(frequency="fast")}, [],
     "disturbance frequency must be a number, got 'fast'"),
    ({"seed": 18.9}, [], "field 'seed' must be an integer, got 18.9"),
    ({"seed": True}, [], "field 'seed' must be an integer, got True"),
    ({"seed": "18"}, [], "field 'seed' must be an integer, got '18'"),
    ({"schedule": [2.7, 0, 1]}, [], "field 'schedule' entry 0 must be an integer, got 2.7"),
    ({"schedule": [2, False, 1]}, [], "field 'schedule' entry 1 must be an integer, got False"),
    ({"schedule": [2, 0, "1"]}, [], "field 'schedule' entry 2 must be an integer, got '1'"),
    ({"tube_capp": 0.15}, [], "unknown field 'tube_capp'"),
    ({"sup_error": 27.0}, [], "unknown field 'sup_error'"),
    ({"constraint_tol": 1e-4}, [], "unknown field 'constraint_tol'"),
    ({"max_iterations": 100}, [], "unknown field 'max_iterations'"),
    ({"agents": _agents_with(2, sensing=2.0)}, [], "unknown field 'sensing' of agent 2"),
    ({"agents": _agents_with(1, model="unicycle")}, [], "unknown field 'model' of agent 1"),
    ({"disturbance": _disturbance(kind="sinusoid")}, [],
     "unknown field 'kind' of disturbance"),
    ({"disturbance": {"frequncy": 2.0}}, [], "unknown field 'frequncy' of disturbance"),
    ({"weights": {"recipie": "seeded-random", "R": np.eye(2).tolist()}}, [],
     "unknown field 'recipie' of weights"),
    ({"weights": {"recipe": "seeded-random", "R": np.eye(2).tolist()}}, [],
     "unknown field 'recipe' of weights"),
    ({"workspace": {"centre": [0.0, 3.5], "radius": 12.0}}, [],
     "unknown field 'centre' of workspace"),
    ({"obstacles": [{"center": [0.0, 2.0], "radius": 1.0},
                    {"center": [0.0, 5.5], "radiuss": 1.0}]}, [],
     "unknown field 'radiuss' of obstacle 1"),
    ({}, ["--total-time", "0.15"], "--total-time 0.15: sampling time must divide"),
    ({}, ["--total-time", "0"], "--total-time 0.0: total time must be positive"),
    ({}, ["--total-time", "-1"], "--total-time -1.0: total time must be positive"),
], ids=["total_time", "L_V", "u_bar", "w_bar", "L_g", "tube_cap-negative", "tube_cap-text",
        "agents-empty",
        "agents-not-mappings", "agents-start-short", "agents-start-nan",
        "weights-Q-given", "weights-P-given", "weights-R-3x3", "weights-R-indefinite",
        "seed-negative", "disturbance-amplitude-nan",
        "disturbance-frequency-inf", "disturbance-amplitude-text",
        "disturbance-frequency-text", "seed-float", "seed-bool", "seed-text",
        "schedule-float", "schedule-bool", "schedule-text",
        "unknown-key", "sup_error-removed", "constraint_tol-removed", "max_iterations-removed",
        "agents-unknown-key",
        "agents-model-removed", "disturbance-kind-removed", "disturbance-unknown-key",
        "weights-unknown-key", "weights-recipe-unknown", "workspace-unknown-key",
        "obstacle-unknown-key",
        "run-total-time-0.15", "run-total-time-0", "run-total-time-negative"])
def test_bad_values_fail_before_any_solve(tmp_path, monkeypatch, capsys, overrides,
                                          options, message):
    """A bad scenario value fails at load as a ScenarioError, and a bad
    --total-time before the run starts: both reach the CLI as `error: ...`
    with exit code 2, with no solve, and `run` writes no artifacts. A
    scenario's error names its file. Each message is matched literally,
    brackets and parentheses included."""
    solves = []
    monkeypatch.setattr(coordination, "solve_fhocp", lambda *args, **kw: solves.append(args))
    path = _variant(tmp_path, **overrides)
    commands = [["run", str(path), "--out", str(tmp_path / "out")] + options]
    if overrides:
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_scenario(path)
        commands.append(["certify", str(path)])
    for argv in commands:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: " if overrides else "error: ") and message in err
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
    """The 8th solve of a 0.5 s run raises: with the schedule [2, 0, 1] the
    run aborts at agent 0, t = 0.2, leaving traces of unequal length. The
    partial CSV reads back to the same bytes, and verify on the read-back
    log reproduces report.txt."""
    ladder = coordination.solve_ladder
    calls = []

    def eighth_solve_raises(problem, config):
        calls.append(None)
        if len(calls) == 8:
            raise RuntimeError("solver diverged: forced")
        return ladder(problem, config)

    monkeypatch.setattr(coordination, "solve_ladder", eighth_solve_raises)
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


def test_run_reports_feasible_witness_solves(tmp_path, monkeypatch):
    """report.txt counts, next to the suboptimal stops, the accepted
    terminal-enforced solves that started from a feasible shifted plan, as
    step_meta flags them; from t = 1.6 s the bundled agents reach their
    terminal tiers. Every `<key>_solves` count of report.txt is the number of
    step_meta records with `key` set, and `solves` the number of records."""
    logs, real_run = [], coordination.Simulation.run

    def run(sim):
        logs.append(real_run(sim))
        return logs[-1]

    monkeypatch.setattr(coordination.Simulation, "run", run)
    out_dir = tmp_path / "out"
    main(["run", str(SCENARIO), "--out", str(out_dir), "--total-time", "2.0"])
    keys = [line.split(" = ", 1)[0] for line in (out_dir / "report.txt").read_text().splitlines()]
    report = dict(line.split(" = ", 1) for line in (out_dir / "report.txt").read_text().splitlines())
    metas = [meta for trace in logs[0].traces for meta in trace.step_meta]
    witnesses = int(report["feasible_witness_solves"])
    assert witnesses == sum(meta["feasible_witness"] for meta in metas) > 0
    assert witnesses <= sum(not meta["terminal_relaxed"] for meta in metas)
    assert keys.index("feasible_witness_solves") == keys.index("suboptimal_stop_solves") + 1
    counted = [key for key in keys if key.endswith("_solves")]
    assert counted == [f"{key}_solves" for key in cli.COUNTED_FLAGS]
    assert int(report["solves"]) == len(metas)
    for key in counted:
        assert int(report[key]) == sum(meta[key[:-len("_solves")]] for meta in metas), key


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
