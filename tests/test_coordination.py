import dataclasses
import pickle
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnmpc import certify, constraints, coordination, ocp
from dnmpc.cli import load_scenario
from dnmpc.constraints import MARGIN_KINDS, StageGeometry, WorldModel
from dnmpc.coordination import (PredictionEntry, Simulation, SimulationError, TrajectoryLog,
                                neighbor_sets, sensing_set, solve_ladder, validate_initial)
from dnmpc.dynamics import UNICYCLE, DisturbanceSignal
from dnmpc.ocp import OcpConfig, warm_start_shift
from dnmpc.setalg import Ball, TubeProfile
from oracles import (count_jacobians, fill_margins_whole, read_csv_whole, verify_geometry_whole,
                     write_csv_rows)

SCENARIO = Path(__file__).resolve().parents[1] / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"


def test_sensing_set_strict_inequality():
    positions = np.array([[0.0, 0.0], [1.9, 0.0], [2.0, 0.0], [5.0, 0.0]])
    assert sensing_set(0, positions, 2.0) == {1}
    assert sensing_set(3, positions, 2.0) == set()


def test_sensing_set_singleton_world():
    assert sensing_set(0, np.array([[1.0, 1.0]]), 2.0) == set()


def test_neighbor_sets_fixed_at_t0():
    positions = np.array([[0.0, 0.0], [0.0, 1.2], [0.0, -1.2]])
    sets = neighbor_sets(positions, [2.0, 2.0, 2.0])
    assert sets[0] == frozenset({1, 2})
    assert sets[1] == frozenset({0})
    assert sets[2] == frozenset({0})


def test_neighbor_sets_isolated_agent_errors():
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    with pytest.raises(ValueError, match="no neighbor"):
        neighbor_sets(positions, [2.0, 2.0])


def _world(n=2, obstacles=()):
    starts = np.array([[0.0, 0.0], [0.0, 1.2], [0.0, -1.2]])[:n]
    sensing = [2.0] * n
    return WorldModel(
        workspace=Ball([0.0, 0.0], 10.0),
        obstacles=list(obstacles),
        agent_radii=[0.5] * n,
        sensing_ranges=sensing,
        detection_ranges=[4.0] * n,
        margin=0.01,
        neighbor_sets=neighbor_sets(starts, sensing),
    )


def test_validate_initial_passes_and_fails():
    world = _world()
    assert validate_initial(world, [np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.2, 0.0])]) == []
    bad = validate_initial(world, [np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.9, 0.0])])
    assert bad
    assert any("collide" in f for f in bad)


def test_validate_initial_workspace_and_velocity():
    world = _world()
    out = validate_initial(world, [np.array([9.8, 0.0, 0.0]), np.array([9.8, 1.2, 0.0])])
    assert out
    assert any("workspace" in f for f in out)


def test_prediction_entry_interpolates_and_holds():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    entry = PredictionEntry(t0=1.0, h=0.1, positions=positions)
    pos = entry.positions_at([1.05, 1.2, 5.0, 0.0])
    assert pos[0, 0] == pytest.approx(0.5)   # midway through stage 0
    assert pos[1, 0] == pytest.approx(2.0)   # end of grid
    assert pos[2, 0] == pytest.approx(2.0)   # held beyond the end
    assert pos[3, 0] == pytest.approx(0.0)   # held before the start


def _simulation(n=2, w_bar=0.0, total_time=0.5, schedule=None):
    world = _world(n)
    starts = [np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.2, 0.0]),
              np.array([0.0, -1.2, 0.0])][:n]
    goals = [np.array([3.0, 0.0, 0.0]), np.array([3.0, 1.2, 0.0]),
             np.array([3.0, -1.2, 0.0])][:n]
    cfg = OcpConfig(h=0.1, T_p=0.6, Q=0.5 * np.eye(3), R=0.05 * np.eye(2),
                    P=0.3 * np.eye(3), eps_omega=0.01, u_bar=8.0)
    if w_bar > 0:
        dists = [DisturbanceSignal(lambda times: w_bar * np.sin(3 * times)[:, None] * np.ones(3),
                                   w_bar)
                 for _ in range(n)]
    else:
        dists = [None] * n
    return Simulation(
        world=world, references=goals, config=cfg,
        profile=TubeProfile(max(w_bar, 1e-12), 2.0),
        schedule=schedule or list(range(n)), disturbances=dists,
        initial_states=starts, total_time=total_time, tube_cap=0.3)


def test_schedule_must_be_permutation():
    with pytest.raises(ValueError, match="permutation"):
        _simulation(schedule=[0, 0])


def test_run_produces_complete_log():
    sim = _simulation(total_time=0.3)
    log = sim.run()
    assert len(log.traces) == 2
    for trace in log.traces:
        assert len(trace.times) == 31  # t=0 plus 3 steps x 10 substeps
        assert len(trace.step_meta) == 3
        assert np.all(np.diff(trace.times) > 0)
        assert all(m["status"] != "infeasible" for m in trace.step_meta)
        assert trace.margins.shape == (len(trace.times), len(MARGIN_KINDS))


def test_agents_progress_toward_goals():
    sim = _simulation(total_time=0.5)
    log = sim.run()
    for trace, goal in zip(log.traces, [np.array([3.0, 0.0]), np.array([3.0, 1.2])]):
        d0 = np.linalg.norm(np.asarray(trace.states[0])[:2] - goal)
        d1 = np.linalg.norm(np.asarray(trace.states[-1])[:2] - goal)
        assert d1 < d0


def test_determinism_bitwise():
    log_a = _simulation(w_bar=0.05, total_time=0.3).run()
    log_b = _simulation(w_bar=0.05, total_time=0.3).run()
    for ta, tb in zip(log_a.traces, log_b.traces):
        assert np.array_equal(np.asarray(ta.states), np.asarray(tb.states))
        assert np.array_equal(np.asarray(ta.inputs[1:]), np.asarray(tb.inputs[1:]))
        assert [m["cost"] for m in ta.step_meta] == [m["cost"] for m in tb.step_meta]


def _varying(times):
    """A time-only disturbance whose norm differs at every sample time of a
    0.3 s run; 0.05 clips it at some of them."""
    return np.stack([0.04 * np.cos(5.0 * times), 0.02 * np.sin(3.0 * times + 1.0),
                     0.2 * times], axis=1)


def test_logged_disturbance_norms_match_fresh_samples():
    """Each logged w_norm is the norm of the disturbance at its row's time,
    drawn alone. `integrate` draws a step's samples in one batch, the four
    RK4 stages of each substep and the last row; a disturbance that differs
    at every sample time tells a row matched with the wrong sample (the next
    row's, or a substep's midpoint)."""
    sim = _simulation(total_time=0.3)
    sim.disturbances = [DisturbanceSignal(_varying, 0.05) for _ in sim.disturbances]
    log = sim.run()
    oracle = DisturbanceSignal(_varying, 0.05)
    for trace in log.traces:
        fresh = [oracle.sample_times(np.array([t]))[1][0] for t in trace.times[1:]]
        assert trace.w_norms[1:].tolist() == fresh
        # a clipped norm is the bound to an ulp or so; the others all differ
        assert all(a != b for a, b in zip(fresh, fresh[1:]) if min(a, b) < 0.05 - 1e-12)
    assert 0 < oracle.clipped < oracle.samples
    # 3 steps x 10 substeps x 4 RK4 stages, and one sample per step's last row
    assert [d.samples for d in sim.disturbances] == [3 * (40 + 1)] * 2


def test_plant_draws_each_agent_steps_samples_in_one_call():
    """The plant calls the generator once per agent-step, with the step's 41
    sample times; the counts stay 40 + 1 per step."""
    calls = []

    def counting(times):
        calls.append(len(times))
        return _varying(times)

    sim = _simulation(total_time=0.3)
    sim.disturbances = [DisturbanceSignal(counting, 0.05) for _ in sim.disturbances]
    log = sim.run()
    assert calls == [41] * 3 * 2
    assert [d.samples for d in sim.disturbances] == [3 * (40 + 1)] * 2
    assert [len(trace.w_norms) for trace in log.traces] == [31, 31]


def test_step_meta_flags_suboptimal_stops():
    """step_meta keeps the accepted attempt's `suboptimal_stop`: terminal
    solves near the goal stop early, relaxed ones never do."""
    log = _simulation(total_time=0.3).run()
    metas = [meta for trace in log.traces for meta in trace.step_meta]
    assert any(meta["suboptimal_stop"] for meta in metas)
    for meta in metas:
        if meta["suboptimal_stop"]:
            assert meta["status"] == "feasible-suboptimal"
            assert not meta["terminal_relaxed"]


@pytest.mark.parametrize("at_rest", [False, True])
def test_step_meta_flags_feasible_witnesses(monkeypatch, at_rest):
    """`feasible_witness` marks an accepted solve that is terminal-enforced
    and started from the shifted previous plan, that plan meeting every
    constraint of the solve within `ocp.CONSTRAINT_TOL`: each attempt's start
    is checked on a transcription of its own. Agents that approach their goals,
    and agents at rest in the terminal set, where agent 0's shifted attempt
    at t = 0.1 is rejected so that its ladder accepts the (feasible) zero
    start, which is no witness."""
    sim = _simulation(total_time=0.3 if at_rest else 0.6)
    if at_rest:
        sim.states = [np.array([2.98, 0.01, 0.02]), np.array([3.01, 1.19, -0.01])]
    expected, flags, now = {}, [], [0.0]
    real_solve, real_ladder = coordination.solve_fhocp, coordination.solve_ladder

    def solve(errordyn, e0, margin_fn, cfg, warm_start, use_terminal):
        sol = real_solve(errordyn, e0, margin_fn, cfg, warm_start=warm_start,
                         use_terminal=use_terminal)
        i = next(k for k, known in enumerate(sim.errordyns) if known is errordyn)
        prev = sim.prev_solution[i]
        shifted = prev is not None and np.array_equal(
            warm_start, warm_start_shift(prev, errordyn.z_des, cfg))
        start = ocp._project_inputs(warm_start, cfg.u_bar).ravel()
        form = "terminal" if use_terminal else "relaxed"
        slack = ocp._Transcription(errordyn, e0, margin_fn, cfg, form).eval(start)["slack"]
        expected[id(sol)] = use_terminal and shifted and -slack <= ocp.CONSTRAINT_TOL
        if at_rest and shifted and i == 0 and now[0] == 0.1:
            sol.status, sol.solve_stats["residual"] = "infeasible", 1.0
        return sol

    def ladder(problem, config):
        now[0] = problem.t
        sol, record = real_ladder(problem, config)
        flags.append((record["feasible_witness"], expected[id(sol)]))
        if at_rest and (problem.agent, problem.t) == (0, 0.1):
            assert sol.solve_stats["start_feasible"] and not expected[id(sol)]
        return sol, record

    monkeypatch.setattr(coordination, "solve_fhocp", solve)
    monkeypatch.setattr(coordination, "solve_ladder", ladder)
    log = sim.run()
    metas = [meta for trace in log.traces for meta in trace.step_meta]
    assert [got for got, _ in flags] == [want for _, want in flags]
    assert sum(meta["feasible_witness"] for meta in metas) == sum(got for got, _ in flags)
    assert 0 < sum(got for got, _ in flags) < len(flags) == len(metas)
    assert all(not meta["terminal_relaxed"] for meta in metas if meta["feasible_witness"])


def test_csv_roundtrip(tmp_path):
    log = _simulation(w_bar=0.05, total_time=0.3).run()
    path = tmp_path / "log.csv"
    log.to_csv(path)
    back = TrajectoryLog.from_csv(path, h=0.1)
    assert len(back.traces) == len(log.traces)
    for ta, tb in zip(log.traces, back.traces):
        for name in ("times", "states", "inputs", "w_norms", "V", "margins"):
            assert np.array_equal(np.asarray(getattr(ta, name)), getattr(tb, name),
                                  equal_nan=True), name
        assert len(ta.step_meta) == len(tb.step_meta)
        for ma, mb in zip(ta.step_meta, tb.step_meta):
            for key in ("t", "status", "cost", "errsq_int", "terminal_relaxed",
                        "tube_capped"):
                assert ma[key] == mb[key], key
    again = tmp_path / "again.csv"
    back.to_csv(again)
    assert again.read_bytes() == path.read_bytes()


def test_csv_deterministic_bytes(tmp_path):
    log_a = _simulation(total_time=0.2).run()
    log_b = _simulation(total_time=0.2).run()
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    log_a.to_csv(pa)
    log_b.to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


# NaN with another payload than np.nan's
_NAN_PAYLOAD = np.array([0x7FF8000000000001]).view(np.float64)[0]
_SPECIAL = [0.0, -0.0, np.nan, _NAN_PAYLOAD, np.inf, -np.inf, 1e16, 1e-05, 5e-324,
            0.1 + 0.2, 1.0000000000000002, 1.0 / 3.0]


def _hand_trace(T, rng, finite=False):
    """A hand-built trace of T rows as the engine logs them: NaN inputs at t
    = 0, then each step's input held over its `OcpConfig.substeps`, and one solve
    record per step. Its states hold 0.0, -0.0, 0.0 in a row and the special
    values; its margins are drawn from +-inf, +-0.0 and 0.5. With `finite`,
    its NaN and infinite states and inputs after t = 0 are 0.25, as in a log
    that `from_csv` reads."""
    substeps = OcpConfig.substeps
    n_steps = -(-(T - 1) // substeps)
    held = rng.choice(_SPECIAL + rng.normal(size=6).tolist(), size=(n_steps, 2))
    held[:1] = [0.0, -0.0]
    inputs = np.vstack([np.full((1, 2), np.nan), held.repeat(substeps, axis=0)[:T - 1]])
    states = rng.normal(size=(T, 3))
    if T > 16:
        states[1:4, 0] = [0.0, -0.0, 0.0]
        states[4:9, 1] = _SPECIAL[:5]
        states[9:16, 2] = _SPECIAL[5:]
    w_norms = np.minimum(rng.uniform(0.0, 0.2, T), 0.1)
    w_norms[0] = 0.0
    trace = coordination.AgentTrace(
        times=[0.01 * k for k in range(T)], states=list(states), inputs=list(inputs),
        w_norms=w_norms.tolist(), V=rng.uniform(size=T).tolist(),
        step_meta=[{"t": 0.1 * k, "status": "optimal", "cost": 1.0 / (k + 3),
                    "errsq_int": 1e-05 * k, "terminal_relaxed": k % 2 == 0,
                    "tube_capped": True} for k in range(n_steps)],
        margins=rng.choice([np.inf, -np.inf, 0.0, -0.0, 0.5], size=(T, len(MARGIN_KINDS))))
    if finite:
        for rows in (trace.states, trace.inputs[1:]):
            for row in rows:
                row[~np.isfinite(row)] = 0.25
    return trace


@pytest.mark.parametrize("chunk", [1, 3, coordination._CSV_CHUNK_ROWS])
def test_to_csv_writes_the_row_writers_bytes(monkeypatch, tmp_path, chunk):
    """Column-wise formatting writes what the row writer writes: -0.0 next
    to 0.0 in one run, NaNs of two payloads, NaN inputs at t = 0, +-inf
    margins, 1e16, 1e-05, 5e-324 and 17-digit values, runs across chunk
    edges, and traces of different lengths (times shared with an earlier
    trace but for one row, or for a prefix)."""
    monkeypatch.setattr(coordination, "_CSV_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(3)
    traces = [_hand_trace(301, rng), _hand_trace(296, rng), _hand_trace(301, rng)]
    traces[2].times[0] = -0.0
    log = TrajectoryLog(traces=traces)
    got, want = tmp_path / "columns.csv", tmp_path / "rows.csv"
    log.to_csv(got)
    write_csv_rows(log, want)
    assert got.read_bytes() == want.read_bytes()
    assert b",-0.0," in want.read_bytes() and b",-inf," in want.read_bytes()


# signed zeros often, so that runs of 0.0 and -0.0 meet
_values = st.one_of(st.sampled_from([0.0, -0.0]), st.sampled_from(_SPECIAL),
                    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _run_columns(draw, rows, count):
    """`count` float columns of `rows` entries, each of repeated runs."""
    columns = []
    for _ in range(count):
        runs = draw(st.lists(st.tuples(_values, st.integers(1, 12)), min_size=1, max_size=30))
        column = np.concatenate([np.full(n, value) for value, n in runs])
        columns.append(np.resize(column, rows))
    return np.column_stack(columns)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), chunk=st.sampled_from([2, 5, coordination._CSV_CHUNK_ROWS]))
def test_to_csv_matches_the_row_writer_on_repeated_runs(tmp_path_factory, data, chunk):
    """Random columns of repeated runs, in traces of random lengths, write
    the row writer's bytes at every chunk size."""
    traces = []
    for _ in range(data.draw(st.integers(1, 3))):
        T = data.draw(st.integers(1, 300))
        block = data.draw(_run_columns(T, 1 + 3 + 2 + 2 + len(MARGIN_KINDS)))
        traces.append(coordination.AgentTrace(
            times=block[:, 0], states=block[:, 1:4], inputs=block[:, 4:6], w_norms=block[:, 6],
            V=block[:, 7], margins=block[:, 8:],
            step_meta=[{"status": "optimal", "cost": 0.5, "errsq_int": 0.0,
                        "terminal_relaxed": False, "tube_capped": False}]
            * (-(-(T - 1) // OcpConfig.substeps))))
    log = TrajectoryLog(traces=traces)
    directory = tmp_path_factory.getbasetemp()
    got, want = directory / "runs_columns.csv", directory / "runs_rows.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coordination, "_CSV_CHUNK_ROWS", chunk)
        log.to_csv(got)
    write_csv_rows(log, want)
    assert got.read_bytes() == want.read_bytes()


def test_to_csv_needs_every_traces_margins(tmp_path):
    """A log with a trace without margins raises a ValueError naming it,
    single-row logs included, and writes no file; with them, a log of
    single-row traces writes the row writer's bytes."""
    rng = np.random.default_rng(5)
    path = tmp_path / "log.csv"
    for traces in ([_hand_trace(1, rng), _hand_trace(21, rng)],
                   [_hand_trace(1, rng), _hand_trace(1, rng)]):
        traces[1].margins = None
        with pytest.raises(ValueError, match="trace 1 has no margins"):
            TrajectoryLog(traces=traces).to_csv(path)
    assert not path.exists()
    single = TrajectoryLog(traces=[_hand_trace(1, rng), _hand_trace(1, rng)])
    single.to_csv(path)
    write_csv_rows(single, tmp_path / "rows.csv")
    assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _assert_reads_as_the_whole_file(path):
    """from_csv of `path` returns the whole-file reader's traces bit for bit,
    NaN payloads included, and its step records."""
    got, want = TrajectoryLog.from_csv(path, h=0.1), read_csv_whole(path, h=0.1)
    assert len(got.traces) == len(want.traces)
    for a, b in zip(got.traces, want.traces):
        for name in ("times", "states", "inputs", "w_norms", "V", "margins"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype == np.float64 and x.shape == y.shape, name
            assert np.array_equal(x.view(np.int64), y.view(np.int64)), name
        assert repr(a.step_meta) == repr(b.step_meta)


def _rewritten(data, case, rng):
    """The CSV bytes `data` as `case`: "written" as they are; "no final
    newline"; "scrambled", its rows in a random order (agents interleaved,
    steps out of order) with a cost of its own on every row, so that only
    the first row of a step gives the step's record."""
    lines = data.decode().split("\r\n")[:-1]
    if case == "no final newline":
        return data[:-2]
    if case == "scrambled":
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        for k, fields in enumerate(rows):
            if fields[header.index("step")] != "-1":
                fields[header.index("cost")] = repr(0.5 + k)
        lines = [lines[0]] + [",".join(rows[k]) for k in rng.permutation(len(rows))]
    return ("\r\n".join(lines) + "\r\n").encode()


@pytest.mark.parametrize("case", ["written", "no final newline", "scrambled"])
@pytest.mark.parametrize("block", [7, 600, coordination._CSV_BLOCK_BYTES])
def test_from_csv_reads_blocks_as_the_whole_file_reader(monkeypatch, tmp_path, case, block):
    """Blocks of 7 bytes (shorter than a line) and 600 (two or three rows,
    so that block edges fall inside a step's rows and between agents) give
    the whole-file reader's traces and step records, as one block does."""
    rng = np.random.default_rng(8)
    traces = [_hand_trace(301, rng, finite=True), _hand_trace(296, rng, finite=True),
              _hand_trace(301, rng, finite=True)]
    written = tmp_path / "written.csv"
    TrajectoryLog(traces=traces).to_csv(written)
    path = tmp_path / "case.csv"
    path.write_bytes(_rewritten(written.read_bytes(), case, rng))
    assert path.stat().st_size > 100 * 600
    monkeypatch.setattr(coordination, "_CSV_BLOCK_BYTES", block)
    _assert_reads_as_the_whole_file(path)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), block=st.integers(1, 3000))
def test_from_csv_matches_the_whole_file_reader_on_small_logs(tmp_path_factory, data, block):
    """Random small logs of 1 to 3 traces of random lengths, in any of
    `_rewritten`'s forms, read as the whole file reads at any block size."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    traces = [_hand_trace(data.draw(st.integers(1, 80)), rng, finite=True)
              for _ in range(data.draw(st.integers(1, 3)))]
    path = tmp_path_factory.getbasetemp() / "small.csv"
    TrajectoryLog(traces=traces).to_csv(path)
    case = data.draw(st.sampled_from(["written", "no final newline", "scrambled"]))
    path.write_bytes(_rewritten(path.read_bytes(), case, rng))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coordination, "_CSV_BLOCK_BYTES", block)
        _assert_reads_as_the_whole_file(path)


def test_from_csv_names_the_line_of_an_error_in_a_later_block(monkeypatch, tmp_path):
    """In 600-byte blocks, a short row, an unparsable numeric field and an
    unparsable solver field far into the file raise a ValueError that names
    the file and the row's line in the file; a header alone has no data
    rows."""
    rng = np.random.default_rng(9)
    written = tmp_path / "written.csv"
    traces = [_hand_trace(301, rng, finite=True), _hand_trace(301, rng, finite=True)]
    TrajectoryLog(traces=traces).to_csv(written)
    lines = written.read_text().splitlines()
    header = lines[0].split(",")
    monkeypatch.setattr(coordination, "_CSV_BLOCK_BYTES", 600)
    path = tmp_path / "bad.csv"

    def read_with(line, column, value):
        bad = list(lines)
        fields = bad[line - 1].split(",")
        if value is None:
            del fields[column]
        else:
            fields[column] = value
        bad[line - 1] = ",".join(fields)
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError) as caught:
            TrajectoryLog.from_csv(path, h=0.1)
        return str(caught.value)

    assert read_with(500, -1, None) == f"{path}: line 500 has 18 fields, the header 19"
    message = read_with(437, header.index("V"), "abc")
    assert message.startswith(f"{path}: could not convert string 'abc'")
    assert "at line 437," in message
    # line 514 is the first row of agent 1's step 21
    assert lines[513].split(",")[1:3] == ["1", "21"] != lines[512].split(",")[1:3]
    message = read_with(514, header.index("cost"), "abc")
    assert message.startswith(f"{path}: line 514: ") and "abc" in message
    path.write_text(lines[0] + "\r\n")
    with pytest.raises(ValueError, match="no data rows"):
        TrajectoryLog.from_csv(path, h=0.1)


# how each case rewrites a row's fields, the header's included, and the
# first header column that then differs: its number, what it holds and what
# CSV_COLUMNS holds there
_HEADERS = {
    "extra column after V": (lambda fields, new: fields[:10] + [new] + fields[10:],
                             11, "'old'", "'m_inter_agent'"),
    "extra column at the end": (lambda fields, new: fields + [new], 20, "'old'", "nothing"),
    "two columns swapped": (lambda fields, new: [fields[0], fields[2], fields[1], *fields[3:]],
                            2, "'step'", "'agent'"),
    "missing column": (lambda fields, new: fields[:-1], 19, "nothing", "'tube_capped'"),
    "empty file": (None, 1, "''", "'t'"),
}


@pytest.mark.parametrize("case", list(_HEADERS))
def test_from_csv_rejects_another_header(tmp_path, case):
    """A file whose header is not CSV_COLUMNS, its rows rewritten to match
    that header, raises a ValueError that names the file and the header's
    first column that differs; an empty file has an empty header."""
    rewrite, column, got, want = _HEADERS[case]
    path = tmp_path / "log.csv"
    if rewrite is None:
        path.write_text("")
    else:
        rng = np.random.default_rng(14)
        TrajectoryLog(traces=[_hand_trace(31, rng, finite=True)]).to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(",".join(rewrite(line.split(","), "old" if k == 0 else "0.5"))
                                  for k, line in enumerate(lines)) + "\n")
    with pytest.raises(ValueError) as caught:
        TrajectoryLog.from_csv(path, h=0.1)
    assert str(caught.value) == f"{path}: header column {column} is {got}, expected {want}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["nan", "inf", "2.5", "-0.5"])
@pytest.mark.parametrize("name", ["agent", "step"])
def test_from_csv_rejects_an_agent_or_step_that_is_not_an_integer(monkeypatch, tmp_path,
                                                                  name, value):
    """In 600-byte blocks, an agent or step field that parses as a float but
    is not a finite integer, on the first data row or far into the file,
    raises a ValueError naming the file, the line and the field, with no
    warning of numpy's cast before it."""
    rng = np.random.default_rng(12)
    written = tmp_path / "written.csv"
    traces = [_hand_trace(301, rng, finite=True), _hand_trace(301, rng, finite=True)]
    TrajectoryLog(traces=traces).to_csv(written)
    lines = written.read_text().splitlines()
    column = lines[0].split(",").index(name)
    monkeypatch.setattr(coordination, "_CSV_BLOCK_BYTES", 600)
    assert len(lines[0]) + len(lines[1]) < 600 < sum(map(len, lines[:500]))
    path = tmp_path / "bad.csv"
    for line in (2, 500):
        bad = list(lines)
        fields = bad[line - 1].split(",")
        fields[column] = value
        bad[line - 1] = ",".join(fields)
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError) as caught:
            TrajectoryLog.from_csv(path, h=0.1)
        assert str(caught.value) == f"{path}: line {line}: {name} '{value}' is not an integer"


@pytest.mark.parametrize("name, value, problem", [
    ("t", "nan", "not finite"), ("x1", "inf", "not finite"), ("x2", "nan", "not finite"),
    ("w_norm", "-inf", "not finite"), ("V", "nan", "not finite"), ("u0", "nan", "NaN"),
    ("m_neighbor", "nan", "NaN"), ("cost", "inf", "not finite"),
    ("errsq_int", "nan", "not finite")])
def test_from_csv_rejects_a_value_that_no_run_logs(monkeypatch, tmp_path, name, value, problem):
    """In 600-byte blocks, a time, state, w_norm, V, cost or errsq_int that
    is not finite, a NaN margin and a NaN input outside step -1, on the first
    row of a step far into the file, raise a ValueError naming the file, the
    line and the column. The file as written, with +-inf margins and the NaN
    inputs of step -1, reads."""
    rng = np.random.default_rng(13)
    written = tmp_path / "written.csv"
    traces = [_hand_trace(301, rng, finite=True), _hand_trace(301, rng, finite=True)]
    TrajectoryLog(traces=traces).to_csv(written)
    monkeypatch.setattr(coordination, "_CSV_BLOCK_BYTES", 600)
    TrajectoryLog.from_csv(written, h=0.1)
    lines = written.read_text().splitlines()
    assert ",-inf," in written.read_text() and lines[1].split(",")[6:8] == ["nan", "nan"]
    # line 514 is the first row of agent 1's step 21
    fields = lines[513].split(",")
    assert fields[1:3] == ["1", "21"] != lines[512].split(",")[1:3]
    fields[lines[0].split(",").index(name)] = value
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines[:513] + [",".join(fields)] + lines[514:]) + "\n")
    with pytest.raises(ValueError) as caught:
        TrajectoryLog.from_csv(path, h=0.1)
    assert str(caught.value) == f"{path}: line 514: {name} '{value}' is {problem}"


# tracemalloc's peak of from_csv, in multiples of the file's size, on the
# test's 3 x 10,001-row log: 2.4 to 2.5 for the whole-file reader, 1.27 for
# the block reader
_FROM_CSV_PEAK_PER_FILE_BYTE = 1.5


def test_from_csv_holds_one_block_of_text_at_a_time(tmp_path):
    """On a log of the replay benchmark's shape (3 x 10,001 rows, about 9
    MB), the memory that from_csv allocates at its peak stays under
    `_FROM_CSV_PEAK_PER_FILE_BYTE` times the file's size: more than the
    arrays it returns, less than the whole file's text."""
    rng = np.random.default_rng(10)
    traces = []
    for _ in range(3):
        trace = _hand_trace(10_001, rng, finite=True)
        trace.margins = rng.normal(size=(10_001, len(MARGIN_KINDS)))
        traces.append(trace)
    path = tmp_path / "long.csv"
    TrajectoryLog(traces=traces).to_csv(path)
    tracemalloc.start()
    try:
        log = TrajectoryLog.from_csv(path, h=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(trace.times) for trace in log.traces] == [10_001] * 3
    assert peak < _FROM_CSV_PEAK_PER_FILE_BYTE * path.stat().st_size


def _verdicts(report):
    return [(name, c.passed, repr(c.worst_margin), repr(c.worst_time), c.detail)
            for name, c in report.checks.items()]


# each logged trace field and the shape of one of its rows
_LOGGED = (("times", ()), ("states", (3,)), ("inputs", (2,)), ("w_norms", ()), ("V", ()))


def _listed(log):
    """`log` rebuilt from Python lists, of floats or of rows, with its
    margins and step records."""
    return TrajectoryLog(traces=[
        coordination.AgentTrace(times=tr.times.tolist(), states=list(tr.states),
                                inputs=[row.tolist() for row in tr.inputs],
                                w_norms=tr.w_norms.tolist(), V=list(tr.V),
                                margins=tr.margins, step_meta=tr.step_meta)
        for tr in log.traces])


def _assert_logged_rows(trace, rows):
    """Each of `trace`'s logged fields is a float64 array of `rows` rows."""
    for name, row in _LOGGED:
        value = getattr(trace, name)
        assert type(value) is np.ndarray and value.dtype == np.float64, name
        assert value.shape == (rows, *row), name


def test_finalized_log_holds_arrays_of_the_engines_rows(tmp_path):
    """finalize_log takes the engine's arrays as they are: each field holds
    the bits of the simulation's own rows, read-only, a second finalize_log
    gives the same bits, and the CSV and verify's verdicts are those of the
    same log built from lists."""
    scenario = load_scenario(SCENARIO)
    sim = scenario.build_simulation(total_time=0.3)
    log = sim.run()
    again = sim.finalize_log()
    for trace, first, second in zip(sim.traces, log.traces, again.traces):
        _assert_logged_rows(trace, 31)
        for name, _ in _LOGGED:
            rows = getattr(trace, name)
            for done in (first, second):
                value = getattr(done, name)
                assert value.dtype == np.float64 and value.tobytes() == rows.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    value[0] = 1.0
        assert trace.margins is None
        assert np.array_equal(first.margins, second.margins)
        assert first.step_meta == trace.step_meta and first.step_meta is not trace.step_meta
    listed = _listed(log)
    log.to_csv(tmp_path / "log.csv")
    write_csv_rows(listed, tmp_path / "rows.csv")
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    listed.to_csv(tmp_path / "listed.csv")
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()
    world = scenario.build_world()
    assert (_verdicts(certify.verify(log, world, scenario))
            == _verdicts(certify.verify(listed, world, scenario)))


def test_traces_hold_the_rows_logged_after_every_step(monkeypatch):
    """Before and after every step of a 0.3 s run, each trace field is a
    float64 array of exactly the rows logged so far: the t = 0 row and
    `OcpConfig.substeps` per step taken."""
    sim = _simulation(total_time=0.3)
    real_step, steps = Simulation.step, []

    def step(self, k):
        for trace in self.traces:
            _assert_logged_rows(trace, 1 + k * OcpConfig.substeps)
        real_step(self, k)
        for trace in self.traces:
            _assert_logged_rows(trace, 1 + (k + 1) * OcpConfig.substeps)
        steps.append(k)

    monkeypatch.setattr(Simulation, "step", step)
    sim.run()
    assert steps == [0, 1, 2]


def test_list_form_traces_hold_the_bits_of_array_form():
    """A trace built from lists (of floats, of row arrays, of row lists)
    holds the float64 arrays, bit for bit, of one built from the arrays,
    NaN inputs and -0.0 included; a trace of no rows has the rows' widths."""
    log = _simulation(w_bar=0.05, total_time=0.3).run()
    for trace, listed in zip(log.traces, _listed(log).traces):
        assert trace.inputs[0].tobytes() == np.full(2, np.nan).tobytes()
        _assert_logged_rows(listed, 31)
        for name, _ in _LOGGED:
            assert getattr(listed, name).tobytes() == getattr(trace, name).tobytes(), name
    signed = coordination.AgentTrace(times=[0.0, -0.0], states=[[-0.0, 0.0, 1.0]] * 2,
                                     inputs=[np.full(2, np.nan), np.array([-0.0, 0.0])],
                                     w_norms=[0.0, 0.0], V=[-0.0, 0.0])
    assert signed.times.tobytes() == np.array([0.0, -0.0]).tobytes()
    assert signed.inputs.tobytes() == np.array([[np.nan, np.nan], [-0.0, 0.0]]).tobytes()
    _assert_logged_rows(coordination.AgentTrace(), 0)


def test_log_finalized_mid_run_keeps_its_rows(monkeypatch):
    """A log finalized after the first step keeps that step's rows and bits
    while the run logs two more steps, and it holds the first rows of the
    run's own log."""
    sim = _simulation(w_bar=0.05, total_time=0.3)
    real_step, early = Simulation.step, []

    def step(self, k):
        real_step(self, k)
        if k == 0:
            log = self.finalize_log()
            early.append((log, [[getattr(tr, name).copy() for name, _ in _LOGGED]
                                for tr in log.traces]))

    monkeypatch.setattr(Simulation, "step", step)
    final = sim.run()
    [(log, copies)] = early
    rows = 1 + OcpConfig.substeps
    for trace, copied, done in zip(log.traces, copies, final.traces):
        _assert_logged_rows(trace, rows)
        _assert_logged_rows(done, 31)
        for (name, _), value in zip(_LOGGED, copied):
            assert getattr(trace, name).tobytes() == value.tobytes(), name
            assert getattr(done, name)[:rows].tobytes() == value.tobytes(), name
        assert len(trace.step_meta) == 1 and trace.margins.shape == (rows, len(MARGIN_KINDS))


def test_partial_log_is_finalized_from_the_rows_so_far(monkeypatch, tmp_path):
    """An abort's partial log is a finalized log of traces of different
    lengths, the rows logged before the abort: the agent after the failing
    one has one step fewer. Each field holds the engine's rows, and the CSV
    and verdicts are those of the same log built from lists."""
    scenario = load_scenario(SCENARIO)
    sim = scenario.build_simulation(total_time=0.3)
    real = coordination.solve_ladder
    failing = sim.schedule[1]

    def ladder(problem, config):
        if (problem.agent, problem.t) == (failing, 0.2):
            raise RuntimeError("stop here")
        return real(problem, config)

    monkeypatch.setattr(coordination, "solve_ladder", ladder)
    with pytest.raises(SimulationError) as caught:
        sim.run()
    log = caught.value.partial_log
    rows = {i: 31 if k < 1 else 21 for k, i in enumerate(sim.schedule)}
    for i, (trace, done) in enumerate(zip(sim.traces, log.traces)):
        _assert_logged_rows(trace, rows[i])
        _assert_logged_rows(done, rows[i])
        assert done.margins.shape == (rows[i], len(MARGIN_KINDS))
        assert len(done.step_meta) == (rows[i] - 1) // OcpConfig.substeps
        for name, _ in _LOGGED:
            assert getattr(done, name).tobytes() == getattr(trace, name).tobytes(), name
    log.to_csv(tmp_path / "log.csv")
    write_csv_rows(_listed(log), tmp_path / "rows.csv")
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    world = scenario.build_world()
    assert (_verdicts(certify.verify(log, world, scenario))
            == _verdicts(certify.verify(_listed(log), world, scenario)))


# traced bytes that a run holds per logged row, beyond a shorter run's: the
# float data is 64 (8 columns), and each step's solve record adds about 60
_HELD_BYTES_PER_ROW = 250


def test_a_run_holds_few_bytes_per_logged_row():
    """The memory that a finished run's simulation holds grows by less than
    `_HELD_BYTES_PER_ROW` per logged row between a 0.3 s and a 1.0 s run,
    as tracemalloc sees it, after a first run that fills the caches (about
    120 bytes; Python objects per row took about 490)."""

    def held(total_time):
        sim = _simulation(total_time=total_time)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim.run()  # the log, dropped, holds only views and its margins
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return grown, sum(len(trace.times) for trace in sim.traces)

    held(0.3)
    (short, short_rows), (long, long_rows) = held(0.3), held(1.0)
    assert (long - short) / (long_rows - short_rows) < _HELD_BYTES_PER_ROW


def test_traces_without_rows_finalize(tmp_path):
    """A simulation finalized before its first logged row gives each agent
    arrays of no rows, states and inputs of the model's widths, and no
    margins; its CSV is the header alone."""
    scenario = load_scenario(SCENARIO)
    log = scenario.build_simulation(total_time=0.3).finalize_log()
    for trace in log.traces:
        assert trace.times.shape == trace.w_norms.shape == trace.V.shape == (0,)
        assert trace.states.shape == (0, 3) and trace.inputs.shape == (0, 2)
        assert trace.margins.shape == (0, len(MARGIN_KINDS))
    log.to_csv(tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_bytes() == (
        ",".join(coordination.CSV_COLUMNS) + "\r\n").encode()


# chunk lengths of WorldModel.logged_margins: one row, a few rows, the
# program's and more rows than any test log has
_CHUNKS = [1, 7, constraints._LOGGED_CHUNK_ROWS, 100_000]


def _assert_margins_as_whole(sim, log):
    """`log`, finalized by `sim`, holds the whole-log pass's margins bit for
    bit."""
    for trace, want in zip(log.traces, fill_margins_whole(sim, log)):
        assert trace.margins.dtype == want.dtype and trace.margins.shape == want.shape
        assert np.array_equal(trace.margins.view(np.int64), want.view(np.int64))


def _assert_logged_as_whole(sim, log, world, scenario):
    """`log`, finalized by `sim`, holds the whole-log pass's margins bit for
    bit, and verify's geometric checks are the whole-log pass's by repr."""
    _assert_margins_as_whole(sim, log)
    checks = certify.verify(log, world, scenario).checks
    for name, want in verify_geometry_whole(log, world, scenario).items():
        assert repr(checks[name]) == repr(want), name


@pytest.fixture(scope="module")
def aborted_run():
    """The bundled scenario's 0.5 s run whose 8th solve raises, as in
    tests/test_cli.py: its simulation, whose traces hold 21, 21 and 31 rows."""
    ladder, calls = coordination.solve_ladder, []

    def eighth_solve_raises(problem, config):
        calls.append(None)
        if len(calls) == 8:
            raise RuntimeError("solver diverged: forced")
        return ladder(problem, config)

    scenario = load_scenario(SCENARIO)
    sim = scenario.build_simulation(total_time=0.5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coordination, "solve_ladder", eighth_solve_raises)
        with pytest.raises(SimulationError):
            sim.run()
    return scenario, sim


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_partial_log_margins_and_verdicts_in_chunks(monkeypatch, aborted_run, chunk):
    """An aborted run's log, whose traces differ in length, has the whole-log
    pass's margins and geometric checks at every chunk length."""
    scenario, sim = aborted_run
    monkeypatch.setattr(constraints, "_LOGGED_CHUNK_ROWS", chunk)
    log = sim.finalize_log()
    assert [len(trace.times) for trace in log.traces] == [21, 21, 31]
    _assert_logged_as_whole(sim, log, scenario.build_world(), scenario)


def _long_simulation(rows=10_001, seed=11):
    """The bundled scenario's 100 s simulation with hand-built traces of
    `rows` samples each, as the engine keeps them (lists of rows): positions
    scattered about each start by a unit normal, so that agents come within
    and leave sensing range."""
    scenario = load_scenario(SCENARIO)
    sim = scenario.build_simulation(total_time=100.0)
    rng = np.random.default_rng(seed)
    times = [0.01 * k for k in range(rows)]
    sim.traces = []
    for start in sim.states:
        states = start + rng.normal(size=(rows, 3))
        sim.traces.append(coordination.AgentTrace(
            times=list(times), states=list(states), inputs=list(rng.normal(size=(rows, 2))),
            w_norms=rng.uniform(0.0, 0.1, rows).tolist(), V=rng.uniform(size=rows).tolist()))
    return scenario, sim


@pytest.mark.parametrize("chunk", [constraints._LOGGED_CHUNK_ROWS, 100_000])
def test_long_log_margins_and_verdicts_in_chunks(monkeypatch, chunk):
    """A log of 10,001 rows per agent, several chunks long, has the
    whole-log pass's margins and geometric checks. With agent 1's position
    NaN at one sample of the last chunk it still has the whole-log pass's
    margins, and verify raises a ValueError that names the sample."""
    scenario, sim = _long_simulation()
    monkeypatch.setattr(constraints, "_LOGGED_CHUNK_ROWS", chunk)
    world = scenario.build_world()
    _assert_logged_as_whole(sim, sim.finalize_log(), world, scenario)
    sim.traces[1].states[-5] = np.full(3, np.nan)
    log = sim.finalize_log()
    _assert_margins_as_whole(sim, log)
    with pytest.raises(ValueError,
                       match="agent 1's logged time or position at row 9996 is not finite"):
        certify.verify(log, world, scenario)


# tracemalloc peaks on _long_simulation's 3 x 10,001-row log: finalize_log's
# in multiples of the bytes of the arrays it returns (2.77 for the whole-log
# pass, 1.40 in chunks of 2,048 rows), verify's as a fraction of the
# whole-log geometry pass's (1.00 for a verify on the whole log, 0.29 in
# chunks of 2,048 rows)
_FINALIZE_PEAK_PER_OUTPUT_BYTE = 1.75
_VERIFY_PEAK_PER_WHOLE_LOG_PEAK = 0.5


def _traced_peak(fn, *args):
    """(fn(*args), the bytes that tracemalloc saw allocated at its peak)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_post_run_geometry_holds_one_chunk_at_a_time():
    """On a log of the replay benchmark's shape, finalize_log allocates at
    its peak less than `_FINALIZE_PEAK_PER_OUTPUT_BYTE` times the arrays it
    returns, and verify less than `_VERIFY_PEAK_PER_WHOLE_LOG_PEAK` of what
    the whole-log geometry pass allocates."""
    scenario, sim = _long_simulation()
    world = scenario.build_world()
    log, peak = _traced_peak(sim.finalize_log)
    output = sum(getattr(trace, name).nbytes for trace in log.traces
                 for name in ("times", "states", "inputs", "w_norms", "V", "margins"))
    assert peak < _FINALIZE_PEAK_PER_OUTPUT_BYTE * output
    whole = _traced_peak(verify_geometry_whole, log, world, scenario)[1]
    assert _traced_peak(certify.verify, log, world, scenario)[1] < (
        _VERIFY_PEAK_PER_WHOLE_LOG_PEAK * whole)


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_verify_keeps_the_whole_logs_worst_time_across_chunks(monkeypatch, chunk):
    """Two obstacle columns of agent 0 tie at their smallest margin, obst1's
    at row 3 and obst0's at row 10: the whole log tracks obst0 first and
    keeps row 10, in chunks of 7 rows too, where obst1's minimum comes
    first. Agent 2, 1.1 m from agent 0, holds the smallest separation. With
    its position NaN at row 12, verify raises a ValueError naming the row."""
    scenario = load_scenario(SCENARIO)
    center = np.array(scenario.build_world().workspace.center)
    world = dataclasses.replace(
        scenario.build_world(), obstacles=[Ball(center + [5.0, 0.0], 1.0),
                                           Ball(center - [5.0, 0.0], 1.0)])
    T = 15
    paths = np.zeros((3, T, 3))
    paths[:, :, :2] = center
    paths[0, 3, 0] -= 2.0
    paths[0, 10, 0] += 2.0
    paths[1, :, 1] += 1.2
    paths[2, :, 1] -= 1.1
    times = 0.01 * np.arange(T)
    log = TrajectoryLog(traces=[coordination.AgentTrace(
        times=times, states=path, inputs=np.zeros((T, 2)), w_norms=np.zeros(T), V=np.zeros(T))
        for path in paths])
    monkeypatch.setattr(constraints, "_LOGGED_CHUNK_ROWS", chunk)
    checks = certify.verify(log, world, scenario).checks
    for name, want in verify_geometry_whole(log, world, scenario).items():
        assert repr(checks[name]) == repr(want), name
    assert checks["obstacle-clearance"].worst_time == times[10]
    assert checks["inter-agent-separation"].worst_margin == pytest.approx(1.1 - 1.01)
    log.traces[2].states[12] = np.nan
    with pytest.raises(ValueError, match="agent 2's logged time or position at row 12"):
        certify.verify(log, world, scenario)


def test_separation_maintained_head_on():
    """Two agents with swapped lanes pass each other without violating the
    separation threshold read back from the log margins."""
    world = _world(2)
    starts = [np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.2, 0.0])]
    goals = [np.array([2.0, 1.2, 0.0]), np.array([2.0, 0.0, 0.0])]
    cfg = OcpConfig(h=0.1, T_p=0.6, Q=0.5 * np.eye(3), R=0.05 * np.eye(2),
                    P=0.3 * np.eye(3), eps_omega=0.01, u_bar=8.0)
    sim = Simulation(world=world, references=goals, config=cfg,
                     profile=TubeProfile(1e-12, 2.0), schedule=[0, 1],
                     disturbances=[None, None], initial_states=starts,
                     total_time=1.5, tube_cap=0.3)
    log = sim.run()
    for trace in log.traces:
        assert trace.margins[:, MARGIN_KINDS.index("inter-agent")].min() >= -1e-6


def test_infeasible_initial_configuration_aborts():
    sim = _simulation()
    sim.states[1] = np.array([0.0, 0.5, 0.0])  # overlapping bodies
    with pytest.raises(ValueError, match="initial configuration"):
        sim.run()


def test_starts_and_tube_radii_built_on_demand(monkeypatch):
    """The starts are the zero input before an agent's first solve and the
    shifted previous plan, then the zero input, after it; the tube radii are
    built once per simulation, at its first solve, not once per solve."""
    radii, tube_profile_radii = [], coordination.tube_profile_radii
    problems, ladder = [], coordination.solve_ladder

    def counted(*args, **kwargs):
        radii.append(1)
        return tube_profile_radii(*args, **kwargs)

    def recorded(problem, config):
        problems.append(problem)
        return ladder(problem, config)

    monkeypatch.setattr(coordination, "tube_profile_radii", counted)
    monkeypatch.setattr(coordination, "solve_ladder", recorded)
    sim = _simulation(total_time=0.3)
    zeros = np.zeros((sim.config.n_stages, 2))
    assert not radii
    sim.run()
    starts = problems[sim.schedule.index(0)].starts  # agent 0's first solve
    assert isinstance(starts, list) and len(starts) == 1
    np.testing.assert_array_equal(starts[0], zeros)
    starts = sim.problem(0, 0.3).starts
    assert isinstance(starts, list) and len(starts) == 2
    np.testing.assert_array_equal(
        starts[0], warm_start_shift(sim.prev_solution[0], sim.errordyns[0].z_des, sim.config))
    np.testing.assert_array_equal(starts[1], zeros)
    assert len(radii) == 1


def test_restore_runs_once_from_the_best_near_feasible_attempt(monkeypatch):
    """When every start of a relaxed solve ends infeasible, the ladder
    restores feasibility once, from the inputs of the attempt with the
    lowest residual, and accepts the attempt from the restored plan. The
    solve is relaxed and follows a relaxed one, so its starts are the
    shifted plan and zero input: with the restoration and the attempt from
    the restored plan they make 4 attempts, with no re-attempt from an
    infeasible attempt's inputs."""
    solve_fhocp, restore = coordination.solve_fhocp, coordination.restore_feasibility
    ladder = coordination.solve_ladder
    sim = load_scenario(SCENARIO).build_simulation(total_time=0.2)
    target = (sim.schedule[0], 0.1)  # that agent's second solve: two starts
    current, attempts, restores = {}, [], []

    def tracked(problem, config):
        current["solve"] = (problem.agent, problem.t)
        return ladder(problem, config)

    def near_feasible(*args, **kwargs):
        sol = solve_fhocp(*args, **kwargs)
        if current["solve"] == target:
            if len(attempts) < 2:  # the two starts
                sol.status = "infeasible"
                sol.solve_stats["residual"] = (3e-2, 1e-2)[len(attempts)]
            attempts.append((kwargs, sol))
        return sol

    def recorded(*args, **kwargs):
        restored = restore(*args, **kwargs)
        restores.append((args[4], restored[0]))
        return restored

    monkeypatch.setattr(coordination, "solve_ladder", tracked)
    monkeypatch.setattr(coordination, "solve_fhocp", near_feasible)
    monkeypatch.setattr(coordination, "restore_feasibility", recorded)
    log = sim.run()

    i, t_k = target
    assert len(attempts) == 3
    assert all(not kwargs["use_terminal"] for kwargs, _ in attempts)
    (first, _), (second, _), (last, accepted) = attempts
    assert first["warm_start"].any() and not second["warm_start"].any()
    assert len(restores) == 1
    start, restored = restores[0]
    np.testing.assert_array_equal(start, attempts[1][1].inputs)  # residual 1e-2
    np.testing.assert_array_equal(last["warm_start"], restored)
    assert accepted.status != "infeasible"
    assert sim.prev_solution[i] is accepted
    meta = next(m for m in log.traces[i].step_meta if m["t"] == t_k)
    # the record relabels the accepted relaxed solve; the solution keeps its status
    assert meta["status"] == "feasible-suboptimal"
    assert meta["attempts"] == 4


def test_step_meta_covers_the_whole_ladder(monkeypatch):
    """attempts, iterations and wall_time in step_meta cover every
    solve_fhocp and restore_feasibility call of a solve, not its last one."""
    calls = {"attempts": 0, "iterations": 0, "seconds": 0.0}

    def counted(fn, iterations_of):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            calls["seconds"] += time.perf_counter() - start
            calls["attempts"] += 1
            calls["iterations"] += iterations_of(result)
            return result
        return wrapper

    monkeypatch.setattr(coordination, "solve_fhocp", counted(
        coordination.solve_fhocp, lambda sol: sol.solve_stats["iterations"]))
    monkeypatch.setattr(coordination, "restore_feasibility", counted(
        coordination.restore_feasibility, lambda restored: restored[1]))
    log = load_scenario(SCENARIO).build_simulation(total_time=0.3).run()
    metas = [meta for trace in log.traces for meta in trace.step_meta]
    assert len(metas) == 9
    assert all(meta["attempts"] >= 1 for meta in metas)
    assert sum(meta["attempts"] for meta in metas) == calls["attempts"]
    assert sum(meta["iterations"] for meta in metas) == calls["iterations"]
    assert sum(meta["wall_time"] for meta in metas) >= calls["seconds"]


def test_solve_stats_stay_the_accepted_attempts_own(monkeypatch):
    """The ladder writes its totals into the solve's record, not into the
    accepted attempt's `solve_stats`: those keep exactly the keys and the
    iteration count solve_fhocp returned. Agent 0, at rest near its goal,
    has its first (terminal-enforced) attempt made infeasible, so its solve
    takes two attempts."""
    sim = _simulation(total_time=0.1)
    sim.states = [np.array([2.98, 0.01, 0.02]), np.array([3.01, 1.19, -0.01])]
    sim._bootstrap_board()
    real_solve, calls = coordination.solve_fhocp, []

    def solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        if not calls:
            sol.status, sol.solve_stats["residual"] = "infeasible", 1.0
        calls.append((sol, set(sol.solve_stats), sol.solve_stats["iterations"]))
        return sol

    monkeypatch.setattr(coordination, "solve_fhocp", solve)
    sol, record = solve_ladder(sim.problem(0, 0.0), sim.config)
    assert len(calls) == 2 and sol is calls[1][0]
    assert set(sol.solve_stats) == calls[1][1]
    assert sol.solve_stats["iterations"] == calls[1][2]
    assert record["attempts"] == 2
    assert record["iterations"] == calls[0][2] + calls[1][2]


def test_problems_re_solve_alone_bit_for_bit(monkeypatch):
    """Each agent-solve is a function of its problem and the config alone:
    every problem of a 0.3 s run of the bundled scenario, pickled as the run
    makes it, re-solves from its bytes alone to the same plan, cost, status
    and record, wall time aside."""
    ladder, solved = coordination.solve_ladder, []

    def recorded(problem, config):
        blob = pickle.dumps(problem)
        solved.append((blob, *ladder(problem, config)))
        return solved[-1][1:]

    monkeypatch.setattr(coordination, "solve_ladder", recorded)
    sim = load_scenario(SCENARIO).build_simulation(total_time=0.3)
    sim.run()
    assert len(solved) == 9
    for blob, sol, record in solved:
        again, again_record = ladder(pickle.loads(blob), sim.config)
        assert again.inputs.tobytes() == sol.inputs.tobytes()
        assert again.dense_errors.tobytes() == sol.dense_errors.tobytes()
        assert (repr(again.cost), again.status) == (repr(sol.cost), sol.status)
        assert (repr({**again_record, "wall_time": None})
                == repr({**record, "wall_time": None}))


def test_terminal_exclusion_leaves_trajectory_unchanged(monkeypatch):
    """Skipping terminal-enforced tiers that StageGeometry.terminal_excluded
    proves infeasible changes no accepted solution. In the bundled scenario
    agent 1's terminal ball at t = 0.9-1.1 lies beyond its connectivity
    reach: with the check those solves make no terminal-enforced call and
    carry `terminal_excluded`; without it they try the tier and fail it."""
    terminal_calls = []
    agent_step = {}
    ladder = coordination.solve_ladder
    solve_fhocp = coordination.solve_fhocp

    def tagged_ladder(problem, config):
        agent_step["now"] = (problem.agent, round(problem.t, 1))
        return ladder(problem, config)

    def recorded_solve_fhocp(*args, **kwargs):
        if kwargs["use_terminal"]:
            terminal_calls.append(agent_step["now"])
        return solve_fhocp(*args, **kwargs)

    monkeypatch.setattr(coordination, "solve_ladder", tagged_ladder)
    monkeypatch.setattr(coordination, "solve_fhocp", recorded_solve_fhocp)
    skipped = {(1, 0.9), (1, 1.0), (1, 1.1)}

    def run():
        terminal_calls.clear()
        return load_scenario(SCENARIO).build_simulation(total_time=1.2).run()

    with_check = run()
    assert not skipped & set(terminal_calls)
    assert {(i, round(meta["t"], 1)) for i, trace in enumerate(with_check.traces)
            for meta in trace.step_meta if meta["terminal_excluded"]} == skipped

    monkeypatch.setattr(StageGeometry, "terminal_excluded", lambda self, *args: False)
    without_check = run()
    assert skipped <= set(terminal_calls)
    assert not any(meta["terminal_excluded"] for trace in without_check.traces
                   for meta in trace.step_meta)
    for ta, tb in zip(with_check.traces, without_check.traces):
        assert np.array_equal(np.asarray(ta.states), np.asarray(tb.states))
        assert np.array_equal(np.asarray(ta.inputs), np.asarray(tb.inputs), equal_nan=True)
        assert [m["cost"] for m in ta.step_meta] == [m["cost"] for m in tb.step_meta]


def test_engine_calls_the_benchmark_hooks(monkeypatch):
    """perfbench times each agent-solve at `coordination.integrate`, which the
    engine calls once per agent-solve, and traces its layers at
    `coordination.solve_fhocp`, `ocp.minimize`, `ocp.rollout_zoh`,
    `constraints.StageGeometry.margins` and `coordination.tube_profile_radii`.
    A refactor that binds one of these names elsewhere would zero a benchmark
    span without an error; this fails instead. Every solve and restoration
    calls `ocp.minimize` once, and its result carries integer `nit` and
    `nfev`, which the benchmark's tracer sums. The rollout span counts the
    rows of its second argument, so every rollout must get the initial error
    of the solve or restoration it serves there, of shape (n,)."""
    calls = {}
    solving = []      # the initial error of the solve in progress

    def counted(owner, name, check=None, check_result=None):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if check is not None:
                check(args)
            result = fn(*args, **kwargs)
            if check_result is not None:
                check_result(result)
            return result
        monkeypatch.setattr(owner, name, wrapper)

    def solve(owner, name):
        fn = getattr(owner, name)

        def wrapper(errordyn, e0, *args, **kwargs):
            solving.append(np.array(e0, dtype=float))
            try:
                return fn(errordyn, e0, *args, **kwargs)
            finally:
                solving.pop()
        monkeypatch.setattr(owner, name, wrapper)

    def rollout_args(args):
        assert len(solving) == 1
        assert args[1].shape == (3,) and np.array_equal(args[1], solving[0])

    def integer_counts(result):
        assert type(result.nit) is int and type(result.nfev) is int

    solve(coordination, "solve_fhocp")
    solve(coordination, "restore_feasibility")
    counted(coordination, "integrate")
    counted(coordination, "solve_fhocp")
    counted(coordination, "restore_feasibility")
    counted(ocp, "minimize", check_result=integer_counts)
    counted(ocp, "rollout_zoh", rollout_args)
    counted(StageGeometry, "margins")
    counted(coordination, "tube_profile_radii")
    # agents on their way (relaxed solves) and agents at rest (terminal-
    # enforced solves)
    for at_rest in (False, True):
        calls.clear()
        sim = _simulation(w_bar=0.05, total_time=0.3)
        if at_rest:
            sim.states = [np.array([2.98, 0.01, 0.02]), np.array([3.01, 1.19, -0.01])]
        log = sim.run()
        metas = [meta for trace in log.traces for meta in trace.step_meta]
        assert len(metas) == 6
        assert calls["integrate"] == len(metas)
        assert calls["solve_fhocp"] >= len(metas)
        assert calls["minimize"] == calls["solve_fhocp"] + calls.get("restore_feasibility", 0)
        assert calls["rollout_zoh"] >= calls["solve_fhocp"]
        # at most one margin evaluation per rollout: a relaxed solve's line
        # search rejects a trial whose cost alone misses its bound without
        # its margins; at rest every rollout's margins are read. The tube
        # radii once per simulation
        if at_rest:
            assert calls["margins"] == calls["rollout_zoh"]
        else:
            assert calls["margins"] <= calls["rollout_zoh"]
        assert calls["tube_profile_radii"] == 1
    assert calls["minimize"] >= 6


def test_sensing_reads_earlier_agents_after_their_move(monkeypatch):
    """The engine's information pattern: within a step, `sensing_set` gets
    the current states, so the agent scheduled second senses the first one
    where its move of this step ended and itself where it stands at t_k;
    the first one senses the second at t_k. Each solve's constraints use the
    newest posted plans: the first agent's of this step, the second agent's
    of the previous step."""
    sim = _simulation(total_time=0.3, schedule=[1, 0])
    sensed, moved, posted = [], [], []
    real_sensing, real_integrate = coordination.sensing_set, coordination.integrate
    real_ladder = coordination.solve_ladder

    def sensing(agent, positions, d_i):
        sensed.append((agent, np.array(positions)))
        return real_sensing(agent, positions, d_i)

    def integrate(z, *args):
        times, states, w_norms = real_integrate(z, *args)
        moved.append(states[-1][UNICYCLE.position_slice].copy())
        return times, states, w_norms

    def ladder(problem, config):
        posted.append((problem.agent, problem.t,
                       {j: entry.t0 for j, entry in sim.board.items()}))
        return real_ladder(problem, config)

    monkeypatch.setattr(coordination, "sensing_set", sensing)
    monkeypatch.setattr(coordination, "integrate", integrate)
    monkeypatch.setattr(coordination, "solve_ladder", ladder)
    sim.run()
    assert [agent for agent, _ in sensed] == [1, 0] * 3
    here = {0: np.array([0.0, 0.0]), 1: np.array([0.0, 1.2])}  # the starts
    for k in range(3):
        (_, first), (_, second) = sensed[2 * k], sensed[2 * k + 1]
        assert np.array_equal(first[0], here[0]) and np.array_equal(first[1], here[1])
        # agent 1 has moved: the second solve senses it at t_k + h
        assert np.array_equal(second[1], moved[2 * k])
        assert not np.array_equal(second[1], here[1])
        assert np.array_equal(second[0], here[0])
        here = {1: moved[2 * k], 0: moved[2 * k + 1]}
    for i, t_k, t0 in posted:
        other = 1 - i
        assert t0[other] == (t_k if i == 0 else max(t_k - 0.1, 0.0)), (i, t_k)


def _probes(cfg):
    """The ladder's lateral probes, in their order: 1 turn stage +/-, then
    2 turn stages +/-, driving at 0.7 u_bar after the turn."""
    mag = 0.7 * cfg.u_bar
    out = []
    for turn_stages in (1, 2):
        for sign in (1.0, -1.0):
            probe = np.zeros((cfg.n_stages, 2))
            probe[:turn_stages, 1] = sign * mag
            probe[turn_stages:, 0] = mag
            out.append(probe)
    return out


def test_blocked_plan_tries_the_untried_starts_then_the_probes(monkeypatch):
    """A feasible plan that barely moves far from the goal is blocked: the
    ladder then tries the starts not yet tried and the four lateral probes,
    in that order, and the cheapest feasible plan wins, the first of equal
    costs. Agent 0's second solve is over 1 m from its goal; its
    terminal-enforced attempts are made infeasible, and its relaxed attempt
    from the shifted plan the blocked plan."""
    sim = _simulation(total_time=0.2)
    sim._bootstrap_board()
    sim._log_initial()
    sim.step(0)
    problem = sim.problem(0, 0.1)
    shifted, zeros = problem.starts
    real_solve, calls, terminal = coordination.solve_fhocp, [], []
    # the shifted start, the zero start, then the four probes; one probe is
    # cheapest but infeasible, and two feasible ones tie at the lowest cost
    costs = [10.0, 7.0, 3.0, 5.0, 6.0, 5.0]

    def solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        if kwargs["use_terminal"]:
            sol.status, sol.solve_stats["residual"] = "infeasible", 1.0
            terminal.append(sol)
            return sol
        sol.status, sol.cost = "feasible-suboptimal", costs[len(calls)]
        sol.solve_stats["residual"] = 0.0
        if len(calls) == 0:  # the shifted attempt: a plan that stays put
            sol.dense_errors = np.repeat(sol.dense_errors[:1], len(sol.dense_errors), axis=0)
        if len(calls) == 2:
            sol.status, sol.solve_stats["residual"] = "infeasible", 1.0
        calls.append((kwargs, sol))
        return sol

    monkeypatch.setattr(coordination, "solve_fhocp", solve)
    sol, record = solve_ladder(problem, sim.config)
    starts = [kwargs["warm_start"] for kwargs, _ in calls]
    assert len(calls) == 6
    np.testing.assert_array_equal(starts[0], shifted)
    for got, want in zip(starts[1:], [zeros, *_probes(sim.config)]):
        np.testing.assert_array_equal(got, want)
    assert sol is calls[3][1]
    assert record["attempts"] == len(terminal) + 6
    assert record["terminal_relaxed"] and not record["tube_capped"]


def test_all_tiers_failing_returns_the_first_lowest_residual_attempt(monkeypatch):
    """When every attempt of both tiers ends infeasible, the solve returns
    the attempt with the lowest residual, the first of equal ones, and the
    run aborts with a SimulationError that reports it. Agent 0, 1.5 m from
    its goal, walks the terminal and relaxed tiers from its one (zero)
    start. Only the relaxed tier restores: it restores feasibility once,
    however far its residual, and retries, and the retry ties that
    residual; the terminal tier falls through to it without restoring."""
    sim = _simulation(total_time=0.2)
    sim.states = [np.array([1.5, 0.0, 0.0]), np.array([1.5, 1.2, 0.0])]
    real_solve, real_ladder = coordination.solve_fhocp, coordination.solve_ladder
    real_restore = coordination.restore_feasibility
    residuals = [0.5, 0.3, 0.3]
    calls, restores, returned, events = [], [], [], []

    def solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        sol.status, sol.solve_stats["residual"] = "infeasible", residuals[len(calls)]
        calls.append((kwargs, sol))
        events.append("terminal" if kwargs["use_terminal"] else "relaxed")
        return sol

    def restore(*args, **kwargs):
        restores.append(real_restore(*args, **kwargs))
        events.append("restore")
        return restores[-1]

    def ladder(problem, config):
        returned.append(real_ladder(problem, config))
        return returned[-1]

    monkeypatch.setattr(coordination, "solve_fhocp", solve)
    monkeypatch.setattr(coordination, "restore_feasibility", restore)
    monkeypatch.setattr(coordination, "solve_ladder", ladder)
    with pytest.raises(SimulationError, match=r"agent 0 infeasible at t = 0\.000 "
                                              r"\(residual 0\.3\)") as err:
        sim.run()
    assert (err.value.agent, err.value.t) == (0, 0.0)
    assert events == ["terminal", "relaxed", "restore", "relaxed"]
    assert not calls[1][0]["warm_start"].any()
    assert calls[2][0]["warm_start"].any()  # the restored plan
    assert len(returned) == 1 and returned[0][0] is calls[1][1]
    assert returned[0][1] is None  # no record for a failed solve
    assert len(calls) + len(restores) == 4  # 3 solves and 1 restoration


def test_tube_is_chosen_once_per_simulation(monkeypatch):
    """_tube clips the tube profile at tube_cap, and flags it capped, when
    the profile exceeds the cap on the horizon; otherwise it returns the
    profile itself, uncapped. Every attempt of a solve is tightened by that
    one tube, also when the uncapped profile leaves every pair window open:
    no attempt runs uncapped."""
    for cap in (None, 0.3, 0.05):
        sim = _simulation(w_bar=0.1)
        sim.tube_cap = cap
        dense_taus, rho, capped = sim._tube
        rho_full = coordination.tube_profile_radii(sim.profile, dense_taus)
        assert 0.05 < rho_full.max() < 0.3
        assert capped == (cap == 0.05)
        assert np.array_equal(rho, np.minimum(rho_full, 0.05) if capped else rho_full)

    sim._bootstrap_board()  # the last simulation, whose cap binds
    problem = sim.problem(0, 0.0)
    sep, conn = problem.geometry.pair_windows()
    assert sep.size and (sep + 2.0 * rho_full.max() <= conn).all()
    real_margin_fn, tubes = coordination._margin_fn, []

    def margin_fn(geometry, rho, goal):
        tubes.append(rho)
        return real_margin_fn(geometry, rho, goal)

    monkeypatch.setattr(coordination, "_margin_fn", margin_fn)
    sol, record = solve_ladder(problem, sim.config)
    assert tubes and all(tube is rho for tube in tubes)
    assert sol.status != "infeasible" and record["tube_capped"]


def test_at_rest_terminal_solve_forms_one_jacobian_for_two_rollouts(monkeypatch):
    """Agents at rest take one terminal-enforced solve each per step, from a
    feasible start (the shifted plan, a witness, after the first step), in
    two rollouts: the start's, whose Jacobian the Gauss-Newton scaling and
    SLSQP's first gradients read, and the first SLSQP iterate's, where the
    suboptimal stop ends the solve on values alone. That second rollout
    forms no Jacobian."""
    rollouts = count_jacobians(monkeypatch)
    per_solve = []
    real_solve = coordination.solve_fhocp

    def solve(*args, **kwargs):
        first = len(rollouts)
        sol = real_solve(*args, **kwargs)
        per_solve.append((sol, [formed for _, formed in rollouts[first:]]))
        return sol

    monkeypatch.setattr(coordination, "solve_fhocp", solve)
    sim = _simulation(total_time=0.4)
    sim.states = [np.array([2.98, 0.01, 0.02]), np.array([3.01, 1.19, -0.01])]
    log = sim.run()
    metas = [meta for trace in log.traces for meta in trace.step_meta]
    assert len(per_solve) == len(metas) == 8
    assert sum(meta["feasible_witness"] for meta in metas) == 6
    assert all(sol.solve_stats["terminal_enforced"] for sol, _ in per_solve)
    assert [formed for _, formed in per_solve] == [[1, 0]] * 8
    # no Jacobian is formed twice
    assert max(formed for _, formed in rollouts) == 1
