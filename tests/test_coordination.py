import time
from pathlib import Path

import numpy as np
import pytest

from dnmpc import coordination, ocp
from dnmpc.cli import load_scenario
from dnmpc.constraints import MARGIN_KINDS, StageGeometry, WorldModel
from dnmpc.coordination import (PredictionEntry, Simulation, SimulationError, TrajectoryLog,
                                neighbor_sets, sensing_set, validate_initial)
from dnmpc.dynamics import UNICYCLE, DisturbanceSignal
from dnmpc.ocp import OcpConfig, warm_start_shift
from dnmpc.setalg import Ball, TubeProfile

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
    models = [UNICYCLE] * 2
    ok = validate_initial(world, [np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.2, 0.0])], models)
    assert ok.passed
    bad = validate_initial(world, [np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.9, 0.0])], models)
    assert not bad.passed
    assert any("collide" in f for f in bad.failures)


def test_validate_initial_workspace_and_velocity():
    world = _world()
    models = [UNICYCLE] * 2
    out = validate_initial(
        world, [np.array([9.8, 0.0, 0.0]), np.array([9.8, 1.2, 0.0])], models)
    assert not out.passed
    assert any("workspace" in f for f in out.failures)


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
    models = [UNICYCLE] * n
    starts = [np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.2, 0.0]),
              np.array([0.0, -1.2, 0.0])][:n]
    goals = [np.array([3.0, 0.0, 0.0]), np.array([3.0, 1.2, 0.0]),
             np.array([3.0, -1.2, 0.0])][:n]
    cfg = OcpConfig(h=0.1, T_p=0.6, Q=0.5 * np.eye(3), R=0.05 * np.eye(2),
                    P=0.3 * np.eye(3), eps_omega=0.01, eps_psi=0.1, u_bar=8.0,
                    max_iterations=40, constraint_tol=1e-4)
    if w_bar > 0:
        dists = [DisturbanceSignal(lambda times: w_bar * np.sin(3 * times)[:, None] * np.ones(3),
                                   w_bar)
                 for _ in range(n)]
    else:
        dists = [None] * n
    return Simulation(
        world=world, models=models, references=goals, config=cfg,
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
        assert trace.w_norms[1:] == fresh
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
    constraint of the solve within `constraint_tol`: each attempt's start is
    checked on a transcription of its own. Agents that approach their goals,
    and agents at rest in the terminal set, where agent 0's shifted attempt
    at t = 0.1 is rejected so that its ladder accepts the (feasible) zero
    start, which is no witness."""
    sim = _simulation(total_time=0.3 if at_rest else 0.6)
    if at_rest:
        sim.states = [np.array([2.98, 0.01, 0.02]), np.array([3.01, 1.19, -0.01])]
    expected, flags, now = {}, [], [0.0]
    real_solve, real_agent = coordination.solve_fhocp, sim._solve_agent

    def solve(errordyn, e0, margin_fn, cfg, warm_start=None, use_terminal=True, metric=None):
        sol = real_solve(errordyn, e0, margin_fn, cfg, warm_start=warm_start,
                         use_terminal=use_terminal, metric=metric)
        i = next(k for k, known in enumerate(sim.errordyns) if known is errordyn)
        prev = sim.prev_solution[i]
        shifted = prev is not None and np.array_equal(
            warm_start, warm_start_shift(prev, sim.steering[i], cfg))
        start = ocp._project_inputs(warm_start, cfg.u_bar).ravel()
        slack = ocp._Transcription(errordyn, e0, margin_fn, cfg, use_terminal).eval(start)["slack"]
        expected[id(sol)] = use_terminal and shifted and -slack <= cfg.constraint_tol
        if at_rest and shifted and i == 0 and now[0] == 0.1:
            sol.status, sol.solve_stats["residual"] = "infeasible", 1.0
        return sol

    def solve_agent(i, t_k):
        now[0] = t_k
        sol = real_agent(i, t_k)
        flags.append((sol.solve_stats["feasible_witness"], expected[id(sol)]))
        if at_rest and (i, t_k) == (0, 0.1):
            assert sol.solve_stats["start_feasible"] and not expected[id(sol)]
        return sol

    monkeypatch.setattr(coordination, "solve_fhocp", solve)
    monkeypatch.setattr(sim, "_solve_agent", solve_agent)
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
    assert back.meta["substeps"] == log.meta["substeps"]
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


def test_separation_maintained_head_on():
    """Two agents with swapped lanes pass each other without violating the
    separation threshold read back from the log margins."""
    world = _world(2)
    models = [UNICYCLE] * 2
    starts = [np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.2, 0.0])]
    goals = [np.array([2.0, 1.2, 0.0]), np.array([2.0, 0.0, 0.0])]
    cfg = OcpConfig(h=0.1, T_p=0.6, Q=0.5 * np.eye(3), R=0.05 * np.eye(2),
                    P=0.3 * np.eye(3), eps_omega=0.01, eps_psi=0.1, u_bar=8.0,
                    max_iterations=40, constraint_tol=1e-4)
    sim = Simulation(world=world, models=models, references=goals, config=cfg,
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

    def counted(*args, **kwargs):
        radii.append(1)
        return tube_profile_radii(*args, **kwargs)

    monkeypatch.setattr(coordination, "tube_profile_radii", counted)
    sim = _simulation(total_time=0.3)
    zeros = np.zeros((sim.config.n_stages, 2))
    starts = sim._starts(0)
    assert isinstance(starts, list) and len(starts) == 1
    np.testing.assert_array_equal(starts[0], zeros)
    assert not radii
    sim.run()
    starts = sim._starts(0)
    assert isinstance(starts, list) and len(starts) == 2
    np.testing.assert_array_equal(
        starts[0], warm_start_shift(sim.prev_solution[0], sim.steering[0], sim.config))
    np.testing.assert_array_equal(starts[1], zeros)
    assert len(radii) == 1


def test_restore_runs_once_from_the_best_near_feasible_attempt(monkeypatch):
    """When every start of a solve ends infeasible within the 5e-2 residual
    threshold, the ladder restores feasibility once, from the inputs of the
    attempt with the lowest residual, and accepts the attempt from the
    restored plan. The solve is relaxed and follows a relaxed one, so its
    starts are the shifted plan with the carried metric, the shifted plan
    with the identity (a metric fallback) and zero input: with the
    restoration and the attempt from the restored plan they make 5 attempts,
    with no re-attempt from an infeasible attempt's inputs."""
    solve_fhocp, restore = coordination.solve_fhocp, coordination.restore_feasibility
    solve_agent = Simulation._solve_agent
    sim = load_scenario(SCENARIO).build_simulation(total_time=0.2)
    target = (sim.schedule[0], 0.1)  # that agent's second solve: three starts
    current, attempts, restores = {}, [], []

    def tracked(self, i, t_k):
        current["solve"] = (i, t_k)
        return solve_agent(self, i, t_k)

    def near_feasible(*args, **kwargs):
        sol = solve_fhocp(*args, **kwargs)
        if current["solve"] == target:
            if len(attempts) < 3:  # the three starts
                sol.status = "infeasible"
                sol.solve_stats["residual"] = (3e-2, 1e-2, 2e-2)[len(attempts)]
            attempts.append((kwargs, sol))
        return sol

    def recorded(*args, **kwargs):
        restored = restore(*args, **kwargs)
        restores.append((args[4], restored[0]))
        return restored

    monkeypatch.setattr(Simulation, "_solve_agent", tracked)
    monkeypatch.setattr(coordination, "solve_fhocp", near_feasible)
    monkeypatch.setattr(coordination, "restore_feasibility", recorded)
    log = sim.run()

    i, t_k = target
    assert len(attempts) == 4
    assert all(not kwargs["use_terminal"] for kwargs, _ in attempts)
    (first, _), (second, _), (third, _), (last, accepted) = attempts
    assert first["warm_start"] is second["warm_start"]
    assert first["metric"] is not None and second["metric"] is None
    assert not third["warm_start"].any() and third["metric"] is None
    assert len(restores) == 1
    start, restored = restores[0]
    np.testing.assert_array_equal(start, attempts[1][1].inputs)  # residual 1e-2
    np.testing.assert_array_equal(last["warm_start"], restored)
    assert last["metric"] is None
    assert accepted.status != "infeasible"
    assert sim.prev_solution[i] is accepted
    meta = next(m for m in log.traces[i].step_meta if m["t"] == t_k)
    assert meta["status"] == accepted.status
    assert meta["attempts"] == 5
    assert meta["metric_fallbacks"] == 1 and not meta["carried_metric"]


def test_relaxed_solve_after_a_terminal_one_carries_no_metric(monkeypatch):
    """Terminal-enforced solves return no metric, so a relaxed solve that
    follows one starts from the shifted plan and the zero input with the
    identity, as before metrics were carried: its attempts pass no metric
    and match, bit for bit, a solve called without the `metric` argument.
    The terminal attempts of the first solve after an accepted terminal one
    are forced infeasible, so that its ladder falls to the relaxed tier."""
    sim = _simulation(total_time=0.6)
    real_solve, real_agent = coordination.solve_fhocp, sim._solve_agent
    current, forced, relaxed = {}, [], []

    def solve(errordyn, e0, margin_fn, cfg, warm_start=None, use_terminal=True, metric=None):
        sol = real_solve(errordyn, e0, margin_fn, cfg, warm_start=warm_start,
                         use_terminal=use_terminal, metric=metric)
        if use_terminal:
            assert sol.metric is None
        if current["solve"] == forced[:1]:
            if use_terminal:
                sol.status, sol.solve_stats["residual"] = "infeasible", 1.0
            else:
                relaxed.append((errordyn, e0, margin_fn, cfg, warm_start, metric, sol,
                                sol.solve_stats["iterations"]))
        return sol

    def solve_agent(i, t_k):
        prev = sim.prev_solution[i]
        if not forced and prev is not None and not prev.solve_stats["terminal_relaxed"]:
            forced.append((i, t_k))
        current["solve"] = [(i, t_k)]
        return real_agent(i, t_k)

    monkeypatch.setattr(coordination, "solve_fhocp", solve)
    monkeypatch.setattr(sim, "_solve_agent", solve_agent)
    sim.run()
    assert forced and relaxed
    shifted = relaxed[0][4]
    assert shifted is not None and shifted.any()
    for errordyn, e0, margin_fn, cfg, warm_start, metric, sol, iterations in relaxed:
        assert metric is None and not sol.solve_stats["carried_metric"]
        again = real_solve(errordyn, e0, margin_fn, cfg, warm_start=warm_start,
                           use_terminal=False)
        assert again.inputs.tobytes() == sol.inputs.tobytes()
        assert again.dense_errors.tobytes() == sol.dense_errors.tobytes()
        assert (again.cost, again.solve_stats["iterations"]) == (sol.cost, iterations)
        assert again.metric.tobytes() == sol.metric.tobytes()


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


def test_terminal_exclusion_leaves_trajectory_unchanged(monkeypatch):
    """Skipping terminal-enforced tiers that StageGeometry.terminal_excluded
    proves infeasible changes no accepted solution. In the bundled scenario
    agent 1's terminal ball at t = 0.9-1.1 lies beyond its connectivity
    reach: with the check those solves make no terminal-enforced call and
    carry `terminal_excluded`; without it they try the tier and fail it."""
    terminal_calls = []
    agent_step = {}
    solve_agent = Simulation._solve_agent
    solve_fhocp = coordination.solve_fhocp

    def tagged_solve_agent(self, i, t_k):
        agent_step["now"] = (i, round(t_k, 1))
        return solve_agent(self, i, t_k)

    def recorded_solve_fhocp(*args, **kwargs):
        if kwargs["use_terminal"]:
            terminal_calls.append(agent_step["now"])
        return solve_fhocp(*args, **kwargs)

    monkeypatch.setattr(Simulation, "_solve_agent", tagged_solve_agent)
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
    span without an error; this fails instead."""
    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(coordination, "integrate")
    counted(coordination, "solve_fhocp")
    counted(ocp, "minimize")
    counted(ocp, "rollout_zoh")
    counted(StageGeometry, "margins")
    counted(coordination, "tube_profile_radii")
    log = _simulation(w_bar=0.05, total_time=0.3).run()
    solves = sum(len(trace.step_meta) for trace in log.traces)
    assert solves == 6
    assert calls["integrate"] == solves
    assert calls["solve_fhocp"] >= solves
    assert calls["minimize"] >= calls["solve_fhocp"]
    assert calls["rollout_zoh"] >= calls["minimize"]
    # one margin evaluation per rollout, and the tube radii once per simulation
    assert calls["margins"] == calls["rollout_zoh"]
    assert calls["tube_profile_radii"] == 1


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
    real_geometry = sim._geometry

    def sensing(agent, positions, d_i):
        sensed.append((agent, np.array(positions)))
        return real_sensing(agent, positions, d_i)

    def integrate(model, z, *args):
        times, states = real_integrate(model, z, *args)
        moved.append(states[-1][model.position_slice].copy())
        return times, states

    def geometry(i, t_k, dense_taus):
        posted.append((i, t_k, {j: entry.t0 for j, entry in sim.board.items()}))
        return real_geometry(i, t_k, dense_taus)

    monkeypatch.setattr(coordination, "sensing_set", sensing)
    monkeypatch.setattr(coordination, "integrate", integrate)
    monkeypatch.setattr(sim, "_geometry", geometry)
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
    costs. Agent 0's second solve, over 1 m from its goal, carries the
    metric of its first, relaxed solve; its terminal-enforced attempts are
    made infeasible, and its carried-metric attempt the blocked plan, so no
    shifted-plan attempt with the identity follows that one."""
    sim = _simulation(total_time=0.2)
    sim._bootstrap_board()
    sim._log_initial()
    sim.step(0)
    assert sim.prev_solution[0].metric is not None
    shifted, zeros = sim._starts(0)
    real_solve, calls, terminal = coordination.solve_fhocp, [], []
    # the carried attempt, the zero start, then the four probes; one probe
    # is cheapest but infeasible, and two feasible ones tie at the lowest cost
    costs = [10.0, 7.0, 3.0, 5.0, 6.0, 5.0]

    def solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        if kwargs["use_terminal"]:
            sol.status, sol.solve_stats["residual"] = "infeasible", 1.0
            terminal.append(sol)
            return sol
        sol.status, sol.cost = "feasible-suboptimal", costs[len(calls)]
        sol.solve_stats["residual"] = 0.0
        if len(calls) == 0:  # the carried attempt: a plan that stays put
            sol.dense_errors = np.repeat(sol.dense_errors[:1], len(sol.dense_errors), axis=0)
        if len(calls) == 2:
            sol.status, sol.solve_stats["residual"] = "infeasible", 1.0
        calls.append((kwargs, sol))
        return sol

    monkeypatch.setattr(coordination, "solve_fhocp", solve)
    sol = sim._solve_agent(0, 0.1)
    starts = [kwargs["warm_start"] for kwargs, _ in calls]
    metrics = [kwargs["metric"] for kwargs, _ in calls]
    assert len(calls) == 6
    np.testing.assert_array_equal(starts[0], shifted)
    assert metrics[0] is not None
    assert all(metric is None for metric in metrics[1:])
    for got, want in zip(starts[1:], [zeros, *_probes(sim.config)]):
        np.testing.assert_array_equal(got, want)
    assert sol is calls[3][1]
    assert sol.solve_stats["attempts"] == len(terminal) + 6
    assert sol.solve_stats["metric_fallbacks"] == 0
    assert sol.solve_stats["terminal_relaxed"] and not sol.solve_stats["tube_capped"]


def test_all_tiers_failing_returns_the_first_lowest_residual_attempt(monkeypatch):
    """When every attempt of both tiers ends infeasible, the solve returns
    the attempt with the lowest residual, the first of equal ones, and the
    run aborts with a SimulationError that reports it. Agent 0, 1.5 m from
    its goal, walks the terminal and relaxed tiers from its one (zero)
    start; the relaxed tier's residual is within 5e-2, so it restores
    feasibility and retries, and the retry ties that residual."""
    sim = _simulation(total_time=0.2)
    sim.states = [np.array([1.5, 0.0, 0.0]), np.array([1.5, 1.2, 0.0])]
    real_solve, real_agent = coordination.solve_fhocp, sim._solve_agent
    residuals = [0.3, 0.04, 0.04]
    calls, returned = [], []

    def solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        sol.status, sol.solve_stats["residual"] = "infeasible", residuals[len(calls)]
        calls.append((kwargs, sol))
        return sol

    def solve_agent(i, t_k):
        returned.append(real_agent(i, t_k))
        return returned[-1]

    monkeypatch.setattr(coordination, "solve_fhocp", solve)
    monkeypatch.setattr(sim, "_solve_agent", solve_agent)
    with pytest.raises(SimulationError, match=r"agent 0 infeasible at t = 0\.000 "
                                              r"\(residual 0\.04\)") as err:
        sim.run()
    assert (err.value.agent, err.value.t) == (0, 0.0)
    assert [kwargs["use_terminal"] for kwargs, _ in calls] == [True, False, False]
    assert not calls[1][0]["warm_start"].any()
    assert calls[2][0]["warm_start"].any()  # the restored plan
    assert returned == [calls[1][1]]
    assert returned[0].solve_stats["attempts"] == 4  # 3 solves and 1 restoration


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
    sep, conn = sim._geometry(0, 0.0, dense_taus).pair_windows()
    assert sep.size and (sep + 2.0 * rho_full.max() <= conn).all()
    real_margin_fn, tubes = sim._margin_fn, []

    def margin_fn(i, geometry, rho):
        tubes.append(rho)
        return real_margin_fn(i, geometry, rho)

    monkeypatch.setattr(sim, "_margin_fn", margin_fn)
    sol = sim._solve_agent(0, 0.0)
    assert tubes and all(tube is rho for tube in tubes)
    assert sol.status != "infeasible" and sol.solve_stats["tube_capped"]


def test_a_carried_metric_without_a_cholesky_factor_falls_back(monkeypatch):
    """A carried metric that has grown too ill-conditioned to factor is a
    metric fallback, not a diverged solve: the shifted plan is tried again
    with the identity and the solve goes on, with one fallback counted.
    Agent 0's second solve carries the metric of its first, relaxed solve,
    made indefinite here; its terminal-enforced attempts are made
    infeasible, so that it reaches the relaxed tier."""
    sim = _simulation(total_time=0.2)
    sim._bootstrap_board()
    sim._log_initial()
    sim.step(0)
    prev = sim.prev_solution[0]
    assert prev.metric is not None
    prev.metric = -np.eye(len(prev.metric))
    shifted = sim._starts(0)[0]
    real_solve, relaxed = coordination.solve_fhocp, []

    def solve(*args, **kwargs):
        if not kwargs["use_terminal"]:
            relaxed.append(kwargs)
            return real_solve(*args, **kwargs)
        sol = real_solve(*args, **kwargs)
        sol.status, sol.solve_stats["residual"] = "infeasible", 1.0
        return sol

    monkeypatch.setattr(coordination, "solve_fhocp", solve)
    sol = sim._solve_agent(0, 0.1)
    assert len(relaxed) >= 2
    first, second = relaxed[:2]
    assert first["metric"] is not None and second["metric"] is None
    np.testing.assert_array_equal(first["warm_start"], shifted)
    np.testing.assert_array_equal(second["warm_start"], shifted)
    assert sol.solve_stats["metric_fallbacks"] == 1
    assert sol.status != "infeasible" and not sol.solve_stats["carried_metric"]
    # solve_fhocp itself raises LinAlgError for it, not a RuntimeError
    with pytest.raises(np.linalg.LinAlgError):
        real_solve(sim.errordyns[0], sim.errordyns[0].error_of(sim.states[0]), None,
                   sim.config, warm_start=shifted, use_terminal=False,
                   metric=-np.eye(len(prev.metric)))
