import time
from pathlib import Path

import numpy as np
import pytest

from dnmpc import coordination, ocp
from dnmpc.cli import load_scenario
from dnmpc.constraints import MARGIN_KINDS, StageGeometry, WorldModel
from dnmpc.coordination import (PredictionEntry, Simulation, TrajectoryLog,
                                neighbor_sets, sensing_set, validate_initial)
from dnmpc.dynamics import UNICYCLE, DisturbanceSignal
from dnmpc.ocp import OcpConfig
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
    states = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    entry = PredictionEntry(t0=1.0, h=0.1, states=states, position_slice=slice(0, 2))
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
        dists = [DisturbanceSignal(lambda z, t: w_bar * np.sin(3 * t) * np.ones(3), w_bar)
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


def test_logged_disturbance_norms_match_fresh_samples():
    """Each logged w_norm is the norm of the disturbance at its row's state
    and time. Every row of a step but the last reuses a sample `integrate`
    took; a generator that reads the state tells a row matched with the
    wrong sample."""
    def gen(z, t):
        return 0.05 * np.array([np.cos(z[2] + t), np.sin(3.0 * z[0]), 0.5 * np.sin(z[1] - t)])

    sim = _simulation(total_time=0.3)
    sim.disturbances = [DisturbanceSignal(gen, 0.05) for _ in sim.disturbances]
    log = sim.run()
    oracle = DisturbanceSignal(gen, 0.05)
    for trace in log.traces:
        fresh = [float(np.linalg.norm(oracle.sample(z, t)))
                 for z, t in zip(trace.states[1:], trace.times[1:])]
        assert trace.w_norms[1:] == fresh
    assert 0 < oracle.clipped < oracle.samples
    # 3 steps x 10 substeps x 4 RK4 stages, and one sample per step's last row
    assert [d.samples for d in sim.disturbances] == [3 * (40 + 1)] * 2


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
    """The steering-law start, a closed-loop rollout of N stages, is built
    only when the ladder asks for the start after the zero one, and the tube
    radii once per simulation, not once per solve."""
    rollouts, radii = [], []

    def counted(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(coordination, "rollout_zoh", counted(coordination.rollout_zoh, rollouts))
    monkeypatch.setattr(coordination, "tube_profile_radii",
                        counted(coordination.tube_profile_radii, radii))
    sim = _simulation(total_time=0.3)
    starts = sim._starts(0)  # no previous solution: zero start, then steering
    assert not np.any(next(starts))
    assert not rollouts
    steering = next(starts)
    assert len(rollouts) == sim.config.n_stages
    assert np.all(np.linalg.norm(steering, axis=1) <= sim.config.u_bar + 1e-12)
    assert next(starts, None) is None
    rollouts.clear()
    log = _simulation(total_time=0.3).run()
    # every solve accepted its first start, so no steering start was built
    assert all(meta["attempts"] == 1 for trace in log.traces for meta in trace.step_meta)
    assert not rollouts
    assert len(radii) == 1


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
    `coordination.solve_fhocp`, `ocp.minimize` and `ocp.rollout_zoh`. A
    refactor that binds one of these names elsewhere would zero a benchmark
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
    log = _simulation(w_bar=0.05, total_time=0.3).run()
    solves = sum(len(trace.step_meta) for trace in log.traces)
    assert solves == 6
    assert calls["integrate"] == solves
    assert calls["solve_fhocp"] >= solves
    assert calls["minimize"] >= calls["solve_fhocp"]
    assert calls["rollout_zoh"] >= calls["minimize"]
