import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from dnmpc.cli import load_scenario
from dnmpc.dynamics import (UNICYCLE, DisturbanceSignal, ErrorDynamics, integrate, rollout_zoh,
                            wrap_angle)
from oracles import rk4_rollout, rk4_step, unicycle_field

SCENARIO = Path(__file__).resolve().parents[1] / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"


def test_wrap_angle_range():
    vals = wrap_angle(np.array([0.0, np.pi, -np.pi, 3 * np.pi, -7.5]))
    assert np.all(vals > -np.pi - 1e-15)
    assert np.all(vals <= np.pi + 1e-15)
    assert vals[1] == pytest.approx(np.pi)
    assert vals[2] == pytest.approx(np.pi)  # -pi maps to the closed endpoint


@given(a=st.floats(-50.0, 50.0))
@settings(max_examples=100)
def test_wrap_angle_preserves_direction(a):
    w = float(wrap_angle(a))
    assert abs(np.sin(w) - np.sin(a)) < 1e-9
    assert abs(np.cos(w) - np.cos(a)) < 1e-9


def test_unicycle_field_values():
    dz = unicycle_field([0.0, 0.0, np.pi / 2], [2.0, 0.3])
    assert np.allclose(dz, [0.0, 2.0, 0.3], atol=1e-12)


def test_unicycle_field_batched():
    z = np.zeros((5, 4, 3))
    u = np.ones((5, 4, 2))
    assert unicycle_field(z, u).shape == (5, 4, 3)


def _rk4_integrate(z0, u, disturbance, t0, t1, step):
    """Oracle of :func:`integrate`: the generic substep loop, `rk4_step`
    over the unicycle field as an array function under the held input `u`,
    with the heading wrapped after each full step, and each disturbance
    sample drawn alone at its stage's time. With a disturbance it also
    samples times[-1], and the norms it returns are those of the samples at
    times[1:]: each step's first RK4 sample but the first, then that last
    one; zeros without a disturbance."""
    n_steps = int(round((t1 - t0) / step))
    times = t0 + step * np.arange(n_steps + 1)
    first = []

    def sample(t):
        w, norms = disturbance.sample_times(np.array([t]))
        return w[0], norms[0]

    def deriv(t, z, norms=None):
        dz = unicycle_field(z, u)
        if disturbance is not None:
            w, norm = sample(t)
            if norms is not None:
                norms.append(norm)
            dz = dz + w
        return dz

    def wrap_heading(z):
        z = np.array(z, dtype=float, copy=True)
        z[..., [2]] = wrap_angle(z[..., [2]])
        return z

    z = wrap_heading(z0)
    states = np.empty((n_steps + 1, 3))
    states[0] = z
    for k in range(n_steps):
        k1 = deriv(times[k], z, first)
        z = wrap_heading(rk4_step(deriv, times[k], z, step, k1))
        states[k + 1] = z
    if disturbance is None:
        return times, states, np.zeros(n_steps)
    return times, states, np.array(first[1:] + [sample(times[-1])[1]])


def _reference_zoh(z0, u_seq, stage_time):
    """High-accuracy oracle: integrate each constant-input stage separately so
    the input discontinuities fall on integrator boundaries."""
    z = np.asarray(z0, dtype=float)
    for u in u_seq:
        sol = solve_ivp(lambda t, z: unicycle_field(z, u), (0.0, stage_time), z,
                        rtol=1e-12, atol=1e-12)
        z = sol.y[:, -1]
    return z


def test_integrate_matches_scipy_reference():
    # a held input and a smooth disturbance inside its bound, so both
    # integrators solve the same time-varying ODE
    u = np.array([1.5, 0.8])
    w = lambda t: 0.05 * np.stack([np.sin(3 * t), np.cos(2 * t), np.sin(t)], axis=-1)
    dist = DisturbanceSignal(w, 0.1)
    _, ours, _ = integrate([0.1, -0.2, 0.3], u, dist, 0.0, 0.3, 0.01)
    assert dist.clipped == 0

    def rhs(t, z):
        return unicycle_field(z, u) + w(t)

    ref = solve_ivp(rhs, (0.0, 0.3), [0.1, -0.2, 0.3], rtol=1e-12, atol=1e-12)
    assert np.allclose(ours[-1], ref.y[:, -1], atol=1e-8)


def test_integrate_step_must_divide():
    with pytest.raises(ValueError):
        integrate([0, 0, 0], np.zeros(2), None, 0.0, 0.35, 0.1)


def test_integrate_with_disturbance_shifts_state():
    dist = DisturbanceSignal(lambda times: np.tile([0.1, 0.0, 0.0], (len(times), 1)), 0.5)
    _, nominal, _ = integrate([0, 0, 0], np.zeros(2), None, 0.0, 1.0, 0.01)
    _, pushed, _ = integrate([0, 0, 0], np.zeros(2), dist, 0.0, 1.0, 0.01)
    assert pushed[-1][0] == pytest.approx(nominal[-1][0] + 0.1, abs=1e-9)
    # a generator inside the bound: four samples per RK4 step and one at the
    # last row, none clipped
    assert (dist.samples, dist.clipped) == (401, 0)


def test_disturbance_clipping():
    """Rows over the bound are scaled onto it, the others pass unchanged,
    and the norms are those of the returned rows."""
    rows = np.array([[3.0, 4.0], [0.3, -0.4], [0.0, -0.0], [-0.6, 0.8]])
    dist = DisturbanceSignal(lambda times: rows[:len(times)], 1.0)
    w, norms = dist.sample_times(np.zeros(4))
    assert np.allclose(w[0], [0.6, 0.8]) and norms[0] == pytest.approx(1.0)
    assert w[1:].tobytes() == rows[1:].tobytes()
    assert norms.tolist() == [math.sqrt(r.dot(r)) for r in w]
    assert (dist.samples, dist.clipped) == (4, 1)
    w, norms = dist.sample_times(np.zeros(2))
    assert len(w) == len(norms) == 2
    assert (dist.samples, dist.clipped) == (6, 2)


@pytest.mark.parametrize("bound", [0.0, -0.1, math.inf, math.nan])
def test_disturbance_bound_must_be_positive_and_finite(bound):
    with pytest.raises(ValueError, match="disturbance bound must be positive and finite"):
        DisturbanceSignal(lambda times: np.zeros((len(times), 3)), bound)


def test_rollout_zoh_matches_integrate():
    # about a reference at the origin the error is the state
    u_seq = np.array([[1.5, 0.2], [0.5, -0.8]])
    ed = ErrorDynamics(UNICYCLE, np.zeros(3))
    traj, _ = rollout_zoh(ed, np.array([0.0, 1.0, 0.2]), u_seq, 0.1, 10)
    assert traj.shape == (21, 3)
    assert np.allclose(traj[-1], _reference_zoh([0.0, 1.0, 0.2], u_seq, 0.1), atol=1e-8)
    # and against the shared integrator, one constant-input segment per call
    # (as the closed-loop engine uses it)
    z = np.array([0.0, 1.0, 0.2])
    for u in u_seq:
        _, seg, _ = integrate(z, u, None, 0.0, 0.1, 0.01)
        z = seg[-1]
    assert np.allclose(traj[-1], z, atol=1e-10)


def test_unicycle_rollout_fast_path_is_bit_identical():
    """rollout_zoh's trajectory is the generic loop's, `rk4_step` one substep
    at a time over the error field g(e, u) = f(e + z_des, u), bit for bit."""
    rng = np.random.default_rng(5)
    for z_des, stage_time, substeps in (([6.0, 2.3, 0.4], 0.1, 10), ([0.0, 0.0, 0.0], 0.13, 4)):
        ed = ErrorDynamics(UNICYCLE, np.array(z_des))
        for _ in range(7):
            e0 = rng.normal(size=3)
            u_seq = rng.uniform(-8.0, 8.0, (6, 2))
            fast, _ = rollout_zoh(ed, e0, u_seq, stage_time, substeps)
            loop = rk4_rollout(lambda e, u: unicycle_field(e + ed.z_des, u), e0, u_seq,
                               stage_time, substeps)
            assert fast.shape == loop.shape == (6 * substeps + 1, 3)
            assert np.array_equal(fast, loop)


# The unicycle kernel in its substep-by-substep form, as it stood before the
# terms that depend on a stage's input alone were formed once per stage: the
# oracle of rollout_zoh's fast path, trajectory and input Jacobian, bit for bit
_ORACLE_WEIGHTS = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [4.0, 0.0, 0.0, 2.0, 0.0],
    [1.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 4.0, -2.0, 0.0, 0.0],
    [0.0, 1.0, -1.0, 0.0, 0.0],
])


def _unicycle_rollout_oracle(e0, u_seq, stage_time, substeps, heading_offset):
    """(trajectory, input Jacobian) of the unicycle under the ZOH inputs
    u_seq (N, 2) from e0 (3,), every per-stage term formed on every
    substep."""
    dt = stage_time / substeps
    v = np.repeat(u_seq[..., 0], substeps, axis=-1)
    omega = np.repeat(u_seq[..., 1], substeps, axis=-1)
    steps = np.empty((v.shape[-1] + 1, 3))
    steps[0, :] = e0
    steps[1:, 2] = (dt / 6.0) * (((omega + 2.0 * omega) + 2.0 * omega) + omega)
    heading = np.cumsum(steps[..., 2], axis=-1)[..., :-1]
    theta = np.stack([heading, heading + (0.5 * dt) * omega, heading + dt * omega])
    theta = theta + heading_offset
    cos, sin = np.cos(theta), np.sin(theta)
    vx = v * cos
    vy = v * sin
    steps[1:, 0] = (dt / 6.0) * (((vx[0] + 2.0 * vx[1]) + 2.0 * vx[1]) + vx[2])
    steps[1:, 1] = (dt / 6.0) * (((vy[0] + 2.0 * vy[1]) + 2.0 * vy[1]) + vy[2])
    traj = np.cumsum(steps, axis=-2)
    n_stage, n_sub = u_seq.shape[0], v.shape[0]
    offset = np.arange(n_sub)[:, None] - substeps * np.arange(n_stage)
    own = ((offset >= 0) & (offset < substeps)).astype(float)[:, None, :]
    spent = np.clip(offset, 0, substeps).astype(float)
    terms = np.concatenate([cos, sin]).T @ _ORACLE_WEIGHTS
    terms[:, :2] *= dt / 6.0
    terms[:, 2:4] *= (dt * dt / 6.0) * v[:, None]
    terms[:, 4] = dt
    blocks = terms[:, :, None] * own
    turn = steps[1:, 1::-1] * np.array([-dt, dt])
    blocks[:, 2:4] += turn[:, :, None] * spent[:, None, :]
    jac = np.zeros((n_sub + 1, 3, n_stage, 2))
    cum = np.cumsum(blocks, axis=0)
    jac[1:, :2, :, 0] = cum[:, :2]
    jac[1:, :, :, 1] = cum[:, 2:]
    return traj, jac.reshape(n_sub + 1, 3, -1)


def test_unicycle_rollout_matches_its_substep_oracle_bitwise():
    """The fast path's trajectory and Jacobian are the oracle's floats, signed
    zeros included (compared as bytes): seeded inputs about references with
    and without a heading, zero inputs and inputs on the ball
    u_bar = 8 sqrt(2)."""
    rng = np.random.default_rng(23)
    u_bar = 8.0 * math.sqrt(2.0)
    cases = []
    for _ in range(10):
        e0 = rng.normal(size=3)
        u_seq = rng.uniform(-8.0, 8.0, (6, 2))
        on_ball = u_seq * (u_bar / np.linalg.norm(u_seq, axis=1, keepdims=True))
        cases += [(e0, u_seq), (e0, on_ball)]
    cases += [(np.zeros(3), np.zeros((6, 2))), (rng.normal(size=3), np.zeros((6, 2)))]
    for z_des in ([6.0, 2.3, 0.4], [1.0, -2.0, 0.0]):
        ed = ErrorDynamics(UNICYCLE, np.array(z_des))
        for stage_time, substeps in ((0.1, 10), (0.13, 4)):
            for e0, u_seq in cases:
                traj, jacobian = rollout_zoh(ed, e0, u_seq, stage_time, substeps)
                jac = jacobian()
                want_traj, want_jac = _unicycle_rollout_oracle(e0, u_seq, stage_time,
                                                               substeps, ed.z_des[2])
                assert traj.shape == want_traj.shape and jac.shape == want_jac.shape
                assert traj.tobytes() == want_traj.tobytes()
                assert jac.tobytes() == want_jac.tobytes()


def test_rollout_jacobian_is_formed_from_the_rollouts_own_state():
    """The callable forms the Jacobian of its own rollout, bit for bit the
    substep oracle's eager one, signed zeros included, after the caller has
    overwritten the inputs and the initial error in place and rolled out
    elsewhere (the solvers pass views of iterates they go on to change); a
    second call gives the same bytes."""
    rng = np.random.default_rng(31)
    ed = ErrorDynamics(UNICYCLE, np.array([6.0, 2.3, 0.4]))
    for u_seq in (rng.uniform(-8.0, 8.0, (6, 2)), np.zeros((6, 2)),
                  np.tile([-0.0, 0.0], (6, 1))):
        e0 = rng.normal(size=3)
        _, want_jac = _unicycle_rollout_oracle(e0, u_seq, 0.1, 10, ed.z_des[2])
        _, jacobian = rollout_zoh(ed, e0, u_seq, 0.1, 10)
        u_seq[:] = rng.uniform(-8.0, 8.0, u_seq.shape)
        e0[:] = rng.normal(size=3)
        rollout_zoh(ed, e0, u_seq, 0.1, 10)[1]()
        first = jacobian()
        assert first.tobytes() == want_jac.tobytes()
        assert jacobian().tobytes() == first.tobytes()


def _varying(times):
    """A time-only disturbance that differs at every sample time; 0.15 clips
    it at some of those in [0.4, 0.5]."""
    return np.stack([0.1 * np.cos(7.0 * times), 0.02 * np.sin(times),
                     0.15 * np.sin(9.0 * times)], axis=1)


def test_integrate_reports_first_stage_disturbance_norms():
    """`integrate` returns the norm of the disturbance at each of times[1:],
    the floats of each sample drawn alone, bit for bit, as its generic-loop
    oracle does, and the disturbance is sampled 4 times per substep plus
    once at the last row; zeros without a disturbance."""
    oracle = DisturbanceSignal(_varying, 0.15)
    for run in (integrate, _rk4_integrate):
        dist = DisturbanceSignal(_varying, 0.15)
        times, _, norms = run([0.3, -0.2, 3.1], np.array([2.0, 9.0]), dist, 0.4, 0.5, 0.01)
        fresh = np.array([oracle.sample_times(np.array([t]))[1][0] for t in times[1:]])
        assert norms.dtype == np.float64 and norms.tobytes() == fresh.tobytes()
        assert all(a != b for a, b in zip(fresh, fresh[1:]) if min(a, b) < 0.15 - 1e-12)
        assert dist.samples == 41
        _, _, nominal = run([0.3, -0.2, 3.1], np.array([2.0, 9.0]), None, 0.4, 0.5, 0.01)
        assert nominal.tobytes() == np.zeros(10).tobytes()
    assert 0 < oracle.clipped < oracle.samples


def test_bundled_disturbance_matches_a_per_sample_oracle_bitwise():
    """The bundled sinusoid, drawn as the plant draws it over a 100 s run (one
    generator call per agent-step: its 40 RK4 stage times and its last row),
    and clipped by `sample_times`, matches a per-sample oracle bit for bit:
    math.sin at each time, and the norm and clip of that row alone from
    math.sqrt(w.dot(w)). Vectorised sin and row norms can differ from the
    per-sample ones by an ulp on some CPUs; this test would show it."""
    scenario = load_scenario(SCENARIO)
    signal = scenario.build_disturbances()[0]
    amp = float(scenario.disturbance["amplitude"])
    freq = float(scenario.disturbance["frequency"])
    bound = scenario.w_bar
    batches = []

    def recording(times):
        batches.append(times.copy())
        return signal.generator(times)

    h = scenario.h
    step = h / scenario.build_config().substeps
    recorder = DisturbanceSignal(recording, bound)
    for k in range(round(100.0 / h)):
        t_k = k * h
        integrate([0.0, 0.0, 0.0], [0.0, 0.0], recorder, t_k, t_k + h, step)
    assert [len(times) for times in batches] == [41] * 1000
    clipped = 0
    for times in batches:
        w, norms = signal.sample_times(times)
        rows, row_norms = [], []
        for t in times.tolist():
            row = np.array([amp * math.sin(freq * t)] * 3)
            norm = math.sqrt(row.dot(row))
            if norm > bound:
                clipped += 1
                row = row * (bound / norm)
                norm = math.sqrt(row.dot(row))
            rows.append(row)
            row_norms.append(norm)
        assert w.tobytes() == np.array(rows).tobytes()
        assert norms.tobytes() == np.array(row_norms).tobytes()
    assert signal.samples == 41_000 and signal.clipped == clipped
    assert 0 < clipped < 41_000


def test_unicycle_integrate_fast_path_is_bit_identical():
    # the generic rk4_step loop is the oracle of the batched path
    generators = {
        "none": None,
        "in bound": lambda times: 0.05 * np.sin(3 * times)[:, None] * np.ones(3),
        "clipping": lambda times: np.stack([3.0 * np.sin(times), np.ones_like(times),
                                            np.full_like(times, -2.0)], axis=1),
        "varying": _varying,
    }
    rng = np.random.default_rng(7)
    # the last case starts at heading 3.1 and turns through +pi
    cases = [(rng.normal(size=3), rng.uniform(-12.0, 12.0, 2)) for _ in range(20)]
    cases.append((np.array([0.3, -0.2, 3.1]), np.array([2.0, 9.0])))
    counts = set()
    for name, gen in generators.items():
        for z0, u in cases:
            t0 = float(rng.uniform(0.0, 10.0))
            runs = []
            for run in (integrate, _rk4_integrate):
                dist = None if gen is None else DisturbanceSignal(gen, 0.1)
                times, states, norms = run(z0, u, dist, t0, t0 + 0.1, 0.01)
                runs.append((times, states, norms, None if dist is None else
                             (dist.samples, dist.clipped)))
            (t_fast, fast, w_fast, n_fast), (t_loop, loop, w_loop, n_loop) = runs
            assert np.array_equal(t_fast, t_loop), name
            assert fast.shape == loop.shape == (11, 3)
            assert fast.tobytes() == loop.tobytes(), name
            assert w_fast.tobytes() == w_loop.tobytes(), name
            assert n_fast == n_loop, name
            counts.add((name, n_fast))
    # four samples per substep and one at the last row
    assert ("in bound", (41, 0)) in counts and ("clipping", (41, 41)) in counts
    assert any(name == "varying" and 0 < n[1] < 41 for name, n in counts)
    _, crossing, _ = integrate(cases[-1][0], cases[-1][1], None, 0.0, 0.1, 0.01)
    assert np.all(np.abs(crossing[:, 2]) <= np.pi) and crossing[-1, 2] < 0.0


def _central_jacobian(ed, e0, u_seq, stage_time, substeps, eps=1e-6):
    """d rollout / d u_seq.ravel() by central differences, one input at a time."""
    cols = []
    for c in range(u_seq.size):
        step = np.zeros(u_seq.size)
        step[c] = eps
        step = step.reshape(u_seq.shape)
        cols.append((rollout_zoh(ed, e0, u_seq + step, stage_time, substeps)[0]
                     - rollout_zoh(ed, e0, u_seq - step, stage_time, substeps)[0])
                    / (2.0 * eps))
    return np.stack(cols, axis=-1)


def test_unicycle_rollout_jacobian_matches_central_differences():
    rng = np.random.default_rng(11)
    for z_des, substeps in (([6.0, 2.3, 0.4], 10), ([0.0, 0.0, 0.0], 4)):
        ed = ErrorDynamics(UNICYCLE, np.array(z_des))
        e0 = rng.normal(size=3)
        u_seq = rng.uniform(-8.0, 8.0, (6, 2))
        jac = rollout_zoh(ed, e0, u_seq, 0.1, substeps)[1]()
        assert jac.shape == (6 * substeps + 1, 3, 12)
        assert np.abs(jac - _central_jacobian(ed, e0, u_seq, 0.1, substeps)).max() < 1e-8


def test_error_dynamics_roundtrip_and_wrapping():
    ed = ErrorDynamics(UNICYCLE, np.array([1.0, 2.0, 3.0]))
    z = np.array([0.5, 1.0, -3.0])
    e = ed.error_of(z)
    assert abs(e[2]) <= np.pi  # shortest signed heading difference
    assert np.allclose(e[:2] + ed.z_des[:2], z[:2], atol=1e-12)
    assert np.sin(e[2] + ed.z_des[2]) == pytest.approx(np.sin(z[2]), abs=1e-12)

