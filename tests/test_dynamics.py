import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from dnmpc.dynamics import (UNICYCLE, AgentModel, DisturbanceSignal, ErrorDynamics,
                            estimate_lipschitz, integrate, rollout_zoh,
                            unicycle_field, wrap_angle)


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


def test_agent_model_default_position_slice():
    # the default must be a factory: a slice default is rejected by
    # dataclasses on interpreters where slice is unhashable
    model = AgentModel(state_dim=3, input_dim=2, vector_field=unicycle_field)
    assert model.position_slice == slice(0, 2)
    z = np.array([1.5, -2.0, 0.7])
    assert np.array_equal(z[model.position_slice], [1.5, -2.0])


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
    w = lambda t: 0.05 * np.array([np.sin(3 * t), np.cos(2 * t), np.sin(t)])
    dist = DisturbanceSignal(lambda z, t: w(t), 0.1)
    _, ours = integrate(UNICYCLE, [0.1, -0.2, 0.3], u, dist, 0.0, 0.3, 0.01)
    assert dist.clipped == 0

    def rhs(t, z):
        return unicycle_field(z, u) + w(t)

    ref = solve_ivp(rhs, (0.0, 0.3), [0.1, -0.2, 0.3], rtol=1e-12, atol=1e-12)
    assert np.allclose(ours[-1], ref.y[:, -1], atol=1e-8)


def test_integrate_step_must_divide():
    with pytest.raises(ValueError):
        integrate(UNICYCLE, [0, 0, 0], np.zeros(2), None, 0.0, 0.35, 0.1)


def test_integrate_with_disturbance_shifts_state():
    dist = DisturbanceSignal(lambda z, t: np.array([0.1, 0.0, 0.0]), 0.5)
    _, nominal = integrate(UNICYCLE, [0, 0, 0], np.zeros(2), None, 0.0, 1.0, 0.01)
    _, pushed = integrate(UNICYCLE, [0, 0, 0], np.zeros(2), dist, 0.0, 1.0, 0.01)
    assert pushed[-1][0] == pytest.approx(nominal[-1][0] + 0.1, abs=1e-9)
    # a generator inside the bound: four samples per RK4 step, none clipped
    assert (dist.samples, dist.clipped) == (400, 0)


def test_disturbance_clipping():
    dist = DisturbanceSignal(lambda z, t: np.array([3.0, 4.0]), 1.0)
    w = dist.sample(np.zeros(2), 0.0)
    assert np.linalg.norm(w) == pytest.approx(1.0)
    assert np.allclose(w, [0.6, 0.8])
    assert (dist.samples, dist.clipped) == (1, 1)


def test_rollout_zoh_matches_integrate():
    u_seq = np.array([[1.5, 0.2], [0.5, -0.8]])
    traj = rollout_zoh(UNICYCLE.vector_field, np.array([0.0, 1.0, 0.2]), u_seq, 0.1, 10)
    assert traj.shape == (21, 3)
    assert np.allclose(traj[-1], _reference_zoh([0.0, 1.0, 0.2], u_seq, 0.1), atol=1e-8)
    # and against the shared integrator, one constant-input segment per call
    # (as the closed-loop engine uses it)
    z = np.array([0.0, 1.0, 0.2])
    for u in u_seq:
        _, seg = integrate(UNICYCLE, z, u, None, 0.0, 0.1, 0.01)
        z = seg[-1]
    assert np.allclose(traj[-1], z, atol=1e-10)


def test_rollout_zoh_batched_consistency():
    u_seq = np.array([[1.5, 0.2], [0.5, -0.8]])
    e0 = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5]])
    batch = rollout_zoh(unicycle_field, e0, np.broadcast_to(u_seq, (2, 2, 2)), 0.1, 5)
    single = rollout_zoh(unicycle_field, e0[1], u_seq, 0.1, 5)
    assert np.allclose(batch[1], single, atol=1e-14)


def test_unicycle_rollout_fast_path_is_bit_identical():
    # a lambda around the field is not recognized and takes the generic loop
    rng = np.random.default_rng(5)
    ed = ErrorDynamics(UNICYCLE, np.array([6.0, 2.3, 0.4]))
    e0 = np.broadcast_to(rng.normal(size=3), (7, 3))
    u_seq = rng.uniform(-8.0, 8.0, (7, 6, 2))
    fast = rollout_zoh(ed.field, e0, u_seq, 0.1, 10)
    loop = rollout_zoh(lambda e, u: ed.field(e, u), e0, u_seq, 0.1, 10)
    assert fast.shape == loop.shape == (7, 61, 3)
    assert np.array_equal(fast, loop)
    z0 = rng.normal(size=3)
    fast = rollout_zoh(unicycle_field, z0, u_seq[0], 0.13, 4)
    loop = rollout_zoh(lambda z, u: unicycle_field(z, u), z0, u_seq[0], 0.13, 4)
    assert fast.shape == loop.shape == (25, 3)
    assert np.array_equal(fast, loop)


def test_integrate_reports_first_stage_disturbance_norms():
    """`w_norms` receives the norm of each substep's first RK4 sample, the
    disturbance at (states[k], times[k]) for every k but the last, from the
    unicycle path and the generic loop alike; nothing without a disturbance."""
    generic = AgentModel(3, 2, lambda z, u: unicycle_field(z, u), angle_indices=(2,))

    def gen(z, t):
        return 0.2 * np.array([np.cos(z[2]), 0.1 * z[0], np.sin(z[1] + t)])

    oracle = DisturbanceSignal(gen, 0.18)
    for model in (UNICYCLE, generic):
        norms = []
        times, states = integrate(model, [0.3, -0.2, 3.1], np.array([2.0, 9.0]),
                                  DisturbanceSignal(gen, 0.18), 0.4, 0.5, 0.01, norms)
        assert norms == [float(np.linalg.norm(oracle.sample(z, t)))
                         for z, t in zip(states[:-1], times[:-1])]
        assert 0 < oracle.clipped < oracle.samples
        nominal = []
        integrate(model, [0.3, -0.2, 3.1], np.array([2.0, 9.0]), None, 0.4, 0.5, 0.01, nominal)
        assert nominal == []


def test_unicycle_integrate_fast_path_is_bit_identical():
    # a lambda around the field is not recognized and takes the generic
    # _rk4_step loop, the oracle of the Python-float path
    generic = AgentModel(3, 2, lambda z, u: unicycle_field(z, u), angle_indices=(2,))
    generators = {
        "none": None,
        "in bound": lambda z, t: 0.05 * np.sin(3 * t) * np.ones(3),
        "clipping": lambda z, t: np.array([3.0 * np.sin(t), 1.0, -2.0]),
        "reads z": lambda z, t: 0.2 * np.array([np.cos(z[2]), 0.1 * z[0], np.sin(z[1] + t)]),
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
            for model in (UNICYCLE, generic):
                dist = None if gen is None else DisturbanceSignal(gen, 0.1)
                times, states = integrate(model, z0, u, dist, t0, t0 + 0.1, 0.01)
                runs.append((times, states, None if dist is None else
                             (dist.samples, dist.clipped)))
            (t_fast, fast, n_fast), (t_loop, loop, n_loop) = runs
            assert np.array_equal(t_fast, t_loop), name
            assert fast.shape == loop.shape == (11, 3)
            assert np.array_equal(fast, loop), name
            assert n_fast == n_loop, name
            counts.add((name, n_fast))
    assert ("in bound", (40, 0)) in counts and ("clipping", (40, 40)) in counts
    _, crossing = integrate(UNICYCLE, cases[-1][0], cases[-1][1], None, 0.0, 0.1, 0.01)
    assert np.all(np.abs(crossing[:, 2]) <= np.pi) and crossing[-1, 2] < 0.0


def _central_jacobian(field, e0, u_seq, stage_time, substeps, eps=1e-6):
    """d rollout / d u_seq.ravel() by central differences, one input at a time."""
    cols = []
    for c in range(u_seq.size):
        step = np.zeros(u_seq.size)
        step[c] = eps
        step = step.reshape(u_seq.shape)
        cols.append((rollout_zoh(field, e0, u_seq + step, stage_time, substeps)
                     - rollout_zoh(field, e0, u_seq - step, stage_time, substeps))
                    / (2.0 * eps))
    return np.stack(cols, axis=-1)


def test_unicycle_rollout_jacobian_matches_central_differences():
    rng = np.random.default_rng(11)
    ed = ErrorDynamics(UNICYCLE, np.array([6.0, 2.3, 0.4]))
    for field, substeps in ((ed.field, 10), (unicycle_field, 4)):
        e0 = rng.normal(size=3)
        u_seq = rng.uniform(-8.0, 8.0, (6, 2))
        traj, jac = rollout_zoh(field, e0, u_seq, 0.1, substeps, 1e-6)
        assert np.array_equal(traj, rollout_zoh(field, e0, u_seq, 0.1, substeps))
        assert jac.shape == (6 * substeps + 1, 3, 12)
        assert np.abs(jac - _central_jacobian(field, e0, u_seq, 0.1, substeps)).max() < 1e-8
    with pytest.raises(ValueError, match="Jacobian"):
        rollout_zoh(unicycle_field, np.zeros((2, 3)), np.zeros((2, 6, 2)), 0.1, 10, 1e-6)


def test_double_integrator_rollout_jacobian_is_exact_zoh_sensitivity():
    """Under a held input u_k, p and v respond to u_k by (s^2 / 2, s) after s
    seconds of stage k, and the end-of-stage response then carries on as
    (h^2 / 2 + h s', h) for s' seconds after it."""

    def field(z, u):
        return np.stack([z[..., 1], u[..., 0]], axis=-1)

    h, substeps, n_stage = 0.1, 10, 6
    u_seq = np.array([[0.3], [-1.2], [2.0], [0.1], [-0.4], [0.9]])
    traj, jac = rollout_zoh(field, np.array([0.5, -0.2]), u_seq, h, substeps, 1e-6)
    assert np.array_equal(traj, rollout_zoh(field, np.array([0.5, -0.2]), u_seq, h, substeps))
    t = (h / substeps) * np.arange(n_stage * substeps + 1)
    exact = np.empty((len(t), 2, n_stage))
    for k in range(n_stage):
        s = np.clip(t - k * h, 0.0, h)
        after = np.maximum(t - (k + 1) * h, 0.0)
        exact[:, 0, k] = 0.5 * s * s + s * after
        exact[:, 1, k] = s
    assert np.abs(jac - exact).max() < 1e-8


def test_error_dynamics_roundtrip_and_wrapping():
    ed = ErrorDynamics(UNICYCLE, np.array([1.0, 2.0, 3.0]))
    z = np.array([0.5, 1.0, -3.0])
    e = ed.error_of(z)
    assert abs(e[2]) <= np.pi  # shortest signed heading difference
    assert np.allclose(ed.state_of(e)[:2], z[:2], atol=1e-12)
    assert np.sin(ed.state_of(e)[2]) == pytest.approx(np.sin(z[2]), abs=1e-12)


def test_error_field_is_shifted_field():
    ed = ErrorDynamics(UNICYCLE, np.array([1.0, -1.0, 0.5]))
    e = np.array([0.2, 0.3, -0.1])
    u = np.array([1.0, 0.4])
    assert np.allclose(ed.field(e, u), unicycle_field(e + ed.z_des, u), atol=1e-15)


def test_estimate_lipschitz_unicycle():
    low = np.array([-1.0, -1.0, -np.pi])
    high = np.array([1.0, 1.0, np.pi])
    L = estimate_lipschitz(UNICYCLE, 1.0, low, high, sample_count=20_000, rng_seed=3)
    # Lipschitz constant wrt the state is sup |v| = input bound, times the
    # 1.1 safety factor; the sampled estimate must bracket it loosely
    assert 0.5 < L < 1.2


def test_estimate_lipschitz_deterministic():
    low, high = -np.ones(3), np.ones(3)
    a = estimate_lipschitz(UNICYCLE, 2.0, low, high, sample_count=500, rng_seed=9)
    b = estimate_lipschitz(UNICYCLE, 2.0, low, high, sample_count=500, rng_seed=9)
    assert a == b
