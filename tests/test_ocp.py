import numpy as np
import pytest

from dnmpc import ocp
from dnmpc.dynamics import UNICYCLE, AgentModel, ErrorDynamics
from dnmpc.ocp import (OcpConfig, _openblas_thread_controls, _Transcription,
                       restore_feasibility, single_blas_thread, solve_fhocp, stage_cost,
                       unicycle_steering_law, warm_start_shift)


def double_integrator_model():
    def field(z, u):
        z = np.asarray(z, dtype=float)
        u = np.asarray(u, dtype=float)
        return np.stack([z[..., 1], u[..., 0]], axis=-1)

    return AgentModel(state_dim=2, input_dim=1, vector_field=field,
                      position_slice=slice(0, 1))


def _config(u_bar=1e6, **kw):
    defaults = dict(h=0.1, T_p=0.6, Q=np.diag([2.0, 0.5]), R=np.array([[0.1]]),
                    P=np.diag([1.0, 1.0]), eps_omega=0.01, eps_psi=0.1, u_bar=u_bar)
    defaults.update(kw)
    return OcpConfig(**defaults)


def position_margin_fn(offset):
    """Margin e[0] + offset of the double integrator's position, with its
    error Jacobian [1, 0]."""
    def margin_fn(errors):
        jac = np.zeros((len(errors), 1, errors.shape[-1]))
        jac[:, 0, 0] = 1.0
        return (errors[:, 0] + offset)[:, None], jac

    return margin_fn


def disc_margin_fn(ed, centers, radius):
    """Clearance of a unicycle's position from discs of one radius, one
    column per disc, with its error Jacobian: (p - c) / |p - c| on the
    position, zero on the heading."""
    centers = np.atleast_2d(centers)

    def margin_fn(errors):
        diff = errors[:, None, :2] + ed.z_des[:2] - centers
        dist = np.linalg.norm(diff, axis=-1)
        jac = np.zeros(dist.shape + errors.shape[-1:])
        jac[..., :2] = diff / dist[..., None]
        return dist - radius, jac

    return margin_fn


def lqr_dp_reference(e0, cfg):
    """Independent finite-horizon LQR solution of the exactly discretized
    double integrator with rectangle-rule stage cost h (e'Qe + u'Ru) and
    terminal cost e'Pe (dynamic programming backward recursion)."""
    h = cfg.h
    A = np.array([[1.0, h], [0.0, 1.0]])
    B = np.array([[0.5 * h * h], [h]])
    Qd, Rd = h * cfg.Q, h * cfg.R
    N = cfg.n_stages
    V = cfg.P.copy()
    gains = []
    for _ in range(N):
        K = np.linalg.solve(Rd + B.T @ V @ B, B.T @ V @ A)
        V = Qd + A.T @ V @ A - (A.T @ V @ B) @ K
        gains.append(K)
    gains.reverse()
    x = np.asarray(e0, dtype=float)
    inputs = []
    for K in gains:
        u = -(K @ x)
        inputs.append(u)
        x = A @ x + B @ u
    return np.asarray(inputs)


def test_solver_matches_riccati_oracle():
    cfg = _config()
    ed = ErrorDynamics(double_integrator_model(), np.zeros(2))
    e0 = np.array([1.5, -0.7])
    sol = solve_fhocp(ed, e0, None, cfg, use_terminal=False)
    ref = lqr_dp_reference(e0, cfg)
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.inputs - ref)) < 1e-4


def test_terminal_solve_in_gauss_newton_scaling_matches_riccati_oracle():
    # the double integrator is linear, so the Gauss-Newton Hessian the
    # terminal tier scales by is the exact one: SLSQP's first step is Newton's
    cfg = _config(eps_omega=1e3, eps_psi=2e3)  # terminal set far from binding
    ed = ErrorDynamics(double_integrator_model(), np.zeros(2))
    for e0 in ([1.5, -0.7], [0.3, 0.2], [-2.0, 1.0]):
        e0 = np.array(e0)
        sol = solve_fhocp(ed, e0, None, cfg, use_terminal=True)
        assert sol.status == "optimal"
        assert sol.solve_stats["iterations"] <= 3
        assert np.max(np.abs(sol.inputs - lqr_dp_reference(e0, cfg))) < 1e-6


def test_scaled_unicycle_solve_returns_a_feasible_plan():
    # a terminal-enforced solve (run in scaled variables) from a start that
    # grazes the disc, whose margin binds at the optimum: the returned plan is
    # in input space and meets every constraint
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    sol = solve_fhocp(ed, e0, margin_fn, cfg, warm_start=start, use_terminal=True)
    assert sol.status != "infeasible"
    assert sol.solve_stats["residual"] <= cfg.constraint_tol
    res = _Transcription(ed, e0, margin_fn, cfg, True).eval(sol.inputs.ravel())
    assert -res["slack"] <= cfg.constraint_tol
    assert np.array_equal(res["traj"], sol.dense_errors)
    assert np.all(np.linalg.norm(sol.inputs, axis=1) <= cfg.u_bar + 1e-9)


def test_suboptimal_stop_returns_a_feasible_plan_no_worse_than_its_start():
    """Terminal-enforced solves of the grazing-disc unicycle from two feasible
    starts. A swerve past the disc: the suboptimal stop ends the solve with a
    feasible-suboptimal plan within the tolerance that costs no more than the
    start. The optimum for the disc shrunk by half the tolerance: feasible
    only within the tolerance and cheaper than every plan that clears the
    disc, so no iterate meets the cost bound, and without that bound the
    stop would end the solve at a plan costlier than its start."""
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    swerve = np.tile([1.7, -0.6], (6, 1))
    shrunk = disc_margin_fn(ed, [0.5, 0.3], 0.32 - 0.5 * cfg.constraint_tol)
    inside = solve_fhocp(ed, e0, shrunk, cfg, warm_start=start, use_terminal=True).inputs
    tr = _Transcription(ed, e0, margin_fn, cfg, True)
    for warm_start, stops in ((swerve, True), (inside, False)):
        before = tr.eval(warm_start.ravel())
        assert -before["slack"] <= cfg.constraint_tol
        sol = solve_fhocp(ed, e0, margin_fn, cfg, warm_start=warm_start, use_terminal=True)
        assert sol.solve_stats["suboptimal_stop"] is stops
        assert sol.solve_stats["residual"] <= cfg.constraint_tol
        if stops:
            assert sol.status == "feasible-suboptimal"
            assert sol.cost <= before["cost"]
        else:
            assert sol.status == "optimal"


def test_suboptimal_stop_only_on_terminal_solves(monkeypatch):
    """The relaxed tiers and the feasibility restoration pass SLSQP no
    callback: the suboptimal stop needs a feasible shifted candidate under
    the terminal set, which they lack."""
    callbacks = []
    original = ocp.minimize

    def recorded(*args, **kwargs):
        callbacks.append(kwargs.get("callback"))
        return original(*args, **kwargs)

    monkeypatch.setattr(ocp, "minimize", recorded)
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    solve_fhocp(ed, e0, margin_fn, cfg, warm_start=start, use_terminal=False)
    for use_terminal in (False, True):
        restore_feasibility(ed, e0, margin_fn, cfg, start, use_terminal=use_terminal)
    assert len(callbacks) == 3 and callbacks == [None] * 3
    solve_fhocp(ed, e0, margin_fn, cfg, warm_start=start, use_terminal=True)
    assert callable(callbacks[-1])


def test_slsqp_halts_on_callback_stop_iteration():
    """The suboptimal stop relies on scipy's SLSQP ending at the iterate whose
    callback raised StopIteration, with status 99 (scipy 1.17 does); a scipy
    that ignores the halt would run every terminal solve to its own test."""
    def halt(x):
        raise StopIteration

    opt = ocp.minimize(lambda x: float(x @ x), np.ones(3), jac=lambda x: 2.0 * x,
                       method="SLSQP", callback=halt,
                       constraints=[{"type": "ineq", "fun": lambda x: x[0] + 2.0}])
    assert (opt.status, opt.nit, opt.success) == (ocp._CALLBACK_HALT, 1, False)
    assert ocp._CALLBACK_HALT == 99


def test_stage_cost_quadratic():
    Q = np.diag([2.0, 1.0])
    R = np.array([[0.5]])
    assert stage_cost([1.0, 2.0], [2.0], Q, R) == pytest.approx(2 + 4 + 2)
    batch = stage_cost(np.ones((4, 2)), np.ones((4, 1)), Q, R)
    assert batch.shape == (4,)


def test_stage_cost_dimension_mismatch():
    with pytest.raises(ValueError):
        stage_cost([1.0, 2.0, 3.0], [1.0], np.eye(2), np.eye(1))


def test_input_bound_respected():
    cfg = _config(u_bar=0.5)
    ed = ErrorDynamics(double_integrator_model(), np.zeros(2))
    sol = solve_fhocp(ed, np.array([5.0, 0.0]), None, cfg, use_terminal=False)
    assert np.all(np.linalg.norm(sol.inputs, axis=1) <= 0.5 + 1e-9)


def test_terminal_constraint_enforced_near_origin():
    cfg = _config()
    ed = ErrorDynamics(double_integrator_model(), np.zeros(2))
    sol = solve_fhocp(ed, np.array([0.2, 0.0]), None, cfg, use_terminal=True)
    assert sol.status != "infeasible"
    v_term = float(sol.predicted_errors[-1] @ cfg.P @ sol.predicted_errors[-1])
    assert v_term <= cfg.eps_omega + cfg.constraint_tol


def test_margin_constraints_enforced():
    cfg = _config(u_bar=5.0)
    ed = ErrorDynamics(double_integrator_model(), np.zeros(2))
    # keep the position coordinate above -0.1 along the horizon
    margin_fn = position_margin_fn(0.1)
    sol = solve_fhocp(ed, np.array([1.0, -1.0]), margin_fn, cfg, use_terminal=False)
    assert sol.status != "infeasible"
    assert sol.dense_errors[1:, 0].min() >= -0.1 - cfg.constraint_tol


def test_infeasible_status_reported():
    cfg = _config(u_bar=0.01)
    ed = ErrorDynamics(double_integrator_model(), np.zeros(2))
    # requires the position to move by 10 within the horizon
    impossible = position_margin_fn(-10.0)
    sol = solve_fhocp(ed, np.array([0.0, 0.0]), impossible, cfg, use_terminal=False)
    assert sol.status == "infeasible"
    assert sol.solve_stats["residual"] > 1.0


def test_solution_shapes_and_stats():
    cfg = _config()
    ed = ErrorDynamics(double_integrator_model(), np.zeros(2))
    sol = solve_fhocp(ed, np.array([1.0, 0.0]), None, cfg, use_terminal=False)
    assert sol.inputs.shape == (6, 1)
    assert sol.predicted_errors.shape == (7, 2)
    assert sol.dense_errors.shape == (61, 2)
    assert sol.solve_stats["rollouts"] > 0
    assert sol.solve_stats["terminal_enforced"] is False


def test_transcription_gradients_match_central_differences():
    """cost_grad, v_term_grad and margins_jac, assembled from the rollout's
    input Jacobian, against central differences of the values themselves."""
    cfg = _config(u_bar=8.0, Q=np.diag([1.0, 1.0, 0.2]), R=np.diag([0.02, 0.01]),
                  P=np.diag([0.5, 0.5, 0.1]))
    ed = ErrorDynamics(UNICYCLE, np.array([3.0, 0.0, 0.4]))
    margin_fn = disc_margin_fn(ed, [1.2, 0.3], 0.3)
    tr = _Transcription(ed, np.array([-3.0, 0.1, -0.2]), margin_fn, cfg, use_terminal=True)
    x = np.random.default_rng(4).uniform(-3.0, 3.0, tr.nx)
    res = tr.eval(x)
    assert tr.n_rollouts == 1
    eps = 1e-6
    for value, grad in (("cost", "cost_grad"), ("v_term", "v_term_grad"),
                        ("margins", "margins_jac")):
        cols = []
        for c in range(tr.nx):
            step = np.zeros(tr.nx)
            step[c] = eps
            cols.append((np.atleast_1d(tr.eval(x + step)[value])
                         - np.atleast_1d(tr.eval(x - step)[value])) / (2.0 * eps))
        fd = np.stack(cols, axis=-1)
        exact = np.atleast_2d(res[grad])
        assert exact.shape == fd.shape
        assert np.abs(exact - fd).max() <= 1e-6 * np.abs(fd).max(), value


def _unicycle_near_disc():
    """A unicycle 2 m short of its goal, a disc of radius 0.32 beside the
    straight path, and a straight-ahead start that grazes the disc."""
    cfg = _config(u_bar=8.0, Q=np.diag([1.0, 1.0, 0.2]), R=np.diag([0.02, 0.01]),
                  P=np.diag([0.5, 0.5, 0.1]), eps_omega=0.05)
    ed = ErrorDynamics(UNICYCLE, np.array([1.0, 0.0, 0.0]))
    margin_fn = disc_margin_fn(ed, [0.5, 0.3], 0.32)
    return cfg, ed, np.array([-1.0, 0.0, 0.0]), margin_fn, np.tile([1.7, 0.0], (6, 1))


@pytest.mark.parametrize("use_terminal", [False, True])
def test_restore_feasibility_raises_worst_slack(use_terminal):
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    tr = _Transcription(ed, e0, margin_fn, cfg, use_terminal)
    before = tr.eval(start.ravel())["slack"]
    assert -0.05 < before < 0.0  # the start violates the disc margin by a little
    restored, iterations = restore_feasibility(ed, e0, margin_fn, cfg, start,
                                               use_terminal=use_terminal)
    assert restored.shape == start.shape
    assert iterations > 0
    assert np.all(np.linalg.norm(restored, axis=1) <= cfg.u_bar + 1e-9)
    assert tr.eval(restored.ravel())["slack"] > before


def test_transcription_slack_is_the_worst_constraint():
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    # the disc margin binds for the start, the terminal set for standing still
    for x, terminal_binds in ((start.ravel(), False), (np.zeros(start.size), True)):
        enforced = _Transcription(ed, e0, margin_fn, cfg, True).eval(x)
        terminal_slack = cfg.eps_omega - enforced["v_term"]
        assert (terminal_slack < enforced["margins"].min()) == terminal_binds
        assert enforced["slack"] == min(enforced["margins"].min(), terminal_slack)
        relaxed = _Transcription(ed, e0, margin_fn, cfg, False).eval(x)
        assert relaxed["slack"] == relaxed["margins"].min()
        assert _Transcription(ed, e0, None, cfg, False).eval(x)["slack"] == 0.0


def test_unicycle_steering_law_converges():
    z_des = np.array([0.0, 0.0, 0.0])
    ed = ErrorDynamics(UNICYCLE, z_des)
    kappa = unicycle_steering_law(z_des, u_bar=3.0)
    e = np.array([-3.0, 2.0, 0.5])
    dt = 0.01
    for _ in range(2000):
        u = kappa(e)
        assert np.linalg.norm(u) <= 3.0 + 1e-12
        e = e + dt * ed.field(e, u)
    assert np.linalg.norm(e[:2]) < 0.05


def test_warm_start_shift_structure():
    cfg = _config()
    ed = ErrorDynamics(double_integrator_model(), np.zeros(2))
    sol = solve_fhocp(ed, np.array([1.0, 0.0]), None, cfg, use_terminal=False)
    shifted = warm_start_shift(sol, lambda e: np.array([0.3]), cfg)
    assert shifted.shape == sol.inputs.shape
    assert np.allclose(shifted[:-1], sol.inputs[1:])
    assert shifted[-1, 0] == pytest.approx(0.3)


def test_warm_start_shift_rejects_infeasible():
    cfg = _config()
    ed = ErrorDynamics(double_integrator_model(), np.zeros(2))
    sol = solve_fhocp(ed, np.array([1.0, 0.0]), None, cfg, use_terminal=False)
    sol.status = "infeasible"
    with pytest.raises(ValueError):
        warm_start_shift(sol, lambda e: np.array([0.0]), cfg)


def test_single_blas_thread_pins_and_restores():
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    with single_blas_thread():
        assert [get() for get, _ in controls] == [1] * len(controls)
    assert [get() for get, _ in controls] == before


def test_solve_independent_of_blas_thread_count():
    # a unicycle kept clear of four discs on the 60-point substep grid: 240
    # margin rows, enough for OpenBLAS to split SLSQP's subproblem over threads
    cfg = _config(u_bar=8.0, Q=np.diag([1.0, 1.0, 0.2]), R=np.diag([0.02, 0.01]),
                  P=np.diag([0.5, 0.5, 0.1]))
    ed = ErrorDynamics(UNICYCLE, np.array([3.0, 0.0, 0.0]))
    margin_fn = disc_margin_fn(ed, [[1.0, 0.6], [1.5, -0.9], [2.2, 0.4], [0.4, -0.5]], 0.3)
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    solutions = []
    try:
        for threads in (1, 2):
            for _, set_threads in controls:
                set_threads(threads)
            solutions.append(solve_fhocp(ed, np.array([-3.0, 0.1, 0.0]), margin_fn,
                                         cfg, use_terminal=False))
    finally:
        for (_, set_threads), count in zip(controls, before):
            set_threads(count)
    assert solutions[0].solve_stats["iterations"] > 1
    assert np.array_equal(solutions[0].inputs, solutions[1].inputs)
    assert solutions[0].cost == solutions[1].cost
