import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from dnmpc import ocp
from dnmpc.cli import load_scenario
from dnmpc.dynamics import UNICYCLE, ErrorDynamics
from dnmpc.ocp import (HorizonSolution, OcpConfig, _openblas_thread_controls, _Transcription,
                       dual_mode_input, restore_feasibility, single_blas_thread,
                       solve_fhocp, unicycle_steering_law, warm_start_shift)
from oracles import (DOUBLE_INTEGRATOR, count_jacobians, no_margins, unicycle_field,
                     use_double_integrator)


@pytest.fixture
def double_integrator(monkeypatch):
    """The double integrator's error dynamics about the origin, which the
    real solver rolls out through the test stand-in for `ocp.rollout_zoh`
    (the program rolls out the unicycle only)."""
    use_double_integrator(monkeypatch)
    return ErrorDynamics(DOUBLE_INTEGRATOR, np.zeros(2))


def _config(u_bar=1e6, **kw):
    defaults = dict(h=0.1, T_p=0.6, Q=np.diag([2.0, 0.5]), R=np.array([[0.1]]),
                    P=np.diag([1.0, 1.0]), eps_omega=0.01, eps_psi=0.1, u_bar=u_bar)
    defaults.update(kw)
    return OcpConfig(**defaults)


def _zero_start(cfg, ed):
    """The zero input sequence, the warm start of a solve from rest."""
    return np.zeros((cfg.n_stages, ed.model.input_dim))


def position_margin_fn(offset):
    """Margin e[0] + offset of the double integrator's position, with a
    callable for its error Jacobian [1, 0]."""
    def margin_fn(errors):
        def jacobian():
            jac = np.zeros((len(errors), 1, errors.shape[-1]))
            jac[:, 0, 0] = 1.0
            return jac

        return (errors[:, 0] + offset)[:, None], jacobian

    return margin_fn


def disc_margin_fn(ed, centers, radius):
    """Clearance of a unicycle's position from discs of one radius, one
    column per disc, with a callable for its error Jacobian: (p - c) / |p - c|
    on the position, zero on the heading."""
    centers = np.atleast_2d(centers)

    def margin_fn(errors):
        diff = errors[:, None, :2] + ed.z_des[:2] - centers
        dist = np.linalg.norm(diff, axis=-1)

        def jacobian():
            jac = np.zeros(dist.shape + errors.shape[-1:])
            jac[..., :2] = diff / dist[..., None]
            return jac

        return dist - radius, jacobian

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


def test_solver_matches_riccati_oracle(double_integrator):
    cfg = _config()
    ed = double_integrator
    e0 = np.array([1.5, -0.7])
    sol = solve_fhocp(ed, e0, no_margins, cfg, _zero_start(cfg, ed), use_terminal=False)
    ref = lqr_dp_reference(e0, cfg)
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.inputs - ref)) < 1e-4


def test_relaxed_solve_takes_newtons_step_on_a_linear_quadratic_problem(double_integrator):
    """With linear dynamics and no constraints the Gauss-Newton Hessian is the
    exact one, so the relaxed solver's first QP step lands on the LQ optimum
    (the dynamic-programming Riccati oracle) and its second iteration stops
    there."""
    cfg = _config()
    ed = double_integrator
    for e0 in ([1.5, -0.7], [0.3, 0.2], [-2.0, 1.0]):
        e0 = np.array(e0)
        sol = solve_fhocp(ed, e0, no_margins, cfg, _zero_start(cfg, ed), use_terminal=False)
        assert sol.status == "optimal"
        assert sol.solve_stats["iterations"] == 2
        np.testing.assert_allclose(sol.inputs, lqr_dp_reference(e0, cfg), rtol=0, atol=1e-6)


def _qp_by_active_sets(H, g, G, b):
    """(d, lam) of min g'd + d'Hd / 2 s.t. G d >= b by enumerating the active
    sets: the one whose equality-constrained KKT point meets every row with
    nonnegative multipliers (a small strictly convex QP has exactly one)."""
    n, rows = len(g), len(b)
    for mask in range(1 << rows):
        active = [i for i in range(rows) if mask >> i & 1]
        A = G[active]
        kkt = np.block([[H, -A.T], [A, np.zeros((len(active), len(active)))]])
        try:
            z = np.linalg.solve(kkt, np.concatenate([-g, b[active]]))
        except np.linalg.LinAlgError:
            continue
        d, lam = z[:n], np.zeros(rows)
        lam[active] = z[n:]
        if (G @ d >= b - 1e-12).all() and (lam >= -1e-12).all():
            return d, lam
    raise AssertionError("no active set is optimal")


def test_working_set_qp_adds_a_binding_row_left_out_of_its_first_working_set():
    """A row that the first working set leaves out, and that binds at the
    optimum, joins it when the step violates it: the QP returns the all-rows
    solution (the active-set enumeration oracle) and meets the KKT
    conditions, H d + g = G' lam, lam >= 0, G d >= b, lam'(G d - b) = 0,
    with lam zero off the binding rows."""
    rng = np.random.default_rng(4)
    M = rng.standard_normal((3, 3))
    H = M @ M.T + np.eye(3)
    g = np.array([-4.0, 1.0, -2.0])
    G = np.vstack([np.eye(3), -np.eye(3), [[-1.0, -1.0, -1.0]]])
    b = np.array([-5.0, -5.0, -5.0, -5.0, -5.0, -5.0, -1.0])
    free = np.linalg.solve(H, -g)
    d_ref, lam_ref = _qp_by_active_sets(H, g, G, b)
    assert G[-1] @ free < b[-1]              # the unconstrained step violates the last row
    assert lam_ref[-1] > 1e-3                # which binds at the optimum
    first = np.ones(len(b), dtype=bool)
    first[-1] = False                        # and is left out of the first working set
    with single_blas_thread():
        d, lam = ocp._working_set_qp(ocp._inverse_factor(H), g, G, b, first)
    np.testing.assert_allclose(d, d_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(lam, lam_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(H @ d + g, G.T @ lam, rtol=0, atol=1e-10)
    slack = G @ d - b
    assert (lam >= 0.0).all() and (slack >= -1e-12).all()
    assert np.abs(lam * slack).max() <= 1e-10


def test_relaxed_solve_finds_a_margin_its_first_working_set_leaves_out(double_integrator):
    """The double integrator kept at position >= 0.8 from position 1: no
    margin is near active at the zero start, so the first working set is
    empty, and the unconstrained optimum crosses 0.8. The problem is a
    convex QP, so the first step, checked against every margin row, is its
    solution: the solve stops at its second iteration on the optimum of
    scipy's SLSQP run to a tight tolerance, with the margin binding."""
    cfg = _config()
    ed = double_integrator
    e0 = np.array([1.0, 0.0])
    margin_fn = position_margin_fn(-0.8)
    tr = _Transcription(ed, e0, margin_fn, cfg, False)
    assert tr.eval(np.zeros(tr.nx))["margins"].min() > ocp.NEAR_ACTIVE
    assert tr.eval(lqr_dp_reference(e0, cfg).ravel())["margins"].min() < 0.0
    sol = solve_fhocp(ed, e0, margin_fn, cfg, _zero_start(cfg, ed), use_terminal=False)
    assert sol.status == "optimal" and sol.solve_stats["iterations"] == 2
    ref_x, _ = _scipy_slsqp(_Transcription(ed, e0, margin_fn, cfg, False), np.zeros(tr.nx),
                            1e-14)
    np.testing.assert_allclose(sol.inputs.ravel(), ref_x, rtol=0, atol=1e-6)
    assert abs(sol.dense_errors[1:, 0].min() - 0.8) <= 1e-7


def test_relaxed_plans_meet_the_input_ball_exactly():
    """Every plan a relaxed solve returns lies in the input ball, to the last
    bit of the projection, and its prediction is its own rollout: on the
    seeded unicycle problems with u_bar = 2.5, where the ball binds at some
    stage of every plan."""
    for cfg, ed, e0, margin_fn, start in _unicycle_problems():
        cfg.u_bar = 2.5
        sol = solve_fhocp(ed, e0, margin_fn, cfg, warm_start=start, use_terminal=False)
        norms = np.linalg.norm(sol.inputs, axis=1)
        assert norms.max() <= cfg.u_bar * (1.0 + 2.0 * np.finfo(float).eps)
        assert norms.max() >= cfg.u_bar * (1.0 - 1e-9)
        again = _Transcription(ed, e0, margin_fn, cfg, False).eval(sol.inputs.ravel())
        assert np.array_equal(again["traj"], sol.dense_errors)


def test_terminal_solve_in_gauss_newton_scaling_matches_riccati_oracle(double_integrator):
    # the double integrator is linear, so the Gauss-Newton Hessian the
    # terminal tier scales by is the exact one: SLSQP's first step is Newton's.
    # The zero start is feasible and that step's plan costs less, so the
    # suboptimal stop ends the solve there, before SLSQP's own test
    cfg = _config(eps_omega=1e3, eps_psi=2e3)  # terminal set far from binding
    ed = double_integrator
    for e0 in ([1.5, -0.7], [0.3, 0.2], [-2.0, 1.0]):
        e0 = np.array(e0)
        sol = solve_fhocp(ed, e0, no_margins, cfg, _zero_start(cfg, ed), use_terminal=True)
        assert sol.status == "feasible-suboptimal"
        assert sol.solve_stats["suboptimal_stop"] is True
        assert sol.solve_stats["iterations"] == 1
        assert np.max(np.abs(sol.inputs - lqr_dp_reference(e0, cfg))) < 1e-6


def test_scaled_unicycle_solve_returns_a_feasible_plan():
    # a terminal-enforced solve (run in scaled variables) from a start that
    # grazes the disc, whose margin binds at the optimum: the returned plan is
    # in input space and meets every constraint
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    sol = solve_fhocp(ed, e0, margin_fn, cfg, warm_start=start, use_terminal=True)
    assert sol.status != "infeasible"
    assert sol.solve_stats["residual"] <= 1e-6
    res = _Transcription(ed, e0, margin_fn, cfg, True).eval(sol.inputs.ravel())
    assert -res["slack"] <= 1e-6
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
    shrunk = disc_margin_fn(ed, [0.5, 0.3], 0.32 - 0.5 * ocp.CONSTRAINT_TOL)
    inside = solve_fhocp(ed, e0, shrunk, cfg, warm_start=start, use_terminal=True).inputs
    tr = _Transcription(ed, e0, margin_fn, cfg, True)
    for warm_start, stops in ((swerve, True), (inside, False)):
        before = tr.eval(warm_start.ravel())
        assert -before["slack"] <= ocp.CONSTRAINT_TOL
        sol = solve_fhocp(ed, e0, margin_fn, cfg, warm_start=warm_start, use_terminal=True)
        assert sol.solve_stats["suboptimal_stop"] is stops
        assert sol.solve_stats["residual"] <= ocp.CONSTRAINT_TOL
        if stops:
            assert sol.status == "feasible-suboptimal"
            assert sol.cost <= before["cost"]
        else:
            assert sol.status == "optimal"


def _stop_iterates(monkeypatch, cfg, ed, e0, margin_fn, start):
    """A terminal-enforced solve with `ocp._suboptimal_stop` observed: the
    start's (feasible, cost) and each major iterate's (feasible, cost,
    halted) as the stop sees it, on a transcription of its own, and the
    solution."""
    iterates, real = [], ocp._suboptimal_stop

    def observed(tr, x0, scale):
        callback = real(tr, x0, scale)
        check = _Transcription(tr.errordyn, tr.e0, tr.margin_fn, tr.cfg, True)

        def state(x):
            res = check.eval(x)
            return bool(-res["slack"] <= ocp.CONSTRAINT_TOL), res["cost"]

        iterates.append(state(x0))

        def recorded(y):
            U = ocp._project_inputs((x0 + scale @ y).reshape(tr.N, tr.m), cfg.u_bar)
            seen = state(U.ravel())
            try:
                callback(y)
            except StopIteration:
                iterates.append((*seen, True))
                raise
            iterates.append((*seen, False))

        return recorded

    monkeypatch.setattr(ocp, "_suboptimal_stop", observed)
    sol = solve_fhocp(ed, e0, margin_fn, cfg, warm_start=start, use_terminal=True)
    monkeypatch.undo()
    return iterates[0], iterates[1:], sol


def _settled(cost, previous):
    return abs(cost - previous) <= ocp.SUBOPTIMAL_STOP_DELTA * previous


def test_stop_from_a_feasible_start_takes_the_first_iterate_that_beats_it(monkeypatch):
    """From a feasible start (a witness, cost J~) the solve ends at the first
    major iterate that is feasible and costs at most J~, settled or not: the
    swerve past the disc stops at SLSQP's first iterate, whose cost moved by
    a quarter."""
    cfg, ed, e0, margin_fn, _ = _unicycle_near_disc()
    swerve = np.tile([1.7, -0.6], (6, 1))
    (feasible, bound), iterates, sol = _stop_iterates(monkeypatch, cfg, ed, e0, margin_fn,
                                                      swerve)
    assert feasible
    halted = [k for k, (_, _, halt) in enumerate(iterates) if halt]
    beats = [k for k, (ok, cost, _) in enumerate(iterates) if ok and cost <= bound]
    assert halted == beats[:1] == [len(iterates) - 1]
    assert not _settled(iterates[-1][1], bound)
    assert sol.solve_stats["suboptimal_stop"] is True
    assert sol.solve_stats["iterations"] == len(iterates) == 1
    assert sol.status == "feasible-suboptimal" and sol.cost <= bound


def test_stop_from_an_infeasible_start_waits_for_the_cost_to_settle(monkeypatch):
    """From a start outside the tolerance there is no J~: the solve ends at
    the first feasible iterate whose cost changed by at most
    SUBOPTIMAL_STOP_DELTA, although earlier iterates were feasible and
    cheaper than the start."""
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    (feasible, start_cost), iterates, sol = _stop_iterates(monkeypatch, cfg, ed, e0,
                                                           margin_fn, start)
    assert not feasible
    costs = [start_cost] + [cost for _, cost, _ in iterates]
    settled = [k for k, (ok, cost, _) in enumerate(iterates)
               if ok and _settled(cost, costs[k])]
    halted = [k for k, (_, _, halt) in enumerate(iterates) if halt]
    assert halted == settled[:1] == [len(iterates) - 1]
    assert any(ok and cost <= start_cost for ok, cost, _ in iterates[:-1])
    assert sol.solve_stats["suboptimal_stop"] is True
    assert sol.status == "feasible-suboptimal"


def test_stop_where_slsqp_converges_too_reports_optimal(monkeypatch, double_integrator):
    """Terminal-enforced solves warm-started at their own optimum: at SLSQP's
    first iterate its own test passes and the stop fires as well (a feasible
    plan no costlier than the start). `ocp.minimize` keeps the core's exit
    mode 0 beside the halt, so the solve reads optimal, not stopped."""
    results, real = [], ocp.minimize

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    for cfg, ed, e0, margin_fn in (
            _unicycle_near_disc()[:4],
            (_config(eps_omega=1e3, eps_psi=2e3),
             double_integrator, np.array([1.5, -0.7]), no_margins)):
        plan = solve_fhocp(ed, e0, margin_fn, cfg, _zero_start(cfg, ed), use_terminal=True).inputs
        for _ in range(5):
            # restarts from the stop's plan, until SLSQP's own test passes
            with monkeypatch.context() as patch:
                patch.setattr(ocp, "minimize", recorded)
                sol = solve_fhocp(ed, e0, margin_fn, cfg, warm_start=plan, use_terminal=True)
            if results[-1].mode == 0:
                break
            plan = sol.inputs
        opt = results[-1]
        assert (opt.status, opt.mode, opt.success) == (ocp._CALLBACK_HALT, 0, True)
        assert sol.status == "optimal"
        assert sol.solve_stats["suboptimal_stop"] is False


def test_dual_mode_controller_switches_at_eps_omega():
    """kappa is zero input on Omega = {e'Pe <= eps_omega}, boundary included,
    and the steering law outside it."""
    cfg = _config(u_bar=3.0, Q=np.diag([1.0, 1.0, 0.2]), R=np.diag([0.02, 0.01]),
                  P=np.array([[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.2]]))
    z_des = np.array([1.0, -2.0, 0.3])

    def steering(e):
        return unicycle_steering_law(e, z_des, cfg.u_bar)

    def kappa(e):
        return dual_mode_input(e, z_des, cfg)

    direction = np.array([0.6, -0.3, 0.2])
    unit = direction / np.sqrt(direction @ cfg.P @ direction)
    for scale in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
        e = np.sqrt(cfg.eps_omega * scale) * unit
        V = e @ cfg.P @ e
        u = kappa(e)
        assert u.shape == (2,)
        if V <= cfg.eps_omega:
            assert np.array_equal(u, np.zeros(2))
        else:
            assert np.array_equal(u, steering(e)) and np.linalg.norm(u) > 0.0
    on_boundary = np.sqrt(cfg.eps_omega) * unit
    on_boundary *= np.sqrt(cfg.eps_omega / (on_boundary @ cfg.P @ on_boundary))
    assert [kappa(s * on_boundary).any() for s in (1.0 - 1e-6, 1.0 + 1e-6)] == [False, True]


def test_suboptimal_stop_only_on_terminal_solves(monkeypatch):
    """The relaxed tier runs no SLSQP (its solver is `_gauss_newton_sqp`)
    and the feasibility restoration passes SLSQP no callback: the suboptimal
    stop needs a feasible shifted candidate under the terminal set, which
    they lack."""
    callbacks = []
    original = ocp.minimize
    signature = inspect.signature(original)

    def recorded(*args, **kwargs):
        callbacks.append(signature.bind(*args, **kwargs).arguments.get("callback"))
        return original(*args, **kwargs)

    monkeypatch.setattr(ocp, "minimize", recorded)
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    solve_fhocp(ed, e0, margin_fn, cfg, warm_start=start, use_terminal=False)
    assert callbacks == []
    restore_feasibility(ed, e0, margin_fn, cfg, start)
    assert callbacks == [None]
    solve_fhocp(ed, e0, margin_fn, cfg, warm_start=start, use_terminal=True)
    assert callable(callbacks[-1])


def test_slsqp_halts_on_callback_stop_iteration():
    """The suboptimal stop relies on SLSQP ending at the iterate whose
    callback raised StopIteration, with status 99 (scipy's minimize gives the
    same); a loop that ignored the halt would run every terminal solve to
    SLSQP's own test."""
    def values(x, d):
        d[0] = x[0] + 2.0
        return float(x @ x)

    def gradients(x, g, C):
        g[:] = 2.0 * x
        C[0] = [1.0, 0.0, 0.0]

    def halt(x):
        raise StopIteration

    opt = ocp.minimize(values, gradients, np.ones(3), 1, 100, 1e-6, callback=halt)
    assert (opt.status, opt.nit, opt.success) == (ocp._CALLBACK_HALT, 1, False)
    assert ocp._CALLBACK_HALT == 99


def test_input_bound_respected(double_integrator):
    cfg = _config(u_bar=0.5)
    ed = double_integrator
    sol = solve_fhocp(ed, np.array([5.0, 0.0]), no_margins, cfg, _zero_start(cfg, ed),
                      use_terminal=False)
    assert np.all(np.linalg.norm(sol.inputs, axis=1) <= 0.5 + 1e-9)


def test_terminal_constraint_enforced_near_origin(double_integrator):
    cfg = _config()
    ed = double_integrator
    sol = solve_fhocp(ed, np.array([0.2, 0.0]), no_margins, cfg, _zero_start(cfg, ed),
                      use_terminal=True)
    assert sol.status != "infeasible"
    v_term = float(sol.dense_errors[-1] @ cfg.P @ sol.dense_errors[-1])
    assert v_term <= cfg.eps_omega + 1e-6


def test_margin_constraints_enforced(double_integrator):
    cfg = _config(u_bar=5.0)
    ed = double_integrator
    # keep the position coordinate above -0.1 along the horizon
    margin_fn = position_margin_fn(0.1)
    sol = solve_fhocp(ed, np.array([1.0, -1.0]), margin_fn, cfg, _zero_start(cfg, ed),
                      use_terminal=False)
    assert sol.status != "infeasible"
    assert sol.dense_errors[1:, 0].min() >= -0.1 - 1e-6


def test_infeasible_status_reported(double_integrator):
    cfg = _config(u_bar=0.01)
    ed = double_integrator
    # requires the position to move by 10 within the horizon
    impossible = position_margin_fn(-10.0)
    sol = solve_fhocp(ed, np.array([0.0, 0.0]), impossible, cfg, _zero_start(cfg, ed),
                      use_terminal=False)
    assert sol.status == "infeasible"
    assert sol.solve_stats["residual"] > 1.0


def test_solution_shapes_and_stats(double_integrator):
    cfg = _config()
    ed = double_integrator
    sol = solve_fhocp(ed, np.array([1.0, 0.0]), no_margins, cfg, _zero_start(cfg, ed),
                      use_terminal=False)
    assert sol.inputs.shape == (6, 1)
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
    res = tr.eval(x, gradients=True)
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


def test_transcription_cost_is_the_rectangle_rule_quadratic():
    """cost = h sum_k (e_k'Q e_k + u_k'R u_k) + e_N'P e_N over the stage
    instants of the rollout, and v_term its last term."""
    cfg = _config(u_bar=8.0, Q=np.diag([1.0, 1.0, 0.2]), R=np.diag([0.02, 0.01]),
                  P=np.diag([0.5, 0.5, 0.1]))
    ed = ErrorDynamics(UNICYCLE, np.array([3.0, 0.0, 0.4]))
    tr = _Transcription(ed, np.array([-3.0, 0.1, -0.2]), no_margins, cfg, use_terminal=True)
    x = np.random.default_rng(9).uniform(-3.0, 3.0, tr.nx)
    res = tr.eval(x)
    stages = res["traj"][::cfg.substeps]
    U = x.reshape(tr.N, tr.m)
    run = sum(e @ cfg.Q @ e + u @ cfg.R @ u for e, u in zip(stages[:-1], U))
    assert res["v_term"] == pytest.approx(stages[-1] @ cfg.P @ stages[-1], rel=1e-12)
    assert res["cost"] == pytest.approx(cfg.h * run + res["v_term"], rel=1e-12)


def _unicycle_near_disc():
    """A unicycle 2 m short of its goal, a disc of radius 0.32 beside the
    straight path, and a straight-ahead start that grazes the disc."""
    cfg = _config(u_bar=8.0, Q=np.diag([1.0, 1.0, 0.2]), R=np.diag([0.02, 0.01]),
                  P=np.diag([0.5, 0.5, 0.1]), eps_omega=0.05)
    ed = ErrorDynamics(UNICYCLE, np.array([1.0, 0.0, 0.0]))
    margin_fn = disc_margin_fn(ed, [0.5, 0.3], 0.32)
    return cfg, ed, np.array([-1.0, 0.0, 0.0]), margin_fn, np.tile([1.7, 0.0], (6, 1))


def test_restore_feasibility_raises_worst_slack():
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    tr = _Transcription(ed, e0, margin_fn, cfg, False)
    before = tr.eval(start.ravel())["slack"]
    assert -0.05 < before < 0.0  # the start violates the disc margin by a little
    restored, iterations = restore_feasibility(ed, e0, margin_fn, cfg, start)
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
        assert _Transcription(ed, e0, no_margins, cfg, False).eval(x)["slack"] == np.inf


def test_unicycle_steering_law_converges():
    z_des = np.array([0.0, 0.0, 0.0])
    ed = ErrorDynamics(UNICYCLE, z_des)
    e = np.array([-3.0, 2.0, 0.5])
    dt = 0.01
    for _ in range(2000):
        u = unicycle_steering_law(e, z_des, u_bar=3.0)
        assert np.linalg.norm(u) <= 3.0 + 1e-12
        e = e + dt * unicycle_field(e + ed.z_des, u)
    assert np.linalg.norm(e[:2]) < 0.05


def test_warm_start_shift_structure():
    """The shifted start drops the first stage and appends kappa's input at
    the plan's tail error: zero input when the plan ends inside Omega (the
    terminal-enforced solve 2 m short of the goal), the steering law's when
    it ends outside (a plan at half that solve's start speed, which stops
    about 1 m short)."""
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    inside = solve_fhocp(ed, e0, margin_fn, cfg, start, use_terminal=True)
    short = _Transcription(ed, e0, margin_fn, cfg, True).eval(0.5 * start.ravel())
    outside = HorizonSolution(0.5 * start, short["traj"], short["cost"],
                              "feasible-suboptimal")
    for sol, ends_inside in ((inside, True), (outside, False)):
        tail = sol.dense_errors[-1]
        assert bool(tail @ cfg.P @ tail <= cfg.eps_omega) is ends_inside
        shifted = warm_start_shift(sol, ed.z_des, cfg)
        assert shifted.shape == sol.inputs.shape
        assert np.array_equal(shifted[:-1], sol.inputs[1:])
        if ends_inside:
            assert np.array_equal(shifted[-1], np.zeros(2))
        else:
            steering = unicycle_steering_law(tail, ed.z_des, cfg.u_bar)
            assert np.array_equal(shifted[-1], steering) and steering.any()


def test_warm_start_shift_rejects_infeasible():
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    sol = solve_fhocp(ed, e0, margin_fn, cfg, start, use_terminal=False)
    sol.status = "infeasible"
    with pytest.raises(ValueError):
        warm_start_shift(sol, ed.z_des, cfg)


def test_single_blas_thread_pins_and_restores():
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    with single_blas_thread():
        assert [get() for get, _ in controls] == [1] * len(controls)
    assert [get() for get, _ in controls] == before


def test_nested_single_blas_thread_keeps_the_outer_pin(monkeypatch):
    """solve_fhocp and restore_feasibility pin the threads once per call. An
    entry that finds them pinned sets nothing, so inside an outer block the
    count stays 1 after a nested block and after each solve, and the outer
    block's exit restores the count it found. Stand-in controls record every
    set."""
    count, sets = [3], []

    def set_threads(n):
        sets.append(n)
        count[0] = n

    monkeypatch.setattr(ocp, "_openblas_thread_controls", lambda: ((lambda: count[0],
                                                                    set_threads),))
    cfg, ed, e0, margin_fn, start = _unicycle_near_disc()
    for use_terminal in (True, False):
        solve_fhocp(ed, e0, margin_fn, cfg, warm_start=start, use_terminal=use_terminal)
    restore_feasibility(ed, e0, margin_fn, cfg, start)
    assert sets == [1, 3] * 3
    sets.clear()
    with single_blas_thread():
        with single_blas_thread():
            assert count == [1]
        assert count == [1]
        solve_fhocp(ed, e0, margin_fn, cfg, warm_start=start, use_terminal=False)
        restore_feasibility(ed, e0, margin_fn, cfg, start)
        assert count == [1]
    assert count == [3] and sets == [1, 3]


def test_relaxed_solve_forms_no_jacobian_for_a_rejected_trial(monkeypatch):
    """Inside `_gauss_newton_sqp`, a trial point whose merit the line search
    rejects is evaluated for its values only, and its rollout forms no
    Jacobian; each iterate, whose gradients the solver asks for, forms one.
    The seeded problem's relaxed solve rejects a trial."""
    rollouts, asked, inside = count_jacobians(monkeypatch), {}, [False]
    real_eval, real_sqp = _Transcription.eval, ocp._gauss_newton_sqp

    def evaluated(tr, x, gradients=False):
        if inside[0]:
            asked[x.tobytes()] = asked.get(x.tobytes(), False) or gradients
        return real_eval(tr, x, gradients)

    def sqp(tr, x0):
        inside[0] = True
        try:
            return real_sqp(tr, x0)
        finally:
            inside[0] = False

    monkeypatch.setattr(_Transcription, "eval", evaluated)
    monkeypatch.setattr(ocp, "_gauss_newton_sqp", sqp)
    cfg, ed, e0, margin_fn, start = list(_unicycle_problems())[2]
    sol = solve_fhocp(ed, e0, margin_fn, cfg, warm_start=start, use_terminal=False)
    rejected = [x for x, gradients in asked.items() if not gradients]
    assert len(rejected) >= 1
    assert len(rollouts) == sol.solve_stats["rollouts"]
    formed = {}  # Jacobians formed per point, over all its rollouts
    for x, count in rollouts:
        formed[x] = formed.get(x, 0) + count
    assert [formed[x] for x in rejected] == [0] * len(rejected)
    assert all(formed[x] == 1 for x, gradients in asked.items() if gradients)
    # the start and each accepted trial: one Jacobian per iteration
    assert sum(formed.values()) == sol.solve_stats["iterations"]


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
                                         cfg, _zero_start(cfg, ed), use_terminal=False))
    finally:
        for (_, set_threads), count in zip(controls, before):
            set_threads(count)
    assert solutions[0].solve_stats["iterations"] > 1
    assert np.array_equal(solutions[0].inputs, solutions[1].inputs)
    assert solutions[0].cost == solutions[1].cost


def _scipy_slsqp(tr, x0, ftol, slack=False, scale=None, callback=None):
    """The SLSQP run of `ocp._slsqp` through scipy's public
    ``minimize(method="SLSQP")``: one constraint dict per block (margins,
    ball, terminal; no terminal in the slack form), each with its own
    evaluation, and with `scale` each block's Jacobian times T."""
    cfg, N, m, nx = tr.cfg, tr.N, tr.m, tr.nx
    u_bar_sq = cfg.u_bar ** 2
    ball_rows, ball_cols = np.repeat(np.arange(N), m), np.arange(nx)

    def lowered(x, value):
        return value - x[-1] if slack else value

    def with_slack_column(jacobian):
        return np.hstack([jacobian, -np.ones((len(jacobian), 1))]) if slack else jacobian

    def ball_jac(x):
        out = np.zeros((N, len(x)))
        out[ball_rows, ball_cols] = -2.0 * x[:nx]
        return out

    def ball_fun(x):
        U = x[:nx].reshape(N, m)
        return u_bar_sq - np.sum(U * U, axis=1)

    ball = [{"type": "ineq", "fun": ball_fun, "jac": ball_jac}]
    margins = [{"type": "ineq",
                "fun": lambda x: lowered(x, tr.eval(x[:nx])["margins"]),
                "jac": lambda x: with_slack_column(
                     tr.eval(x[:nx], gradients=True)["margins_jac"])}]
    terminal = [{"type": "ineq",
                 "fun": lambda x: np.array([cfg.eps_omega - tr.eval(x[:nx])["v_term"]]),
                 "jac": lambda x: -tr.eval(x[:nx], gradients=True)["v_term_grad"][None, :]}]
    if not tr.use_terminal:
        terminal = []
    cons = margins + ball + terminal
    if slack:
        grad = np.zeros(nx + 1)
        grad[-1] = -1.0
        fun, jac = (lambda x: -x[-1]), (lambda x: grad)
    else:
        fun = lambda x: tr.eval(x)["cost"]  # noqa: E731
        jac = lambda x: tr.eval(x, gradients=True)["cost_grad"]  # noqa: E731
    start, to_x = x0, (lambda y: y)
    if scale is not None:
        def to_x(y):
            return x0 + scale @ y

        def in_y(value):
            return lambda y: value(to_x(y))

        def jacobian_in_y(jacobian):
            return lambda y: jacobian(to_x(y)) @ scale

        fun, jac = in_y(fun), jacobian_in_y(jac)
        cons = [{"type": "ineq", "fun": in_y(c["fun"]), "jac": jacobian_in_y(c["jac"])}
                for c in cons]
        start = np.zeros_like(x0)
    with single_blas_thread():
        opt = scipy.optimize.minimize(fun, start, jac=jac, constraints=cons, method="SLSQP",
                                      callback=callback,
                                      options={"maxiter": ocp.MAX_ITERATIONS, "ftol": ftol})
    return to_x(opt.x), opt


def _unicycle_problems():
    """`_unicycle_near_disc` and four seeded variants: the start state, two
    discs and the straight-ahead start each drawn around it."""
    yield _unicycle_near_disc()
    for seed in range(1, 5):
        rng = np.random.default_rng(seed)
        cfg, ed, e0, _, start = _unicycle_near_disc()
        centers = rng.uniform([0.2, 0.1], [0.8, 0.5], size=(2, 2))
        yield (cfg, ed, e0 + rng.uniform(-0.3, 0.3, 3), disc_margin_fn(ed, centers, 0.25),
               start + rng.uniform(-0.4, 0.4, start.shape))


def _slsqp_form(form, cfg, ed, e0, margin_fn, start):
    """`ocp._slsqp`'s arguments (tr, x0, ftol, options) for one form of the
    solve, on a fresh transcription, as `solve_fhocp` and
    `restore_feasibility` build them."""
    tr = _Transcription(ed, e0, margin_fn, cfg, form == "terminal")
    u0 = ocp._project_inputs(start, cfg.u_bar).ravel()
    if form == "terminal":
        scale = ocp._gauss_newton_scaling(tr, u0)
        return tr, u0, ocp.SLSQP_FTOL, {"scale": scale,
                                        "callback": ocp._suboptimal_stop(tr, u0, scale)}
    if form == "restore":
        return tr, np.append(u0, tr.eval(u0)["slack"]), 1e-12, {"slack": True}
    return tr, u0, ocp.SLSQP_FTOL, {}


def test_minimize_matches_scipy_slsqp_bitwise():
    """`ocp.minimize` drives scipy's private compiled SLSQP core
    (`scipy.optimize._slsqplib.slsqp`) as scipy's own wrapper does. On the
    seeded unicycle problems, in each form `_slsqp` runs (relaxed: plain
    variables, no callback; terminal: Gauss-Newton scaled, with the
    suboptimal stop; restore: the slack form), it must return bitwise
    scipy's x, and its nit, nfev and status. A scipy release that changes
    the core's contract fails here first."""
    statuses = set()
    for problem in _unicycle_problems():
        for form in ("relaxed", "terminal", "restore"):
            tr, x0, ftol, options = _slsqp_form(form, *problem)
            with single_blas_thread():
                ours = ocp._slsqp(tr, x0, ftol, **options)
            ref_tr, _, _, ref_options = _slsqp_form(form, *problem)
            ref_x, ref = _scipy_slsqp(ref_tr, x0, ftol, **ref_options)
            got = (ours.x.tobytes(), ours.nit, ours.nfev, ours.status)
            want = (ref_x.tobytes(), ref.nit, ref.nfev, ref.status)
            assert got == want, (
                f"{form}: ocp.minimize gives (nit, nfev, status) {got[1:]}, scipy's "
                f"SLSQP {want[1:]}, or another x; has scipy.optimize._slsqplib changed?")
            statuses.add(ours.status)
    # the problems reach SLSQP's own test and the suboptimal stop
    assert {0, ocp._CALLBACK_HALT} <= statuses


def test_closed_loop_scaled_solves_match_scipy_slsqp_bitwise(monkeypatch):
    """The scaled solves of the bundled scenario's first 2 s, as the closed
    loop makes them: the Gauss-Newton-scaled terminal solves, with hundreds
    of margin rows of several kinds, the terminal row and the scale T. On
    each, `ocp._slsqp` must return bitwise what scipy's public SLSQP returns
    with each constraint block's Jacobian times T on its own. The seeded
    problems above cannot tell that from one product of T with all the
    stacked rows, which moves the closed loop's iterates."""
    scenario = Path(__file__).resolve().parents[1] / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"
    real = ocp._slsqp
    margin_rows = []

    def checked(tr, x0, ftol, slack=False, scale=None, callback=None):
        ours = real(tr, x0, ftol, slack=slack, scale=scale, callback=callback)
        if scale is not None:
            ref_tr = _Transcription(tr.errordyn, tr.e0, tr.margin_fn, tr.cfg, tr.use_terminal)
            ref_callback = None if callback is None else ocp._suboptimal_stop(ref_tr, x0, scale)
            ref_x, ref = _scipy_slsqp(ref_tr, x0, ftol, slack, scale, ref_callback)
            assert (ours.x.tobytes(), ours.nit, ours.nfev, ours.status) == (
                ref_x.tobytes(), ref.nit, ref.nfev, ref.status), (
                f"scaled solve {len(margin_rows)}")
            margin_rows.append(ref_tr.eval(x0)["margins"].size)
        return ours

    monkeypatch.setattr(ocp, "_slsqp", checked)
    load_scenario(scenario).build_simulation(total_time=2.0).run()
    assert len(margin_rows) >= 5 and min(margin_rows) >= 300


def _gauss_newton_hessian(tr, x):
    """The Gauss-Newton Hessian of `_gauss_newton_scaling`'s docstring, by
    the same float operations."""
    cfg = tr.cfg
    J = tr.jac(x)[tr.stage_idx]
    return (2.0 * cfg.h * (np.einsum("kix,kiy->xy", J[:-1], cfg.Q @ J[:-1])
                           + np.kron(np.eye(tr.N), cfg.R)) + 2.0 * J[-1].T @ cfg.P @ J[-1])


def test_gauss_newton_scaling_is_scipys_triangular_inverse_bitwise(monkeypatch):
    """`_gauss_newton_scaling` inverts the upper-triangular L' with numpy's
    `inv` gufunc. Its T must be bitwise what scipy's
    ``solve_triangular(L, I, lower=True, trans="T")`` gives for the Cholesky
    factor L of the same H, and Fortran-ordered as that T is (the products
    that read T take other BLAS paths, and move the corridor's floats, on a
    C-ordered one), at every point where the bundled scenario's first 1.5 s
    builds a Gauss-Newton Hessian (the terminal tier's warm starts and the
    relaxed tier's iterates), on seeded perturbations of those points and on
    the seeded unicycle problems. The closed-loop SLSQP test hands both sides
    the same T, so it cannot see L inverted in place of L' or a T in the
    wrong layout; this test does."""
    scenario = Path(__file__).resolve().parents[1] / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"
    real = ocp._gauss_newton_hessian
    problems = []

    def recorded(tr, x):
        problems.append((tr, x.copy()))
        return real(tr, x)

    monkeypatch.setattr(ocp, "_gauss_newton_hessian", recorded)
    load_scenario(scenario).build_simulation(total_time=1.5).run()
    monkeypatch.undo()
    assert len(problems) >= 5
    rng = np.random.default_rng(7)
    problems += [(tr, x + rng.uniform(-0.5, 0.5, x.shape)) for tr, x in problems]
    for cfg, ed, e0, margin_fn, start in _unicycle_problems():
        problems.append((_Transcription(ed, e0, margin_fn, cfg, True),
                         ocp._project_inputs(start, cfg.u_bar).ravel()))
    for k, (tr, x) in enumerate(problems):
        with single_blas_thread():
            L = np.linalg.cholesky(_gauss_newton_hessian(tr, x))
            want = scipy.linalg.solve_triangular(L, np.eye(tr.nx), lower=True, trans="T")
            got = ocp._gauss_newton_scaling(tr, x)
        assert np.array_equal(got, want), f"problem {k}: T differs from scipy's L^-T"
        assert got.flags.f_contiguous, f"problem {k}: T is not Fortran-ordered"


def _far_from_goal(seed):
    """A unicycle about 3 m short of its goal with three discs of radius 0.3
    in between, from a seeded random start: a relaxed problem whose
    Gauss-Newton steps overshoot, so that its line search backtracks."""
    rng = np.random.default_rng(seed)
    cfg = _config(u_bar=8.0, Q=np.diag([1.0, 1.0, 0.2]), R=np.diag([0.02, 0.01]),
                  P=np.diag([0.5, 0.5, 0.1]), eps_omega=0.05)
    ed = ErrorDynamics(UNICYCLE, np.array([3.0, 0.0, 0.0]))
    e0 = np.array([-3.0, 0.0, 0.0]) + rng.uniform(-0.5, 0.5, 3) * [1.0, 1.0, 3.0]
    margin_fn = disc_margin_fn(ed, rng.uniform([0.5, -0.6], [2.5, 0.6], size=(3, 2)), 0.3)
    return cfg, ed, e0, margin_fn, rng.uniform(-2.0, 2.0, (6, 2))


def test_line_search_rejects_a_trial_on_its_cost_without_its_margins(monkeypatch):
    """The merit, cost + mu * violation, is never below the cost, so
    `_gauss_newton_sqp` rejects a trial whose cost alone misses the Armijo
    bound without forming its margins. On the seeded problem the line search
    rejects trials on their cost alone, read against the bound of the
    solver's own frame at each trial, and others on their merit. Every other
    rollout forms one margin evaluation, and the solve returns the bits,
    iterations and convergence flag of a solve that forms every trial's
    margins."""
    cfg, ed, e0, margin_fn, start = _far_from_goal(1)
    x0 = ocp._project_inputs(start, cfg.u_bar).ravel()
    real_eval, sqp = _Transcription.eval, ocp._gauss_newton_sqp.__code__
    evaluations, trials = [0], []  # per line-search trial: rejected on its cost alone

    def counted(errors):
        evaluations[0] += 1
        return margin_fn(errors)

    def evaluated(tr, x, gradients=False):
        res = real_eval(tr, x, gradients)
        caller = inspect.currentframe().f_back
        if caller.f_code is sqp and not gradients:
            v = caller.f_locals
            trials.append(res["cost"] > v["merit"] + ocp._ARMIJO * v["step"] * v["derivative"])
        return res

    monkeypatch.setattr(_Transcription, "eval", evaluated)
    tr = _Transcription(ed, e0, counted, cfg, False)
    with single_blas_thread():
        x, iterations, converged = ocp._gauss_newton_sqp(tr, x0)
    accepted = iterations - 1
    assert sum(trials) >= 1 and len(trials) - accepted > sum(trials)
    assert evaluations[0] == tr.n_rollouts - sum(trials)

    def every_margin(tr, x, gradients=False):
        res = real_eval(tr, x, gradients)
        res["slack"]
        return res

    monkeypatch.setattr(_Transcription, "eval", every_margin)
    with single_blas_thread():
        eager = ocp._gauss_newton_sqp(_Transcription(ed, e0, margin_fn, cfg, False), x0)
    assert x.tobytes() == eager[0].tobytes()
    assert (iterations, converged) == eager[1:]


# (subscript, operand shapes) of each einsum site of `ocp`, at the solver's
# shapes: N stages, n states, m inputs, nx = N m decision variables
_N, _n, _m = 6, 3, 2
EINSUM_SITES = (("kix,ki->x", [(_N, _n, _N * _m), (_N, _n)]),
                ("...i,ij,...j->...", [(_N, _n), (_n, _n), (_N, _n)]),
                ("...i,ij,...j->...", [(_N, _m), (_m, _m), (_N, _m)]),
                ("kix,kiy->xy", [(_N, _n, _N * _m), (_N, _n, _N * _m)]))


def test_direct_einsum_gives_np_einsum_bits():
    """`ocp` calls numpy's compiled `c_einsum` at its four einsum sites, the
    kernel ``np.einsum`` calls when not optimizing. Each site's subscript
    gives np.einsum's bits on seeded random inputs of the solver's shapes."""
    sites = [line.split('_c_einsum("', 1)[1].split('"', 1)[0]
             for line in inspect.getsource(ocp).splitlines() if '_c_einsum("' in line]
    assert sorted(sites) == sorted(subscript for subscript, _ in EINSUM_SITES)
    rng = np.random.default_rng(12)
    for subscript, shapes in EINSUM_SITES:
        for _ in range(20):
            operands = [rng.standard_normal(shape) * rng.uniform(0.1, 10.0) for shape in shapes]
            assert (ocp._c_einsum(subscript, *operands).tobytes()
                    == np.einsum(subscript, *operands).tobytes()), subscript


@pytest.mark.parametrize("H", [np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
                               np.ones((2, 2)), np.zeros((3, 3))])
def test_inverse_factor_rejects_a_matrix_not_positive_definite(H):
    """`ocp` factors H with numpy's `cholesky_lo` gufunc; where
    ``np.linalg.cholesky`` raises LinAlgError, `_inverse_factor` raises it
    too, and no warning escapes."""
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(H)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            ocp._inverse_factor(H)


def test_project_inputs_gives_the_scaling_formulas_bits():
    """`_project_inputs` copies a plan that no stage leaves the ball of,
    where every scale is exactly 1.0, and scales the others. Its result has
    the bits of U * min(1, u_bar / max(|u_k|, 1e-300)) inside, on and
    outside the ball, signed zeros included, in a new array."""
    u_bar = 5.0

    def formula(U):
        norms = np.sqrt(np.add.reduce(U * U, axis=-1, keepdims=True))
        return U * np.minimum(1.0, u_bar / np.maximum(norms, 1e-300))

    inside = np.array([[0.0, -0.0], [-0.0, -0.0], [1.5, -2.5], [-3.0, 0.0], [-0.0, 4.999]])
    on = np.array([[3.0, 4.0], [-0.0, 5.0], [-4.0, -3.0], [5.0, -0.0]])
    outside = np.array([[6.0, -0.0], [-0.0, -7.5], [-30.0, 40.0], [5.0, 1e-8]])
    rng = np.random.default_rng(13)
    plans = [inside, on, np.vstack([inside, on]), outside, np.vstack([inside, outside, on]),
             rng.uniform(-4.0, 4.0, (6, 2)), rng.uniform(-9.0, 9.0, (6, 2))]
    for U in plans:
        projected = ocp._project_inputs(U, u_bar)
        assert projected.tobytes() == formula(U).tobytes()
        assert not np.shares_memory(projected, U)
