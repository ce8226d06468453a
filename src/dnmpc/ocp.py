"""Finite-horizon optimal control problem: transcription, solver, warm starts.

The FHOCP is transcribed by direct single shooting: the decision variable is
the stack of N zero-order-hold inputs, the nominal error dynamics are rolled
out with the shared fixed-step RK4, and the tightened stage constraints are
enforced on the full substep grid (the same grid the verifier checks).

Each decision point costs one rollout and one margin evaluation. The
rollout returns its Jacobian with respect to the inputs (exact for the
unicycle, central differences for other fields), and `margin_fn(errors)`
returns the margins with their Jacobian with respect to the error (exact for
the distance margins of :class:`~dnmpc.constraints.StageGeometry`). The cost,
terminal-value and margin gradients follow by the chain rule. scipy's SLSQP
does the constrained minimization. Any method meeting the HorizonSolution
contract is conforming; SLSQP was chosen because the decision dimension is
tiny (N * input_dim). SLSQP runs with the bundled OpenBLAS on one thread
(see :func:`single_blas_thread`).

There is one SLSQP problem (:func:`_slsqp`): margins, input ball and
terminal set over the inputs u. :func:`solve_fhocp` minimizes the cost over
it. The phase-1 pass :func:`restore_feasibility` solves its slack form,
maximizing s over (u, s) with the margins and the terminal constraint
lowered by s. Both measure infeasibility by the same worst slack.

A terminal-enforced solve runs in scaled variables. The cost
h sum_k (e_k'Q e_k + u_k'R u_k) + e_N'P e_N is a sum of squares, so the
rollout Jacobian J gives its Gauss-Newton Hessian
H = 2h sum_k J_k'Q J_k + 2h blkdiag(R) + 2 J_N'P J_N at no extra rollout.
With L L' = H at the warm start x0, SLSQP solves for y in x = x0 + L^-T y,
and its BFGS, which starts from the identity, starts from H in x (Diehl et
al. 2005 build real-time-iteration NMPC on this metric). Gauss-Newton is
accurate where the residuals are small, near the goal, which is where the
fallback ladder tries the terminal tiers. Far from the goal it is not: with
every tier scaled, the bundled scenario aborted in its corridor crossing
(agent 2 infeasible at t = 0.6 s). The relaxed tiers and
:func:`restore_feasibility` keep the identity.

A terminal-enforced solve also stops at the accuracy the closed loop needs.
The paper's stability argument takes the optimal cost as its Lyapunov
function and the shifted previous plan as its witness of feasibility;
Scokaert, Mayne & Rawlings (1999, "Suboptimal model predictive control
(feasibility implies stability)") show that it needs only a feasible plan
that costs no more than that candidate. SLSQP's callback therefore ends the
solve at the first major iterate whose plan, projected onto the input ball
as the returned plan is, (i) meets every constraint within `constraint_tol`,
(ii) costs at most J~, the cost of the solve's own start, when that start is
feasible, and (iii) changed the cost by at most :data:`SUBOPTIMAL_STOP_DELTA`
relative to the previous major iterate. Such a plan has status
"feasible-suboptimal"; "optimal" still means SLSQP's own test passed. The
relaxed tiers and :func:`restore_feasibility` run to SLSQP's own test:
their premise, a feasible shifted candidate under the terminal set, is
missing, and the same rule applied to them aborted the bundled scenario in
its corridor crossing (agent 1 infeasible at t = 0.7 s).
"""

from __future__ import annotations

import ctypes
import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

from .dynamics import ErrorDynamics, rollout_zoh, wrap_angle

__all__ = [
    "OcpConfig",
    "HorizonSolution",
    "stage_cost",
    "solve_fhocp",
    "restore_feasibility",
    "unicycle_steering_law",
    "warm_start_shift",
    "single_blas_thread",
]


# (getter, setter) symbol names of OpenBLAS thread counts, as numpy's and
# scipy's wheels export them: scipy-openblas in current wheels, plain OpenBLAS
# in older ones, each with 64- and 32-bit integer builds
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS that numpy and scipy
    ship in their ``<package>.libs`` directories. Empty for other builds."""
    controls = []
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
                if hasattr(handle, get_name) and hasattr(handle, set_name):
                    controls.append((getattr(handle, get_name), getattr(handle, set_name)))
                    break
    return tuple(controls)


@contextmanager
def single_blas_thread():
    """Run the block with numpy's and scipy's OpenBLAS on one thread.

    SLSQP's subproblems have N * m columns and a few hundred rows: extra BLAS
    threads cost more in synchronization than they save (on two CPUs a call
    of SLSQP's core took 10 to 100 times as long), and the floating-point
    result depends on the thread count, so the iterates would differ between
    machines with different CPU counts. The previous counts are restored on
    exit. BLAS builds not found by :func:`_openblas_thread_controls` keep
    their own setting (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS).
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, previous):
            set_threads(count)


# central-difference step of the rollout's input Jacobian, for vector fields
# without a closed form (the unicycle's is exact)
FD_EPS = 1e-6

SUBOPTIMAL_STOP_DELTA = 1e-4
"""Relative cost change between SLSQP major iterates at or below which a
feasible terminal-enforced plan, no costlier than its start, is accepted.
The stability argument holds for any such plan, so delta trades only
closeness to the optimum for iterations. On the settle benchmark 1e-4 takes
SLSQP from 709 to 436 iterations and its wall time down by 16%; 1e-6 still
takes 597 iterations and gains 5%. At 1e-4 the bundled runs' verdicts and
the robustness sweep's outcomes are those of SLSQP's own test; larger
values were not tried."""

# the status scipy's minimize gives a solve that a callback halted with
# StopIteration
_CALLBACK_HALT = 99


@dataclass
class OcpConfig:
    """Weights and discretization of the per-agent FHOCP."""

    h: float
    T_p: float
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    eps_omega: float
    eps_psi: float
    u_bar: float
    substeps: int = 10
    constraint_tol: float = 1e-6
    max_iterations: int = 200
    ftol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.h < self.T_p):
            raise ValueError("need 0 < h < T_p")
        if abs(self.T_p / self.h - round(self.T_p / self.h)) > 1e-9:
            raise ValueError("sampling time must divide the horizon")
        for name in ("Q", "R", "P"):
            M = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, M)
            if not np.allclose(M, M.T, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
        if np.linalg.eigvalsh(self.Q).min() < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        if np.linalg.eigvalsh(self.R).min() <= 0.0:
            raise ValueError("R must be positive definite")
        if np.linalg.eigvalsh(self.P).min() <= 0.0:
            raise ValueError("P must be positive definite")
        if not (0.0 < self.eps_omega < self.eps_psi):
            raise ValueError("need 0 < eps_omega < eps_psi")
        if self.u_bar <= 0.0:
            raise ValueError(f"input bound u_bar must be positive, got {self.u_bar}")

    @property
    def n_stages(self):
        return int(round(self.T_p / self.h))


@dataclass
class HorizonSolution:
    """Solver output: ZOH inputs, nominal prediction, cost and status."""

    inputs: np.ndarray            # (N, m)
    predicted_errors: np.ndarray  # (N + 1, n) on the stage grid
    dense_errors: np.ndarray      # (N * substeps + 1, n) on the substep grid
    cost: float
    status: str                   # optimal | feasible-suboptimal | infeasible
    solve_stats: dict = field(default_factory=dict)


def stage_cost(e, u, Q, R):
    """Quadratic running cost e'Qe + u'Ru."""
    e = np.asarray(e, dtype=float)
    u = np.asarray(u, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if e.shape[-1] != Q.shape[0] or u.shape[-1] != R.shape[0]:
        raise ValueError("dimension mismatch in stage cost")
    return np.einsum("...i,ij,...j->...", e, Q, e) + np.einsum("...i,ij,...j->...", u, R, u)


class _Transcription:
    """Single-shooting evaluation cache: one rollout with its input Jacobian
    and one `margin_fn` call per iterate.

    `margin_fn` must be pointwise: the margins at a substep depend only on
    the error at that substep. It returns them with d margins / d error, and
    their input Jacobian is that times the rollout's input Jacobian.

    `slack` is the worst constraint slack of an iterate: the smallest margin
    and, when `use_terminal`, eps_omega - V(e_N); 0.0 when there is neither.
    Negative means some constraint is violated. `jac` is the rollout's input
    Jacobian d traj / d x, of shape (T + 1, n, nx).
    """

    def __init__(self, errordyn: ErrorDynamics, e0, margin_fn, config: OcpConfig,
                 use_terminal: bool):
        self.errordyn = errordyn
        self.e0 = np.asarray(e0, dtype=float)
        self.margin_fn = margin_fn
        self.cfg = config
        self.use_terminal = use_terminal
        self.n = errordyn.model.state_dim
        self.m = errordyn.model.input_dim
        self.N = config.n_stages
        self.nx = self.N * self.m
        self.stage_idx = config.substeps * np.arange(self.N + 1)
        self._cache_key = None
        self._cache = None
        self.n_rollouts = 0

    def eval(self, x):
        key = x.tobytes()
        if key == self._cache_key:
            return self._cache
        cfg = self.cfg
        U = x.reshape(self.N, self.m)
        traj, jac = rollout_zoh(self.errordyn.field, self.e0, U, cfg.h, cfg.substeps,
                                FD_EPS)
        self.n_rollouts += 1
        stage_e = traj[self.stage_idx[:-1]]
        e_N = traj[-1]
        Pe_N = cfg.P @ e_N
        v_term = float(e_N @ Pe_N)
        v_term_grad = 2.0 * (jac[-1].T @ Pe_N)
        run = float(stage_cost(stage_e, U, cfg.Q, cfg.R).sum()) * cfg.h
        run_grad = (2.0 * cfg.h) * (
            np.einsum("kix,ki->x", jac[self.stage_idx[:-1]], stage_e @ cfg.Q)
            + (U @ cfg.R).ravel())
        result = {
            "traj": traj,
            "jac": jac,
            "cost": run + v_term,
            "cost_grad": run_grad + v_term_grad,
            "v_term": v_term,
            "v_term_grad": v_term_grad,
        }
        slacks = []
        if self.margin_fn is not None:
            margins, dm_de = self.margin_fn(traj[1:])
            result["margins"] = margins.ravel()
            # (T, C, n) @ (T, n, nx), flattened to (T*C, nx)
            result["margins_jac"] = (dm_de @ jac[1:]).reshape(-1, self.nx)
            slacks.append(result["margins"].min(initial=np.inf))
        if self.use_terminal:
            slacks.append(cfg.eps_omega - v_term)
        result["slack"] = float(min(slacks, default=0.0))
        self._cache_key = key
        self._cache = result
        return result


def _project_inputs(U, u_bar):
    """Exact projection of each stage input onto the norm ball."""
    norms = np.linalg.norm(U, axis=-1, keepdims=True)
    scale = np.minimum(1.0, u_bar / np.maximum(norms, 1e-300))
    return U * scale


def _slsqp(tr: _Transcription, x0, fun, jac, ftol, slack=False, scale=None, callback=None):
    """Minimize `fun` under the transcription's constraints with SLSQP, on one
    BLAS thread; returns scipy's OptimizeResult.

    The constraints are the margins (when `tr.margin_fn` is set), the input
    ball u_bar^2 - ||u_k||^2 >= 0 on each stage input and, when
    `tr.use_terminal`, eps_omega - V(e_N) >= 0. The decision vector is x = u,
    or with `slack` x = (u, s): each margin and the terminal constraint is
    lowered by s (Jacobian column -1), while the input ball stays hard.

    With `scale` = T, SLSQP runs in y, x = x0 + T y, from y = 0: the cost is
    f(x0 + T y) with gradient T' grad f, each constraint Jacobian C becomes
    C T, and the result's `x` is mapped back to x0 + T y. `callback` is
    SLSQP's, called with each major iterate in SLSQP's own variables.
    """
    cfg, N, m, nx = tr.cfg, tr.N, tr.m, tr.nx
    u_bar_sq = cfg.u_bar ** 2
    ball_rows, ball_cols = np.repeat(np.arange(N), m), np.arange(nx)

    def lowered(x, value):
        return value - x[-1] if slack else value

    def with_slack_column(jacobian):
        return np.hstack([jacobian, -np.ones((len(jacobian), 1))]) if slack else jacobian

    def ball_fun(x):
        U = x[:nx].reshape(N, m)
        return u_bar_sq - np.sum(U * U, axis=1)

    def ball_jac(x):
        out = np.zeros((N, len(x)))
        out[ball_rows, ball_cols] = -2.0 * x[:nx]
        return out

    margins, ball, terminal = [], [{"type": "ineq", "fun": ball_fun, "jac": ball_jac}], []
    if tr.margin_fn is not None:
        margins.append({
            "type": "ineq",
            "fun": lambda x: lowered(x, tr.eval(x[:nx])["margins"]),
            "jac": lambda x: with_slack_column(tr.eval(x[:nx])["margins_jac"]),
        })
    if tr.use_terminal:
        terminal.append({
            "type": "ineq",
            "fun": lambda x: lowered(x, np.array([cfg.eps_omega - tr.eval(x[:nx])["v_term"]])),
            "jac": lambda x: with_slack_column(-tr.eval(x[:nx])["v_term_grad"][None, :]),
        })
    # SLSQP's iterates depend on the order of the constraint rows, so the slack
    # form keeps the terminal row ahead of the ball: in the solve's order, 48
    # of 48 seeded unicycle phase-1 problems with the terminal set enforced
    # ended elsewhere (those without it did not move).
    cons = margins + (terminal + ball if slack else ball + terminal)
    start = x0
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
        opt = minimize(fun, start, jac=jac, constraints=cons, method="SLSQP",
                       callback=callback,
                       options={"maxiter": cfg.max_iterations, "ftol": ftol})
        if scale is not None:
            opt.x = to_x(opt.x)
    return opt


def _gauss_newton_scaling(tr: _Transcription, x):
    """T = L^-T, where L L' = H is the Gauss-Newton Hessian of the cost at x,
    2h sum_k J_k' Q J_k + 2h blkdiag(R) + 2 J_N' P J_N with J_k = d e_k / d x
    (positive definite, as R is). In the variables y of x + T y that metric
    is the identity, which SLSQP's BFGS starts from."""
    cfg = tr.cfg
    J = tr.eval(x)["jac"][tr.stage_idx]
    with single_blas_thread():
        H = 2.0 * cfg.h * (np.einsum("kix,kiy->xy", J[:-1], cfg.Q @ J[:-1])
                           + np.kron(np.eye(tr.N), cfg.R)) + 2.0 * J[-1].T @ cfg.P @ J[-1]
        L = np.linalg.cholesky(H)
        return solve_triangular(L, np.eye(tr.nx), lower=True, trans="T")


def _suboptimal_stop(tr: _Transcription, x0, scale):
    """SLSQP callback of a terminal-enforced solve that runs in y, x = x0 +
    `scale` y: raises StopIteration at the first major iterate whose plan,
    projected onto the input ball, is feasible within `constraint_tol`,
    costs at most the start x0 when x0 is feasible, and changed the cost by
    at most SUBOPTIMAL_STOP_DELTA relative to the previous major iterate
    (the first one compares with x0).

    SLSQP also calls back when it ends on its own at the iterate it last
    reported, so a halt there would relabel a solve whose own test passed;
    an iterate that did not move is left alone. When SLSQP's test passes
    right after a step that the stop also accepts, the solve still counts
    as stopped (1 of the settle benchmark's 99 stops)."""
    cfg = tr.cfg
    start = tr.eval(x0)
    bound = start["cost"] if -start["slack"] <= cfg.constraint_tol else np.inf
    previous_cost, previous_y = start["cost"], np.zeros_like(x0)

    def callback(y):
        nonlocal previous_cost, previous_y
        if np.array_equal(y, previous_y):
            return
        U = _project_inputs((x0 + scale @ y).reshape(tr.N, tr.m), cfg.u_bar)
        res = tr.eval(U.ravel())
        settled = abs(res["cost"] - previous_cost) <= SUBOPTIMAL_STOP_DELTA * previous_cost
        previous_cost, previous_y = res["cost"], y
        if -res["slack"] <= cfg.constraint_tol and res["cost"] <= bound and settled:
            raise StopIteration

    return callback


def solve_fhocp(errordyn: ErrorDynamics, e0, margin_fn, config: OcpConfig,
                warm_start=None, use_terminal=True):
    """Solve the tightened finite-horizon problem for one agent.

    Args:
        errordyn: nominal error dynamics of the agent.
        margin_fn: callable errors (T, n) -> (tightened margins (T, C), their
            Jacobian d margins / d errors (T, C, n)), T being the substeps
            of the horizon;
            nonnegative margins mean satisfied. It must be pointwise:
            margins[t] depends on errors[t] alone. The simulator's distance
            margins give the Jacobian in closed form. None disables state
            constraints.
        warm_start: initial guess for the (N, m) input sequence.
        use_terminal: enforce V(e_N) <= eps_omega as a hard constraint, run
            SLSQP in the Gauss-Newton-scaled variables of the module
            docstring, and stop at its suboptimal-MPC accuracy.

    Returns:
        HorizonSolution; status is "infeasible" when the constraint residual
        (the negated worst slack) exceeds the tolerance after the iteration
        budget, "optimal" when SLSQP's own convergence test passed and
        "feasible-suboptimal" otherwise. The stat `suboptimal_stop` says
        whether the suboptimal-MPC stop ended the solve.
    """
    t_start = time.perf_counter()
    e0 = np.asarray(e0, dtype=float)
    if not np.all(np.isfinite(e0)):
        raise ValueError("initial error must be finite")
    tr = _Transcription(errordyn, e0, margin_fn, config, use_terminal)
    N, m = tr.N, tr.m
    if warm_start is None:
        x0 = np.zeros(N * m)
    else:
        x0 = _project_inputs(np.asarray(warm_start, dtype=float), config.u_bar).ravel()

    try:
        # Gauss-Newton scaling is accurate near the goal only, where the cost's
        # residuals are small, and the suboptimal stop needs a feasible shifted
        # candidate under the terminal set: the terminal tiers
        scale = callback = None
        if use_terminal:
            scale = _gauss_newton_scaling(tr, x0)
            callback = _suboptimal_stop(tr, x0, scale)
        opt = _slsqp(tr, x0, lambda x: tr.eval(x)["cost"], lambda x: tr.eval(x)["cost_grad"],
                     config.ftol, scale=scale, callback=callback)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise RuntimeError(f"solver diverged: {exc}") from exc
    x_best = opt.x
    if not np.all(np.isfinite(x_best)):
        raise RuntimeError("solver produced non-finite iterate")

    U = _project_inputs(x_best.reshape(N, m), config.u_bar)
    x_best = U.ravel()
    res = tr.eval(x_best)
    # Keep the warm start if SLSQP wandered to something worse and infeasible.
    if max(0.0, -res["slack"]) > config.constraint_tol:
        res0 = tr.eval(x0)
        if max(0.0, -res0["slack"]) <= config.constraint_tol:
            x_best, res = x0, res0
            U = x_best.reshape(N, m)

    residual = max(0.0, -res["slack"])
    stopped = opt.status == _CALLBACK_HALT
    if residual > config.constraint_tol:
        status = "infeasible"
    elif stopped or not opt.success:
        status = "feasible-suboptimal"
    else:
        status = "optimal"

    traj = res["traj"]
    return HorizonSolution(
        inputs=U.copy(),
        predicted_errors=traj[tr.stage_idx],
        dense_errors=traj,
        cost=res["cost"],
        status=status,
        solve_stats={
            "iterations": int(opt.nit),
            "wall_time": time.perf_counter() - t_start,
            "residual": float(residual),
            "rollouts": tr.n_rollouts,
            "terminal_enforced": bool(use_terminal),
            "suboptimal_stop": stopped,
        },
    )


def restore_feasibility(errordyn: ErrorDynamics, e0, margin_fn, config: OcpConfig,
                        start, use_terminal=False):
    """Phase-1 pass: maximize the worst constraint slack from a near-feasible
    input sequence.

    Solves max_s { s : margins(u) >= s, [eps_omega - V(e_N) >= s],
    ||u_k|| <= u_bar } with SLSQP over the augmented variable (u, s). Used
    when the cost-driven solve stalls a hair outside the tolerance. Returns
    the restored (N, m) input sequence, or `start` when the worst slack did
    not grow, and the SLSQP iteration count (0 when SLSQP failed before
    reporting one).
    """
    tr = _Transcription(errordyn, np.asarray(e0, dtype=float), margin_fn, config,
                        use_terminal)
    u0 = _project_inputs(np.asarray(start, dtype=float), config.u_bar).ravel()
    x0 = np.append(u0, tr.eval(u0)["slack"])
    grad = np.zeros(tr.nx + 1)
    grad[-1] = -1.0
    try:
        opt = _slsqp(tr, x0, lambda x: -x[-1], lambda x: grad, 1e-12, slack=True)
    except (FloatingPointError, np.linalg.LinAlgError):
        return start, 0
    candidate = opt.x[:-1]
    iterations = int(opt.nit)
    if not np.all(np.isfinite(candidate)):
        return start, iterations
    U = _project_inputs(candidate.reshape(tr.N, tr.m), config.u_bar)
    if tr.eval(U.ravel())["slack"] > tr.eval(u0)["slack"]:
        return U, iterations
    return np.asarray(start, dtype=float), iterations


def unicycle_steering_law(z_des, u_bar, k_v=2.0, k_alpha=4.0, k_theta=2.0, blend=0.05):
    """Distance/bearing feedback for the unicycle error state.

    Drives the position error to zero by steering toward the goal, then
    aligns the heading. Saturated to the input-norm ball; used as the
    terminal/warm-start controller since the rest linearization is not
    stabilizable.
    """
    theta_des = float(z_des[2])

    def kappa(e):
        e = np.asarray(e, dtype=float)
        dx, dy = -e[0], -e[1]
        dist = float(np.hypot(dx, dy))
        theta = theta_des + e[2]
        if dist > 1e-12:
            bearing = np.arctan2(dy, dx)
            alpha = float(wrap_angle(bearing - theta))
            v = k_v * dist * np.cos(alpha)
            w_goal = dist / (dist + blend)
            omega = k_alpha * alpha * w_goal - k_theta * float(wrap_angle(e[2])) * (1 - w_goal)
        else:
            v = 0.0
            omega = -k_theta * float(wrap_angle(e[2]))
        u = np.array([v, omega])
        norm = np.linalg.norm(u)
        if norm > u_bar:
            u *= u_bar / norm
        return u

    return kappa


def warm_start_shift(previous: HorizonSolution, controller, config: OcpConfig):
    """Shifted warm start: drop the first stage, append one terminal stage.

    The appended input is the terminal controller applied to the tail state of
    the previous prediction, projected onto the input ball.
    """
    if previous.status == "infeasible":
        raise ValueError("cannot shift an infeasible solution")
    tail = previous.predicted_errors[-1]
    u_tail = np.asarray(controller(tail), dtype=float)
    norm = np.linalg.norm(u_tail)
    if norm > config.u_bar:
        u_tail = u_tail * (config.u_bar / norm)
    return np.vstack([previous.inputs[1:], u_tail[None, :]])

