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
terminal-value and margin gradients follow by the chain rule, formed from
that iterate's rollout when SLSQP first asks for them. SLSQP does the
constrained minimization (the decision dimension, N * input_dim, is tiny):
scipy's compiled core, the private `scipy.optimize._slsqplib.slsqp` that
tests/test_ocp.py checks against scipy's public SLSQP bit for bit, driven by
this module's loop :func:`minimize`, whose name perfbench's traced mode
patches for its `slsqp` span. The loop evaluates once per request of the
core, where scipy's wrapper evaluated each constraint block, and writes the
rows in place; it runs on one OpenBLAS thread (:func:`single_blas_thread`).

That core and LAPACK's `dtrtrs` (`scipy.linalg._flapack`, the triangular
solve of the scaling below) are the only scipy code the solver runs. Both
are loaded from their files (:func:`_scipy_compiled`), not through
`scipy.optimize` and `scipy.linalg`: importing those packages whole loads
linprog, `scipy.special`, `scipy.fft` and `numpy.f2py` besides, which took
about 0.5 s and 40 MB of every `dnmpc` process's start (BENCH_18.json).

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
(agent 2 infeasible at t = 0.6 s). :func:`restore_feasibility` keeps the
identity.

A relaxed solve instead carries SLSQP's own metric from one sampling
instant to the next, the warm start of real-time-iteration NMPC. SLSQP
ends each run with a quasi-Newton (BFGS) estimate B of the Lagrangian's
Hessian, which includes the curvature of the constraints that Gauss-Newton
leaves out. Its compiled core keeps B in its work array as an L D L'
factor (:func:`_bfgs_metric`; private layout, which tests/test_ocp.py
pins). A relaxed solve returns B mapped back to the inputs
(:func:`_metric_scaling`). The agent's next relaxed solve from the shifted
plan runs in the variables in which that metric, shifted one stage
(:func:`shift_metric`), is the identity. SLSQP's BFGS starts from the
identity at every run, so this needs no change to the core. The appended
last stage gets an identity block, so its input starts as it does without
a carried metric. METRIC_DAMPING (0.01) is then added to the diagonal.
SLSQP's estimate is nearly flat along some directions (over the corridor
crossing its smallest eigenvalue ranges from 3e-5 to 1, median 1.3e-3),
and a unit step in y along such a direction is a step of up to 180 in x;
the damping bounds that factor by 10. Undamped, the disturbance-free 10 s
run broke inter-agent separation by 8 mm at t = 0.77 s. The cause is the
engine's mixed-time sensing (ROADMAP item 4); tests/test_acceptance.py
pins that the damped run does not hit it. When the carried metric ends
infeasible, or has grown too ill-conditioned for a Cholesky factor, the
ladder tries the shifted plan again with the identity. A
terminal solve returns no metric, so the first relaxed solve of an agent
and every relaxed solve after a terminal one start from the identity. Over
the bundled scenario's corridor crossing SLSQP then takes 2,041 iterations
where it took 2,659. The variants that were measured and not kept are in
BENCH_23.json.

A terminal-enforced solve also stops at the accuracy the closed loop needs.
The paper's stability argument takes the optimal cost as its Lyapunov
function and the shifted previous plan as its witness of feasibility;
Scokaert, Mayne & Rawlings (1999, "Suboptimal model predictive control
(feasibility implies stability)") show that it needs only a feasible plan
that costs no more than that candidate. SLSQP's callback therefore ends the
solve at the first major iterate whose plan, projected onto the input ball
as the returned plan is, meets every constraint within `constraint_tol` and

- when the solve's own start meets them too (the witness, of cost J~),
  costs at most J~;
- otherwise changed the cost by at most :data:`SUBOPTIMAL_STOP_DELTA`
  relative to the previous major iterate.

Such a plan has status "feasible-suboptimal"; "optimal" means SLSQP's own
test passed, also at an iterate where the stop fired as well. The relaxed
tiers and :func:`restore_feasibility` run to SLSQP's own test: their
premise, a feasible shifted candidate under the terminal set, is missing,
and the same rule applied to them aborted the bundled scenario in its
corridor crossing (agent 1 infeasible at t = 0.7 s).

The witness is the previous plan shifted by one stage with the input of the
terminal controller kappa appended (:func:`warm_start_shift`). kappa is
:func:`dual_mode_controller`: zero input in Omega = {e'Pe <= eps_omega}, the
steering law outside. Of the paper's terminal conditions it meets these:

- invariance: a plan that ends in Omega still ends there after the shift,
  as the unicycle stands still under zero input (the tier-1 sampling oracle
  checks it). A plan accepted up to `constraint_tol` outside Omega gets the
  steering law. In the bundled scenario a constant disturbance of norm
  w_bar, held for h, takes V up to 1.21 eps_omega, within eps_psi =
  16.6 eps_omega;
- the input bound, trivially;
- not the decrease V_f(e+) - V_f(e) <= -h l(e, kappa(e)). No continuous
  static feedback asymptotically stabilizes the unicycle (Brockett 1983),
  and with quadratic costs unicycle MPC can stall short of its goal
  (Worthmann et al. 2016, IEEE TCST); one agent does on the nominal run.

So the shifted plan ends in Omega whenever the previous plan did, and the
stop from a witness needs no settled cost. On the settle benchmark (traced,
seed 1) SLSQP then takes 253 iterations where the held steering-law input
and the settle condition for every start took 436; rollouts go from 593 to
425 (BENCH_19.json).
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from .dynamics import ErrorDynamics, rollout_zoh, wrap_angle

__all__ = [
    "OcpConfig",
    "HorizonSolution",
    "solve_fhocp",
    "restore_feasibility",
    "unicycle_steering_law",
    "dual_mode_controller",
    "warm_start_shift",
    "shift_metric",
    "single_blas_thread",
]


def _scipy_compiled(subpackage, name):
    """scipy's compiled module ``scipy.<subpackage>.<name>``, loaded from its
    file next to ``scipy.__file__`` without running the subpackage's
    ``__init__``. A later ``import`` of the subpackage works as usual."""
    directory = Path(scipy.__file__).parent / subpackage
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"{name}{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(f"scipy.{subpackage}.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy {scipy.__version__} has no compiled module {directory / name}"
                      f" with any of the suffixes {importlib.machinery.EXTENSION_SUFFIXES}")


_slsqp_core = _scipy_compiled("optimize", "_slsqplib").slsqp
_dtrtrs = _scipy_compiled("linalg", "_flapack").dtrtrs


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
feasible terminal-enforced plan is accepted when the solve's start is not
feasible within `constraint_tol`; from a feasible start the first feasible
iterate no costlier than it is accepted, settled or not. delta trades only
closeness to the optimum for iterations. With the condition on every start,
1e-4 took the settle benchmark's SLSQP from 709 to 436 iterations and its
wall time down by 16%, and 1e-6 to 597 iterations and 5%. Since only
infeasible starts wait for it, settle takes 253 iterations. At 1e-4 the
bundled runs' verdicts and the robustness sweep's outcomes are those of
SLSQP's own test; larger values were not tried."""

# status of a run that its callback halted with StopIteration (scipy's value)
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
        # a NaN tolerance would pass every infeasibility test
        if not 0.0 < self.constraint_tol < math.inf:
            raise ValueError("constraint_tol must be positive and finite, "
                             f"got {self.constraint_tol}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")

    @property
    def n_stages(self):
        return int(round(self.T_p / self.h))


@dataclass
class HorizonSolution:
    """Solver output: ZOH inputs, nominal prediction, cost and status."""

    inputs: np.ndarray        # (N, m)
    dense_errors: np.ndarray  # (N * substeps + 1, n) on the substep grid
    cost: float
    status: str               # optimal | feasible-suboptimal | infeasible
    solve_stats: dict = field(default_factory=dict)
    # a relaxed solve's final SLSQP metric in the inputs, (N m, N m); None
    # after a terminal-enforced solve
    metric: Optional[np.ndarray] = None


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
        self._stages = self.stage_idx[:-1]
        self._cache_key = None
        self._cache = None
        self._chain = None
        self.n_rollouts = 0

    def eval(self, x, gradients=False):
        """The values at x: `traj`, `jac`, `cost`, `v_term`, `slack` and,
        with a `margin_fn`, `margins`. With `gradients`, also `cost_grad`,
        `v_term_grad` and `margins_jac`: chain-rule products of `jac` that
        this iterate's rollout already gave, formed on the first request, as
        SLSQP asks for them at some iterates only."""
        key = x.tobytes()
        if key != self._cache_key:
            self._cache_key, self._cache = key, self._values(x)
        result = self._cache
        if gradients and "cost_grad" not in result:
            cfg, jac = self.cfg, result["jac"]
            stage_e, U, Pe_N, dm_de = self._chain
            v_term_grad = 2.0 * (jac[-1].T @ Pe_N)
            run_grad = (2.0 * cfg.h) * (
                np.einsum("kix,ki->x", jac[self._stages], stage_e @ cfg.Q)
                + (U @ cfg.R).ravel())
            result["cost_grad"] = run_grad + v_term_grad
            result["v_term_grad"] = v_term_grad
            if dm_de is not None:
                # (T, C, n) @ (T, n, nx), flattened to (T*C, nx)
                result["margins_jac"] = (dm_de @ jac[1:]).reshape(-1, self.nx)
        return result

    def _values(self, x):
        cfg = self.cfg
        U = x.reshape(self.N, self.m)
        traj, jac = rollout_zoh(self.errordyn.field, self.e0, U, cfg.h, cfg.substeps,
                                FD_EPS)
        self.n_rollouts += 1
        stage_e = traj[self._stages]
        e_N = traj[-1]
        Pe_N = cfg.P @ e_N
        v_term = float(e_N @ Pe_N)
        # h sum_k (e_k'Q e_k + u_k'R u_k), each stage's two forms summed first
        run = float(np.add.reduce(np.einsum("...i,ij,...j->...", stage_e, cfg.Q, stage_e)
                                  + np.einsum("...i,ij,...j->...", U, cfg.R, U))) * cfg.h
        result = {"traj": traj, "jac": jac, "cost": run + v_term, "v_term": v_term}
        slacks = []
        dm_de = None
        if self.margin_fn is not None:
            margins, dm_de = self.margin_fn(traj[1:])
            result["margins"] = margins = margins.ravel()
            slacks.append(np.minimum.reduce(margins, initial=np.inf))
        if self.use_terminal:
            slacks.append(cfg.eps_omega - v_term)
        result["slack"] = float(min(slacks, default=0.0))
        self._chain = stage_e, U, Pe_N, dm_de
        return result


def _project_inputs(U, u_bar):
    """Exact projection of each stage input onto the norm ball."""
    # the sum np.linalg.norm forms, so the norms are the same floats
    norms = np.sqrt(np.add.reduce(U * U, axis=-1, keepdims=True))
    scale = np.minimum(1.0, u_bar / np.maximum(norms, 1e-300))
    return U * scale


@dataclass
class SlsqpResult:
    """What :func:`minimize` returns: the last iterate `x`, the major
    iterations `nit`, the distinct points evaluated `nfev` and the exit
    `status`, all as scipy counts them, and the `mode` SLSQP's core had set
    at `x`. The mode is the status, except when the callback halted the run
    (status _CALLBACK_HALT): then it is 0 if SLSQP's own test passed at that
    iterate too, and 1 or -1 if SLSQP would have gone on. `buffer` is the
    core's work array as the run left it (see :func:`_bfgs_metric`)."""

    x: np.ndarray
    nit: int
    nfev: int
    status: int
    mode: int
    buffer: np.ndarray

    @property
    def success(self):
        """Whether SLSQP's own convergence test passed at `x`."""
        return self.mode == 0


def minimize(values, gradients, x0, m, maxiter, ftol, callback=None):
    """SLSQP (Kraft 1988) for min f(x) s.t. m >= 1 rows c(x) >= 0: drives
    scipy's compiled core by reverse communication, one call per request:
    `values(x, d)` returns f and writes c into `d`, `gradients(x, g, C)`
    writes grad f into `g` and dc/dx into `C`. State, work arrays, nfev and
    callback are those of scipy's `_minimize_slsqp` without bounds or equality
    rows, so the iterates are bitwise ``minimize(method="SLSQP")``'s. The
    callback gets a copy of each major iterate; its StopIteration ends the
    run with status _CALLBACK_HALT, and the result's `mode` keeps the exit
    mode the core had set there (scipy's wrapper drops it)."""
    x = np.array(x0, dtype=float)
    n = len(x)
    state = dict(acc=ftol, alpha=0.0, f0=0.0, gs=0.0, h1=0.0, h2=0.0, h3=0.0, h4=0.0, t=0.0,
                 t0=0.0, tol=10.0 * ftol, exact=0, inconsistent=0, reset=0, iter=0,
                 itermax=int(maxiter), line=0, m=m, meq=0, mode=0, n=n)
    buffer = np.zeros(n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28)
    mult, indices = np.zeros(m + 2 * n + 2), np.zeros(m + 2 * n + 2, dtype=np.int32)
    xl = np.full(n, np.nan)
    xu = xl.copy()
    g, C, d = np.zeros(n), np.zeros((m, n), order="F"), np.zeros(m)
    f = values(x, d)
    gradients(x, g, C)
    # scipy's ScalarFunction counts f at the start and at each new point
    nfev, f_at, iter_prev = 1, x.copy(), 0
    while True:
        _slsqp_core(state, f, g, C, d, x, mult, xl, xu, buffer, indices)
        status = mode = state["mode"]
        if status == 1:
            f = values(x, d)
            if not (x == f_at).all():
                nfev, f_at = nfev + 1, x.copy()
        elif status == -1:
            gradients(x, g, C)
        if state["iter"] > iter_prev and callback is not None:
            try:
                callback(x.copy())
            except StopIteration:
                status = _CALLBACK_HALT
                break
        if abs(status) != 1:
            break
        iter_prev = state["iter"]
    return SlsqpResult(x=x, nit=state["iter"], nfev=nfev, status=status, mode=mode,
                       buffer=buffer)


def _slsqp(tr: _Transcription, x0, ftol, slack=False, scale=None, callback=None):
    """Run :func:`minimize` under the transcription's constraints on one BLAS
    thread; the result's `x` is in the variables of `x0`.

    The constraints are the margins (when `tr.margin_fn` is set), the input
    ball u_bar^2 - ||u_k||^2 >= 0 on each stage input and, when
    `tr.use_terminal`, eps_omega - V(e_N) >= 0. SLSQP minimizes the cost over
    x = u or, with `slack`, maximizes s over x = (u, s) with each margin and
    the terminal constraint lowered by s (Jacobian column -1), the ball hard.

    With `scale` = T, SLSQP runs in y, x = x0 + T y, from y = 0, with cost
    gradient grad f(x) T and each constraint block's Jacobian times T. Each
    request maps its point to x once, evaluates `tr` once and writes the rows
    in place. `callback` gets each major iterate in SLSQP's variables.
    """
    cfg, N, m, nx = tr.cfg, tr.N, tr.m, tr.nx
    start = x0 if scale is None else np.zeros(x0.shape)

    def to_x(z):
        return z if scale is None else x0 + scale @ z

    def in_z(jacobian):
        return jacobian if scale is None else jacobian @ scale

    n_margins = tr.eval(to_x(start)[:nx])["margins"].size if tr.margin_fn is not None else 0
    n_terminal = int(tr.use_terminal)
    # SLSQP's iterates depend on the order of the constraint rows, so the slack
    # form keeps the terminal row ahead of the ball: in the solve's order, 48
    # of 48 seeded unicycle phase-1 problems with the terminal set enforced
    # ended elsewhere. One product of T with the stacked rows moves them too.
    terminal_row, ball_start = ((n_margins, n_margins + n_terminal) if slack
                                else (n_margins + N, n_margins))
    ball_rows = slice(ball_start, ball_start + N)
    ball_jac = np.zeros((N, nx))
    ball_index = np.arange(N).repeat(m), np.arange(nx)

    def values(z, d):
        x = to_x(z)
        res = tr.eval(x[:nx])
        U = x[:nx].reshape(N, m)
        d[ball_rows] = cfg.u_bar ** 2 - np.add.reduce(U * U, axis=1)
        if n_margins:
            d[:n_margins] = res["margins"]
        if n_terminal:
            d[terminal_row] = cfg.eps_omega - res["v_term"]
        if slack:
            d[:n_margins + n_terminal] -= x[-1]
            return -x[-1]
        return res["cost"]

    def gradients(z, g, C):
        x = to_x(z)
        res = tr.eval(x[:nx], gradients=True)
        ball_jac[ball_index] = -2.0 * x[:nx]
        C[ball_rows, :nx] = in_z(ball_jac)
        if n_margins:
            C[:n_margins, :nx] = in_z(res["margins_jac"])
        if n_terminal:
            C[terminal_row, :nx] = in_z(-res["v_term_grad"][None, :])
        if slack:
            C[:n_margins + n_terminal, nx] = -1.0
            g[:nx], g[nx] = 0.0, -1.0
        else:
            g[:] = in_z(res["cost_grad"])

    with single_blas_thread():
        opt = minimize(values, gradients, start, n_margins + n_terminal + N,
                       cfg.max_iterations, ftol, callback)
        opt.x = to_x(opt.x)
    return opt


@functools.cache
def _gauss_newton_constants(n_stages, r_bytes, m):
    """kron(I_N, R) for the m x m weight R given by its bytes, as a read-only
    array: the constant term of :func:`_gauss_newton_scaling`, built once per
    (N, R)."""
    R = np.frombuffer(r_bytes).reshape(m, m)
    block_r = np.kron(np.eye(n_stages), R)
    block_r.flags.writeable = False
    return block_r


@functools.cache
def _identity(n):
    """The n x n identity as a read-only array, built once per n."""
    identity = np.eye(n)
    identity.flags.writeable = False
    return identity


def _metric_scaling(H):
    """(L, T) for a positive definite metric H: L L' = H and T = L^-T, so that
    in the variables y of x = x0 + T y the metric is the identity, which
    SLSQP's BFGS starts from. A metric B_y that SLSQP ends with in y is
    L B_y L' in x. Call it on one BLAS thread.

    T solves L' T = I with LAPACK's dtrtrs called as scipy's
    ``solve_triangular(L, I, lower=True, trans="T")`` calls it for the
    C-ordered L that numpy's Cholesky returns: on the F-ordered L' as upper
    triangular, untransposed. H is finite, so scipy's finiteness check is left
    out."""
    L = np.linalg.cholesky(H)
    T, info = _dtrtrs(L.T, _identity(len(H)), lower=False, trans=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return L, T


def _gauss_newton_scaling(tr: _Transcription, x):
    """T = L^-T of :func:`_metric_scaling` for the Gauss-Newton Hessian of the
    cost at x, H = 2h sum_k J_k' Q J_k + 2h blkdiag(R) + 2 J_N' P J_N with
    J_k = d e_k / d x (positive definite, as R is; finite, as e0 and the
    projected warm start are)."""
    cfg = tr.cfg
    block_r = _gauss_newton_constants(tr.N, cfg.R.tobytes(), tr.m)
    J = tr.eval(x)["jac"][tr.stage_idx]
    with single_blas_thread():
        H = 2.0 * cfg.h * (np.einsum("kix,kiy->xy", J[:-1], cfg.Q @ J[:-1])
                           + block_r) + 2.0 * J[-1].T @ cfg.P @ J[-1]
        return _metric_scaling(H)[1]


@functools.cache
def _packed_lower(n):
    """(rows, columns) of an n x n lower triangle in the order SLSQP packs
    it, column by column, as read-only arrays."""
    columns, rows = np.triu_indices(n)
    rows.flags.writeable = columns.flags.writeable = False
    return rows, columns


def _bfgs_metric(buffer, n):
    """The quasi-Newton estimate B = L D L' of the Lagrangian's Hessian that
    an SLSQP run over n variables left in its work array `buffer`, or None
    when some entry of D is not positive. ``buffer[:n(n+1)/2]`` holds the
    lower triangle of the unit-lower L column by column, with D in the
    diagonal slots. That is private layout of scipy's compiled core, found by
    probing; tests/test_ocp.py pins it."""
    rows, columns = _packed_lower(n)
    L = np.zeros((n, n))
    L[rows, columns] = buffer[:rows.size]
    d = L.diagonal().copy()
    if not (d > 0.0).all():
        return None
    np.fill_diagonal(L, 1.0)
    return (L * d) @ L.T


# added to a carried metric's diagonal: SLSQP's BFGS estimates end a relaxed
# solve with eigenvalues down to 3e-5, along which the next solve's variables
# would stretch 180-fold; this bounds the stretch by 10
METRIC_DAMPING = 0.01


def shift_metric(metric, m):
    """A carried metric for the shifted start: the first stage's m rows and
    columns dropped, an m x m identity block appended for the new last stage,
    whose input starts where a solve without a carried metric starts it, and
    METRIC_DAMPING added to the diagonal."""
    n = len(metric)
    shifted = np.zeros((n, n))
    shifted[:n - m, :n - m] = metric[m:, m:]
    shifted[n - m:, n - m:] = _identity(m)
    shifted.flat[::n + 1] += METRIC_DAMPING
    return shifted


def _suboptimal_stop(tr: _Transcription, x0, scale):
    """SLSQP callback of a terminal-enforced solve that runs in y, x = x0 +
    `scale` y: raises StopIteration at the first major iterate whose plan,
    projected onto the input ball, is feasible within `constraint_tol` and

    - when the start x0 is feasible within `constraint_tol` (a witness),
      costs at most J~, the start's cost;
    - otherwise, changed the cost by at most SUBOPTIMAL_STOP_DELTA relative
      to the previous major iterate (the first one compares with x0).

    SLSQP also calls back at the iterate where its own test passes; a halt
    there keeps the core's exit mode 0, and :func:`solve_fhocp` reports that
    solve as optimal, not stopped."""
    cfg = tr.cfg
    start = tr.eval(x0)
    witness = -start["slack"] <= cfg.constraint_tol
    previous_cost = start["cost"]

    def callback(y):
        nonlocal previous_cost
        U = _project_inputs((x0 + scale @ y).reshape(tr.N, tr.m), cfg.u_bar)
        res = tr.eval(U.ravel())
        if witness:
            good_enough = res["cost"] <= start["cost"]
        else:
            good_enough = abs(res["cost"] - previous_cost) <= SUBOPTIMAL_STOP_DELTA * previous_cost
            previous_cost = res["cost"]
        if good_enough and -res["slack"] <= cfg.constraint_tol:
            raise StopIteration

    return callback


def solve_fhocp(errordyn: ErrorDynamics, e0, margin_fn, config: OcpConfig,
                warm_start=None, use_terminal=True, metric=None):
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
        metric: a relaxed solve only: the positive definite (N m, N m)
            metric in the inputs that SLSQP's BFGS starts from, in the
            variables that make it the identity (:func:`_metric_scaling`);
            None starts it from the identity in the inputs. Raises
            numpy.linalg.LinAlgError, not RuntimeError, when the metric has
            no Cholesky factor in floating point.

    Returns:
        HorizonSolution; status is "infeasible" when the constraint residual
        (the negated worst slack) exceeds the tolerance after the iteration
        budget, "optimal" when SLSQP's own convergence test passed and
        "feasible-suboptimal" otherwise. The stat `suboptimal_stop` says
        whether the suboptimal-MPC stop ended the solve short of SLSQP's own
        test, and `start_feasible` whether the projected warm start met every
        constraint of this solve within `constraint_tol`, and
        `carried_metric` whether `metric` was given. A relaxed solve returns
        the metric SLSQP ended with, in the inputs (:func:`_bfgs_metric`).
    """
    if use_terminal and metric is not None:
        raise ValueError("a carried metric applies to relaxed solves only")
    t_start = time.perf_counter()
    e0 = np.asarray(e0, dtype=float)
    if not np.isfinite(e0).all():
        raise ValueError("initial error must be finite")
    tr = _Transcription(errordyn, e0, margin_fn, config, use_terminal)
    N, m = tr.N, tr.m
    if warm_start is None:
        x0 = np.zeros(N * m)
    else:
        x0 = _project_inputs(np.asarray(warm_start, dtype=float), config.u_bar).ravel()
    # the first evaluation of every solve, so it costs no extra rollout
    start_feasible = -tr.eval(x0)["slack"] <= config.constraint_tol

    factor = scale = callback = None
    if metric is not None:
        # outside the try: a metric without a Cholesky factor is the
        # caller's to handle, not a diverged solve
        with single_blas_thread():
            factor, scale = _metric_scaling(metric)
    try:
        # Gauss-Newton scaling is accurate near the goal only, where the cost's
        # residuals are small, and the suboptimal stop needs a feasible shifted
        # candidate under the terminal set: the terminal tiers
        if use_terminal:
            scale = _gauss_newton_scaling(tr, x0)
            callback = _suboptimal_stop(tr, x0, scale)
        opt = _slsqp(tr, x0, config.ftol, scale=scale, callback=callback)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise RuntimeError(f"solver diverged: {exc}") from exc
    final_metric = None
    if not use_terminal:
        with single_blas_thread():
            final_metric = _bfgs_metric(opt.buffer, tr.nx)
            if final_metric is not None and factor is not None:
                final_metric = factor @ final_metric @ factor.T
    x_best = opt.x
    if not np.isfinite(x_best).all():
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
    stopped = opt.status == _CALLBACK_HALT and not opt.success
    if residual > config.constraint_tol:
        status = "infeasible"
    elif opt.success:
        status = "optimal"
    else:
        status = "feasible-suboptimal"

    return HorizonSolution(
        inputs=U.copy(),
        dense_errors=res["traj"],
        cost=res["cost"],
        status=status,
        solve_stats={
            "iterations": int(opt.nit),
            "wall_time": time.perf_counter() - t_start,
            "residual": float(residual),
            "rollouts": tr.n_rollouts,
            "terminal_enforced": bool(use_terminal),
            "suboptimal_stop": stopped,
            "start_feasible": bool(start_feasible),
            "carried_metric": metric is not None,
        },
        metric=final_metric,
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
    try:
        opt = _slsqp(tr, x0, 1e-12, slack=True)
    except (FloatingPointError, np.linalg.LinAlgError):
        return start, 0
    candidate, iterations = opt.x[:-1], int(opt.nit)
    if not np.all(np.isfinite(candidate)):
        return start, iterations
    U = _project_inputs(candidate.reshape(tr.N, tr.m), config.u_bar)
    if tr.eval(U.ravel())["slack"] > tr.eval(u0)["slack"]:
        return U, iterations
    return np.asarray(start, dtype=float), iterations


# gains of unicycle_steering_law: speed per metre of distance, turn rate per
# radian of bearing and of heading error, and the distance (m) at which the
# bearing and heading terms weigh the same
_STEER_K_V, _STEER_K_ALPHA, _STEER_K_THETA, _STEER_BLEND = 2.0, 4.0, 2.0, 0.05


def unicycle_steering_law(z_des, u_bar):
    """Distance/bearing feedback for the unicycle error state.

    Drives the position error to zero by steering toward the goal, then
    aligns the heading. Saturated to the input-norm ball; the outer mode of
    :func:`dual_mode_controller`, since the rest linearization is not
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
            v = _STEER_K_V * dist * np.cos(alpha)
            w_goal = dist / (dist + _STEER_BLEND)
            omega = (_STEER_K_ALPHA * alpha * w_goal
                     - _STEER_K_THETA * float(wrap_angle(e[2])) * (1 - w_goal))
        else:
            v = 0.0
            omega = -_STEER_K_THETA * float(wrap_angle(e[2]))
        u = np.array([v, omega])
        norm = np.linalg.norm(u)
        if norm > u_bar:
            u *= u_bar / norm
        return u

    return kappa


def dual_mode_controller(outside, config: OcpConfig):
    """The terminal controller kappa whose input `warm_start_shift` appends to
    the shifted start: zero input when e'Pe <= eps_omega, `outside(e)`
    otherwise (a dual-mode controller in the sense of Michalska & Mayne
    1993).

    Zero input stops the unicycle, so its nominal error stays where it is,
    and the terminal set Omega = {e'Pe <= eps_omega} is invariant under
    kappa: a plan that ends in Omega, shifted by one stage, still ends there.
    The held `outside` input threw that candidate out of Omega in 138 of 150
    solves at rest. Outside Omega the steering law still drives the tail
    toward the goal; a zero tail at every solve aborted the bundled scenario
    at t = 0.4 s.
    """
    zero = np.zeros(config.R.shape[0])

    def kappa(e):
        e = np.asarray(e, dtype=float)
        if e @ config.P @ e <= config.eps_omega:
            return zero.copy()
        return outside(e)

    return kappa


def warm_start_shift(previous: HorizonSolution, controller, config: OcpConfig):
    """Shifted warm start: drop the first stage, append one terminal stage.

    The appended input is the terminal controller applied to the tail state of
    the previous prediction, projected onto the input ball.
    """
    if previous.status == "infeasible":
        raise ValueError("cannot shift an infeasible solution")
    tail = previous.dense_errors[-1]
    u_tail = np.asarray(controller(tail), dtype=float)
    norm = math.sqrt(u_tail.dot(u_tail))
    if norm > config.u_bar:
        u_tail = u_tail * (config.u_bar / norm)
    return np.concatenate([previous.inputs[1:], u_tail[None, :]])

