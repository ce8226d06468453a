"""Finite-horizon optimal control problem: transcription, solver, warm starts.

The FHOCP is transcribed by direct single shooting: the decision variable is
the stack of N zero-order-hold inputs, the nominal error dynamics are rolled
out with the shared fixed-step RK4, and the tightened stage constraints are
enforced on the full substep grid (the same grid the verifier checks).

Each decision point costs one rollout, which gives its cost, and one margin
evaluation, formed the first time its slack or margins are read: a trial
that a line search rejects on its cost alone forms none. The unicycle's
rollout returns, besides the states, a callable that forms their exact
Jacobian with respect to the inputs, and `margin_fn(errors)` returns the
margins with a callable that forms their Jacobian with respect to the error
(exact for the distance margins of
:class:`~dnmpc.constraints.StageGeometry`). Both are called only at the
points whose derivatives a solver reads: the iterates, not the rejected
trials of a line search. The cost, terminal-value and margin gradients
follow by the chain rule when the solver first asks for them. The decision
dimension, N * input_dim, is tiny, and every solve runs on one OpenBLAS
thread (:func:`single_blas_thread`).

The cost h sum_k (e_k'Q e_k + u_k'R u_k) + e_N'P e_N is a sum of squares, so
the rollout Jacobian J gives its Gauss-Newton Hessian
H = 2h sum_k J_k'Q J_k + 2h blkdiag(R) + 2 J_N'P J_N at no extra rollout
(:func:`_gauss_newton_hessian`; Diehl et al. 2005 build real-time-iteration
NMPC on it). Both tiers of the fallback ladder use it.

A relaxed solve (the terminal set not enforced) runs this module's own
sequential quadratic programming, :func:`_gauss_newton_sqp`:

- the Hessian of each QP is H at the iterate;
- the QP is reduced to a least-distance problem and solved by NNLS (Lawson
  & Hanson 1974; the reduction SLSQP makes, Kraft 1988) with the `nnls` that
  scipy compiles into `_slsqplib`, over a working set: the margin rows
  within NEAR_ACTIVE of zero and those active at the last QP. Every other
  row is checked against the step; the most violated one joins and the QP
  is solved again, so the step is that of the QP over all the margin rows
  (:func:`_working_set_qp`). An inconsistent linearization gets the elastic
  QP, every margin row lowered by t >= 0 at a quadratic cost;
- the input ball is met exactly: the QP has one norm row per stage, the
  ball's tangent at the stage input's direction, and each trial point is
  projected onto the ball;
- one merit, cost + mu * (worst margin violation), and one Armijo line
  search;
- a stop of its own: the first iterate within `CONSTRAINT_TOL` of every
  margin whose QP predicts a decrease of the cost (the running cost with its
  terminal penalty) of at most RELAXED_STOP_DELTA of it.

A terminal-enforced solve and the phase-1 pass run SLSQP: scipy's compiled
core, the private `scipy.optimize._slsqplib.slsqp` that tests/test_ocp.py
checks against scipy's public SLSQP bit for bit, driven by this module's
loop :func:`minimize`, whose name perfbench's traced mode patches for its
`slsqp` span. The loop evaluates once per request of the core, where scipy's
wrapper evaluated each constraint block, and writes the rows in place. There
is one SLSQP problem (:func:`_slsqp`): margins, input ball and terminal set
over the inputs u. :func:`solve_fhocp` minimizes the cost over it. The
phase-1 pass :func:`restore_feasibility` solves its slack form, maximizing s
over (u, s) with the margins lowered by s and the ball hard. It serves the
relaxed tier only, so its problem has no terminal row. Both measure
infeasibility by the same worst slack.

The two compiled routines of `_slsqplib` are the only scipy code the solver
runs. They are loaded from their file (:func:`_scipy_compiled`), not through
`scipy.optimize`, whose package imports linprog, `scipy.linalg`,
`scipy.special`, `scipy.fft` and `numpy.f2py` besides. scipy's directory is
found by `importlib.util.find_spec`, so scipy's own ``__init__`` (its config,
test utilities and `subprocess`) does not run either: that took a fresh
``import dnmpc.cli`` from 112 to 82 ms and its resident memory from 34.6 to
32.1 MB (medians of 21 interpreters on a shared 2-vCPU VM).

Three numpy kernels are called directly, without the Python wrapper that
each call of the public function runs on these small arrays:
`numpy._core.multiarray.c_einsum`, which ``np.einsum`` calls when not
optimizing, and the `cholesky_lo` and `inv` gufuncs of
`numpy.linalg._umath_linalg`, which ``np.linalg.cholesky`` and
``np.linalg.inv`` call (:func:`_inverse_factor`). tests/test_ocp.py checks
the first two against the public functions and the inverse factor against
scipy's ``solve_triangular``, bit for bit, so the triangular solve needs no
scipy LAPACK extension (`scipy.linalg._flapack`, 2.5 MB).

A terminal-enforced solve runs SLSQP in scaled variables. With L L' = H at
the warm start x0, SLSQP solves for y in x = x0 + L^-T y, so its BFGS, which
starts from the identity, starts from H in x. Gauss-Newton is accurate where
the residuals are small, near the goal, which is where the fallback ladder
tries the terminal tiers; far from the goal it is not.
:func:`restore_feasibility` keeps the identity.

A terminal-enforced solve also stops at the accuracy the closed loop needs.
The paper's stability argument takes the optimal cost as its Lyapunov
function and the shifted previous plan as its witness of feasibility;
Scokaert, Mayne & Rawlings (1999, "Suboptimal model predictive control
(feasibility implies stability)") show that it needs only a feasible plan
that costs no more than that candidate. SLSQP's callback therefore ends the
solve at the first major iterate whose plan, projected onto the input ball
as the returned plan is, meets every constraint within `CONSTRAINT_TOL` and

- when the solve's own start meets them too (the witness, of cost J~),
  costs at most J~;
- otherwise changed the cost by at most :data:`SUBOPTIMAL_STOP_DELTA`
  relative to the previous major iterate.

Such a plan has status "feasible-suboptimal"; "optimal" means SLSQP's own
test passed, also at an iterate where the stop fired as well. The relaxed
tiers stop by their own rule and :func:`restore_feasibility` runs to SLSQP's
own test: their premise, a feasible shifted candidate under the terminal
set, is missing.

The witness is the previous plan shifted by one stage with the input of the
terminal controller kappa appended (:func:`warm_start_shift`). kappa is
:func:`dual_mode_input`: zero input in Omega = {e'Pe <= eps_omega}, the
steering law outside. Of the paper's terminal conditions it meets these:

- invariance: a plan that ends in Omega still ends there after the shift,
  as the unicycle stands still under zero input (the tier-1 sampling oracle
  checks it). A plan accepted up to `CONSTRAINT_TOL` outside Omega gets the
  steering law. In the bundled scenario a constant disturbance of norm
  w_bar, held for h, takes V up to 1.21 eps_omega, within eps_psi =
  16.6 eps_omega;
- the input bound, trivially;
- not the decrease V_f(e+) - V_f(e) <= -h l(e, kappa(e)). No continuous
  static feedback asymptotically stabilizes the unicycle (Brockett 1983),
  and with quadratic costs unicycle MPC can stall short of its goal
  (Worthmann et al. 2016, IEEE TCST); one agent does on the nominal run.

So the shifted plan ends in Omega whenever the previous plan did, and the
stop from a witness needs no settled cost.
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
from typing import ClassVar

import numpy as np
from numpy._core.multiarray import c_einsum as _c_einsum
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo
from numpy.linalg._umath_linalg import inv as _inv

from .dynamics import ErrorDynamics, rollout_zoh, wrap_angle

__all__ = [
    "OcpConfig",
    "HorizonSolution",
    "solve_fhocp",
    "restore_feasibility",
    "unicycle_steering_law",
    "dual_mode_input",
    "warm_start_shift",
    "single_blas_thread",
]


def _scipy_directory():
    """scipy's package directory, found without running scipy's ``__init__``."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("dnmpc needs scipy, which is not installed")
    return Path(spec.origin).parent


_SCIPY = _scipy_directory()


def _scipy_compiled(subpackage, name):
    """scipy's compiled module ``scipy.<subpackage>.<name>``, loaded from its
    file in scipy's directory without running scipy's or the subpackage's
    ``__init__``. A later ``import`` of either works as usual."""
    directory = _SCIPY / subpackage
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"{name}{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(f"scipy.{subpackage}.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from importlib.metadata import version  # only here: it loads the email package
    raise ImportError(f"scipy {version('scipy')} has no compiled module {directory / name}"
                      f" with any of the suffixes {importlib.machinery.EXTENSION_SUFFIXES}")


_slsqplib = _scipy_compiled("optimize", "_slsqplib")
_slsqp_core, _nnls = _slsqplib.slsqp, _slsqplib.nnls


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
    for package in (Path(np.__file__).parent, _SCIPY):
        libs = package.parent / f"{package.name}.libs"
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
    exit. An entry that finds every count at 1 sets nothing, so one nested in
    another leaves the outer one's pin to it. BLAS builds not found by
    :func:`_openblas_thread_controls` keep their own setting
    (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS).
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    if all(count == 1 for count in previous):
        yield
        return
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, previous):
            set_threads(count)


CONSTRAINT_TOL = 1e-4
"""The one feasibility tolerance: a plan is feasible when its worst slack
(its margins and, when enforced, the terminal set) is at least
-CONSTRAINT_TOL. Every solver's stop and status, the ladder's witness, the
terminal radius and the terminal exclusion of the engine read it."""

MAX_ITERATIONS = 100
"""Iteration cap of every solve: SLSQP's major iterations (terminal-enforced
solves and the restoration) and the relaxed solver's SQP iterations."""

SUBOPTIMAL_STOP_DELTA = 1e-4
"""Relative cost change between SLSQP major iterates at or below which a
feasible terminal-enforced plan is accepted when the solve's start is not
feasible within `CONSTRAINT_TOL`; from a feasible start the first feasible
iterate no costlier than it is accepted, settled or not. delta trades only
closeness to the optimum for iterations. At 1e-4 the bundled runs' verdicts
and the robustness sweep's outcomes are those of SLSQP's own test; larger
values were not tried."""

# SLSQP's own accuracy (scipy's `ftol`) in a terminal-enforced solve; the
# restoration runs to 1e-12
SLSQP_FTOL = 1e-10

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
    # RK4 substeps per sampling step, of the rollouts, the plant and the log
    substeps: ClassVar[int] = 10

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

    inputs: np.ndarray        # (N, m)
    dense_errors: np.ndarray  # (N * substeps + 1, n) on the substep grid
    cost: float
    status: str               # optimal | feasible-suboptimal | infeasible
    # this attempt's own stats, written by solve_fhocp only
    solve_stats: dict = field(default_factory=dict)


class _Point(dict):
    """The values of one decision point, as :meth:`_Transcription.eval`
    returns them. `traj`, `cost` and `v_term` are set when the point is rolled
    out. `margins`, `slack` and `margin_error_jac` (the callable of
    `margin_fn` that forms d margins / d error) are set by one `margin_fn`
    call on the first lookup of any of them, so a point read for its cost
    alone forms no margins. `terminal_slack` is eps_omega - V(e_N) when the
    terminal set is enforced, else None."""

    __slots__ = ("margin_fn", "terminal_slack")

    def __missing__(self, key):
        if key not in ("margins", "slack", "margin_error_jac"):
            raise KeyError(key)
        margins, margin_jac = self.margin_fn(self["traj"][1:])
        margins = margins.ravel()
        slack = np.minimum.reduce(margins, initial=np.inf)
        if self.terminal_slack is not None:
            slack = min(slack, self.terminal_slack)
        self.update(margins=margins, slack=float(slack), margin_error_jac=margin_jac)
        return self[key]


class _Transcription:
    """Single-shooting evaluation cache of one point: its rollout and cost
    when it is evaluated, its margins (one `margin_fn` call) when its slack or
    margins are first read, and their derivatives at the points a solver asks
    them for.

    `margin_fn` must be pointwise: the margins at a substep depend only on
    the error at that substep. It returns them with a callable for
    d margins / d error, and their input Jacobian is that times the
    rollout's input Jacobian.

    `slack` is the worst constraint slack of a point: the smallest margin
    and, when `use_terminal`, eps_omega - V(e_N); +inf when there is
    neither. Negative means some constraint is violated. :meth:`jac` gives the
    rollout's input Jacobian d traj / d x, of shape (T + 1, n, nx).
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
        self._rollout_jac = None
        self.n_rollouts = 0

    def eval(self, x, gradients=False):
        """The values at x (a :class:`_Point`): `traj`, `cost` and `v_term`,
        and `slack` and `margins` on their first lookup. With `gradients`,
        also `cost_grad`, `v_term_grad` and `margins_jac`: chain-rule products
        of :meth:`jac`, formed on the first request, as the solvers ask for
        them at some points only."""
        key = x.tobytes()
        if key != self._cache_key:
            self._cache_key, self._cache = key, self._values(x)
        result = self._cache
        if gradients and "cost_grad" not in result:
            cfg, jac = self.cfg, self.jac(x)
            stage_e, U, Pe_N = self._chain
            v_term_grad = 2.0 * (jac[-1].T @ Pe_N)
            run_grad = (2.0 * cfg.h) * (
                _c_einsum("kix,ki->x", jac[self._stages], stage_e @ cfg.Q)
                + (U @ cfg.R).ravel())
            result["cost_grad"] = run_grad + v_term_grad
            result["v_term_grad"] = v_term_grad
            # (T, C, n) @ (T, n, nx), flattened to (T*C, nx)
            result["margins_jac"] = (result["margin_error_jac"]() @ jac[1:]).reshape(-1, self.nx)
        return result

    def jac(self, x):
        """The rollout's input Jacobian at x, d traj / d x, formed by the
        rollout's callable on the first request at x."""
        result = self.eval(x)
        if "jac" not in result:
            result["jac"] = self._rollout_jac()
        return result["jac"]

    def _values(self, x):
        cfg = self.cfg
        U = x.reshape(self.N, self.m)
        traj, rollout_jac = rollout_zoh(self.errordyn, self.e0, U, cfg.h, cfg.substeps)
        self.n_rollouts += 1
        stage_e = traj[self._stages]
        e_N = traj[-1]
        Pe_N = cfg.P @ e_N
        v_term = float(e_N @ Pe_N)
        # h sum_k (e_k'Q e_k + u_k'R u_k), each stage's two forms summed first
        run = float(np.add.reduce(_c_einsum("...i,ij,...j->...", stage_e, cfg.Q, stage_e)
                                  + _c_einsum("...i,ij,...j->...", U, cfg.R, U))) * cfg.h
        result = _Point(traj=traj, cost=run + v_term, v_term=v_term)
        result.margin_fn = self.margin_fn
        result.terminal_slack = cfg.eps_omega - v_term if self.use_terminal else None
        self._chain = stage_e, U, Pe_N
        self._rollout_jac = rollout_jac
        return result


def _project_inputs(U, u_bar):
    """Exact projection of each stage input onto the norm ball, as a new
    array."""
    # the sum np.linalg.norm forms, so the norms are the same floats
    norms = np.sqrt(np.add.reduce(U * U, axis=-1, keepdims=True))
    if (norms <= u_bar).all():
        # every scale below would be exactly 1.0
        return U.copy()
    scale = np.minimum(1.0, u_bar / np.maximum(norms, 1e-300))
    return U * scale


@dataclass
class SlsqpResult:
    """What :func:`minimize` returns: the last iterate `x`, the major
    iterations `nit`, the distinct points evaluated `nfev` and the exit
    `status`, all as scipy counts them, and the `mode` SLSQP's core had set
    at `x`. The mode is the status, except when the callback halted the run
    (status _CALLBACK_HALT): then it is 0 if SLSQP's own test passed at that
    iterate too, and 1 or -1 if SLSQP would have gone on."""

    x: np.ndarray
    nit: int
    nfev: int
    status: int
    mode: int

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
    return SlsqpResult(x=x, nit=state["iter"], nfev=nfev, status=status, mode=mode)


def _slsqp(tr: _Transcription, x0, ftol, slack=False, scale=None, callback=None):
    """Run :func:`minimize` under the transcription's constraints; the
    result's `x` is in the variables of `x0`. Call it on one BLAS thread.

    The constraint rows are, in this order, the margins, the input ball
    u_bar^2 - ||u_k||^2 >= 0 on each stage input and, when `tr.use_terminal`,
    eps_omega - V(e_N) >= 0. SLSQP minimizes the cost over x = u or, with
    `slack` (on a transcription without the terminal set), maximizes s over
    x = (u, s) with each margin lowered by s (Jacobian column -1), the ball
    hard.

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

    n_margins = tr.eval(to_x(start)[:nx])["margins"].size
    n_terminal = int(tr.use_terminal)
    ball_rows = slice(n_margins, n_margins + N)
    ball_jac = np.zeros((N, nx))
    ball_index = np.arange(N).repeat(m), np.arange(nx)

    def values(z, d):
        x = to_x(z)
        res = tr.eval(x[:nx])
        U = x[:nx].reshape(N, m)
        d[ball_rows] = cfg.u_bar ** 2 - np.add.reduce(U * U, axis=1)
        d[:n_margins] = res["margins"]
        if n_terminal:
            d[-1] = cfg.eps_omega - res["v_term"]
        if slack:
            d[:n_margins] -= x[-1]
            return -x[-1]
        return res["cost"]

    def gradients(z, g, C):
        x = to_x(z)
        res = tr.eval(x[:nx], gradients=True)
        ball_jac[ball_index] = -2.0 * x[:nx]
        C[ball_rows, :nx] = in_z(ball_jac)
        C[:n_margins, :nx] = in_z(res["margins_jac"])
        if n_terminal:
            C[-1, :nx] = in_z(-res["v_term_grad"][None, :])
        if slack:
            C[:n_margins, nx] = -1.0
            g[:nx], g[nx] = 0.0, -1.0
        else:
            g[:] = in_z(res["cost_grad"])

    opt = minimize(values, gradients, start, n_margins + n_terminal + N,
                   MAX_ITERATIONS, ftol, callback)
    opt.x = to_x(opt.x)
    return opt


@functools.cache
def _gauss_newton_constants(n_stages, r_bytes, m):
    """kron(I_N, R) for the m x m weight R given by its bytes, as a read-only
    array: the constant term of :func:`_gauss_newton_hessian`, built once per
    (N, R)."""
    R = np.frombuffer(r_bytes).reshape(m, m)
    block_r = np.kron(np.eye(n_stages), R)
    block_r.flags.writeable = False
    return block_r


def _gauss_newton_hessian(tr: _Transcription, x):
    """The Gauss-Newton Hessian of the cost at x, H = 2h sum_k J_k' Q J_k +
    2h blkdiag(R) + 2 J_N' P J_N with J_k = d e_k / d x, from the rollout
    Jacobian of x's evaluation (positive definite, as R is; finite, as e0 and
    x are). Call it on one BLAS thread."""
    cfg = tr.cfg
    block_r = _gauss_newton_constants(tr.N, cfg.R.tobytes(), tr.m)
    J = tr.jac(x)[tr.stage_idx]
    return 2.0 * cfg.h * (_c_einsum("kix,kiy->xy", J[:-1], cfg.Q @ J[:-1])
                          + block_r) + 2.0 * J[-1].T @ cfg.P @ J[-1]


def _inverse_factor(H):
    """T = L^-T for the Cholesky factor L L' = H of a positive definite H, so
    that H^-1 = T T' and, in the variables y of x = x0 + T y, H is the
    identity. Call it on one BLAS thread.

    L is the factor of numpy's `cholesky_lo` gufunc, the one
    ``np.linalg.cholesky`` returns. The gufunc gives NaN where H is not
    positive definite, which raises LinAlgError here as it does there, with no
    warning. A finite L has a positive diagonal, so L' is invertible, and T
    is numpy's `inv` gufunc (the one ``np.linalg.inv`` calls) on the
    upper-triangular L'. Its LU factorization pivots on the diagonal, since
    every entry below it is zero, so the unit-lower solve leaves I as it is
    and the upper solve is LAPACK's triangular one: tests/test_ocp.py checks
    T bitwise against scipy's ``solve_triangular(L, I, lower=True,
    trans="T")``, Fortran order included: the products that read T take
    other BLAS paths on a C-ordered T, which moves the corridor's floats."""
    with np.errstate(all="ignore"):
        L = _cholesky_lo(H)
        if not np.isfinite(L).all():
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return _inv(L.T, out=np.empty(H.shape, order="F"))


def _gauss_newton_scaling(tr: _Transcription, x):
    """T = L^-T of :func:`_inverse_factor` for the Gauss-Newton Hessian of the
    cost at x (:func:`_gauss_newton_hessian`). Call it on one BLAS thread."""
    return _inverse_factor(_gauss_newton_hessian(tr, x))


@functools.cache
def _unit_vector(n):
    """The last of the n unit vectors, e_n, as a read-only array, built once
    per n: the NNLS target of :func:`_least_distance`, which `nnls` reads
    only."""
    unit = np.zeros(n)
    unit[-1] = 1.0
    unit.flags.writeable = False
    return unit


def _least_distance(E, f):
    """(w, lam) for min ||w|| s.t. E w >= f: the least-distance problem, solved
    as the NNLS problem min ||[E'; f'] z - e_{n+1}||, z >= 0 (Lawson & Hanson
    1974, ch. 23), with scipy's compiled `nnls`. lam >= 0 are the rows'
    multipliers and w = E' lam. None when the rows are inconsistent."""
    n = E.shape[1]
    A = np.empty((n + 1, len(f)), order="F")
    A[:n] = E.T
    A[n] = f
    z, _, _ = _nnls(A, _unit_vector(n + 1), 3 * len(f) + 30)
    fac = 1.0 - f @ z
    if not fac > 1e-12:
        return None
    lam = z / fac
    return E.T @ lam, lam


def _working_set_qp(T, g, G, b, working):
    """(d, lam) for the QP min g'd + d'Hd / 2 s.t. G d >= b, with H^-1 = T T'
    (:func:`_inverse_factor`), or None when its rows are inconsistent.

    It is solved over the rows of the boolean mask `working` first. Every row
    outside it is then checked against the step; the most violated one joins
    the working set and the QP is solved again, until the step meets every
    row, so d is the QP's over all rows. lam holds every row's multiplier (0
    off the working set). In w = T^-1 (d - d_free), d_free = -T T'g the
    unconstrained step, the QP is the least-distance problem of
    :func:`_least_distance` with E = G T and f = b - G d_free."""
    d_free = -T @ (T.T @ g)
    E = G @ T
    f = b - G @ d_free
    working = working.copy()
    lam = np.zeros(len(b))
    w = np.zeros(len(g))
    while True:
        if working.any():
            solution = _least_distance(E[working], f[working])
            if solution is None:
                return None
            w, lam[working] = solution
        shortfall = f - E @ w
        shortfall[working] = -np.inf
        worst = int(shortfall.argmax())
        if shortfall[worst] <= 1e-10:
            return T @ w + d_free, lam
        working[worst] = True


# a margin row joins the working set of a relaxed solve's QP when its margin is
# at most this (m) at the iterate, or its multiplier was positive at the last
# QP; every other row is checked against the QP's step
NEAR_ACTIVE = 0.05

RELAXED_STOP_DELTA = 1e-6
"""A relaxed solve ends at the first iterate that meets every margin within
`CONSTRAINT_TOL` and whose QP step predicts a decrease of the cost (the
running cost with its terminal penalty) of at most this fraction of it."""

# least weight of the elastic variable, relative to the mean diagonal of the
# Gauss-Newton Hessian
ELASTIC_WEIGHT = 1e4

# Armijo constant of the line search (Nocedal & Wright's 1e-4), the factor of
# each backtrack, and the smallest step length it tries
_ARMIJO, _BACKTRACK, _MIN_STEP = 1e-4, 0.5, 1e-3


def _gauss_newton_sqp(tr: _Transcription, x0):
    """A relaxed solve: min cost(u) s.t. margins(u) >= 0 and ||u_k|| <= u_bar
    by sequential quadratic programming from x0, inside the ball. Returns
    (x, iterations, converged). Call it on one BLAS thread.

    Each iteration solves one QP (:func:`_working_set_qp`): the Gauss-Newton
    Hessian H of the cost (:func:`_gauss_newton_hessian`), the cost gradient,
    the linearized margins and, for each stage, one norm row: the ball's
    tangent n'(u_k + d_k) <= u_bar at the direction n of u_k. When those rows
    are inconsistent, or the step that meets them costs the model more than
    weight * violation^2 / 2, it solves the elastic QP instead: every margin
    row lowered by t >= 0 at the cost weight * t^2 / 2. The weight is
    ELASTIC_WEIGHT times the mean diagonal of H, the largest so far in the
    solve.

    The merit is cost + mu * violation, the violation being the worst
    margin's shortfall and mu at least twice the sum of the margins'
    multipliers. The step length backtracks from 1 by _BACKTRACK until the
    merit falls by _ARMIJO times its directional derivative; a trial whose
    cost alone misses that bound is rejected before its margins are formed.
    Each trial point is projected onto the ball, so every iterate meets it
    exactly.

    The solve converges at an iterate within `CONSTRAINT_TOL` of every margin
    whose QP (not the elastic one) predicts a decrease of at most
    RELAXED_STOP_DELTA of the cost. It ends unconverged after `MAX_ITERATIONS`,
    or when the merit has no descent direction or no step length down to
    _MIN_STEP lowers it."""
    cfg, N, m, nx = tr.cfg, tr.N, tr.m, tr.nx
    x, mu, weight = x0, 0.0, 0.0
    res = tr.eval(x, gradients=True)
    n_margins = res["margins"].size
    rows = n_margins + N
    # rows of the elastic QP over (d, t): the margins, one norm row per stage,
    # then t >= 0; the QP over d alone takes the first `rows` and nx columns
    G = np.zeros((rows + 1, nx + 1))
    G[:n_margins, nx] = G[rows, nx] = 1.0
    b = np.zeros(rows + 1)
    norm_rows = np.arange(n_margins, rows).repeat(m), np.arange(nx)
    working = np.ones(rows + 1, dtype=bool)
    working[:n_margins] = res["margins"] <= NEAR_ACTIVE
    T_e = np.zeros((nx + 1, nx + 1))
    for iteration in range(1, MAX_ITERATIONS + 1):
        H = _gauss_newton_hessian(tr, x)
        T = _inverse_factor(H)
        g = res["cost_grad"]
        U = x.reshape(N, m)
        norms = np.sqrt(np.add.reduce(U * U, axis=1))
        G[:n_margins, :nx] = res["margins_jac"]
        b[:n_margins] = -res["margins"]
        G[norm_rows] = -(U / np.maximum(norms, 1e-300)[:, None]).ravel()
        b[n_margins:rows] = np.minimum(norms - cfg.u_bar, 0.0)
        violation = max(0.0, -res["slack"])
        weight = max(weight, ELASTIC_WEIGHT * H.trace() / nx)
        lowered = 0.0
        solution = _working_set_qp(T, g, G[:rows, :nx], b[:rows], working[:rows])
        if solution is not None:
            d, lam = solution
            model = g @ d + 0.5 * d @ H @ d
        if solution is None or model > 0.5 * weight * violation ** 2:
            T_e[:nx, :nx] = T
            T_e[nx, nx] = 1.0 / math.sqrt(weight)
            solution = _working_set_qp(T_e, np.append(g, 0.0), G, b, working)
            if solution is None:
                return x, iteration, False
            d, lam = solution
            d, lowered = d[:nx], max(0.0, d[nx])
            model = g @ d + 0.5 * d @ H @ d
        working[:n_margins] = lam[:n_margins] > 0.0
        if lowered == 0.0 and violation <= CONSTRAINT_TOL and (
                -model <= RELAXED_STOP_DELTA * res["cost"]):
            return x, iteration, True
        mu = max(mu, 2.0 * float(np.add.reduce(lam[:n_margins])))
        merit = res["cost"] + mu * violation
        derivative = g @ d - mu * (violation - lowered)
        if not derivative < 0.0:
            return x, iteration, False
        step = 1.0
        while True:
            trial = _project_inputs((x + step * d).reshape(N, m), cfg.u_bar).ravel()
            res = tr.eval(trial)
            bound = merit + _ARMIJO * step * derivative
            # the merit is never below the cost, so a trial whose cost fails
            # the bound is rejected without its margins
            if res["cost"] <= bound and res["cost"] + mu * max(0.0, -res["slack"]) <= bound:
                break
            step *= _BACKTRACK
            if step < _MIN_STEP:
                return x, iteration, False
        x = trial
        res = tr.eval(x, gradients=True)
        working[:n_margins] |= res["margins"] <= NEAR_ACTIVE
    return x, MAX_ITERATIONS, False


def _suboptimal_stop(tr: _Transcription, x0, scale):
    """SLSQP callback of a terminal-enforced solve that runs in y, x = x0 +
    `scale` y: raises StopIteration at the first major iterate whose plan,
    projected onto the input ball, is feasible within `CONSTRAINT_TOL` and

    - when the start x0 is feasible within `CONSTRAINT_TOL` (a witness),
      costs at most J~, the start's cost;
    - otherwise, changed the cost by at most SUBOPTIMAL_STOP_DELTA relative
      to the previous major iterate (the first one compares with x0).

    SLSQP also calls back at the iterate where its own test passes; a halt
    there keeps the core's exit mode 0, and :func:`solve_fhocp` reports that
    solve as optimal, not stopped."""
    cfg = tr.cfg
    start = tr.eval(x0)
    witness = -start["slack"] <= CONSTRAINT_TOL
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
        # the slack, and so the point's margins, only when the cost passes
        if good_enough and -res["slack"] <= CONSTRAINT_TOL:
            raise StopIteration

    return callback


@single_blas_thread()
def solve_fhocp(errordyn: ErrorDynamics, e0, margin_fn, config: OcpConfig, warm_start,
                use_terminal):
    """Solve the tightened finite-horizon problem for one agent.

    Runs on one BLAS thread (:func:`single_blas_thread`), pinned once.

    Args:
        errordyn: nominal error dynamics of the agent.
        margin_fn: callable errors (T, n) -> (tightened margins (T, C), a
            callable of no arguments that returns their Jacobian
            d margins / d errors (T, C, n)), T being the substeps of the
            horizon; nonnegative margins mean satisfied. The Jacobian's
            callable is called at most once, and only at points whose
            gradients the solver reads. It must be pointwise: margins[t]
            depends on errors[t] alone. The simulator's distance margins
            give the Jacobian in closed form.
        warm_start: initial guess for the (N, m) input sequence.
        use_terminal: enforce V(e_N) <= eps_omega as a hard constraint, run
            SLSQP in the Gauss-Newton-scaled variables of the module
            docstring, and stop at its suboptimal-MPC accuracy; otherwise
            (a relaxed solve) run :func:`_gauss_newton_sqp`.

    Returns:
        HorizonSolution; status is "infeasible" when the constraint residual
        (the negated worst slack) exceeds the tolerance after the iteration
        budget, "optimal" when the solver's own convergence test passed and
        "feasible-suboptimal" otherwise. The stat `suboptimal_stop` says
        whether the suboptimal-MPC stop ended the solve short of SLSQP's own
        test, and `start_feasible` whether the projected warm start met every
        constraint of this solve within `CONSTRAINT_TOL`.
    """
    t_start = time.perf_counter()
    e0 = np.asarray(e0, dtype=float)
    if not np.isfinite(e0).all():
        raise ValueError("initial error must be finite")
    tr = _Transcription(errordyn, e0, margin_fn, config, use_terminal)
    N, m = tr.N, tr.m
    x0 = _project_inputs(np.asarray(warm_start, dtype=float), config.u_bar).ravel()
    # the first evaluation of every solve, so it costs no extra rollout
    start_feasible = -tr.eval(x0)["slack"] <= CONSTRAINT_TOL

    stopped = False
    try:
        if use_terminal:
            # Gauss-Newton scaling is accurate near the goal only, where the
            # cost's residuals are small, and the suboptimal stop needs a
            # feasible shifted candidate under the terminal set
            scale = _gauss_newton_scaling(tr, x0)
            opt = _slsqp(tr, x0, SLSQP_FTOL, scale=scale,
                         callback=_suboptimal_stop(tr, x0, scale))
            x_best, iterations, converged = opt.x, opt.nit, opt.success
            stopped = opt.status == _CALLBACK_HALT and not opt.success
        else:
            x_best, iterations, converged = _gauss_newton_sqp(tr, x0)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise RuntimeError(f"solver diverged: {exc}") from exc
    if not np.isfinite(x_best).all():
        raise RuntimeError("solver produced non-finite iterate")

    U = _project_inputs(x_best.reshape(N, m), config.u_bar)
    x_best = U.ravel()
    res = tr.eval(x_best)
    # Keep the warm start if the solver wandered to something worse and infeasible.
    if max(0.0, -res["slack"]) > CONSTRAINT_TOL:
        res0 = tr.eval(x0)
        if max(0.0, -res0["slack"]) <= CONSTRAINT_TOL:
            x_best, res = x0, res0
            U = x_best.reshape(N, m)

    residual = max(0.0, -res["slack"])
    if residual > CONSTRAINT_TOL:
        status = "infeasible"
    elif converged:
        status = "optimal"
    else:
        status = "feasible-suboptimal"

    return HorizonSolution(
        inputs=U.copy(),
        dense_errors=res["traj"],
        cost=res["cost"],
        status=status,
        solve_stats={
            "iterations": int(iterations),
            "wall_time": time.perf_counter() - t_start,
            "residual": float(residual),
            "rollouts": tr.n_rollouts,
            "terminal_enforced": bool(use_terminal),
            "suboptimal_stop": stopped,
            "start_feasible": bool(start_feasible),
        },
    )


@single_blas_thread()
def restore_feasibility(errordyn: ErrorDynamics, e0, margin_fn, config: OcpConfig, start):
    """Phase-1 pass: maximize the worst margin from an infeasible input
    sequence, on one BLAS thread, pinned once.

    Solves max_s { s : margins(u) >= s, ||u_k|| <= u_bar } with SLSQP over
    the augmented variable (u, s); the terminal set is not enforced. Used
    when every start of a relaxed solve ends infeasible. Returns the
    restored (N, m) input sequence, or `start` when the worst margin did not
    grow, and the SLSQP iteration count (0 when SLSQP failed before
    reporting one).
    """
    tr = _Transcription(errordyn, np.asarray(e0, dtype=float), margin_fn, config, False)
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


def unicycle_steering_law(e, z_des, u_bar):
    """Distance/bearing feedback input at the unicycle error e of goal z_des.

    Drives the position error to zero by steering toward the goal, then
    aligns the heading. Saturated to the input-norm ball; the outer mode of
    :func:`dual_mode_input`, since the rest linearization is not
    stabilizable.
    """
    e = np.asarray(e, dtype=float)
    dx, dy = -e[0], -e[1]
    dist = float(np.hypot(dx, dy))
    theta = float(z_des[2]) + e[2]
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


def dual_mode_input(e, z_des, config: OcpConfig):
    """The input of the terminal controller kappa at the error e of goal
    z_des, which `warm_start_shift` appends to the shifted start: zero when
    e'Pe <= eps_omega, :func:`unicycle_steering_law` otherwise (a dual-mode
    controller in the sense of Michalska & Mayne 1993).

    Zero input stops the unicycle, so its nominal error stays where it is,
    and the terminal set Omega = {e'Pe <= eps_omega} is invariant under
    kappa: a plan that ends in Omega, shifted by one stage, still ends there.
    The held steering-law input threw that candidate out of Omega in 138 of
    150 solves at rest. Outside Omega the steering law still drives the tail
    toward the goal; a zero tail at every solve aborted the bundled scenario
    at t = 0.4 s.
    """
    e = np.asarray(e, dtype=float)
    if e @ config.P @ e <= config.eps_omega:
        return np.zeros(config.R.shape[0])
    return unicycle_steering_law(e, z_des, config.u_bar)


def warm_start_shift(previous: HorizonSolution, z_des, config: OcpConfig):
    """Shifted warm start: drop the first stage, append one terminal stage.

    The appended input is :func:`dual_mode_input` at the tail error of the
    previous prediction: zero or the steering law's input, which
    :func:`unicycle_steering_law` saturates to u_bar. Its norm can round to
    an ulp above u_bar; :func:`solve_fhocp` projects every warm start onto
    the input ball, so the shift does not project it again.
    """
    if previous.status == "infeasible":
        raise ValueError("cannot shift an infeasible solution")
    u_tail = dual_mode_input(previous.dense_errors[-1], z_des, config)
    return np.concatenate([previous.inputs[1:], u_tail[None, :]])
