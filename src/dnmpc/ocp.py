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
NMPC on it).

Every solve goes through one entry, :func:`minimize`, whose name perfbench's
traced mode patches for its `slsqp` span. It takes the transcription and a
start, dispatches on the transcription's form ("terminal", "relaxed" or
"restore") and returns one result: the last iterate, the iterations, the
points evaluated and a status of "converged", "stopped" or "unconverged".
:func:`solve_fhocp` and :func:`restore_feasibility` each call it once.

Both tiers of the fallback ladder, the relaxed one (the terminal set not
enforced) and the terminal-enforced one, run one QP solver: this module's
own sequential quadratic programming, :func:`_gauss_newton_sqp`:

- the Hessian of each QP is H at the iterate; in the terminal form its
  terminal term is weighted by 1 + lam, lam the terminal row's multiplier at
  the last QP, which makes it the Gauss-Newton Hessian of the Lagrangian;
- the QP is reduced to a least-distance problem and solved by NNLS (Lawson
  & Hanson 1974; the reduction SLSQP makes, Kraft 1988) with the `nnls` that
  scipy compiles into `_slsqplib`, over a working set: the margin rows
  within NEAR_ACTIVE of zero and those active at the last QP. Every other
  row is checked against the step; the most violated one joins and the QP
  is solved again, so the step is that of the QP over all the rows
  (:func:`_working_set_qp`). An inconsistent linearization gets the elastic
  QP, every margin row lowered by t >= 0 at a quadratic cost;
- the terminal form has one more row beside the margins, the linearized
  terminal constraint eps_omega - V(e_N) >= 0, which counts in the merit's
  violation and which the elastic QP lowers too;
- the input ball is met exactly: the QP has one norm row per stage, the
  ball's tangent at the stage input's direction, and each trial point is
  projected onto the ball;
- one merit, cost + mu * (worst violation), and one Armijo line search;
- a stop of its own: the first iterate within `CONSTRAINT_TOL` of every
  row whose QP predicts a decrease of the cost (the running cost with its
  terminal penalty) of at most RELAXED_STOP_DELTA of it ("converged"; in
  the terminal form, a plan that converges within the tolerance outside the
  rows returns with that QP's correcting step taken, where the step lowers
  the violation); in the terminal form, also the suboptimal stop below
  ("stopped").

Only the phase-1 pass, :func:`restore_feasibility`, runs SLSQP: scipy's
compiled core, the private `scipy.optimize._slsqplib.slsqp` that
tests/test_ocp.py checks against scipy's public SLSQP bit for bit, driven by
:func:`minimize`'s own loop. The loop evaluates once per request of the
core, where scipy's wrapper evaluated each constraint block, and writes the
rows in place. The pass solves the slack form, maximizing s over (u, s) with
the margins lowered by s and the ball hard; it serves the relaxed tier only,
which enforces no terminal set.

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

A terminal-enforced solve stops at the accuracy the closed loop needs. The
paper's stability argument takes the optimal cost as its Lyapunov function
and the shifted previous plan as its witness of feasibility; Scokaert,
Mayne & Rawlings (1999, "Suboptimal model predictive control (feasibility
implies stability)") show that it needs only a feasible plan that costs no
more than that candidate. The Gauss-Newton SQP's terminal form therefore
tests the predicate :func:`_suboptimal_stop` at each new iterate and ends
the solve at the first one that meets every constraint within
`CONSTRAINT_TOL` and

- when the solve's own start meets them too (the witness, of cost J~),
  costs at most J~;
- otherwise changed the cost by at most :data:`SUBOPTIMAL_STOP_DELTA`
  relative to the previous iterate.

Such a solve is "stopped", and its plan "feasible-suboptimal"; "converged",
and "optimal", mean the solver's own test passed first. The relaxed tier
stops by its own rule alone and :func:`restore_feasibility` runs to SLSQP's
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

    The solvers' QPs have N * m columns and a few hundred rows: extra BLAS
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
"""Iteration cap of every solve: the Gauss-Newton SQP's iterations (relaxed
and terminal-enforced solves) and SLSQP's major iterations (the
restoration)."""

SUBOPTIMAL_STOP_DELTA = 1e-4
"""Relative cost change between iterates at or below which a feasible
terminal-enforced plan is accepted when the solve's start is not feasible
within `CONSTRAINT_TOL`; from a feasible start the first feasible iterate no
costlier than it is accepted, settled or not. delta trades only closeness to
the optimum for iterations; larger values were not tried."""


@dataclass
class OcpConfig:
    """Weights and discretization of the per-agent FHOCP."""

    h: float
    T_p: float
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    eps_omega: float
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
        if not self.eps_omega > 0.0:
            raise ValueError(f"terminal level eps_omega must be positive, got {self.eps_omega}")
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

    `form` names the problem that :func:`minimize` solves over it:
    "terminal" (the terminal set enforced), "relaxed" (not enforced) or
    "restore" (the restoration's slack form, not enforced). `slack` is the
    worst constraint slack of a point: the smallest margin and, in the
    terminal form, eps_omega - V(e_N); +inf when there is neither.
    Negative means some constraint is violated. :meth:`jac` gives the
    rollout's input Jacobian d traj / d x, of shape (T + 1, n, nx).
    """

    def __init__(self, errordyn: ErrorDynamics, e0, margin_fn, config: OcpConfig, form: str):
        self.errordyn = errordyn
        self.e0 = np.asarray(e0, dtype=float)
        self.margin_fn = margin_fn
        self.cfg = config
        self.form = form
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
        result.terminal_slack = cfg.eps_omega - v_term if self.form == "terminal" else None
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


@functools.cache
def _gauss_newton_constants(n_stages, r_bytes, m):
    """kron(I_N, R) for the m x m weight R given by its bytes, as a read-only
    array: the constant term of :func:`_gauss_newton_hessian`, built once per
    (N, R)."""
    R = np.frombuffer(r_bytes).reshape(m, m)
    block_r = np.kron(np.eye(n_stages), R)
    block_r.flags.writeable = False
    return block_r


def _gauss_newton_hessian(tr: _Transcription, x, terminal_weight):
    """The Gauss-Newton Hessian of the cost at x, H = 2h sum_k J_k' Q J_k +
    2h blkdiag(R) + 2 w J_N' P J_N with J_k = d e_k / d x, from the rollout
    Jacobian of x's evaluation (positive definite, as R is; finite, as e0 and
    x are). w is `terminal_weight`: 1 for the cost, 1 + lam for the
    Lagrangian of the cost and the terminal row eps_omega - V(e_N) >= 0 with
    multiplier lam. Call it on one BLAS thread."""
    cfg = tr.cfg
    block_r = _gauss_newton_constants(tr.N, cfg.R.tobytes(), tr.m)
    J = tr.jac(x)[tr.stage_idx]
    return 2.0 * cfg.h * (_c_einsum("kix,kiy->xy", J[:-1], cfg.Q @ J[:-1])
                          + block_r) + 2.0 * terminal_weight * J[-1].T @ cfg.P @ J[-1]


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
"""The Gauss-Newton SQP converges at the first iterate that meets every row
within `CONSTRAINT_TOL` and whose QP step predicts a decrease of the cost
(the running cost with its terminal penalty) of at most this fraction of
it."""

# least weight of the elastic variable, relative to the mean diagonal of the
# Gauss-Newton Hessian
ELASTIC_WEIGHT = 1e4

# Armijo constant of the line search (Nocedal & Wright's 1e-4), the factor of
# each backtrack, and the smallest step length it tries
_ARMIJO, _BACKTRACK, _MIN_STEP = 1e-4, 0.5, 1e-3


def _suboptimal_stop(start):
    """The suboptimal stop of a terminal-enforced solve from the point
    `start` (a :class:`_Point`): a predicate of each new iterate's point, in
    order, true at the first one that is feasible within `CONSTRAINT_TOL` and

    - when the start is feasible within `CONSTRAINT_TOL` (a witness), costs
      at most J~, the start's cost;
    - otherwise, changed the cost by at most SUBOPTIMAL_STOP_DELTA relative
      to the previous iterate (the first one compares with the start)."""
    witness = -start["slack"] <= CONSTRAINT_TOL
    previous_cost = start["cost"]

    def stop(res):
        nonlocal previous_cost
        if witness:
            good_enough = res["cost"] <= start["cost"]
        else:
            good_enough = abs(res["cost"] - previous_cost) <= SUBOPTIMAL_STOP_DELTA * previous_cost
            previous_cost = res["cost"]
        # the slack, and so the point's margins, only when the cost passes
        return good_enough and -res["slack"] <= CONSTRAINT_TOL

    return stop


def _gauss_newton_sqp(tr: _Transcription, x0):
    """min cost(u) s.t. margins(u) >= 0, ||u_k|| <= u_bar and, in the
    terminal form, eps_omega - V(e_N) >= 0, by sequential quadratic
    programming from x0, inside the ball; the relaxed and terminal forms of
    :func:`minimize`, whose result it returns, with the transcription's
    rollouts as `nfev`. Call it on one BLAS thread.

    Each iteration solves one QP (:func:`_working_set_qp`): the Gauss-Newton
    Hessian H of the cost (:func:`_gauss_newton_hessian`), the cost gradient,
    the linearized margins, in the terminal form the linearized terminal
    row beside them, and, for each stage, one norm row: the ball's tangent
    n'(u_k + d_k) <= u_bar at the direction n of u_k. In the terminal form
    H weights its terminal term by 1 + lam, lam the terminal row's
    multiplier at the last QP: the Gauss-Newton Hessian of the Lagrangian.
    Without that curvature the steps overshoot the curved terminal set, and
    the double integrator of tests/test_ocp.py's KKT oracle ends
    unconverged. When the rows are inconsistent, or in the relaxed form the
    step that meets them costs the model more than weight * violation^2 / 2,
    it solves the elastic QP instead: every margin row and the terminal row
    lowered by t >= 0 at the cost weight * t^2 / 2. The weight is
    ELASTIC_WEIGHT times the mean diagonal of H, the largest so far in the
    solve. The terminal row is in units of V, where that penalty is cheap
    (eps_omega is 0.0035 in the bundled scenario): with the cost test, the
    elastic step raised the terminal violation, the merit had no descent,
    and 7 of the bundled 10 s run's 261 terminal first attempts ended
    infeasible. So the terminal form takes the elastic QP only when the
    rows are inconsistent, as SLSQP does.

    The merit is cost + mu * violation, the violation being the worst slack's
    shortfall (the margins' and, in the terminal form, the terminal row's)
    and mu at least twice the sum of those rows' multipliers. The step
    length backtracks from 1 by _BACKTRACK until the merit falls by _ARMIJO
    times its directional derivative; a trial whose cost alone misses that
    bound is rejected before its margins are formed. Each trial point is
    projected onto the ball, so every iterate meets it exactly.

    The solve converges at an iterate within `CONSTRAINT_TOL` of every row
    whose QP (not the elastic one) predicts a decrease of at most
    RELAXED_STOP_DELTA of the cost. In the terminal form an iterate that
    converges within the tolerance but outside the rows returns with that
    QP's correcting step taken, where the step lowers the violation: kept
    as it was, the plan would end outside Omega and its shifted witness
    would converge there again at every later solve (on the bundled
    `w_bar: 0.0` run one agent stayed 7.9e-5 above eps_omega and never
    entered Omega). In the terminal form it stops earlier, at the first
    new iterate where :func:`_suboptimal_stop` holds, before that
    iterate's derivatives are formed. It ends unconverged after
    `MAX_ITERATIONS`, or when the merit has no descent direction or no step
    length down to _MIN_STEP lowers it."""
    cfg, N, m, nx = tr.cfg, tr.N, tr.m, tr.nx
    terminal = tr.form == "terminal"
    x, mu, weight = x0, 0.0, 0.0
    res = tr.eval(x, gradients=True)
    stop = _suboptimal_stop(res) if terminal else None
    n_margins = res["margins"].size
    # the rows a violation lowers: the margins, then the terminal row
    n_lowered = n_margins + terminal
    rows = n_lowered + N
    # rows of the elastic QP over (d, t): those rows, one norm row per stage,
    # then t >= 0; the QP over d alone takes the first `rows` and nx columns
    G = np.zeros((rows + 1, nx + 1))
    G[:n_lowered, nx] = G[rows, nx] = 1.0
    b = np.zeros(rows + 1)
    norm_rows = np.arange(n_lowered, rows).repeat(m), np.arange(nx)
    working = np.ones(rows + 1, dtype=bool)
    working[:n_margins] = res["margins"] <= NEAR_ACTIVE
    T_e = np.zeros((nx + 1, nx + 1))
    terminal_weight = 1.0
    for iteration in range(1, MAX_ITERATIONS + 1):
        H = _gauss_newton_hessian(tr, x, terminal_weight)
        T = _inverse_factor(H)
        g = res["cost_grad"]
        U = x.reshape(N, m)
        norms = np.sqrt(np.add.reduce(U * U, axis=1))
        G[:n_margins, :nx] = res["margins_jac"]
        b[:n_margins] = -res["margins"]
        if terminal:
            G[n_margins, :nx] = -res["v_term_grad"]
            b[n_margins] = res["v_term"] - cfg.eps_omega
        G[norm_rows] = -(U / np.maximum(norms, 1e-300)[:, None]).ravel()
        b[n_lowered:rows] = np.minimum(norms - cfg.u_bar, 0.0)
        violation = max(0.0, -res["slack"])
        weight = max(weight, ELASTIC_WEIGHT * H.trace() / nx)
        lowered = 0.0
        solution = _working_set_qp(T, g, G[:rows, :nx], b[:rows], working[:rows])
        if solution is not None:
            d, lam = solution
            model = g @ d + 0.5 * d @ H @ d
        if solution is None or not terminal and model > 0.5 * weight * violation ** 2:
            T_e[:nx, :nx] = T
            T_e[nx, nx] = 1.0 / math.sqrt(weight)
            solution = _working_set_qp(T_e, np.append(g, 0.0), G, b, working)
            if solution is None:
                return NlpResult(x, iteration, tr.n_rollouts, "unconverged")
            d, lam = solution
            d, lowered = d[:nx], max(0.0, d[nx])
            model = g @ d + 0.5 * d @ H @ d
        working[:n_lowered] = lam[:n_lowered] > 0.0
        if terminal:
            terminal_weight = 1.0 + lam[n_margins]
        if lowered == 0.0 and violation <= CONSTRAINT_TOL and (
                -model <= RELAXED_STOP_DELTA * res["cost"]):
            if terminal and violation > 0.0:
                trial = _project_inputs((x + d).reshape(N, m), cfg.u_bar).ravel()
                if -tr.eval(trial)["slack"] < violation:
                    x = trial
            return NlpResult(x, iteration, tr.n_rollouts, "converged")
        mu = max(mu, 2.0 * float(np.add.reduce(lam[:n_lowered])))
        merit = res["cost"] + mu * violation
        derivative = g @ d - mu * (violation - lowered)
        if not derivative < 0.0:
            return NlpResult(x, iteration, tr.n_rollouts, "unconverged")
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
                return NlpResult(x, iteration, tr.n_rollouts, "unconverged")
        x = trial
        if stop is not None and stop(res):
            return NlpResult(x, iteration, tr.n_rollouts, "stopped")
        res = tr.eval(x, gradients=True)
        working[:n_margins] |= res["margins"] <= NEAR_ACTIVE
    return NlpResult(x, MAX_ITERATIONS, tr.n_rollouts, "unconverged")


@dataclass
class NlpResult:
    """What :func:`minimize` returns: the last iterate `x`; the iterations
    `nit`; the points evaluated `nfev`, the Gauss-Newton SQP's rollouts and
    SLSQP's points as scipy counts them; and `status`. "converged" means the
    solver's own test passed at `x`; "stopped" that :func:`_suboptimal_stop`
    ended a terminal-enforced solve at `x`; "unconverged" anything else (the
    iteration cap, no descent, an SLSQP exit mode other than 0)."""

    x: np.ndarray
    nit: int
    nfev: int
    status: str


def minimize(tr: _Transcription, x0):
    """Solve the NLP that `tr.form` poses, from x0. Call it on one BLAS
    thread.

    - "relaxed": min cost(u) over the margins and the input ball, by
      :func:`_gauss_newton_sqp`.
    - "terminal": the same with eps_omega - V(e_N) >= 0 as well, by
      :func:`_gauss_newton_sqp` with its suboptimal stop.
    - "restore": max s over x = (u, s) from x0, each margin lowered by s
      (Jacobian column -1) and the ball u_bar^2 - ||u_k||^2 >= 0 hard, by
      SLSQP to 1e-12.

    SLSQP (Kraft 1988) is scipy's compiled core, driven by reverse
    communication with one evaluation of `tr` per request of the core, which
    writes the rows, the margins and then the ball, in place. State, work
    arrays and nfev are those of scipy's `_minimize_slsqp` without bounds or
    equality rows, with `MAX_ITERATIONS` as `maxiter`, so the iterates are
    bitwise those of ``minimize(method="SLSQP")``."""
    if tr.form != "restore":
        return _gauss_newton_sqp(tr, x0)
    cfg, N, m, nx = tr.cfg, tr.N, tr.m, tr.nx
    z = x0.copy()
    n_margins = tr.eval(z[:nx])["margins"].size
    ball_rows = slice(n_margins, n_margins + N)
    ball_jac = np.zeros((N, nx))
    ball_index = np.arange(N).repeat(m), np.arange(nx)

    # the core's point z is written in place; each request evaluates it once
    def values():
        res = tr.eval(z[:nx])
        U = z[:nx].reshape(N, m)
        d[ball_rows] = cfg.u_bar ** 2 - np.add.reduce(U * U, axis=1)
        d[:n_margins] = res["margins"]
        d[:n_margins] -= z[-1]
        return -z[-1]

    def gradients():
        res = tr.eval(z[:nx], gradients=True)
        ball_jac[ball_index] = -2.0 * z[:nx]
        C[ball_rows, :nx] = ball_jac
        C[:n_margins, :nx] = res["margins_jac"]
        C[:n_margins, nx] = -1.0
        g[:nx], g[nx] = 0.0, -1.0

    n, rows, ftol = len(z), n_margins + N, 1e-12
    state = dict(acc=ftol, alpha=0.0, f0=0.0, gs=0.0, h1=0.0, h2=0.0, h3=0.0, h4=0.0, t=0.0,
                 t0=0.0, tol=10.0 * ftol, exact=0, inconsistent=0, reset=0, iter=0,
                 itermax=MAX_ITERATIONS, line=0, m=rows, meq=0, mode=0, n=n)
    buffer = np.zeros(n * (n + 1) // 2 + 3 * rows * n + 9 * rows + 8 * n * n + 35 * n + 28)
    mult, indices = np.zeros(rows + 2 * n + 2), np.zeros(rows + 2 * n + 2, dtype=np.int32)
    xl = np.full(n, np.nan)
    xu = xl.copy()
    g, C, d = np.zeros(n), np.zeros((rows, n), order="F"), np.zeros(rows)
    f = values()
    gradients()
    # scipy's ScalarFunction counts f at the start and at each new point
    nfev, f_at = 1, z.copy()
    while True:
        _slsqp_core(state, f, g, C, d, z, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if mode == 1:
            f = values()
            if not (z == f_at).all():
                nfev, f_at = nfev + 1, z.copy()
        elif mode == -1:
            gradients()
        if abs(mode) != 1:
            break
    status = "converged" if mode == 0 else "unconverged"
    return NlpResult(x=z, nit=int(state["iter"]), nfev=nfev, status=status)


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
        use_terminal: enforce V(e_N) <= eps_omega as a hard constraint
            (:func:`minimize`'s terminal form); otherwise its relaxed form.

    Returns:
        HorizonSolution; status is "infeasible" when the constraint residual
        (the negated worst slack) exceeds the tolerance after the iteration
        budget, "optimal" when the solver's own convergence test passed and
        "feasible-suboptimal" otherwise. The stat `suboptimal_stop` says
        whether the suboptimal-MPC stop ended the solve short of the
        solver's own test, and `start_feasible` whether the projected warm start met every
        constraint of this solve within `CONSTRAINT_TOL`.
    """
    t_start = time.perf_counter()
    e0 = np.asarray(e0, dtype=float)
    if not np.isfinite(e0).all():
        raise ValueError("initial error must be finite")
    tr = _Transcription(errordyn, e0, margin_fn, config,
                        "terminal" if use_terminal else "relaxed")
    N, m = tr.N, tr.m
    x0 = _project_inputs(np.asarray(warm_start, dtype=float), config.u_bar).ravel()
    # the first evaluation of every solve, so it costs no extra rollout
    start_feasible = -tr.eval(x0)["slack"] <= CONSTRAINT_TOL

    try:
        opt = minimize(tr, x0)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise RuntimeError(f"solver diverged: {exc}") from exc
    if not np.isfinite(opt.x).all():
        raise RuntimeError("solver produced non-finite iterate")

    U = _project_inputs(opt.x.reshape(N, m), config.u_bar)
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
    elif opt.status == "converged":
        status = "optimal"
    else:
        status = "feasible-suboptimal"

    return HorizonSolution(
        inputs=U.copy(),
        dense_errors=res["traj"],
        cost=res["cost"],
        status=status,
        solve_stats={
            "iterations": opt.nit,
            "wall_time": time.perf_counter() - t_start,
            "residual": float(residual),
            "rollouts": tr.n_rollouts,
            "terminal_enforced": bool(use_terminal),
            "suboptimal_stop": opt.status == "stopped",
            "start_feasible": bool(start_feasible),
        },
    )


@single_blas_thread()
def restore_feasibility(errordyn: ErrorDynamics, e0, margin_fn, config: OcpConfig, start):
    """Phase-1 pass: maximize the worst margin from an infeasible input
    sequence, on one BLAS thread, pinned once.

    Solves max_s { s : margins(u) >= s, ||u_k|| <= u_bar } over the
    augmented variable (u, s), :func:`minimize`'s restore form; the terminal
    set is not enforced. Used
    when every start of a relaxed solve ends infeasible. Returns the
    restored (N, m) input sequence, or `start` when the worst margin did not
    grow, and the SLSQP iteration count.
    """
    tr = _Transcription(errordyn, np.asarray(e0, dtype=float), margin_fn, config, "restore")
    u0 = _project_inputs(np.asarray(start, dtype=float), config.u_bar).ravel()
    x0 = np.append(u0, tr.eval(u0)["slack"])
    opt = minimize(tr, x0)
    candidate, iterations = opt.x[:-1], opt.nit
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
