"""The unicycle agent model, its error coordinates and fixed-step integration.

Scenarios load one model, the planar unicycle :data:`UNICYCLE`, and both
integrators step it only, by RK4 with all substeps formed at once:
:func:`integrate` applies an agent's held input to its true, disturbed
dynamics, and :func:`rollout_zoh` rolls out the nominal error dynamics under
zero-order-hold inputs, with a callable that forms their exact input
Jacobian on request.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "AgentModel",
    "ErrorDynamics",
    "DisturbanceSignal",
    "wrap_angle",
    "UNICYCLE",
    "integrate",
    "rollout_zoh",
]


def wrap_angle(a):
    """Wrap angles to (-pi, pi]. Works elementwise on arrays."""
    wrapped = np.mod(-np.asarray(a) + np.pi, 2.0 * np.pi)
    return -(wrapped - np.pi)


@dataclass(frozen=True)
class AgentModel:
    """Layout of one agent's state and input.

    Attributes:
        state_dim, input_dim: dimensions of state z and input u.
        position_slice: slice of the state holding the workspace position.
        angle_indices: state indices that live on the circle.
    """

    state_dim: int
    input_dim: int
    position_slice: slice
    angle_indices: tuple = ()


# the planar unicycle, (x, y, theta) under (v, omega)
UNICYCLE = AgentModel(state_dim=3, input_dim=2, position_slice=slice(0, 2), angle_indices=(2,))


# --- error dynamics -----------------------------------------------------

@dataclass(frozen=True)
class ErrorDynamics:
    """Error coordinates e = z - z_des about a fixed reference.

    The reference carries zero desired velocity; circular state components of
    the error are computed with the shortest signed difference.
    """

    model: AgentModel
    z_des: np.ndarray

    def __post_init__(self):
        z_des = np.asarray(self.z_des, dtype=float)
        if z_des.shape != (self.model.state_dim,):
            raise ValueError(f"reference shape {z_des.shape} does not match state dim")
        object.__setattr__(self, "z_des", z_des)

    def error_of(self, z):
        e = np.asarray(z, dtype=float) - self.z_des
        for k in self.model.angle_indices:
            e[..., k] = wrap_angle(e[..., k])
        return e


@dataclass
class DisturbanceSignal:
    """Bounded additive disturbance w(t), clipped to the stated bound.

    `generator(times)` gives the unclipped disturbance at each time of the
    1-D array `times`, one row per time, as an array or a nested sequence of
    floats. The disturbance reads the time only: the one generator a
    scenario loads (:meth:`dnmpc.cli.Scenario.build_disturbances`) is a
    sinusoid in t. `samples` counts the rows :meth:`sample_times` drew and
    `clipped` those whose norm exceeded the bound.
    """

    generator: Callable[[np.ndarray], np.ndarray]
    bound: float
    samples: int = field(default=0, init=False)
    clipped: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0.0 < self.bound < math.inf:
            raise ValueError(f"disturbance bound must be positive and finite, got {self.bound}")

    def sample_times(self, times):
        """The disturbance at each of `times`, in one generator call.

        Returns (w, norms): the generator's rows, each row whose norm
        sqrt(w . w) exceeds the bound scaled by bound / norm onto it, and
        the norms of the returned rows. Every other row is scaled by
        bound / bound, which is exactly 1. Each row and norm is the float
        that clipping the row alone gives: `np.vecdot` of a row is its
        `dot` with itself.
        """
        w = np.asarray(self.generator(times), dtype=float)
        norms = np.sqrt(np.vecdot(w, w))
        clipped = int(np.count_nonzero(norms > self.bound))
        self.samples += len(norms)
        if clipped:
            self.clipped += clipped
            w = w * (self.bound / np.maximum(norms, self.bound))[:, None]
            norms = np.sqrt(np.vecdot(w, w))
        return w, norms


# --- integration --------------------------------------------------------

def integrate(z0, u, disturbance, t0, t1, step):
    """Fixed-step RK4 integration of the unicycle, dz/dt = f(z, u) [+ w(t)]
    under the held input `u`, by :func:`_unicycle_integrate`.

    With `disturbance=None` the nominal system is integrated. Returns
    (times, states, w_norms): the times and states including both endpoints,
    the heading wrapped after each full step, and the norm of the
    disturbance sample at each of times[1:], zero for the nominal system.
    Those samples are the first RK4 sample of every substep but the first,
    then one more drawn at times[-1].

    Raises:
        ValueError: if t1 < t0 or if step does not divide the interval.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    span = t1 - t0
    n_steps = int(round(span / step))
    if abs(n_steps * step - span) > 1e-9:
        raise ValueError(f"step {step} does not divide interval {span}")
    times = t0 + step * np.arange(n_steps + 1)
    return times, *_unicycle_integrate(z0, u, disturbance, times, step)


@functools.cache
def _stage_offsets(dt):
    """Read-only column (0, dt/2, dt/2, dt): where an RK4 substep's four
    stages sample the disturbance, after the substep's start."""
    offsets = np.array([[0.0], [0.5 * dt], [0.5 * dt], [dt]])
    offsets.flags.writeable = False
    return offsets


def _unicycle_integrate(z0, u, disturbance, times, dt):
    """(states, w_norms) of :func:`integrate` over the grid `times`, all
    substeps at once.

    The field depends on the state through the heading only, and the
    disturbance on the time only, so every stage's disturbance is known before
    the first step: one :meth:`DisturbanceSignal.sample_times` call draws the
    n samples of each RK4 stage (at t, t + dt/2 twice and t + dt for each
    substep's start t), then the step's last time. The heading chain, omega
    plus the sample's heading component at each stage and a wrap after each
    substep as :func:`wrap_angle` wraps it, runs on Python floats; then one
    cos and one sin give v (cos, sin) at all stage headings, and a cumulative
    sum chains the position increments. Every element takes the float
    operations of one generic RK4 step over the unicycle field, in the same
    order, with numpy's cos and sin, and ``cumsum`` adds sequentially; without
    a disturbance no zero is added. The states are therefore bit-identical to
    the generic RK4 substep loop over the field that wraps the heading after
    each step, with the same disturbance `samples` and `clipped` counts;
    tests/test_dynamics.py keeps that loop as the oracle.
    """
    v, omega = np.asarray(u, dtype=float).tolist()
    x, y, heading = np.asarray(z0, dtype=float).tolist()
    n = len(times) - 1
    half, sixth = 0.5 * dt, dt / 6.0
    if disturbance is None:
        # every stage turns at omega: one increment, one set of turns
        increments = [sixth * (((omega + 2.0 * omega) + 2.0 * omega) + omega)] * n
        turns = np.array([[half * omega], [half * omega], [dt * omega]])
        w_norms = np.zeros(n)
    else:
        # stage-major sample times (t + 0.0 is t: the grid t0 + step * arange
        # holds no -0.0), then times[-1]
        offsets = _stage_offsets(dt)
        stage_times = np.empty(4 * n + 1)
        np.add(offsets, times[:-1], out=stage_times[:-1].reshape(4, n))
        stage_times[-1] = times[-1]
        w, norms = disturbance.sample_times(stage_times)
        # times[1:]: the first stage of substeps 1..n-1, then the last
        w_norms = np.concatenate([norms[1:n], norms[-1:]])
        w = w[:4 * n].reshape(4, n, 3)
        spin = omega + w[..., 2]
        increments = (sixth * _rk4_sum(spin)).tolist()
        turns = spin[:3] * offsets[1:]
    # the heading after each substep, wrapped as wrap_angle wraps it: Python's
    # % is the floor modulo that np.mod computes
    tau = 2.0 * math.pi
    heading = -((-heading + math.pi) % tau - math.pi)
    headings = [heading]
    for increment in increments:
        heading = -((-(heading + increment) + math.pi) % tau - math.pi)
        headings.append(heading)
    out = np.empty((n + 1, 3))
    out[:, 2] = headings
    # the headings each stage of each substep sees, stage-major
    theta = np.empty((4, n))
    theta[0] = out[:-1, 2]
    np.add(out[:-1, 2], turns, out=theta[1:])
    trig = np.empty((4, n, 2))
    np.cos(theta, out=trig[..., 0])
    np.sin(theta, out=trig[..., 1])
    rates = v * trig
    if disturbance is not None:
        rates += w[..., :2]
    out[0, :2] = x, y
    np.multiply(sixth, _rk4_sum(rates), out=out[1:, :2])
    out[:, :2].cumsum(axis=0, out=out[:, :2])
    return out, w_norms


def _rk4_sum(k):
    """((k1 + 2 k2) + 2 k3) + k4 of the stages k1..k4 on the leading axis,
    the sum a generic RK4 step forms."""
    two = 2.0 * k[1:3]
    return ((k[0] + two[0]) + two[1]) + k[3]


# Rows: cos, then sin, of (heading, heading + dt/2 * omega, heading + dt *
# omega). Columns: the weighted sums in dx/dv, dy/dv, dx/domega and dy/domega
# of a substep's own stage, before their scale.
_OWN_STAGE_WEIGHTS = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [4.0, 0.0, 0.0, 2.0],
    [1.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 4.0, -2.0, 0.0],
    [0.0, 1.0, -1.0, 0.0],
])


@functools.cache
def _stage_layout(n_stage, substeps, dt):
    """Where each substep j lies relative to each stage k, as read-only
    arrays: `own` (T, 1, N, 1) is 1 where j belongs to stage k, else 0;
    `spent` (T, 1, N) counts the substeps of stage k before j (0 before the
    stage, `substeps` after it); `heading` (T, N, 2) is the heading's input
    Jacobian after each substep, d heading / d (v_k, omega_k): zero, and the
    cumulative sum of dt * own over the substeps, which no input changes."""
    offset = np.arange(n_stage * substeps)[:, None] - substeps * np.arange(n_stage)
    own = ((offset >= 0) & (offset < substeps)).astype(float)[:, None, :, None]
    spent = np.clip(offset, 0, substeps).astype(float)[:, None, :]
    heading = np.zeros(offset.shape + (2,))
    heading[..., 1] = (dt * own[:, 0, :, 0]).cumsum(axis=0)
    own.flags.writeable = spent.flags.writeable = heading.flags.writeable = False
    return own, spent, heading


def rollout_zoh(errordyn, e0, u_seq, stage_time, substeps):
    """Nominal rollout of the unicycle's error dynamics about
    `errordyn.z_des` from the error e0 (3,) under the zero-order-hold inputs
    u_seq (N, 2), each held for `stage_time` in `substeps` RK4 substeps.

    Returns (states, jacobian): the errors at all substep boundaries, shape
    (N * substeps + 1, 3), and a callable that forms J = d states /
    d u_seq.ravel(), shape (N * substeps + 1, 3, 2 N), from the rollout's
    own headings, trig values and increments. Each call forms J anew; the
    solvers ask for it at some rollouts only (a rejected line-search trial
    needs none), and forming it costs about as much as the rollout itself.

    The unicycle field depends on the state only through the heading, whose
    rate is the held input omega. Each RK4 substep therefore needs only the
    heading at its start: k1 sees it as is, k2 and k3 both see it advanced by
    dt/2 * omega, k4 by dt * omega. The headings of all substeps are one
    cumulative sum; the position increments follow from them, and a second
    cumulative sum chains the substeps. Every element goes through the same
    float operations, in the same order, as in the generic loop, and
    ``np.cumsum`` adds sequentially, so the trajectory is bit-identical.
    The terms that depend on a stage's input alone (v, the heading's RK4
    increment and the two turns) are formed once per stage and held over its
    substeps, and one product gives v (cos, sin) at the three headings;
    tests/test_dynamics.py checks the result bit for bit against the
    substep-by-substep form and against the generic loop.

    J differentiates the same closed form exactly. Substep j of stage k(j)
    moves the position by
    (dx, dy) = dt/6 * v * sum_r c_r (cos, sin)(heading_j + a_r * dt * omega)
    with (c_r) = (1, 4, 1) and (a_r) = (0, 1/2, 1), and the heading by
    dt * omega. Its increment depends on v and omega of stage k(j) directly,
    and on every earlier omega through heading_j, which has moved by dt times
    the substeps already spent in that stage; d(dx, dy)/d heading_j is
    (-dy, dx). J is one cumulative sum of these per-substep contributions.
    """
    dt = stage_time / substeps
    sixth = dt / 6.0
    omega = u_seq[:, 1]
    # per stage: v, the heading increment and the half- and full-step turns
    held = np.empty((4,) + omega.shape)
    held[0] = u_seq[:, 0]
    held[1] = sixth * (((omega + 2.0 * omega) + 2.0 * omega) + omega)
    held[2] = (0.5 * dt) * omega
    held[3] = dt * omega
    held = held.repeat(substeps, axis=-1)
    v = held[0]
    n_sub = v.shape[-1]
    steps = np.empty((n_sub + 1, 3))
    steps[0] = e0
    steps[1:, 2] = held[1]
    heading = steps[:, 2].cumsum()[:-1]
    # the headings k1, k2 (= k3's) and k4 see
    theta = np.empty((3,) + heading.shape)
    theta[0] = heading
    np.add(heading, held[2:], out=theta[1:])
    theta += errordyn.z_des[2]
    trig = np.empty((2,) + theta.shape)
    np.cos(theta, out=trig[0])
    np.sin(theta, out=trig[1])
    # v (cos, sin) at the three headings, and the RK4 sums of both components
    vtrig = v * trig
    two_mid = 2.0 * vtrig[:, 1]
    increments = sixth * (((vtrig[:, 0] + two_mid) + two_mid) + vtrig[:, 2])
    steps[1:, 0] = increments[0]
    steps[1:, 1] = increments[1]
    traj = steps.cumsum(axis=0)

    def jacobian():
        own, spent, heading_jac = _stage_layout(u_seq.shape[0], substeps, dt)
        # per substep, d increment / d (v, omega) of its own stage:
        # [[dx/dv, dx/domega], [dy/dv, dy/domega]]
        terms = trig.reshape(6, n_sub).T @ _OWN_STAGE_WEIGHTS
        own_terms = np.empty((n_sub, 2, 2))
        np.multiply(terms[:, :2], sixth, out=own_terms[:, :, 0])
        np.multiply(terms[:, 2:], (dt * dt / 6.0) * v[:, None], out=own_terms[:, :, 1])
        # (T, 2, N, 2): the own-stage terms, and for omega of every stage the
        # turn (-dy, dx) of the increment times the heading change dt * spent
        blocks = own_terms[:, :, None, :] * own
        turn = steps[1:, 1::-1] * np.array([-dt, dt])
        blocks[..., 1] += turn[:, :, None] * spent
        jac = np.empty((n_sub + 1, 3, own.shape[2], 2))
        jac[0] = 0.0
        np.cumsum(blocks, axis=0, out=jac[1:, :2])
        jac[1:, 2] = heading_jac
        return jac.reshape(n_sub + 1, 3, -1)

    return traj, jacobian
