"""Agent motion models, error-coordinate dynamics and fixed-step integration.

An :class:`AgentModel` is its dynamics: a vector field vectorized over a
leading batch dimension, and where the position and angles sit in the state.
Scenarios load one model, the planar unicycle :data:`UNICYCLE`, and
:func:`integrate`, which applies an agent's held input to its true, disturbed
dynamics, steps that model only. A ZOH rollout can return its Jacobian with respect to the
inputs: in closed form for the unicycle, and for any other field by central
differences over one batched integration.
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
    "unicycle_field",
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
    """Dynamics descriptor for one agent.

    Attributes:
        state_dim, input_dim: dimensions of state z and input u.
        vector_field: f(z, u) -> dz/dt, vectorized over leading batch dims.
        position_slice: slice of the state holding the workspace position.
        angle_indices: state indices that live on the circle.
    """

    state_dim: int
    input_dim: int
    vector_field: Callable[[np.ndarray, np.ndarray], np.ndarray]
    position_slice: slice
    angle_indices: tuple = ()


# --- unicycle -----------------------------------------------------------

def unicycle_field(state, control):
    """Planar unicycle: (dx, dy, dtheta) = (v cos(theta), v sin(theta), omega)."""
    state = np.asarray(state, dtype=float)
    control = np.asarray(control, dtype=float)
    theta = state[..., 2]
    v = control[..., 0]
    omega = control[..., 1]
    return np.stack([v * np.cos(theta), v * np.sin(theta), omega], axis=-1)


UNICYCLE = AgentModel(state_dim=3, input_dim=2, vector_field=unicycle_field,
                      position_slice=slice(0, 2), angle_indices=(2,))


# --- error dynamics -----------------------------------------------------

@dataclass(frozen=True)
class ErrorDynamics:
    """Error-coordinate dynamics g(e, u) = f(e + z_des, u) for a fixed reference.

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

    def field(self, e, u):
        return self.model.vector_field(np.asarray(e) + self.z_des, u)

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

def _rk4_step(deriv, t, z, dt, k1=None):
    if k1 is None:
        k1 = deriv(t, z)
    k2 = deriv(t + 0.5 * dt, z + 0.5 * dt * k1)
    k3 = deriv(t + 0.5 * dt, z + 0.5 * dt * k2)
    k4 = deriv(t + dt, z + dt * k3)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(model, z0, u, disturbance, t0, t1, step, w_norms=None):
    """Fixed-step RK4 integration of the unicycle, dz/dt = f(z, u) [+ w(t)]
    under the held input `u`, by :func:`_unicycle_integrate`.

    With `disturbance=None` the nominal system is integrated. Returns
    (times, states) including both endpoints; the heading is wrapped after
    each full step. With a disturbance and a list `w_norms`, the disturbance
    is also sampled at times[-1], and the norm of the sample at each of
    times[1:] is appended to it: the first RK4 sample of every substep but
    the first, then that last one.

    Raises:
        ValueError: if `model` is not the unicycle, if t1 < t0 or if step
            does not divide the interval.
    """
    if model.vector_field is not unicycle_field or model.angle_indices != (2,):
        raise ValueError("integrate steps the unicycle only; scenarios load no other model")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    span = t1 - t0
    n_steps = int(round(span / step))
    if abs(n_steps * step - span) > 1e-9:
        raise ValueError(f"step {step} does not divide interval {span}")
    times = t0 + step * np.arange(n_steps + 1)
    return times, _unicycle_integrate(z0, u, disturbance, times, step, w_norms)


@functools.cache
def _stage_offsets(dt):
    """Read-only column (0, dt/2, dt/2, dt): where an RK4 substep's four
    stages sample the disturbance, after the substep's start."""
    offsets = np.array([[0.0], [0.5 * dt], [0.5 * dt], [dt]])
    offsets.flags.writeable = False
    return offsets


def _unicycle_integrate(z0, u, disturbance, times, dt, w_norms=None):
    """:func:`integrate` of the unicycle over the grid `times`, all substeps
    at once.

    The field depends on the state through the heading only, and the
    disturbance on the time only, so every stage's disturbance is known
    before the first step: one :meth:`DisturbanceSignal.sample_times` call
    draws the n samples of each RK4 stage (at t, t + dt/2 twice and t + dt
    for each substep's start t), then the step's last time when `w_norms`
    asks for it. The heading chain, omega plus the sample's heading
    component at each stage and a wrap after each substep as
    :func:`wrap_angle` wraps it, runs on Python floats; then one cos and one
    sin give v (cos, sin) at all stage headings, and a cumulative sum chains
    the position increments. Every element takes the float operations of
    :func:`_rk4_step` over :func:`unicycle_field`, in the same order, with
    numpy's cos and sin, and ``cumsum`` adds sequentially; without a
    disturbance no zero is added. The states are therefore bit-identical to
    a generic :func:`_rk4_step` loop over the field that wraps the heading
    after each step, with the same disturbance `samples` and `clipped`
    counts; tests/test_dynamics.py keeps that loop as the oracle.
    """
    v, omega = np.asarray(u, dtype=float).tolist()
    x, y, heading = np.asarray(z0, dtype=float).tolist()
    n = len(times) - 1
    half, sixth = 0.5 * dt, dt / 6.0
    if disturbance is None:
        # every stage turns at omega: one increment, one set of turns
        increments = [sixth * (((omega + 2.0 * omega) + 2.0 * omega) + omega)] * n
        turns = np.array([[half * omega], [half * omega], [dt * omega]])
    else:
        # stage-major sample times (t + 0.0 is t: the grid t0 + step * arange
        # holds no -0.0), then times[-1]
        offsets = _stage_offsets(dt)
        stage_times = np.empty(4 * n + 1)
        np.add(offsets, times[:-1], out=stage_times[:-1].reshape(4, n))
        stage_times[-1] = times[-1]
        w, norms = disturbance.sample_times(
            stage_times if w_norms is not None else stage_times[:-1])
        if w_norms is not None:
            # times[1:]: the first stage of substeps 1..n-1, then the last
            w_norms.extend(norms[1:n].tolist())
            w_norms.append(norms[-1].item())
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
    return out


def _rk4_sum(k):
    """((k1 + 2 k2) + 2 k3) + k4 of the stages k1..k4 on the leading axis,
    the sum :func:`_rk4_step` forms."""
    two = 2.0 * k[1:3]
    return ((k[0] + two[0]) + two[1]) + k[3]


def rollout_zoh(field, e0, u_seq, stage_time, substeps, jacobian_eps=None):
    """Batched nominal rollout under zero-order-hold inputs.

    Args:
        field: batched vector field g(e, u).
        e0: initial states, shape (..., n).
        u_seq: stage inputs, shape (..., N, m).
        stage_time: duration of each stage.
        substeps: RK4 substeps per stage.
        jacobian_eps: if given, also return the sensitivity of the trajectory
            to the inputs. Needs an unbatched rollout: e0 (n,), u_seq (N, m).

    Returns:
        states at all substep boundaries, shape (..., N * substeps + 1, n);
        with `jacobian_eps`, the pair (states, J) where
        J = d states / d u_seq.ravel() has shape (N * substeps + 1, n, N * m).

    The unicycle field, in absolute or error coordinates, takes a fast path
    (:func:`_unicycle_rollout_zoh`) whose trajectory is bit-identical to the
    generic substep loop and whose J is exact. For any other field J is a
    central difference with step `jacobian_eps`, taken over one batched run
    of the generic loop.
    """
    e0 = np.asarray(e0, dtype=float)
    u_seq = np.asarray(u_seq, dtype=float)
    want_jacobian = jacobian_eps is not None
    if want_jacobian and (e0.ndim != 1 or u_seq.ndim != 2):
        raise ValueError("the input Jacobian needs e0 of shape (n,) and u_seq of shape (N, m)")
    is_unicycle, heading_offset = _unicycle_heading_offset(field)
    if is_unicycle:
        return _unicycle_rollout_zoh(e0, u_seq, stage_time, substeps, heading_offset,
                                     want_jacobian)
    if not want_jacobian:
        return _rk4_rollout_zoh(field, e0, u_seq, stage_time, substeps)
    # rows: the nominal sequence, then +eps and -eps on each input component
    nx = u_seq.size
    steps = jacobian_eps * np.eye(nx).reshape(nx, *u_seq.shape)
    batch = np.concatenate([u_seq[None], u_seq + steps, u_seq - steps])
    out = _rk4_rollout_zoh(field, np.broadcast_to(e0, (2 * nx + 1,) + e0.shape), batch,
                           stage_time, substeps)
    jac = (out[1:1 + nx] - out[1 + nx:]) / (2.0 * jacobian_eps)
    return out[0], np.moveaxis(jac, 0, -1)


def _rk4_rollout_zoh(field, e0, u_seq, stage_time, substeps):
    """:func:`rollout_zoh` by the generic RK4 substep loop, for any field."""
    n_stage = u_seq.shape[-2]
    dt = stage_time / substeps
    out = np.empty(e0.shape[:-1] + (n_stage * substeps + 1, e0.shape[-1]))
    e = e0
    out[..., 0, :] = e
    idx = 1
    for k in range(n_stage):
        def held(t, e, u=u_seq[..., k, :]):
            return field(e, u)

        for _ in range(substeps):
            e = _rk4_step(held, 0.0, e, dt)
            out[..., idx, :] = e
            idx += 1
    return out


def _unicycle_heading_offset(field):
    """(True, offset) if `field` is the unicycle field, else (False, None).

    The offset is the reference heading when `field` is the error-coordinate
    field of an :class:`ErrorDynamics` over the unicycle, None when `field` is
    :func:`unicycle_field` itself.
    """
    if field is unicycle_field:
        return True, None
    owner = getattr(field, "__self__", None)
    if (isinstance(owner, ErrorDynamics)
            and getattr(field, "__func__", None) is ErrorDynamics.field
            and owner.model.vector_field is unicycle_field):
        return True, owner.z_des[2]
    return False, None


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


def _unicycle_rollout_zoh(e0, u_seq, stage_time, substeps, heading_offset,
                          want_jacobian=False):
    """:func:`rollout_zoh` of the unicycle with all substeps formed at once.

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
    substep-by-substep form.

    The input Jacobian (unbatched only) differentiates the same closed form.
    Substep j of stage k(j) moves the position by
    (dx, dy) = dt/6 * v * sum_r c_r (cos, sin)(heading_j + a_r * dt * omega)
    with (c_r) = (1, 4, 1) and (a_r) = (0, 1/2, 1), and the heading by
    dt * omega. Its increment depends on v and omega of stage k(j) directly,
    and on every earlier omega through heading_j, which has moved by dt times
    the substeps already spent in that stage; d(dx, dy)/d heading_j is
    (-dy, dx). J is one cumulative sum of these per-substep contributions.
    """
    dt = stage_time / substeps
    sixth = dt / 6.0
    omega = u_seq[..., 1]
    # per stage: v, the heading increment and the half- and full-step turns
    held = np.empty((4,) + omega.shape)
    held[0] = u_seq[..., 0]
    held[1] = sixth * (((omega + 2.0 * omega) + 2.0 * omega) + omega)
    held[2] = (0.5 * dt) * omega
    held[3] = dt * omega
    held = held.repeat(substeps, axis=-1)
    v = held[0]
    n_sub = v.shape[-1]
    batch = () if want_jacobian else np.broadcast_shapes(e0.shape[:-1], u_seq.shape[:-2])
    steps = np.empty(batch + (n_sub + 1, 3))
    steps[..., 0, :] = e0
    steps[..., 1:, 2] = held[1]
    heading = steps[..., 2].cumsum(axis=-1)[..., :-1]
    # the headings k1, k2 (= k3's) and k4 see
    theta = np.empty((3,) + heading.shape)
    theta[0] = heading
    np.add(heading, held[2:], out=theta[1:])
    if heading_offset is not None:
        theta += heading_offset
    trig = np.empty((2,) + theta.shape)
    np.cos(theta, out=trig[0])
    np.sin(theta, out=trig[1])
    # v (cos, sin) at the three headings, and the RK4 sums of both components
    vtrig = v * trig
    two_mid = 2.0 * vtrig[:, 1]
    increments = sixth * (((vtrig[:, 0] + two_mid) + two_mid) + vtrig[:, 2])
    steps[..., 1:, 0] = increments[0]
    steps[..., 1:, 1] = increments[1]
    traj = steps.cumsum(axis=-2)
    if not want_jacobian:
        return traj
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
    return traj, jac.reshape(n_sub + 1, 3, -1)
