"""Agent motion models, error-coordinate dynamics and fixed-step integration.

An :class:`AgentModel` is its dynamics: a vector field vectorized over a
leading batch dimension, and where the position and angles sit in the state.
Scenarios load the planar unicycle, :data:`UNICYCLE`. :func:`integrate`
integrates one agent under a held input. A ZOH rollout can return its
Jacobian with respect to the inputs: in closed form for the unicycle, and for
any other field by central differences over one batched integration.
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
    "estimate_lipschitz",
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
    position_slice: slice = field(default_factory=lambda: slice(0, 2))
    angle_indices: tuple = ()

    def wrap_state(self, z):
        """Wrap the circular components of a state (out of place)."""
        if not self.angle_indices:
            return z
        z = np.array(z, dtype=float, copy=True)
        z[..., list(self.angle_indices)] = wrap_angle(z[..., list(self.angle_indices)])
        return z


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
        if self.model.angle_indices:
            idx = list(self.model.angle_indices)
            e[..., idx] = wrap_angle(e[..., idx])
        return e

    def state_of(self, e):
        return self.model.wrap_state(np.asarray(e, dtype=float) + self.z_des)


@dataclass
class DisturbanceSignal:
    """Bounded additive disturbance. Output is clipped to the stated bound.

    `samples` counts the calls of :meth:`sample` and `clipped` those whose
    generator output exceeded the bound.
    """

    generator: Callable[[np.ndarray, float], np.ndarray]
    bound: float
    samples: int = field(default=0, init=False)
    clipped: int = field(default=0, init=False)

    def sample(self, z, t):
        self.samples += 1
        w = np.asarray(self.generator(z, t), dtype=float)
        norm = np.linalg.norm(w)
        if norm > self.bound:
            self.clipped += 1
            if norm > 0.0:
                w = w * (self.bound / norm)
        return w


# --- integration --------------------------------------------------------

def _rk4_step(deriv, t, z, dt, k1=None):
    if k1 is None:
        k1 = deriv(t, z)
    k2 = deriv(t + 0.5 * dt, z + 0.5 * dt * k1)
    k3 = deriv(t + 0.5 * dt, z + 0.5 * dt * k2)
    k4 = deriv(t + dt, z + dt * k3)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(model, z0, u, disturbance, t0, t1, step, w_norms=None):
    """Fixed-step RK4 integration of dz/dt = f(z, u) [+ w(z, t)] under the
    held input `u`.

    With `disturbance=None` the nominal system is integrated. Returns
    (times, states) including both endpoints; circular state components are
    wrapped after each full step. The unicycle takes a path on Python floats
    (:func:`_unicycle_integrate`) whose states are bit-identical to the
    generic substep loop's. With a disturbance and a list `w_norms`, the
    norm of each substep's first RK4 sample, w(states[k], times[k]) for
    every k but the last, is appended to it.

    Raises:
        ValueError: if t1 < t0 or step does not divide the interval.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    span = t1 - t0
    n_steps = int(round(span / step))
    if abs(n_steps * step - span) > 1e-9:
        raise ValueError(f"step {step} does not divide interval {span}")

    times = t0 + step * np.arange(n_steps + 1)
    if model.vector_field is unicycle_field and model.angle_indices == (2,):
        return times, _unicycle_integrate(z0, u, disturbance, times.tolist(), step, w_norms)

    def deriv(t, z, norms=None):
        dz = model.vector_field(z, u)
        if disturbance is not None:
            w = disturbance.sample(z, t)
            if norms is not None:
                norms.append(float(np.linalg.norm(w)))
            dz = dz + w
        return dz

    z = model.wrap_state(np.asarray(z0, dtype=float))
    states = np.empty((n_steps + 1, model.state_dim))
    states[0] = z
    for k in range(n_steps):
        k1 = deriv(times[k], z, w_norms)
        z = model.wrap_state(_rk4_step(deriv, times[k], z, step, k1))
        states[k + 1] = z
    return times, states


def _wrap_heading(heading):
    """:func:`wrap_angle` of one float: Python's % is the floor modulo that
    np.mod computes, so the result is the same float."""
    return -((-heading + math.pi) % (2.0 * math.pi) - math.pi)


def _unicycle_integrate(z0, u, disturbance, times, dt, w_norms=None):
    """:func:`integrate` of the unicycle on Python floats, one RK4 substep at
    a time.

    Each substep takes the float operations of :func:`_rk4_step` over
    :func:`unicycle_field`, in the same order, with numpy's cos and sin and
    the same disturbance samples (state as an array, time); the heading is
    wrapped after each substep as ``wrap_state`` does. The states are
    therefore bit-identical to the generic loop's, and the disturbance's
    `samples` and `clipped` counts, and any `w_norms`, are the same.
    """
    v, omega = np.asarray(u, dtype=float).tolist()
    x, y, heading = np.asarray(z0, dtype=float).tolist()
    heading = _wrap_heading(heading)
    half, sixth = 0.5 * dt, dt / 6.0

    def deriv(t, x, y, heading, norms=None):
        dx, dy, dh = v * float(np.cos(heading)), v * float(np.sin(heading)), omega
        if disturbance is None:
            return dx, dy, dh
        w = disturbance.sample(np.array([x, y, heading]), t)
        if norms is not None:
            norms.append(float(np.linalg.norm(w)))
        wx, wy, wh = w.tolist()
        return dx + wx, dy + wy, dh + wh

    out = [(x, y, heading)]
    for t in times[:-1]:
        dx1, dy1, dh1 = deriv(t, x, y, heading, w_norms)
        dx2, dy2, dh2 = deriv(t + half, x + half * dx1, y + half * dy1, heading + half * dh1)
        dx3, dy3, dh3 = deriv(t + half, x + half * dx2, y + half * dy2, heading + half * dh2)
        dx4, dy4, dh4 = deriv(t + dt, x + dt * dx3, y + dt * dy3, heading + dt * dh3)
        x = x + sixth * (((dx1 + 2.0 * dx2) + 2.0 * dx3) + dx4)
        y = y + sixth * (((dy1 + 2.0 * dy2) + 2.0 * dy3) + dy4)
        heading = _wrap_heading(heading + sixth * (((dh1 + 2.0 * dh2) + 2.0 * dh3) + dh4))
        out.append((x, y, heading))
    return np.array(out)


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
# of a substep's own stage, before their scale, and a zero column that
# _unicycle_rollout_zoh fills with dheading/domega.
_OWN_STAGE_WEIGHTS = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [4.0, 0.0, 0.0, 2.0, 0.0],
    [1.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 4.0, -2.0, 0.0, 0.0],
    [0.0, 1.0, -1.0, 0.0, 0.0],
])


@functools.cache
def _stage_layout(n_stage, substeps):
    """Where each substep j lies relative to each stage k, as read-only
    arrays: `own` (T, 1, N) is 1 where j belongs to stage k, else 0;
    `spent` (T, N) counts the substeps of stage k before j (0 before the
    stage, `substeps` after it)."""
    offset = np.arange(n_stage * substeps)[:, None] - substeps * np.arange(n_stage)
    own = ((offset >= 0) & (offset < substeps)).astype(float)[:, None, :]
    spent = np.clip(offset, 0, substeps).astype(float)
    own.flags.writeable = spent.flags.writeable = False
    return own, spent


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
    v = np.repeat(u_seq[..., 0], substeps, axis=-1)
    omega = np.repeat(u_seq[..., 1], substeps, axis=-1)
    batch = np.broadcast_shapes(e0.shape[:-1], u_seq.shape[:-2])
    steps = np.empty(batch + (v.shape[-1] + 1, 3))
    steps[..., 0, :] = e0
    steps[..., 1:, 2] = (dt / 6.0) * (((omega + 2.0 * omega) + 2.0 * omega) + omega)
    heading = np.cumsum(steps[..., 2], axis=-1)[..., :-1]
    theta = np.stack([heading, heading + (0.5 * dt) * omega, heading + dt * omega])
    if heading_offset is not None:
        theta = theta + heading_offset
    cos, sin = np.cos(theta), np.sin(theta)
    vx = v * cos
    vy = v * sin
    steps[..., 1:, 0] = (dt / 6.0) * (((vx[0] + 2.0 * vx[1]) + 2.0 * vx[1]) + vx[2])
    steps[..., 1:, 1] = (dt / 6.0) * (((vy[0] + 2.0 * vy[1]) + 2.0 * vy[1]) + vy[2])
    traj = np.cumsum(steps, axis=-2)
    if not want_jacobian:
        return traj
    n_sub = v.shape[0]
    own, spent = _stage_layout(u_seq.shape[0], substeps)
    # per substep, d increment / d (v, omega) of its own stage:
    # (dx/dv, dy/dv, dx/domega, dy/domega, dheading/domega)
    terms = np.concatenate([cos, sin]).T @ _OWN_STAGE_WEIGHTS
    terms[:, :2] *= dt / 6.0
    terms[:, 2:4] *= (dt * dt / 6.0) * v[:, None]
    terms[:, 4] = dt
    # (T, 5, N): the own-stage terms, and for omega of every stage the turn
    # (-dy, dx) of the increment times the heading change dt * spent
    blocks = terms[:, :, None] * own
    turn = steps[1:, 1::-1] * np.array([-dt, dt])
    blocks[:, 2:4] += turn[:, :, None] * spent[:, None, :]
    jac = np.zeros((n_sub + 1, 3, own.shape[2], 2))
    cum = np.cumsum(blocks, axis=0)
    jac[1:, :2, :, 0] = cum[:, :2]
    jac[1:, :, :, 1] = cum[:, 2:]
    return traj, jac.reshape(n_sub + 1, 3, -1)


# inflation of the largest sampled difference quotient in estimate_lipschitz
LIPSCHITZ_SAFETY_FACTOR = 1.1


def estimate_lipschitz(model, input_bound, state_low, state_high, sample_count=10_000,
                       rng_seed=0):
    """Empirical Lipschitz constant of the vector field over a state box.

    Samples state pairs and inputs of norm at most `input_bound` and returns
    the largest observed difference quotient, inflated by
    LIPSCHITZ_SAFETY_FACTOR. Deterministic per seed.
    """
    low = np.asarray(state_low, dtype=float)
    high = np.asarray(state_high, dtype=float)
    if low.shape != (model.state_dim,) or high.shape != (model.state_dim,):
        raise ValueError("region bounds must match the state dimension")
    if np.any(high <= low):
        raise ValueError("degenerate sampling region")
    if sample_count < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(rng_seed)
    z_a = rng.uniform(low, high, size=(sample_count, model.state_dim))
    z_b = rng.uniform(low, high, size=(sample_count, model.state_dim))
    u_dir = rng.normal(size=(sample_count, model.input_dim))
    u_dir /= np.linalg.norm(u_dir, axis=1, keepdims=True)
    u_mag = rng.uniform(size=(sample_count, 1)) * input_bound
    u = u_dir * u_mag
    df = model.vector_field(z_a, u) - model.vector_field(z_b, u)
    dz = np.linalg.norm(z_a - z_b, axis=1)
    good = dz > 1e-12
    ratios = np.linalg.norm(df[good], axis=1) / dz[good]
    if ratios.size == 0:
        return 0.0
    return LIPSCHITZ_SAFETY_FACTOR * float(ratios.max())
