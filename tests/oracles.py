"""Reference dynamics that the tests check the program against.

`unicycle_field` and `rk4_step` are the generic form of the unicycle's RK4:
the program's integrators form all substeps at once and must match a loop of
`rk4_step` over `unicycle_field` bit for bit. The double integrator is the
linear model of the solver's Riccati oracles. The program rolls out the
unicycle only, so `use_double_integrator` puts a rollout of it in place of
`ocp.rollout_zoh`, the seam perfbench's traced mode patches too, and
`count_jacobians` counts there the rollout Jacobians the solvers form.
`no_margins` is the margin function of a problem without state constraints,
which the solver's oracles solve.

`write_csv_rows` is the trajectory CSV writer that formats one row at a time;
`TrajectoryLog.to_csv`, which formats column by column, must write its bytes.
`read_csv_whole` is the reader that holds the whole file's lines at once;
`TrajectoryLog.from_csv`, which reads the file in blocks of lines, must return
its traces bit for bit and its step records.

`fill_margins_whole` and `verify_geometry_whole` evaluate each agent's logged
geometry on its whole log at once (`logged_geometry_whole`): the CSV's margin
columns that `Simulation.finalize_log` fills, and the four geometric checks of
`certify.verify`. The program reduces `WorldModel.logged_margins` chunk by
chunk, and must give their margins bit for bit and their check results.

`minkowski_add`, `pontryagin_diff` (with `EMPTY`) and `sample_ball` are the
closed-form algebra of Euclidean balls, with a uniform sampler: the identities
that the constraint tightening relies on, which acceptance criterion 7 checks
by sampling. The program itself uses only a ball's center and radius.
"""

import numpy as np

from dnmpc import ocp
from dnmpc.certify import CHECK_TOL, CheckResult, _track
from dnmpc.constraints import MARGIN_KINDS
from dnmpc.coordination import _SOLVER_COLUMNS, CSV_COLUMNS, AgentTrace, TrajectoryLog
from dnmpc.dynamics import UNICYCLE, AgentModel
from dnmpc.setalg import Ball


def unicycle_field(state, control):
    """Planar unicycle: (dx, dy, dtheta) = (v cos(theta), v sin(theta),
    omega), vectorized over leading batch dimensions."""
    state = np.asarray(state, dtype=float)
    control = np.asarray(control, dtype=float)
    theta = state[..., 2]
    v = control[..., 0]
    omega = control[..., 1]
    return np.stack([v * np.cos(theta), v * np.sin(theta), omega], axis=-1)


def rk4_step(deriv, t, z, dt, k1=None):
    """One classical RK4 step of dz/dt = deriv(t, z)."""
    if k1 is None:
        k1 = deriv(t, z)
    k2 = deriv(t + 0.5 * dt, z + 0.5 * dt * k1)
    k3 = deriv(t + 0.5 * dt, z + 0.5 * dt * k2)
    k4 = deriv(t + dt, z + dt * k3)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_rollout(field, e0, u_seq, stage_time, substeps):
    """States of de/dt = field(e, u) at every substep boundary under the
    zero-order-hold inputs u_seq (N, m), by `rk4_step` one substep at a time."""
    dt = stage_time / substeps
    out = np.empty((len(u_seq) * substeps + 1, len(e0)))
    out[0] = e = e0
    for k, u in enumerate(u_seq):
        def held(t, e, u=u):
            return field(e, u)

        for j in range(substeps):
            e = rk4_step(held, 0.0, e, dt)
            out[k * substeps + j + 1] = e
    return out


def no_margins(errors):
    """A margin function with no columns: (T, 0) margins of the (T, n)
    errors, and a callable for their (T, 0, n) Jacobian."""
    def jacobian():
        return np.zeros(errors.shape[:1] + (0,) + errors.shape[1:])

    return np.zeros((len(errors), 0)), jacobian


def double_integrator_field(z, u):
    """(dp, dv) = (v, u)."""
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    return np.stack([z[..., 1], u[..., 0]], axis=-1)


DOUBLE_INTEGRATOR = AgentModel(state_dim=2, input_dim=1, position_slice=slice(0, 1))


def double_integrator_rollout(errordyn, e0, u_seq, stage_time, substeps):
    """`ocp.rollout_zoh` of the double integrator: the states by `rk4_step`,
    which is exact on this field up to rounding, and a callable that forms
    their exact ZOH input Jacobian. Under a held input u_k, p and v respond
    to u_k by (s^2 / 2, s) after s seconds of stage k, and the end-of-stage
    response then carries on as (h^2 / 2 + h s', h) for s' seconds after
    it."""
    traj = rk4_rollout(lambda e, u: double_integrator_field(e + errordyn.z_des, u),
                       e0, u_seq, stage_time, substeps)
    n_stage = len(u_seq)

    def jacobian():
        t = (stage_time / substeps) * np.arange(n_stage * substeps + 1)
        jac = np.empty((len(t), 2, n_stage))
        for k in range(n_stage):
            s = np.clip(t - k * stage_time, 0.0, stage_time)
            after = np.maximum(t - (k + 1) * stage_time, 0.0)
            jac[:, 0, k] = 0.5 * s * s + s * after
            jac[:, 1, k] = s
        return jac

    return traj, jacobian


def use_double_integrator(monkeypatch):
    """Roll the double integrator out by `double_integrator_rollout` wherever
    the solver calls `ocp.rollout_zoh`; every other model still gets the real
    rollout."""
    real = ocp.rollout_zoh

    def rollout(errordyn, *args):
        if errordyn.model is DOUBLE_INTEGRATOR:
            return double_integrator_rollout(errordyn, *args)
        return real(errordyn, *args)

    monkeypatch.setattr(ocp, "rollout_zoh", rollout)


def count_jacobians(monkeypatch):
    """Wrap `ocp.rollout_zoh` so that each rollout appends [its inputs as
    bytes, the Jacobians formed] to the returned list, counting the calls of
    the Jacobian callable it returns."""
    rollouts = []
    real = ocp.rollout_zoh

    def rollout(errordyn, e0, u_seq, stage_time, substeps):
        traj, jacobian = real(errordyn, e0, u_seq, stage_time, substeps)
        entry = [u_seq.tobytes(), 0]
        rollouts.append(entry)

        def counted():
            entry[1] += 1
            return jacobian()

        return traj, counted

    monkeypatch.setattr(ocp, "rollout_zoh", rollout)
    return rollouts


def write_csv_rows(log, path):
    """Write `log` (a TrajectoryLog) as `TrajectoryLog.to_csv` does, one row
    at a time: each row's floats by `repr` of the row's list, its step as the
    row's substep index over `OcpConfig.substeps`."""
    substeps = ocp.OcpConfig.substeps
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for i, trace in enumerate(log.traces):
            T = len(trace.times)
            block = np.column_stack(
                [trace.states, trace.inputs, trace.w_norms, trace.V, trace.margins])
            solver = ["," * (len(_SOLVER_COLUMNS) - 1)] + [
                f"{m['status']},{float(m['cost'])!r},{float(m['errsq_int'])!r},"
                f"{int(m['terminal_relaxed'])},{int(m['tube_capped'])}"
                for m in trace.step_meta]
            times = np.asarray(trace.times, dtype=float).tolist()
            fh.writelines(
                f"{t!r},{i},{step},{','.join(map(repr, row))},{solver[step + 1]}\r\n"
                for t, step, row in zip(
                    times, [-1] + [r // substeps for r in range(T - 1)],
                    block.tolist()))


def read_csv_whole(path, h):
    """`TrajectoryLog.from_csv` of `path` from the whole file's lines at once:
    one `np.loadtxt` call over every row, and each agent's step records from
    the first row of each step."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",") if lines else []
    rows = lines[1:]
    names = CSV_COLUMNS
    n_x = UNICYCLE.state_dim
    missing = [name for name in names if name not in header]
    if missing:
        raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    col = {name: header.index(name) for name in names}
    for line, text in enumerate(rows, start=2):
        if text.count(",") != len(header) - 1:
            raise ValueError(f"{path}: line {line} has {text.count(',') + 1} fields, "
                             f"the header {len(header)}")
    numeric = names[:len(names) - len(_SOLVER_COLUMNS)]
    try:
        data = np.loadtxt(rows, delimiter=",", usecols=[col[name] for name in numeric],
                          comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    agents = data[:, 1].astype(int)
    ids = np.unique(agents)
    if not np.array_equal(ids, np.arange(len(ids))):
        raise ValueError(f"{path}: agent ids {ids.tolist()} are not 0..{len(ids) - 1}")
    steps = data[:, 2].astype(int)
    k = 3 + n_x + UNICYCLE.input_dim  # w_norm, then V, then the margins
    traces = []
    for i in ids:
        idx = np.flatnonzero(agents == i)
        block = data[idx]
        step_values, first = np.unique(steps[idx], return_index=True)
        step_meta = []
        for step, r in zip(step_values.tolist(), idx[first].tolist()):
            if step < 0:
                continue
            fields = rows[r].split(",")
            try:
                step_meta.append({
                    "t": step * h,
                    "status": fields[col["status"]],
                    "cost": float(fields[col["cost"]]),
                    "errsq_int": float(fields[col["errsq_int"]]),
                    "terminal_relaxed": bool(int(fields[col["terminal_relaxed"]])),
                    "tube_capped": bool(int(fields[col["tube_capped"]])),
                })
            except ValueError as exc:
                raise ValueError(f"{path}: line {r + 2}: {exc}") from exc
        traces.append(AgentTrace(
            times=block[:, 0], states=block[:, 3:3 + n_x], inputs=block[:, 3 + n_x:k],
            w_norms=block[:, k], V=block[:, k + 1], margins=block[:, k + 2:],
            step_meta=step_meta))
    return TrajectoryLog(traces=traces)


def logged_geometry_whole(world, i, times, positions, eps):
    """Agent i's `StageGeometry` against every other agent and every obstacle
    on all of its logged samples: another agent at its first sample at or
    after each time, and at its last one beyond the end of its log."""
    others = [j for j in range(len(positions)) if j != i]
    tracks = {j: positions[j][np.minimum(np.searchsorted(times[j], times[i]),
                                         len(times[j]) - 1)] for j in others}
    return world.geometry(i, times[i], tracks, others, range(len(world.obstacles)), eps)


def _logged_positions(log):
    times = [np.asarray(tr.times) for tr in log.traces]
    positions = [np.asarray(tr.states)[:, UNICYCLE.position_slice] for tr in log.traces]
    return times, positions


def fill_margins_whole(sim, log):
    """The (T, len(MARGIN_KINDS)) raw margins (eps = 0) of each trace of the
    finalized `log` of `sim`, as `Simulation.finalize_log` fills them: per
    kind the smallest column, inter-agent columns only within sensing
    range, inf where the kind has none."""
    times, positions = _logged_positions(log)
    out = []
    for i in range(len(log.traces)):
        geo = logged_geometry_whole(sim.world, i, times, positions, 0.0)
        margins, _, dist = geo._evaluate(positions[i])
        sensed = ((geo.kinds != MARGIN_KINDS.index("inter-agent"))
                  | (dist < sim.world.sensing_ranges[i]))
        margins = np.where(sensed, margins, np.inf)
        out.append(np.column_stack(
            [np.min(margins[:, geo.kinds == k], axis=1, initial=np.inf)
             for k in range(len(MARGIN_KINDS))]))
    return out


def verify_geometry_whole(log, world, scenario):
    """{check name: CheckResult} of `certify.verify`'s inter-agent
    separation, neighbor connectivity, obstacle clearance and workspace
    containment checks: each kind's smallest margin, net of the safety
    margin, the first in (agent, column, time)."""
    times, positions = _logged_positions(log)
    worst = [(np.inf, 0.0)] * len(MARGIN_KINDS)
    for i in range(len(log.traces)):
        geo = logged_geometry_whole(world, i, times, positions, world.margin)
        margins = geo._evaluate(positions[i])[0]
        for c, (kind, k) in enumerate(zip(geo.kinds, np.argmin(margins, axis=0))):
            worst[kind] = _track(worst[kind], margins[k, c], float(times[i][k]))
    sep, conn, obst, wksp = worst
    return {"inter-agent-separation": CheckResult(sep[0] >= -CHECK_TOL, *sep),
            "neighbor-connectivity": CheckResult(conn[0] >= -CHECK_TOL, *conn),
            "obstacle-clearance": CheckResult(
                obst[0] >= -CHECK_TOL if world.obstacles else True, *obst),
            "workspace-containment": CheckResult(wksp[0] >= -CHECK_TOL, *wksp)}


class _Empty:
    """Marker for an empty ball (erosion by a larger ball)."""

    def __repr__(self):
        return "EMPTY"

    def __bool__(self):
        return False


EMPTY = _Empty()


def sample_ball(ball: Ball, rng, count):
    """`count` points drawn uniformly from the ball."""
    dim = len(ball.center)
    direction = rng.normal(size=(count, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    scale = rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return ball.center + ball.radius * direction * scale


def _check_dims(a: Ball, b: Ball):
    if len(a.center) != len(b.center):
        raise ValueError(f"dimension mismatch: {len(a.center)} vs {len(b.center)}")


def minkowski_add(a: Ball, b: Ball) -> Ball:
    """Minkowski sum of two balls: centers add, radii add."""
    _check_dims(a, b)
    return Ball(a.center + b.center, a.radius + b.radius)


def pontryagin_diff(a: Ball, b: Ball):
    """Pontryagin difference (erosion) of two balls: ``Ball(c_a - c_b,
    r_a - r_b)`` when the minuend radius is at least the subtrahend radius,
    otherwise ``EMPTY``."""
    _check_dims(a, b)
    if a.radius < b.radius:
        return EMPTY
    return Ball(a.center - b.center, a.radius - b.radius)
