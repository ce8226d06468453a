"""Analytic certificates and post-hoc verification of logged runs.

Certificates are closed-form: the Lipschitz constant of the stage/terminal
cost, the largest admissible disturbance bound compatible with recursive
feasibility, and the ultimate bound on the tracking error. Verification
replays a trajectory log against the navigation specification (collision
avoidance, connectivity, obstacle clearance, workspace containment), the
terminal-set trapping property, and the per-step ISS cost inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import MARGIN_KINDS
from .dynamics import UNICYCLE, ErrorDynamics

__all__ = [
    "Certificate",
    "CheckResult",
    "VerificationReport",
    "lipschitz_of_cost",
    "disturbance_bound",
    "ultimate_bound",
    "xi_bound",
    "window_closes_at",
    "build_certificate",
    "verify",
    "write_report",
]


def lipschitz_of_cost(weight, sup_e):
    """Lipschitz constant 2 * sigma_max(weight) * sup_e of e -> e' W e on a ball."""
    if sup_e <= 0.0:
        raise ValueError(f"error envelope must be positive, got {sup_e}")
    sigma = float(np.linalg.norm(np.asarray(weight, dtype=float), ord=2))
    return 2.0 * sigma * sup_e


def disturbance_bound(eps_psi, eps_omega, L_V, L_g, h, T_p):
    """Largest disturbance bound keeping the perturbed terminal error inside
    the feasibility region: the one-step tube growth, propagated over the
    remaining horizon and scaled by the value-function Lipschitz constant,
    must not exceed the gap eps_psi - eps_omega.
    """
    if eps_psi <= eps_omega:
        raise ValueError("need eps_psi > eps_omega")
    if L_V <= 0.0 or L_g <= 0.0:
        raise ValueError("Lipschitz constants must be positive")
    if not 0.0 < h < T_p:
        raise ValueError("need 0 < h < T_p")
    growth = (L_V / L_g) * math.expm1(L_g * h) * math.exp(L_g * (T_p - h))
    return (eps_psi - eps_omega) / growth


def ultimate_bound(eps_omega, lam_P):
    """Radius sqrt(eps_omega / lam) of the ball associated with the terminal
    sublevel set {V <= eps_omega}. With lam = lambda_max(P) this is the
    inscribed radius; with lam = lambda_min(P) the circumscribed (outer)
    radius that actually bounds every error in the set.
    """
    if eps_omega <= 0.0 or lam_P <= 0.0:
        raise ValueError("both arguments must be positive")
    return math.sqrt(eps_omega / lam_P)


def window_closes_at(world, w_bar, L_g, T_p):
    """First tau <= T_p at which the tube diameter 2 rho(tau), with
    rho(tau) = (w_bar / L_g) (exp(L_g tau) - 1), exceeds the smallest gap
    conn - sep of a neighbor pair's window (StageGeometry.pair_windows); inf
    if it never does within the horizon.

    From that tau on the pair's tightened window is empty (sep + 2 rho >
    conn), so only a capped tube can keep a plan that long feasible: a
    scenario whose tube_cap binds before T_p runs every solve capped, one
    without a binding cap none. The thresholds are those the solver uses,
    net of the world's safety margin; they do not depend on where the agents
    are, so every agent is placed at the workspace centre.
    """
    if w_bar <= 0.0:
        return math.inf
    tracks = [world.workspace.center[None, :]] * len(world.neighbor_sets)
    gaps = []
    for i, neighbors in enumerate(world.neighbor_sets):
        sep, conn = world.geometry(i, np.zeros(1), tracks, neighbors, (),
                                   world.margin).pair_windows()
        gaps += (conn - sep).tolist()
    tau = math.log1p(L_g * min(gaps) / (2.0 * w_bar)) / L_g
    return tau if tau <= T_p else math.inf


def xi_bound(L_V, L_F, L_g, h, T_p):
    """Coefficient of w_bar in the per-step ISS cost-increase bound."""
    if min(L_V, L_F, L_g) <= 0.0 or not 0.0 < h < T_p:
        raise ValueError("invalid certificate constants")
    return (math.expm1(L_g * h) / L_g) * (
        (L_V + L_F / L_g) * math.expm1(L_g * (T_p - h)) + L_V)


@dataclass(frozen=True)
class Certificate:
    """Closed-form robustness certificate for one scenario."""

    L_g: float
    L_F: float
    L_V: float
    w_max: float
    ultimate_radius: float          # inscribed, via lambda_max(P)
    ultimate_radius_outer: float    # circumscribed, via lambda_min(P)
    xi: float
    consistent: bool


def build_certificate(Q, P, eps_omega, eps_psi, L_g, L_V, h, T_p, w_bar,
                      sup_error, lam_max_P=None):
    """Assemble the certificate; `consistent` iff w_bar is admissible.

    `lam_max_P` optionally pins the largest eigenvalue of P used for the
    inscribed ultimate radius (e.g. a published rounded value); the outer
    radius always uses the actual smallest eigenvalue.
    """
    if w_bar < 0.0:
        raise ValueError(f"disturbance bound w_bar must be nonnegative, got {w_bar}")
    P = np.asarray(P, dtype=float)
    eigs = np.linalg.eigvalsh(P)
    if lam_max_P is None:
        lam_max_P = float(eigs[-1])
    L_F = lipschitz_of_cost(Q, sup_error)
    w_max = disturbance_bound(eps_psi, eps_omega, L_V, L_g, h, T_p)
    return Certificate(
        L_g=L_g, L_F=L_F, L_V=L_V, w_max=w_max,
        ultimate_radius=ultimate_bound(eps_omega, lam_max_P),
        ultimate_radius_outer=ultimate_bound(eps_omega, float(eigs[0])),
        xi=xi_bound(L_V, L_F, L_g, h, T_p),
        consistent=w_bar <= w_max,
    )


@dataclass
class CheckResult:
    passed: bool
    worst_margin: float
    worst_time: float
    detail: str = ""


@dataclass
class VerificationReport:
    checks: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.checks.values())

    def summary_lines(self):
        width = max(len(k) for k in self.checks) if self.checks else 0
        lines = []
        for name, c in self.checks.items():
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(f"{name:<{width}}  {verdict}  worst_margin={c.worst_margin:+.6g}"
                         f"  at_t={c.worst_time:.3f}" + (f"  ({c.detail})" if c.detail else ""))
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines


# how far below zero verify lets a margin fall: the ISS cost inequality's, every other
CHECK_TOL, ISS_TOL = 1e-9, 1e-6


def _track(current, margin, t):
    """Keep the (margin, time) pair with the smallest margin."""
    if margin < current[0]:
        return (margin, t)
    return current


def verify(log, world, scenario):
    """Check a trajectory log against the navigation specification.

    All geometric checks run on every logged sample (the RK4 substep grid),
    aligning agents by timestamp. Thresholds include the scenario safety
    margin. Also checks terminal-set trapping of V and the per-step ISS cost
    inequality using the per-step solver metadata. A log with another number
    of traces than the world has agents, or with a time, position, V, step
    cost or step `errsq_int` that is not finite, raises ValueError.
    """
    n = len(log.traces)
    if n != len(world.agent_radii):
        raise ValueError(f"the log has {n} agent traces, the scenario {len(world.agent_radii)}")
    report = VerificationReport()
    errordyns = [ErrorDynamics(UNICYCLE, z) for z in scenario.references]
    times = [tr.times for tr in log.traces]
    states = [tr.states for tr in log.traces]
    positions = [z[:, UNICYCLE.position_slice] for z in states]
    for i in range(n):
        finite = np.isfinite(positions[i]).all(axis=1) & np.isfinite(times[i])
        if not finite.all():
            raise ValueError(f"agent {i}'s logged time or position at row "
                             f"{int(np.argmin(finite))} is not finite")
        finite = np.isfinite(log.traces[i].V)
        if not finite.all():
            raise ValueError(f"agent {i}'s logged V at row {int(np.argmin(finite))} is not finite")
        for k, meta in enumerate(log.traces[i].step_meta):
            for key in ("cost", "errsq_int"):
                if not math.isfinite(meta[key]):
                    raise ValueError(f"agent {i}'s {key} at step {k} is not finite")

    # (1) convergence to the ultimate-bound ball (outer radius)
    cert = scenario.build_certificate()
    worst = (np.inf, 0.0)
    for i in range(n):
        e_final = errordyns[i].error_of(states[i][-1])
        worst = _track(worst, cert.ultimate_radius_outer - float(np.linalg.norm(e_final)),
                       float(times[i][-1]))
    report.checks["error-ultimate-bound"] = CheckResult(worst[0] >= -CHECK_TOL, *worst)

    # (2) inter-agent separation (every pair), (3) neighbor connectivity,
    # (4) obstacle clearance and (5) workspace containment, net of the safety
    # margin: each kind's smallest margin, the first in (agent, column, time).
    # Each column's smallest margin and its first row are carried over the
    # chunks as np.argmin finds them in the whole column, and only then
    # tracked across the columns in their order
    worst = [(np.inf, 0.0)] * len(MARGIN_KINDS)
    for i in range(n):
        least = first = None
        for rows, kinds, margins, _ in world.logged_margins(i, times, positions,
                                                            world.margin):
            k = np.argmin(margins, axis=0)
            low = margins[k, np.arange(len(k))]
            if least is None:
                least, first = low, k + rows.start
                continue
            lower = low < least
            least, first = np.where(lower, low, least), np.where(lower, k + rows.start, first)
        for kind, margin, k in zip(kinds, least, first):
            worst[kind] = _track(worst[kind], margin, float(times[i][k]))
    sep, conn, obst, wksp = worst
    report.checks["inter-agent-separation"] = CheckResult(sep[0] >= -CHECK_TOL, *sep)
    report.checks["neighbor-connectivity"] = CheckResult(conn[0] >= -CHECK_TOL, *conn)
    report.checks["obstacle-clearance"] = CheckResult(
        obst[0] >= -CHECK_TOL if world.obstacles else True, *obst)
    report.checks["workspace-containment"] = CheckResult(wksp[0] >= -CHECK_TOL, *wksp)

    # terminal-set trapping: once V dips below the threshold it stays there
    trap = (np.inf, 0.0)
    outside = []
    for i in range(n):
        V = log.traces[i].V
        below = np.nonzero(V <= scenario.eps_omega + CHECK_TOL)[0]
        if len(below) == 0:
            outside.append(f"agent {i} never entered the terminal set")
            continue
        tail = V[below[0]:]
        k = int(np.argmax(tail))
        margin = scenario.eps_omega - float(tail[k])
        trap = _track(trap, margin, float(times[i][below[0] + k]))
    report.checks["terminal-trapping"] = CheckResult(
        not outside and trap[0] >= -CHECK_TOL,
        trap[0] if np.isfinite(trap[0]) else -np.inf, trap[1], "; ".join(outside))

    # ISS cost inequality: optimal-cost increase bounded by xi*w_bar minus the
    # accrued nominal error energy weighted by the smallest cost eigenvalue
    m_const = min(float(np.linalg.eigvalsh(np.asarray(scenario.Q))[0]),
                  float(np.linalg.eigvalsh(np.asarray(scenario.R))[0]))
    iss = (np.inf, 0.0)
    for i in range(n):
        meta = log.traces[i].step_meta
        for prev, curr in zip(meta[:-1], meta[1:]):
            bound = cert.xi * scenario.w_bar - m_const * prev["errsq_int"]
            margin = bound - (curr["cost"] - prev["cost"])
            iss = _track(iss, margin, curr["t"])
    report.checks["iss-cost-decrease"] = CheckResult(iss[0] >= -ISS_TOL, *iss)

    # solver health: no infeasible statuses in the log
    bad = (np.inf, 0.0)
    ok = True
    for i in range(n):
        for meta in log.traces[i].step_meta:
            if meta["status"] == "infeasible":
                ok = False
                bad = _track(bad, -1.0, meta["t"])
    report.checks["solver-feasible"] = CheckResult(
        ok, bad[0] if not ok else np.inf, bad[1])
    return report


def write_report(report: VerificationReport, path, extra=None):
    """Write a flat `key = value` report file (machine-readable)."""
    lines = []
    for name, c in report.checks.items():
        key = name.replace("-", "_")
        lines.append(f"{key}_pass = {str(c.passed).lower()}")
        # plain floats: numpy 2 scalars repr as np.float64(...)
        lines.append(f"{key}_worst_margin = {float(c.worst_margin)!r}")
        lines.append(f"{key}_worst_time = {float(c.worst_time)!r}")
    lines.append(f"overall_pass = {str(report.passed).lower()}")
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
