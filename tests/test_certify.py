import math
from pathlib import Path

import numpy as np
import pytest

from dnmpc import certify
from dnmpc.certify import (build_certificate, disturbance_bound,
                           lipschitz_of_cost, ultimate_bound, write_report,
                           xi_bound)
from dnmpc.cli import load_scenario
from dnmpc.setalg import TubeProfile, tube_radius

SCENARIO = Path(__file__).resolve().parents[1] / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"

# the reference constants of the bundled three-unicycle scenario
EPS_PSI, EPS_OMEGA = 0.0582, 0.0035
L_V, L_G = 0.0471, 8.5883
H, T_P = 0.1, 0.6


def test_lipschitz_of_cost_identity():
    assert lipschitz_of_cost(np.eye(2), 1.0) == pytest.approx(2.0)


def test_lipschitz_of_cost_scales_linearly():
    base = lipschitz_of_cost(np.diag([2.0, 1.0]), 1.5)
    assert lipschitz_of_cost(np.diag([2.0, 1.0]), 3.0) == pytest.approx(2 * base)


def test_lipschitz_of_cost_requires_positive_sup():
    with pytest.raises(ValueError):
        lipschitz_of_cost(np.eye(2), 0.0)


def test_disturbance_bound_reference_value():
    w_max = disturbance_bound(EPS_PSI, EPS_OMEGA, L_V, L_G, H, T_P)
    assert w_max == pytest.approx(0.100, abs=1e-3)


def test_disturbance_bound_zero_numerator():
    assert disturbance_bound(0.01, 0.01 - 1e-15, L_V, L_G, H, T_P) == pytest.approx(0.0, abs=1e-10)


def test_disturbance_bound_decreases_with_horizon():
    w1 = disturbance_bound(EPS_PSI, EPS_OMEGA, L_V, L_G, H, 0.6)
    w2 = disturbance_bound(EPS_PSI, EPS_OMEGA, L_V, L_G, H, 0.7)
    assert w2 < w1


def test_disturbance_bound_preconditions():
    with pytest.raises(ValueError):
        disturbance_bound(0.01, 0.02, L_V, L_G, H, T_P)
    with pytest.raises(ValueError):
        disturbance_bound(EPS_PSI, EPS_OMEGA, L_V, L_G, 0.7, 0.6)


def test_disturbance_bound_algebraic_identity():
    """At w_bar = w_max the tube-propagated value increase exactly consumes
    the gap between the two terminal thresholds."""
    w_max = disturbance_bound(EPS_PSI, EPS_OMEGA, L_V, L_G, H, T_P)
    growth = (L_V / L_G) * math.expm1(L_G * H) * math.exp(L_G * (T_P - H))
    assert abs(EPS_OMEGA + w_max * growth - EPS_PSI) < 1e-12


def test_ultimate_bound_values():
    assert ultimate_bound(4.0, 1.0) == pytest.approx(2.0)
    assert ultimate_bound(EPS_OMEGA, 0.4710) == pytest.approx(0.0862, abs=5e-4)
    with pytest.raises(ValueError):
        ultimate_bound(0.0, 1.0)


def test_ultimate_bound_outer_contains_sublevel_set():
    """Every e with e'Pe <= eps lies within sqrt(eps / lambda_min(P))."""
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, 3))
    P = A @ A.T + 0.2 * np.eye(3)
    eps = 0.05
    lam_min = float(np.linalg.eigvalsh(P)[0])
    outer = ultimate_bound(eps, lam_min)
    pts = rng.normal(size=(2000, 3))
    vals = np.einsum("bi,ij,bj->b", pts, P, pts)
    inside = pts[vals <= eps]
    assert np.linalg.norm(inside, axis=1).max() <= outer + 1e-12


def test_xi_bound_positive_and_monotone_in_LF():
    a = xi_bound(L_V, 10.0, L_G, H, T_P)
    b = xi_bound(L_V, 20.0, L_G, H, T_P)
    assert 0 < a < b


def test_build_certificate_consistency_verdict():
    cert = build_certificate(Q=np.eye(3), P=0.3 * np.eye(3), eps_omega=EPS_OMEGA,
                             eps_psi=EPS_PSI, L_g=L_G, L_V=L_V, h=H, T_p=T_P,
                             w_bar=0.1, sup_error=27.0)
    assert cert.consistent
    worse = build_certificate(Q=np.eye(3), P=0.3 * np.eye(3), eps_omega=EPS_OMEGA,
                              eps_psi=EPS_PSI, L_g=L_G, L_V=L_V, h=H, T_p=T_P,
                              w_bar=0.5, sup_error=27.0)
    assert not worse.consistent


def test_write_report_flat_key_value(tmp_path):
    report = certify.VerificationReport()
    report.checks["inter-agent-separation"] = certify.CheckResult(True, 0.12, 3.4)
    report.checks["terminal-trapping"] = certify.CheckResult(False, -0.01, 9.9)
    path = tmp_path / "report.txt"
    write_report(report, path, extra={"scenario": "demo"})
    text = path.read_text()
    assert "inter_agent_separation_pass = true" in text
    assert "terminal_trapping_pass = false" in text
    assert "overall_pass = false" in text
    assert "scenario = 'demo'" in text


def _forged_log_scenario(distance):
    """A hand-built two-agent log with constant pairwise distance."""
    from dnmpc.coordination import AgentTrace, TrajectoryLog
    from dnmpc.constraints import WorldModel
    from dnmpc.setalg import Ball

    traces = []
    for y in (0.0, distance):
        tr = AgentTrace()
        for k in range(11):
            tr.times.append(0.01 * k)
            tr.states.append(np.array([0.0, y, 0.0]))
            tr.inputs.append(np.zeros(2))
            tr.w_norms.append(0.0)
            tr.V.append(0.0)
        tr.step_meta.append({"t": 0.0, "status": "optimal", "cost": 1.0,
                             "errsq_int": 0.0, "terminal_relaxed": False,
                             "tube_capped": False})
        traces.append(tr)
    log = TrajectoryLog(traces=traces)
    world = WorldModel(Ball([0.0, 0.0], 10.0), [], [0.5, 0.5], [2.0, 2.0],
                       [4.0, 4.0], 0.01, [frozenset({1}), frozenset({0})])

    class Stub:
        Q = 0.5 * np.eye(3)
        R = 0.05 * np.eye(2)
        P = 0.3 * np.eye(3)
        eps_omega = 0.0035
        eps_psi = 0.0582
        w_bar = 0.0
        L_g = 2.0
        L_V = 0.05
        h = 0.1
        T_p = 0.6
        references = [np.array([0.0, 0.0, 0.0]), np.array([0.0, distance, 0.0])]

        def build_certificate(self):
            return build_certificate(Q=self.Q, P=self.P, eps_omega=self.eps_omega,
                                     eps_psi=self.eps_psi, L_g=self.L_g, L_V=self.L_V,
                                     h=self.h, T_p=self.T_p, w_bar=self.w_bar,
                                     sup_error=23.0)

    return log, world, Stub()


def test_verify_flags_forged_close_pass():
    log, world, scenario = _forged_log_scenario(distance=0.99)
    report = certify.verify(log, world, scenario)
    check = report.checks["inter-agent-separation"]
    assert not check.passed
    assert check.worst_margin == pytest.approx(0.99 - 1.01, abs=1e-9)


def test_verify_passes_safe_stationary_log():
    log, world, scenario = _forged_log_scenario(distance=1.2)
    report = certify.verify(log, world, scenario)
    assert report.checks["inter-agent-separation"].passed
    assert report.checks["neighbor-connectivity"].passed
    assert report.checks["workspace-containment"].passed
    # both agents sit at their references: V = 0 <= eps_omega throughout
    assert report.checks["terminal-trapping"].passed
    assert report.checks["solver-feasible"].passed


def test_terminal_trapping_names_every_agent_outside_the_terminal_set():
    log, world, scenario = _forged_log_scenario(distance=1.2)
    for trace in log.traces:
        trace.V = [1.0] * len(trace.times)  # above eps_omega throughout
    check = certify.verify(log, world, scenario).checks["terminal-trapping"]
    assert not check.passed
    assert check.detail == ("agent 0 never entered the terminal set; "
                            "agent 1 never entered the terminal set")


def _three_row_log():
    """`_forged_log_scenario`'s safe log cut to its first three rows, agent
    1 with three step records."""
    log, world, scenario = _forged_log_scenario(distance=1.2)
    for trace in log.traces:
        for name in ("times", "states", "inputs", "w_norms", "V"):
            setattr(trace, name, getattr(trace, name)[:3])
    log.traces[1].step_meta = [dict(log.traces[1].step_meta[0], t=0.1 * k)
                               for k in range(3)]
    return log, world, scenario


@pytest.mark.parametrize("V", [[0.0, 1.0, math.nan], [0.0, math.nan, 1.0]])
def test_verify_rejects_a_V_that_is_not_finite(V):
    """A NaN V would pass terminal trapping (np.argmax over the tail picks
    it, and a NaN margin is never the worst); with V = [0, 1, 0] the check
    fails."""
    log, world, scenario = _three_row_log()
    log.traces[1].V = [0.0, 1.0, 0.0]
    assert not certify.verify(log, world, scenario).checks["terminal-trapping"].passed
    log.traces[1].V = V
    row = int(np.flatnonzero(np.isnan(V))[0])
    with pytest.raises(ValueError, match=f"agent 1's logged V at row {row} is not finite"):
        certify.verify(log, world, scenario)


@pytest.mark.parametrize("key", ["cost", "errsq_int"])
def test_verify_rejects_a_step_record_that_is_not_finite(key):
    """Costs [1, nan, 100] would pass the ISS check (a NaN margin is never
    the worst); with costs [1, 100, 100] the check fails. A NaN `errsq_int`
    is rejected the same way."""
    log, world, scenario = _three_row_log()
    meta = log.traces[1].step_meta
    for record, cost in zip(meta, [1.0, 100.0, 100.0]):
        record["cost"] = cost
    assert not certify.verify(log, world, scenario).checks["iss-cost-decrease"].passed
    meta[1][key] = math.nan
    with pytest.raises(ValueError, match=f"agent 1's {key} at step 1 is not finite"):
        certify.verify(log, world, scenario)


def test_logged_margins_on_partial_log_with_pair_out_of_range():
    """Agent 1's trace stops halfway, as in the partial log of an aborted run,
    while it drifts out of agent 0's sensing range (2.0). The logged
    inter-agent margin covers only agents in range (inf otherwise); verify
    checks every pair, net of the safety margin, aligned by timestamp."""
    from dnmpc.coordination import AgentTrace, Simulation
    from dnmpc.ocp import OcpConfig

    _, world, scenario = _forged_log_scenario(distance=1.2)
    gaps = [1.2, 1.5, 1.8, 2.1, 2.4, 2.7]  # agent 1's distance to agent 0
    traces = []
    for ys in ([0.0] * 11, gaps):
        tr = AgentTrace(times=[0.01 * k for k in range(len(ys))],
                        states=[np.array([0.0, y, 0.0]) for y in ys],
                        inputs=[np.zeros(2)] * len(ys), w_norms=[0.0] * len(ys),
                        V=[0.0] * len(ys))
        tr.step_meta.append({"t": 0.0, "status": "optimal", "cost": 1.0,
                             "errsq_int": 0.0, "terminal_relaxed": False,
                             "tube_capped": False})
        traces.append(tr)
    config = OcpConfig(h=0.1, T_p=0.6, Q=scenario.Q, R=scenario.R, P=scenario.P,
                       eps_omega=scenario.eps_omega, eps_psi=scenario.eps_psi, u_bar=8.0)
    sim = Simulation(world, scenario.references, config,
                     TubeProfile(1e-12, 2.0), [0, 1], [None, None],
                     [tr.states[0] for tr in traces], total_time=0.1)
    sim.traces = traces
    log = sim.finalize_log()

    # agent 0 sees agent 1 held at its last sample (2.7) after t = 0.05
    held = gaps + [gaps[-1]] * 5
    sep, conn, obst, wksp = log.traces[0].margins.T  # MARGIN_KINDS order
    assert log.traces[0].margins.shape == (11, 4) and log.traces[1].margins.shape == (6, 4)
    assert list(sep) == pytest.approx([0.2, 0.5, 0.8] + [math.inf] * 8, abs=1e-12)
    assert list(conn) == pytest.approx([2.0 - d for d in held], abs=1e-12)
    assert list(log.traces[1].margins[:, 0]) == pytest.approx(
        [0.2, 0.5, 0.8] + [math.inf] * 3, abs=1e-12)
    assert np.all(obst == math.inf) and list(wksp) == pytest.approx([9.5] * 11)

    report = certify.verify(log, world, scenario)
    sep = report.checks["inter-agent-separation"]
    assert (sep.worst_margin, sep.worst_time) == (pytest.approx(1.2 - 1.01, abs=1e-12), 0.0)
    conn = report.checks["neighbor-connectivity"]
    assert not conn.passed
    assert conn.worst_margin == pytest.approx(1.99 - 2.7, abs=1e-12)
    assert conn.worst_time == pytest.approx(0.05)


def test_window_closes_where_the_tube_diameter_meets_the_smallest_gap():
    from dnmpc.constraints import WorldModel
    from dnmpc.setalg import Ball

    # gaps (d_i - eps) - (r_i + r_j + eps): 0 with 1 and 1 with 0 leave 0.98
    # and 0.88 (agent 1 senses only 1.9 m), 0 with 2 and 2 with 0 leave 1.18
    world = WorldModel(Ball([0.0, 0.0], 10.0), [], [0.5, 0.5, 0.3], [2.0, 1.9, 2.0],
                       [4.0, 4.0, 4.0], margin=0.01,
                       neighbor_sets=[frozenset({1, 2}), frozenset({0}), frozenset({0})])
    tau = certify.window_closes_at(world, 0.1, L_G, T_P)
    assert 0.0 < tau < T_P
    assert 2.0 * tube_radius(TubeProfile(0.1, L_G), tau) == pytest.approx(0.88, rel=1e-12)
    # a shorter horizon, a gentler tube or no disturbance never close it
    assert certify.window_closes_at(world, 0.1, L_G, 0.9 * tau) == math.inf
    assert certify.window_closes_at(world, 0.01, L_G, T_P) == math.inf
    assert certify.window_closes_at(world, 0.0, L_G, T_P) == math.inf


def test_window_closes_at_is_where_the_pair_window_closes():
    """One window definition: on the bundled world with its declared L_g,
    the closest neighbor pair's window of StageGeometry.pair_windows is open
    (sep + 2 rho <= conn) at the tube radius just before the tau that
    window_closes_at returns and empty just after it."""
    scenario = load_scenario(SCENARIO)
    world = scenario.build_world()
    tau = certify.window_closes_at(world, scenario.w_bar, scenario.L_g, scenario.T_p)
    assert 0.0 < tau < scenario.T_p
    tracks = [spec.start[None, :2] for spec in scenario.agents]
    geometries = [world.geometry(i, np.zeros(1), tracks, neighbors, (), world.margin)
                  for i, neighbors in enumerate(world.neighbor_sets)]

    def smallest_gap(geo):
        sep, conn = geo.pair_windows()
        return np.min(conn - sep)

    sep, conn = min(geometries, key=smallest_gap).pair_windows()
    profile = TubeProfile(scenario.w_bar, scenario.L_g)

    def closed(tau):
        return bool((sep + 2.0 * tube_radius(profile, tau) > conn).any())

    assert not closed(tau * (1.0 - 1e-6))
    assert closed(tau * (1.0 + 1e-6))
