"""Scenario files and the command-line interface.

Subcommands: ``run`` (simulate, write trajectory CSV + verification report),
``certify`` (print the analytic certificate and compare the declared L_g
with the model's exact one), ``verify`` (re-check an existing log), ``columns``
(gnuplot-compatible manifest of the CSV columns).

Scenario files are YAML; matrices are row-major nested lists; all physical
quantities are SI. The stage/terminal weights may be given explicitly or via
the seeded random recipe Q = 0.5 (I + 0.5 S), P = 0.3 (I + 0.5 S) with S a
symmetrized uniform random matrix drawn from the scenario seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import certify, coordination
from .constraints import WorldModel
from .coordination import Simulation, SimulationError, TrajectoryLog
from .dynamics import UNICYCLE, DisturbanceSignal
from .ocp import OcpConfig
from .setalg import Ball, TubeProfile

__all__ = ["Scenario", "ScenarioError", "load_scenario", "cmd_run", "cmd_certify",
           "cmd_verify", "main"]


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


@dataclass
class AgentSpec:
    model: str
    radius: float
    sensing_range: float
    detection_range: float
    start: np.ndarray
    goal: np.ndarray


@dataclass
class Scenario:
    """Fully validated scenario: world, agents, weights, certificate constants."""

    name: str
    seed: int
    total_time: float
    h: float
    T_p: float
    u_bar: float
    w_bar: float
    eps_omega: float
    eps_psi: float
    margin: float
    L_g: float
    L_V: float
    workspace: Ball
    obstacles: list
    agents: list
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    schedule: list
    disturbance: dict
    tube_cap: float | None
    lam_max_P: float | None
    sup_error: float | None
    max_iterations: int
    constraint_tol: float

    # -- component builders ---------------------------------------------

    @property
    def references(self):
        return [spec.goal for spec in self.agents]

    def build_models(self):
        models = []
        for spec in self.agents:
            if spec.model != "unicycle":
                raise ScenarioError(f"unsupported model kind {spec.model!r}")
            models.append(UNICYCLE)
        return models

    def build_world(self):
        starts = np.asarray([spec.start[:2] for spec in self.agents])
        sensing = [spec.sensing_range for spec in self.agents]
        return WorldModel(
            workspace=self.workspace,
            obstacles=list(self.obstacles),
            agent_radii=[spec.radius for spec in self.agents],
            sensing_ranges=sensing,
            detection_ranges=[spec.detection_range for spec in self.agents],
            margin=self.margin,
            neighbor_sets=coordination.neighbor_sets(starts, sensing),
        )

    def build_config(self):
        return OcpConfig(
            h=self.h, T_p=self.T_p, Q=self.Q, R=self.R, P=self.P,
            eps_omega=self.eps_omega, eps_psi=self.eps_psi, u_bar=self.u_bar,
            max_iterations=self.max_iterations, constraint_tol=self.constraint_tol,
        )

    def build_profile(self):
        return TubeProfile(w_bar=max(self.w_bar, 1e-12), L_g=self.L_g)

    def build_disturbances(self):
        if self.w_bar == 0.0 or not self.disturbance:
            return [None] * len(self.agents)
        kind = self.disturbance.get("kind", "sinusoid")
        if kind != "sinusoid":
            raise ScenarioError(f"unsupported disturbance kind {kind!r}")
        numbers = []
        for name, default in (("amplitude", self.w_bar), ("frequency", 1.0)):
            raw = self.disturbance.get(name, default)
            try:
                value = float(raw)
            except (TypeError, ValueError):
                raise ScenarioError(f"disturbance {name} must be a number, got {raw!r}") from None
            if not math.isfinite(value):
                raise ScenarioError(f"disturbance {name} must be finite, got {value}")
            numbers.append(value)
        amp, freq = numbers
        out = []
        for spec in self.agents:
            dim = len(spec.start)

            def gen(times, amp=amp, freq=freq, dim=dim):
                return (amp * np.sin(freq * times))[:, None].repeat(dim, axis=1)

            out.append(DisturbanceSignal(generator=gen, bound=self.w_bar))
        return out

    def default_sup_error(self):
        """Envelope of the error norm: workspace diameter plus angle range."""
        if self.sup_error is not None:
            return self.sup_error
        return 2.0 * self.workspace.radius + math.pi

    def build_certificate(self):
        return certify.build_certificate(
            Q=self.Q, P=self.P, eps_omega=self.eps_omega, eps_psi=self.eps_psi,
            L_g=self.L_g, L_V=self.L_V, h=self.h, T_p=self.T_p, w_bar=self.w_bar,
            sup_error=self.default_sup_error(), lam_max_P=self.lam_max_P,
        )

    def build_simulation(self, total_time=None):
        return Simulation(
            world=self.build_world(),
            models=self.build_models(),
            references=self.references,
            config=self.build_config(),
            profile=self.build_profile(),
            schedule=self.schedule,
            disturbances=self.build_disturbances(),
            initial_states=[spec.start for spec in self.agents],
            total_time=self.total_time if total_time is None else total_time,
            tube_cap=self.tube_cap,
        )


def _weights_from_recipe(section, seed, dim):
    """Materialize Q, P (and R) from the scenario weight section."""
    R = np.asarray(section["R"], dtype=float)
    if section.get("recipe") == "seeded-random":
        rng = np.random.default_rng(seed)
        S = rng.uniform(0.0, 1.0, size=(dim, dim))
        # only the symmetric part contributes to the quadratic forms
        S = 0.5 * (S + S.T)
        Q = 0.5 * (np.eye(dim) + 0.5 * S)
        P = 0.3 * (np.eye(dim) + 0.5 * S)
    else:
        Q = np.asarray(section["Q"], dtype=float)
        P = np.asarray(section["P"], dtype=float)
    for name, M in (("Q", Q), ("P", P), ("R", R)):
        if np.linalg.eigvalsh(0.5 * (M + M.T)).min() <= 0.0:
            raise ScenarioError(f"weight {name} is not positive definite")
    return Q, R, P


def load_scenario(path, seed=None) -> Scenario:
    """Parse and fully validate a YAML scenario file.

    Raises ScenarioError with the offending field (or YAML location) on any
    parse or validation failure. `seed` overrides the file's seed.
    """
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"parse error in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")

    def need(key):
        if key not in raw:
            raise ScenarioError(f"{path}: missing field {key!r}")
        return raw[key]

    def optional_float(key):
        if raw.get(key) is None:
            return None
        try:
            return float(raw[key])
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{path}: field {key!r} must be a number ({exc})") from exc

    raw_agents = need("agents")
    if not (isinstance(raw_agents, list) and raw_agents
            and all(isinstance(a, dict) for a in raw_agents)):
        raise ScenarioError(f"{path}: field 'agents' must be a non-empty list of mappings")
    try:
        agents = [
            AgentSpec(
                model=a.get("model", "unicycle"),
                radius=float(a["radius"]),
                sensing_range=float(a["sensing_range"]),
                detection_range=float(a["detection_range"]),
                start=np.asarray(a["start"], dtype=float),
                goal=np.asarray(a["goal"], dtype=float),
            )
            for a in raw_agents
        ]
        state_dim = len(agents[0].start)
        use_seed = int(raw.get("seed", 0)) if seed is None else int(seed)
        Q, R, P = _weights_from_recipe(need("weights"), use_seed, state_dim)
        scenario = Scenario(
            name=str(raw.get("name", Path(path).stem)),
            seed=use_seed,
            total_time=float(need("total_time")),
            h=float(need("h")),
            T_p=float(need("T_p")),
            u_bar=float(need("u_bar")),
            w_bar=float(need("w_bar")),
            eps_omega=float(need("eps_omega")),
            eps_psi=float(need("eps_psi")),
            margin=float(need("margin")),
            L_g=float(need("L_g")),
            L_V=float(need("L_V")),
            workspace=Ball(np.asarray(need("workspace")["center"], dtype=float),
                           float(need("workspace")["radius"])),
            obstacles=[Ball(np.asarray(o["center"], dtype=float), float(o["radius"]))
                       for o in raw.get("obstacles", [])],
            agents=agents,
            Q=Q, R=R, P=P,
            schedule=[int(i) for i in raw.get("schedule", range(len(agents)))],
            disturbance=dict(raw.get("disturbance", {})),
            tube_cap=optional_float("tube_cap"),
            lam_max_P=optional_float("lam_max_P"),
            sup_error=optional_float("sup_error"),
            max_iterations=int(raw.get("max_iterations", OcpConfig.max_iterations)),
            constraint_tol=float(raw.get("constraint_tol", OcpConfig.constraint_tol)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"{path}: invalid field ({exc})") from exc

    _validate(scenario, path)
    return scenario


def _validate(scenario: Scenario, path):
    """Build what `run` and `certify` build: their checks fail here, named."""
    try:
        for k, (spec, model) in enumerate(zip(scenario.agents, scenario.build_models())):
            for name in ("start", "goal"):
                value = getattr(spec, name)
                if value.shape != (model.state_dim,) or not np.all(np.isfinite(value)):
                    raise ValueError(f"agent {k} {name} must be {model.state_dim} "
                                     f"finite numbers, got {value.tolist()}")
            for name, dim in (("Q", model.state_dim), ("P", model.state_dim),
                              ("R", model.input_dim)):
                shape = getattr(scenario, name).shape
                if shape != (dim, dim):
                    raise ValueError(f"weight {name} must be {dim}x{dim} for agent {k}'s "
                                     f"{spec.model} model, got {'x'.join(map(str, shape))}")
        sim = scenario.build_simulation()
        scenario.build_certificate()
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    # the goals too must meet every raw margin, or the agents cannot reach
    # them without breaking separation or connectivity
    for name, states in (("initial", sim.states), ("desired", scenario.references)):
        report = coordination.validate_initial(sim.world, states, sim.models)
        if not report.passed:
            raise ScenarioError(f"{path}: infeasible {name} configuration: "
                                + "; ".join(report.failures))


# -- subcommands ---------------------------------------------------------

def cmd_run(scenario_path, out_dir, seed=None, total_time=None):
    scenario = load_scenario(scenario_path, seed=seed)
    try:
        sim = scenario.build_simulation(total_time=total_time)
    except ValueError as exc:
        raise ScenarioError(f"--total-time {total_time}: {exc}") from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        log = sim.run()
        aborted = None
    except SimulationError as exc:
        log = exc.partial_log
        aborted = str(exc)
    log.to_csv(out / "trajectory.csv")
    report = certify.verify(log, scenario.build_world(), scenario)
    metas = [meta for trace in log.traces for meta in trace.step_meta]
    disturbances = [d for d in sim.disturbances if d is not None]
    extra = {
        "scenario": scenario.name,
        "aborted": aborted or "",
        "solves": len(metas),
        "terminal_relaxed_solves": sum(meta["terminal_relaxed"] for meta in metas),
        "terminal_excluded_solves": sum(meta["terminal_excluded"] for meta in metas),
        "tube_capped_solves": sum(meta["tube_capped"] for meta in metas),
        "suboptimal_stop_solves": sum(meta["suboptimal_stop"] for meta in metas),
        "feasible_witness_solves": sum(meta["feasible_witness"] for meta in metas),
        "carried_metric_solves": sum(meta["carried_metric"] for meta in metas),
        "metric_fallback_attempts": sum(meta["metric_fallbacks"] for meta in metas),
        "disturbance_samples": sum(d.samples for d in disturbances),
        "disturbance_clipped_samples": sum(d.clipped for d in disturbances),
    }
    certify.write_report(report, out / "report.txt", extra=extra)
    for line in report.summary_lines():
        print(line)
    if aborted:
        print(f"run aborted: {aborted}", file=sys.stderr)
        return 1
    return 0 if report.passed else 1


def cmd_certify(scenario_path, seed=None):
    scenario = load_scenario(scenario_path, seed=seed)
    cert = scenario.build_certificate()
    for key, value in asdict(cert).items():
        print(f"{key} = {value}")
    print(f"w_bar = {scenario.w_bar}")
    # the declared L_g against the unicycle field's state-Lipschitz constant:
    # |f(z_a, u) - f(z_b, u)| = |v| 2 |sin((theta_a - theta_b) / 2)| <=
    # |v| |z_a - z_b|, with the ratio tending to |v| as the headings close,
    # so it is sup |v| over the input ball, u_bar. Reported, not gated on
    # (the verdict covers the disturbance bound only). Every agent is the one
    # unicycle model (build_models admits no other kind).
    L_g_exact = scenario.u_bar
    print(f"L_g_exact = {L_g_exact}")
    print("w_max_at_L_g_exact =", certify.disturbance_bound(
        scenario.eps_psi, scenario.eps_omega, scenario.L_V, L_g_exact,
        scenario.h, scenario.T_p))
    print(f"L_g_sound = {str(scenario.L_g >= L_g_exact).lower()}")
    # the certificate covers only an uncapped tube, which leaves no plan
    # once it has closed some neighbor pair's window within the horizon
    world = scenario.build_world()
    for name, L_g in (("window_closes_at_tau", scenario.L_g),
                      ("window_closes_at_tau_at_L_g_exact", L_g_exact)):
        print(f"{name} =", certify.window_closes_at(world, scenario.w_bar, L_g, scenario.T_p))
    print("verdict =", "consistent" if cert.consistent else "inconsistent")
    return 0 if cert.consistent else 1


def cmd_verify(log_path, scenario_path, seed=None):
    scenario = load_scenario(scenario_path, seed=seed)
    try:
        log = TrajectoryLog.from_csv(log_path, h=scenario.h)
        report = certify.verify(log, scenario.build_world(), scenario)
    except ValueError as exc:  # a malformed file, or another agent count than the scenario's
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


def cmd_columns(scenario_path):
    """Print the CSV column manifest (gnuplot `using` indices are 1-based)."""
    scenario = load_scenario(scenario_path)
    models = scenario.build_models()
    names = coordination.csv_columns(max(m.state_dim for m in models),
                                     max(m.input_dim for m in models))
    for idx, name in enumerate(names, start=1):
        print(f"{idx}\t{name}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dnmpc",
        description="Robust decentralized NMPC simulator for multi-agent navigation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and verify the log")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--total-time", type=float, default=None,
                       help="override the scenario duration")

    p_cert = sub.add_parser("certify", help="print the analytic certificate")
    p_cert.add_argument("scenario")
    p_cert.add_argument("--seed", type=int, default=None)

    p_ver = sub.add_parser("verify", help="re-verify an existing trajectory CSV")
    p_ver.add_argument("log")
    p_ver.add_argument("scenario")
    p_ver.add_argument("--seed", type=int, default=None)

    p_col = sub.add_parser("columns", help="print the CSV column manifest")
    p_col.add_argument("scenario")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.scenario, args.out, seed=args.seed,
                           total_time=args.total_time)
        if args.command == "certify":
            return cmd_certify(args.scenario, seed=args.seed)
        if args.command == "verify":
            return cmd_verify(args.log, args.scenario, seed=args.seed)
        if args.command == "columns":
            return cmd_columns(args.scenario)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
