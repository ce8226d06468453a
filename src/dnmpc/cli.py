"""Scenario files and the command-line interface.

Subcommands: ``run`` (simulate, write trajectory CSV + verification report),
``certify`` (print the analytic certificate and compare the declared L_g
with the model's exact one), ``verify`` (re-check an existing log), ``columns``
(gnuplot-compatible manifest of the CSV columns).

Scenario files are YAML; matrices are row-major nested lists; all physical
quantities are SI. The stage and terminal weights are drawn by the seeded
random recipe Q = 0.5 (I + 0.5 S), P = 0.3 (I + 0.5 S) with S a symmetrized
uniform random matrix drawn from the scenario seed by the module's own PCG64
generator; the input weight R is given, the `weights` section's one key.
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

    # -- component builders ---------------------------------------------

    @property
    def references(self):
        return [spec.goal for spec in self.agents]

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
        )

    def build_profile(self):
        return TubeProfile(w_bar=max(self.w_bar, 1e-12), L_g=self.L_g)

    def build_disturbances(self):
        if self.w_bar == 0.0 or not self.disturbance:
            return [None] * len(self.agents)
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

        def gen(times):
            # the same sinusoid on every state component
            return (amp * np.sin(freq * times))[:, None].repeat(UNICYCLE.state_dim, axis=1)

        return [DisturbanceSignal(generator=gen, bound=self.w_bar) for _ in self.agents]

    def build_certificate(self):
        # the envelope of the error norm: workspace diameter plus angle range
        return certify.build_certificate(
            Q=self.Q, P=self.P, eps_omega=self.eps_omega, eps_psi=self.eps_psi,
            L_g=self.L_g, L_V=self.L_V, h=self.h, T_p=self.T_p, w_bar=self.w_bar,
            sup_error=2.0 * self.workspace.radius + math.pi, lam_max_P=self.lam_max_P,
        )

    def build_simulation(self, total_time=None):
        return Simulation(
            world=self.build_world(),
            references=self.references,
            config=self.build_config(),
            profile=self.build_profile(),
            schedule=self.schedule,
            disturbances=self.build_disturbances(),
            initial_states=[spec.start for spec in self.agents],
            total_time=self.total_time if total_time is None else total_time,
            tube_cap=self.tube_cap,
        )


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (O'Neill 2014)
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seeded_uniforms(seed, count):
    """`count` uniforms in [0, 1) from `seed`: numpy's SeedSequence pool hash
    of the seed's 32-bit words, PCG64 (XSL-RR 128/64) seeded from its four
    64-bit state words, and each 64-bit output's top 53 bits over 2**53.
    These are the floats of ``np.random.default_rng(seed).uniform(0.0, 1.0,
    count)``, without loading numpy.random."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]  # least significant first; [0] for 0
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    const, state32 = 0x8B51F9DD, []
    for k in range(8):
        value = pool[k % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        state32.append(value ^ value >> 16)
    s0, s1, s2, s3 = (state32[k] | state32[k + 1] << 32 for k in range(0, 8, 2))
    # pcg64_set_seed: state 0, a step, the initial state added, a step
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULTIPLIER + inc) & _MASK128
    out = []
    for _ in range(count):
        # a step, then the new state's output: xor-fold, rotate by the top 6 bits
        state = (state * _PCG_MULTIPLIER + inc) & _MASK128
        value, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        value = (value >> rot | value << (64 - rot)) & _MASK64
        out.append((value >> 11) * 2.0 ** -53)
    return out


def _weights_from_recipe(section, seed):
    """Materialize Q, P (and R) from the scenario weight section: Q and P
    drawn for the unicycle's state by the recipe, R read (`OcpConfig`
    checks that it is positive definite). The recipe's Q and P are positive
    definite: S, symmetric with entries in [0, 1), has no eigenvalue below
    -sqrt(2), so I + 0.5 S has none below 0.29. S's uniforms come from
    :func:`_seeded_uniforms`, so this code defines Q and P; they are the
    floats of ``np.random.default_rng(seed).uniform(0.0, 1.0, (3, 3))``, bit
    for bit on numpy 2.4.6 (whose stream NEP 19 does not freeze)."""
    dim = UNICYCLE.state_dim
    R = np.asarray(section["R"], dtype=float)
    S = np.array(_seeded_uniforms(seed, dim * dim)).reshape(dim, dim)
    # only the symmetric part contributes to the quadratic forms
    S = 0.5 * (S + S.T)
    Q = 0.5 * (np.eye(dim) + 0.5 * S)
    P = 0.3 * (np.eye(dim) + 0.5 * S)
    return Q, R, P


# the keys a scenario file, each of its agents and each of its sections may hold
_SCENARIO_KEYS = frozenset((
    "name", "seed", "total_time", "h", "T_p", "u_bar", "w_bar", "eps_omega", "eps_psi",
    "margin", "L_g", "L_V", "lam_max_P", "tube_cap", "schedule", "workspace", "obstacles",
    "weights", "disturbance", "agents"))
_AGENT_KEYS = frozenset(("radius", "sensing_range", "detection_range", "start", "goal"))
_BALL_KEYS = frozenset(("center", "radius"))  # the workspace's and each obstacle's
_WEIGHT_KEYS = frozenset(("R",))
_DISTURBANCE_KEYS = frozenset(("amplitude", "frequency"))


def load_scenario(path, seed=None) -> Scenario:
    """Parse and fully validate a YAML scenario file.

    Raises ScenarioError with the offending field (or YAML location) on any
    parse or validation failure, an unknown key of the file, of an agent or
    of a section included. `seed` overrides the file's seed, and is checked
    as it is: an integer, not a float, bool or string.
    """
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"parse error in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    unknown = [key for key in raw if key not in _SCENARIO_KEYS]
    if unknown:
        raise ScenarioError(f"{path}: unknown field {unknown[0]!r}")

    def need(key):
        if key not in raw:
            raise ScenarioError(f"{path}: missing field {key!r}")
        return raw[key]

    def section(value, keys, name):
        """The mapping `value`, called `name` in messages, which holds no key
        outside `keys`."""
        if not isinstance(value, dict):
            raise ScenarioError(f"{path}: {name} must be a mapping")
        unknown = [key for key in value if key not in keys]
        if unknown:
            raise ScenarioError(f"{path}: unknown field {unknown[0]!r} of {name}")
        return value

    def integer(value, name):
        """`value`, called `name` in messages: a float, a bool or a string is
        an error, not truncated."""
        if type(value) is not int:
            raise ScenarioError(f"{path}: {name} must be an integer, got {value!r}")
        return value

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
    for k, a in enumerate(raw_agents):
        section(a, _AGENT_KEYS, f"agent {k}")
    try:
        workspace = section(need("workspace"), _BALL_KEYS, "workspace")
        obstacles = [section(o, _BALL_KEYS, f"obstacle {k}")
                     for k, o in enumerate(raw.get("obstacles", []))]
        disturbance = section(raw.get("disturbance", {}), _DISTURBANCE_KEYS, "disturbance")
        weights = section(need("weights"), _WEIGHT_KEYS, "weights")
        agents = [
            AgentSpec(
                radius=float(a["radius"]),
                sensing_range=float(a["sensing_range"]),
                detection_range=float(a["detection_range"]),
                start=np.asarray(a["start"], dtype=float),
                goal=np.asarray(a["goal"], dtype=float),
            )
            for a in raw_agents
        ]
        use_seed = (integer(raw.get("seed", 0), "field 'seed'") if seed is None
                    else integer(seed, "seed override"))
        Q, R, P = _weights_from_recipe(weights, use_seed)
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
            workspace=Ball(np.asarray(workspace["center"], dtype=float),
                           float(workspace["radius"])),
            obstacles=[Ball(np.asarray(o["center"], dtype=float), float(o["radius"]))
                       for o in obstacles],
            agents=agents,
            Q=Q, R=R, P=P,
            schedule=[integer(i, f"field 'schedule' entry {k}")
                      for k, i in enumerate(raw.get("schedule", range(len(agents))))],
            disturbance=dict(disturbance),
            tube_cap=optional_float("tube_cap"),
            lam_max_P=optional_float("lam_max_P"),
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
        for k, spec in enumerate(scenario.agents):
            for name in ("start", "goal"):
                value = getattr(spec, name)
                if value.shape != (UNICYCLE.state_dim,) or not np.all(np.isfinite(value)):
                    raise ValueError(f"agent {k} {name} must be {UNICYCLE.state_dim} "
                                     f"finite numbers, got {value.tolist()}")
        dim = UNICYCLE.input_dim
        if scenario.R.shape != (dim, dim):
            raise ValueError(f"weight R must be {dim}x{dim}, "
                             f"got {'x'.join(map(str, scenario.R.shape))}")
        sim = scenario.build_simulation()
        scenario.build_certificate()
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    # the goals too must meet every raw margin, or the agents cannot reach
    # them without breaking separation or connectivity
    for name, states in (("initial", sim.states), ("desired", scenario.references)):
        failures = coordination.validate_initial(sim.world, states)
        if failures:
            raise ScenarioError(f"{path}: infeasible {name} configuration: "
                                + "; ".join(failures))


# the boolean keys of a solve's record that report.txt counts, in its order,
# each as "<key>_solves"
COUNTED_FLAGS = ("terminal_relaxed", "terminal_excluded", "tube_capped", "suboptimal_stop",
                 "feasible_witness")


def solve_counts(metas):
    """report.txt's solve counts over the records `metas` (step_meta
    entries): "solves", then "<key>_solves", the records with `key` set, for
    each key of COUNTED_FLAGS."""
    counts = {"solves": len(metas)}
    counts.update({f"{key}_solves": sum(meta[key] for meta in metas) for key in COUNTED_FLAGS})
    return counts


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
        **solve_counts(metas),
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
    # (the verdict covers the disturbance bound only). Every agent is a
    # unicycle.
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


def cmd_columns():
    """Print the CSV column manifest (gnuplot `using` indices are 1-based)."""
    for idx, name in enumerate(coordination.CSV_COLUMNS, start=1):
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

    sub.add_parser("columns", help="print the CSV column manifest")

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
            return cmd_columns()
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
