"""The benchmark's three workloads: their inputs, one measured pass of fixed
work, and the checks on its outputs.

All three are closed loops: the engine solves the next agent only after the
previous one is done, and a replay round trip starts after the previous ends.

- ``corridor``: the bundled three-unicycle scenario from its own starts, over
  the corridor crossing and the start of the approach (3.4 s, 102 solves).
  This is where the fallback ladder (extra attempts, phase-1 restoration)
  works. The input is the file as shipped and ``--seed`` does not perturb it:
  weight seed 20, and start jitter of 5 cm or less, make the run abort.
  ``--weight-seed`` picks another weight seed; 19 completes and serves as the
  held-out seed. An abort counts every unfinished agent-solve as failed.
- ``settle``: the same world with each agent started 0.3-0.5 m short of its
  goal plus a small lateral and heading error; two such episodes of 1.7 s
  (102 solves). This is the regime long runs spend most time in: every solve
  keeps the terminal constraint and succeeds on its first attempt. The start
  errors are drawn from the fixed ``SETTLE_START_SEED``, not from ``--seed``
  (see there); ``--weight-seed`` varies the input for held-out checks.
- ``replay``: re-verify a long log as ``dnmpc verify`` does. The log is a
  seeded synthetic log the shape of the 100 s acceptance log (3 x 10,001
  rows), written once during set-up with ``to_csv``. It exercises the CSV and
  certify layers and bypasses ``ocp`` and ``dynamics``.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dnmpc import certify, cli
from dnmpc.coordination import AgentTrace, SimulationError, TrajectoryLog

from hooks import SolveClock, SpeedProbe, Tracer, installed

perf_counter = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"

# verify() verdicts that must PASS on every log; the others (ultimate bound,
# terminal trapping, ISS slope) need a converged run and are only reported
SAFETY_CHECKS = ("inter-agent-separation", "neighbor-connectivity",
                 "obstacle-clearance", "workspace-containment", "solver-feasible")

CORRIDOR_TIME = 3.4   # 34 steps x 3 agents = 102 solves: >= 10 beyond p90
SETTLE_EPISODES = 2
SETTLE_TIME = 1.7     # 2 episodes x 17 steps x 3 agents = 102 solves
# Which settle solves run far past the usual ~70 SLSQP iterations, up to the
# 100-iteration cap, is chaotic in the start: over the starts of seeds 1-6
# their share ranged from 2% to 24% of a pass, around the 10% that p90 reads,
# so the p90 of iterations per solve ranged from 70 to 93 and op_p90_s moved
# with it. The starts are therefore drawn once, from this seed, like
# corridor's fixed input; 19% of its solves take 75 iterations or more.
SETTLE_START_SEED = 1
REPLAY_TIME = 100.0   # simulated span of the synthetic log
REPLAY_ROUND_TRIPS = 16    # p90 then lies between the 2nd and 3rd slowest
POST_EVERY = 5        # replay: one post-run repeat after every fifth round trip
# steps of the first episode re-run untraced as the trace-overhead reference
REFERENCE_STEPS = 10


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _overhead(traced, reference):
    """Tracing overhead: median over paired operations (the same solve or
    round trip, traced and untraced) of the scaled latency ratio, minus 1."""
    return statistics.median(t[1] / r[1] for t, r in zip(traced, reference)) - 1.0


def _verdicts(report):
    """Comparable form of a VerificationReport, check by check."""
    return tuple((name, c.passed, repr(c.worst_margin), repr(c.worst_time))
                 for name, c in report.checks.items())


@dataclass
class Output:
    """A log to finalize, write, verify and read back."""

    label: str
    sim: object
    scenario: object
    world: object
    path: Path


@dataclass
class PassResult:
    """Measurements and checks of one pass.

    Timings are (raw, scaled) pairs: seconds as measured, and seconds at the
    machine's typical speed (see ``hooks.SpeedProbe``).
    """

    probe: SpeedProbe
    loop: tuple = (0.0, 0.0)
    sim_s: float = 0.0                               # simulated seconds covered
    latencies: list = field(default_factory=list)    # one per operation
    post_s: list = field(default_factory=list)       # one per repeat
    rows_per_s: list = field(default_factory=list)   # one per read-back
    # per repeat or read-back, the (raw seconds, first probe, last probe)
    # sample of each call it made; scaled by finish()
    post_raw: list = field(default_factory=list)
    reads_raw: list = field(default_factory=list)
    read_rows: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    verdict_lines: list = field(default_factory=list)
    layer: dict = field(default_factory=lambda: {
        "finalize_s": 0.0, "to_csv_s": 0.0, "csv_bytes": 0,
        "from_csv_s": 0.0, "verify_s": 0.0})
    tracer: Tracer = None

    def check(self, ok, message):
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def _timed(self, samples, layer, fn, *args):
        """Call ``fn`` between two probe runs, the first of which may be the
        previous call's last; append its sample to ``samples`` and add its
        raw seconds to ``self.layer[layer]``."""
        first = samples[-1][2] if samples else self.probe.run()
        start = perf_counter()
        result = fn(*args)
        raw = perf_counter() - start
        samples.append((raw, first, self.probe.run()))
        self.layer[layer] += raw
        return result

    def post_run(self, outputs, reference=None):
        """Time one ``finalize_log`` + ``to_csv`` + ``verify`` of every output.

        The first call checks the safety verdicts and returns each output's
        (digest, verdicts); pass that back in, and later calls are checked
        against it."""
        gc.collect()
        samples, results = [], []
        for k, out in enumerate(outputs):
            log = self._timed(samples, "finalize_s", out.sim.finalize_log)
            self._timed(samples, "to_csv_s", log.to_csv, out.path)
            report = self._timed(samples, "verify_s", certify.verify,
                                 log, out.world, out.scenario)
            results.append((_digest(out.path), _verdicts(report)))
            if reference is not None:
                self.check(results[k] == reference[k],
                           f"{out.label}: repeated post-run work differs")
                continue
            self.digests.append(results[k][0])
            self.layer["csv_bytes"] += out.path.stat().st_size
            self.verdict_lines += [f"{out.label}: {line}" for line in report.summary_lines()]
            for name in SAFETY_CHECKS:
                c = report.checks[name]
                self.check(c.passed, f"{out.label}: {name} FAIL "
                                     f"(worst margin {c.worst_margin:+.6g})")
        self.post_raw.append(samples)
        return reference or results

    def read_back(self, outputs):
        """Time one ``from_csv`` + ``verify`` of each output's CSV, as
        ``dnmpc verify`` does. Returns each output's verdicts."""
        gc.collect()
        samples, rows, verdicts = [], 0, []
        for out in outputs:
            log = self._timed(samples, "from_csv_s", TrajectoryLog.from_csv,
                              out.path, out.scenario.h)
            report = self._timed(samples, "verify_s", certify.verify,
                                 log, out.world, out.scenario)
            rows += sum(len(trace.times) for trace in log.traces)
            verdicts.append(_verdicts(report))
        self.reads_raw.append(samples)
        self.read_rows.append(rows)
        return verdicts

    def _total(self, samples):
        """(raw, scaled) seconds of one operation's calls."""
        scaled = self.probe.scale(samples)
        return (sum(raw for raw, _ in scaled), sum(x for _, x in scaled))

    def finish(self):
        """Scale the post-run and read-back samples once the pass is over, so
        the running median sees the probes on both sides of each."""
        self.post_s = [self._total(samples) for samples in self.post_raw]
        reads = [self._total(samples) for samples in self.reads_raw]
        self.rows_per_s = [(rows / raw, rows / scaled)
                           for rows, (raw, scaled) in zip(self.read_rows, reads)]
        return reads


# --- simulated workloads ------------------------------------------------------

@dataclass
class Corridor:
    seed: int
    weight_seed: int = None

    def make(self, base):
        return [(base, CORRIDOR_TIME)]


@dataclass
class Settle:
    seed: int
    weight_seed: int = None

    def make(self, base):
        rng = np.random.default_rng(SETTLE_START_SEED)
        episodes = []
        for _ in range(SETTLE_EPISODES):
            scenario = copy.deepcopy(base)
            for spec in scenario.agents:
                short, lateral, heading = rng.uniform([0.3, -0.05, -0.1], [0.5, 0.05, 0.1])
                theta = spec.goal[2]
                along = np.array([np.cos(theta), np.sin(theta), 0.0])
                across = np.array([-np.sin(theta), np.cos(theta), 0.0])
                spec.start = (spec.goal - short * along + lateral * across
                              + np.array([0.0, 0.0, heading]))
            episodes.append((scenario, SETTLE_TIME))
        return episodes


class SimulatedWorkload:
    """Closed-loop episodes of the round-robin engine, then the post-run work
    ``dnmpc run`` does (finalize, CSV, verify) and a read-back of each CSV."""

    post_repeats = 10

    def __init__(self, episodes, workdir, probe):
        self.probe = probe
        start = perf_counter()
        base = cli.load_scenario(SCENARIO, seed=episodes.weight_seed)
        self.load_s = perf_counter() - start
        self.episodes = episodes.make(base)
        self.workdir = Path(workdir)
        self._sims = self._build()
        self._last_sims = None

    def _build(self):
        return [scenario.build_simulation(total_time=span)
                for scenario, span in self.episodes]

    @staticmethod
    def _run(sim, clock, patches, result, label):
        """One closed loop. Every agent-solve it does not finish fails."""
        n_agents = len(sim.models)
        planned = int(round(sim.total_time / sim.config.h)) * n_agents
        solved_before = len(clock.solves)
        clock.restart()
        with installed(patches):
            try:
                sim.run()
            except SimulationError as exc:
                result.problems.append(f"{label} aborted: {exc}")
        solved = len(clock.solves) - solved_before
        result.sim_s += (solved // n_agents) * sim.config.h
        result.attempted += planned
        result.failed += planned - solved

    def run_pass(self, traced=False):
        sims, self._sims = self._sims or self._build(), None
        result = PassResult(self.probe)
        clock = SolveClock(self.probe)
        patches = clock.patches()
        if traced:
            result.tracer = Tracer(clock)
            patches = result.tracer.patches() + patches
        outputs = []
        for e, ((scenario, _), sim) in enumerate(zip(self.episodes, sims)):
            label = f"episode {e}"
            self._run(sim, clock, patches, result, label)
            outputs.append(Output(label, sim, scenario, scenario.build_world(),
                                  self.workdir / f"episode{e}.csv"))
        result.loop, result.latencies = clock.scaled()
        self._last_sims = sims
        # post-run work and read-back alternate, so their medians span a
        # longer stretch of the machine's varying speed
        reference = None
        for _ in range(self.post_repeats):
            reference = result.post_run(outputs, reference)
            replayed = result.read_back(outputs)
            for out, (_, verdicts), again in zip(outputs, reference, replayed):
                result.check(again == verdicts,
                             f"{out.label}: verdicts differ after the CSV round trip")
        result.finish()
        return result

    def trace_reference(self, traced):
        """Re-run the first REFERENCE_STEPS steps of the first episode
        untraced, after the traced pass. Returns that reference pass and the
        tracing overhead on its solves; the trajectories must match."""
        sims = self._last_sims
        scenario, _ = self.episodes[0]
        sim = scenario.build_simulation(total_time=REFERENCE_STEPS * scenario.h)
        clock = SolveClock(self.probe)
        reference = PassResult(self.probe)
        self._run(sim, clock, clock.patches(), reference, "untraced reference")
        reference.loop, reference.latencies = clock.scaled()
        for i, (plain, full) in enumerate(zip(sim.traces, sims[0].traces)):
            rows = len(plain.states)
            same = (np.array_equal(plain.states, full.states[:rows])
                    and np.array_equal(plain.inputs, full.inputs[:rows], equal_nan=True))
            reference.check(same, f"tracing changed agent {i}'s trajectory")
        return reference, _overhead(traced.latencies, reference.latencies)


# --- replay -------------------------------------------------------------------

def synthetic_traces(sim, seed):
    """Seeded settled-regime traces: small errors about each goal, one row per
    RK4 substep, per-step solver metadata, V = e'Pe. The margins are left for
    ``finalize_log`` to fill in."""
    rng = np.random.default_rng(seed)
    cfg = sim.config
    n_steps = int(round(REPLAY_TIME / cfg.h))
    S = cfg.substeps
    offsets = (cfg.h / S) * np.arange(1, S + 1)
    times = np.concatenate([[0.0], (cfg.h * np.arange(n_steps)[:, None] + offsets).ravel()])
    traces = []
    for errordyn in sim.errordyns:
        model = errordyn.model
        rows = len(times)
        errors = np.clip(rng.normal(0.0, 0.01, (rows, model.state_dim)), -0.03, 0.03)
        step_inputs = rng.uniform(-0.5, 0.5, (n_steps, model.input_dim))
        inputs = np.vstack([np.full((1, model.input_dim), np.nan),
                            np.repeat(step_inputs, S, axis=0)])
        w_norms = np.concatenate([[0.0], rng.uniform(0.0, 0.1, rows - 1)])
        V = np.einsum("ri,ij,rj->r", errors, cfg.P, errors)
        costs = 0.01 * np.cumprod(1.0 - rng.uniform(0.0, 0.01, n_steps))
        errsq = rng.uniform(1e-6, 1e-4, n_steps)
        trace = AgentTrace(
            times=[float(t) for t in times],
            states=list(errors + errordyn.z_des),
            inputs=list(inputs),
            w_norms=[float(w) for w in w_norms],
            V=[float(v) for v in V])
        trace.step_meta = [{
            "t": k * cfg.h, "status": "feasible-suboptimal", "cost": float(costs[k]),
            "errsq_int": float(errsq[k]), "terminal_relaxed": False, "tube_capped": True,
        } for k in range(n_steps)]
        traces.append(trace)
    return traces


class Replay:
    """Round trips ``TrajectoryLog.from_csv`` + ``certify.verify`` of one long
    log, alternating with the post-run work on the same log in memory."""

    def __init__(self, seed, workdir, probe):
        self.probe = probe
        start = perf_counter()
        scenario = cli.load_scenario(SCENARIO)
        self.load_s = perf_counter() - start
        sim = scenario.build_simulation(total_time=REPLAY_TIME)
        sim.traces = synthetic_traces(sim, seed)
        self.log = Output("replay log", sim, scenario, scenario.build_world(),
                          Path(workdir) / "replay.csv")
        sim.finalize_log().to_csv(self.log.path)
        self.digest = _digest(self.log.path)

    def run_pass(self, traced=False):
        result = PassResult(self.probe)
        patches = []
        if traced:
            result.tracer = Tracer(SolveClock(self.probe))
            patches = result.tracer.patches()
        written = Output(self.log.label, self.log.sim, self.log.scenario, self.log.world,
                         self.log.path.with_name("replay_post.csv"))
        replayed, reference = [], None
        with installed(patches):
            for k in range(REPLAY_ROUND_TRIPS):
                replayed += result.read_back([self.log])
                result.sim_s += REPLAY_TIME
                if k % POST_EVERY == POST_EVERY - 1:
                    reference = result.post_run([written], reference)
        result.latencies = result.finish()
        result.loop = (sum(raw for raw, _ in result.latencies),
                       sum(scaled for _, scaled in result.latencies))
        [(digest, expected)] = reference
        result.check(digest == self.digest, "post-run CSV differs from the set-up write")
        for k, verdicts in enumerate(replayed):
            result.check(verdicts == expected,
                         f"round trip {k}: verdicts differ from verify(log)")
        return result

    def trace_reference(self, traced):
        """An untraced pass of the same work, and the tracing overhead."""
        reference = self.run_pass()
        reference.check(reference.digests == traced.digests,
                        "traced and untraced passes wrote different CSVs")
        return reference, _overhead(traced.latencies, reference.latencies)
