"""Sequential (round-robin) decentralized simulation engine.

Each sampling step walks the schedule: the scheduled agent reads the
prediction board, builds its tightened stage constraints against the other
agents' latest predicted trajectories (sampled at matching absolute times),
solves its FHOCP warm-started from the shifted previous solution, posts the
new prediction, and applies the first input segment to the true disturbed
dynamics while all other agents hold still.

Sensing reads the current states, so the agents earlier in the schedule are
sensed at t_k + h and the later ones at t_k (the paper senses all at one
instant); constraints are built against each agent's newest posted plan.

Every solve of a simulation is tightened by one tube: the tube profile's
radius at each prediction time, clipped at `tube_cap` when the profile
exceeds it on the horizon (the radius grows exponentially, and unclipped it
can empty the tightened problem at the horizon tail); each solve's record
flags a capped tube. The terminal constraint can be unreachable far from the
goal, so a fallback ladder tries a terminal-enforced tier, then a relaxed
one, flagged in the solution status and the solve's record. Each tier tries
the shifted and zero starts and lateral probes when blocked; when all its
starts end infeasible, the relaxed tier also tries a phase-1 feasibility
restoration. The terminal-enforced tier runs only near the goal,
and is skipped when a closed-form check proves it infeasible: every position
the terminal set admits lies within r = sqrt((eps_omega + CONSTRAINT_TOL) /
lambda_min(P)) of the goal, and some last-stage margin is violated on that
whole ball.

An agent-solve is two parts: `Simulation.problem` builds an `AgentProblem`,
data alone, and `solve_ladder` solves it from that problem and the config
alone, so a pickled problem re-solves by itself.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .certify import ultimate_bound
from .constraints import MARGIN_KINDS, StageGeometry, WorldModel, tube_profile_radii
from .dynamics import UNICYCLE, ErrorDynamics, integrate
from .ocp import (CONSTRAINT_TOL, OcpConfig, restore_feasibility, solve_fhocp,
                  warm_start_shift)
from .setalg import TubeProfile

__all__ = [
    "sensing_set",
    "neighbor_sets",
    "validate_initial",
    "AgentProblem",
    "solve_ladder",
    "PredictionEntry",
    "CSV_COLUMNS",
    "TrajectoryLog",
    "AgentTrace",
    "SimulationError",
    "Simulation",
]


def sensing_set(agent, positions, d_i):
    """Agents strictly within sensing range of `agent` (excluding itself)."""
    positions = np.asarray(positions, dtype=float)
    diff = positions - positions[agent]
    # the sum np.linalg.norm forms, so the distances are the same floats
    dists = np.sqrt(np.add.reduce(diff * diff, axis=1))
    return {j for j in range(len(positions)) if j != agent and dists[j] < d_i}


def neighbor_sets(initial_positions, sensing_ranges):
    """Fixed neighbor sets N_i = R_i(0). Raises if any agent is isolated."""
    n = len(initial_positions)
    out = []
    for i in range(n):
        n_i = frozenset(sensing_set(i, initial_positions, sensing_ranges[i]))
        if not n_i:
            raise ValueError(f"agent {i} has no neighbor at t = 0")
        out.append(n_i)
    return out


# how validate_initial names a violated margin, by MARGIN_KINDS index
_VIOLATIONS = ("collides with", "is out of sensing range of", "is inside", "is outside")


def validate_initial(world: WorldModel, states):
    """Start (or goal) configuration check of the unicycles' `states`: every
    raw distance margin (eps = 0) of every agent must be positive. Each
    pair's separation is checked once, from the lower index. Returns the
    failures, one line each: none when the configuration passes."""
    tracks = [np.asarray(z)[_POSITION][None, :] for z in states]
    failures = []
    for i, track in enumerate(tracks):
        geo = world.geometry(i, np.zeros(1), tracks, range(i + 1, len(tracks)),
                             range(len(world.obstacles)), 0.0)
        margins = geo._evaluate(track)[0][0]
        failures += [f"agent {i} {_VIOLATIONS[kind]} {label} (margin {margin:.4g})"
                     for kind, label, margin in zip(geo.kinds, geo.labels, margins)
                     if margin <= 0.0]
    return failures


@dataclass
class PredictionEntry:
    """A posted open-loop prediction: absolute positions on a uniform time grid.

    Predictions are posted on the integrator substep grid so that other
    agents' linear interpolation of the posted plan stays within integrator
    accuracy of the trajectory the poster actually certified; interpolating
    chords between stage points alone deviates from the curved path by up to
    a few centimetres at high speed, which shows up as phantom collision
    margins for the other agents.
    """

    t0: float
    h: float
    positions: np.ndarray  # (n_grid + 1, d)

    def positions_at(self, times):
        """Positions interpolated on the posted grid, held beyond both ends."""
        grid = self.t0 + self.h * np.arange(len(self.positions))
        times = np.asarray(times, dtype=float)
        out = np.empty((len(times), self.positions.shape[1]))
        for d in range(self.positions.shape[1]):
            out[:, d] = np.interp(times, grid, self.positions[:, d])
        return out


@dataclass
class AgentTrace:
    """Time-indexed true trajectory and per-step solver metadata.

    `times`, `states`, `inputs`, `w_norms` and `V` hold one entry per logged
    sample, the t = 0 one and then `OcpConfig.substeps` per sampling step:
    a running simulation appends to lists, while
    :meth:`Simulation.finalize_log` and :meth:`TrajectoryLog.from_csv`
    return arrays.
    """

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)      # (T, 3)
    inputs: list = field(default_factory=list)      # (T, 2) applied ZOH input, NaN at t=0
    w_norms: list = field(default_factory=list)
    V: list = field(default_factory=list)
    # (T, len(MARGIN_KINDS)) raw margins in MARGIN_KINDS order, filled post-run
    margins: Optional[np.ndarray] = None
    # one record (dict) per solve, as solve_ladder built it; six
    # keys (t, status and the solver columns) when read back from a CSV
    step_meta: list = field(default_factory=list)


# where a unicycle's state holds its workspace position
_POSITION = UNICYCLE.position_slice
_MARGIN_COLUMNS = ["m_" + kind.replace("-", "_") for kind in MARGIN_KINDS]
_SOLVER_COLUMNS = ["status", "cost", "errsq_int", "terminal_relaxed", "tube_capped"]
# the header of the trajectory CSV: the unicycle's states x0..x2 and inputs u0, u1
CSV_COLUMNS = (["t", "agent", "step"]
               + [f"x{d}" for d in range(UNICYCLE.state_dim)]
               + [f"u{d}" for d in range(UNICYCLE.input_dim)]
               + ["w_norm", "V"] + _MARGIN_COLUMNS + _SOLVER_COLUMNS)
# rows that to_csv formats at a time: enough to spread each column's numpy
# calls over many rows, few enough that the strings of a chunk stay small
_CSV_CHUNK_ROWS = 256
# bytes that from_csv reads at a time, then cuts back to whole lines: one
# block's text and lines are all the text it holds
_CSV_BLOCK_BYTES = 1 << 20
# how np.loadtxt names the row it could not parse, counted within its input
_LOADTXT_ROW = re.compile(r"\bat row (\d+)")


def _format_runs(values, fmt):
    """`fmt` of each entry of the 1-D float64 or int64 array `values`, called
    once per run of equal bit patterns: -0.0 and 0.0 stay apart, and so do
    NaNs of different payloads."""
    bits = values.view(np.int64)
    change = np.empty(len(bits), dtype=bool)
    change[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=change[1:])
    strings = list(map(fmt, values[change].tolist()))
    if len(strings) == len(bits):
        return strings
    return np.array(strings, dtype=object)[change.cumsum() - 1].tolist()


def _line_blocks(fh):
    """The lines of the binary file `fh`, as `str.splitlines` splits its
    decoded text, in lists of whole lines: each read of `_CSV_BLOCK_BYTES`
    is cut after its last newline and the rest carried into the next."""
    carry = b""
    while chunk := fh.read(_CSV_BLOCK_BYTES):
        chunk = carry + chunk
        cut = chunk.rfind(b"\n") + 1
        carry, lines = chunk[cut:], chunk[:cut].decode().splitlines()
        del chunk  # hold the block's lines only, while the caller reads them
        if lines:
            yield lines
    if carry:
        yield carry.decode().splitlines()


@dataclass
class TrajectoryLog:
    """A run's log: one AgentTrace per agent, in agent order. Every run
    logs `OcpConfig.substeps` rows per sampling step."""

    traces: list

    def to_csv(self, path):
        """Write the log as one flat CSV, one row per agent per substep.

        Solver columns (step, status, cost, errsq_int, relaxation flags)
        repeat the values of the sampling step the row belongs to; the t = 0
        row carries step -1 and empty solver fields. The step of a row is its
        substep index over `OcpConfig.substeps`. A trace without margins
        raises a ValueError that names it. Floats are written with `repr` so
        identical runs produce byte-identical files; rows end in CRLF, as the
        csv module writes them.

        The fields are formatted column by column over chunks of
        `_CSV_CHUNK_ROWS` rows, with one `repr` per run of equal bit patterns
        in a column (an input held over a step's substeps, a clipped
        disturbance norm), and the agents' times formatted once where their
        chunks are equal.
        """
        for i, trace in enumerate(self.traces):
            if trace.margins is None:
                raise ValueError(f"trace {i} has no margins, which fill the margin columns")
        time_cells = {}  # chunk start -> (the chunk's times as bits, their strings)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\r\n")
            for i, trace in enumerate(self.traces):
                T = len(trace.times)
                margins = np.asarray(trace.margins, dtype=float)
                columns = [np.asarray(trace.times, dtype=float),
                           *np.asarray(trace.states, dtype=float).T,
                           *np.asarray(trace.inputs, dtype=float).T,
                           np.asarray(trace.w_norms, dtype=float),
                           np.asarray(trace.V, dtype=float), *margins.T]
                solver = np.array(["," * (len(_SOLVER_COLUMNS) - 1)] + [
                    f"{m['status']},{float(m['cost'])!r},{float(m['errsq_int'])!r},"
                    f"{int(m['terminal_relaxed'])},{int(m['tube_capped'])}"
                    for m in trace.step_meta], dtype=object)
                steps = np.arange(-1, T - 1) // OcpConfig.substeps
                agent = str(i)
                for start in range(0, T, _CSV_CHUNK_ROWS):
                    rows = slice(start, start + _CSV_CHUNK_ROWS)
                    step = steps[rows]
                    times = columns[0][rows]
                    seen = time_cells.get(start)
                    if seen is None or not np.array_equal(seen[0], times.view(np.int64)):
                        seen = time_cells[start] = (times.view(np.int64),
                                                    _format_runs(times, repr))
                    cells = [seen[1], [agent] * len(step),
                             _format_runs(step, str),
                             *(_format_runs(column[rows], repr) for column in columns[1:]),
                             solver[step + 1].tolist()]
                    fh.write("\r\n".join(map(",".join, zip(*cells))))
                    fh.write("\r\n")

    @classmethod
    def from_csv(cls, path, h):
        """Rebuild a TrajectoryLog (array-valued traces with states, inputs,
        V, margins, and per-step solver metadata) from a file written by
        `to_csv`, whose sampling steps are `h` apart.

        The header must be `CSV_COLUMNS`: the numeric columns are read by
        position and the solver fields are each row's last five. Another
        header, no data rows, agent ids other than 0..k-1, an agent or step
        that is not a finite integer, a row of the wrong length (a truncated
        file), an unparsable field or a value that no run logs raises
        ValueError, which names the file and, for the header, its first
        column that differs or, for a row, its line. A run logs finite times,
        states, `w_norm`, `V`, costs and `errsq_int`, margins that are not
        NaN (inf where a kind has no column) and inputs that are NaN only at
        step -1.

        The file is read in blocks of whole lines of about `_CSV_BLOCK_BYTES`
        (1 MiB), so that the text of one block at a time is held, not the
        whole file's. Each block's numeric columns are parsed by one
        `np.loadtxt` call, and of its solver fields only those of the rows
        that start a run of one (agent, step) are kept: the first row of
        each step is one of them. The blocks' arrays are joined at the end.
        """
        with open(path, "rb") as fh:
            blocks = _line_blocks(fh)
            rows = next(blocks, [""])  # an empty file has an empty header
            header = rows.pop(0).split(",")
            # the first column where the header and CSV_COLUMNS differ, by repr
            c, got, want = next(((c, got, want) for c, (got, want) in enumerate(
                itertools.zip_longest(map(repr, header), map(repr, CSV_COLUMNS),
                                      fillvalue="nothing")) if got != want), (0, None, None))
            if got != want:
                raise ValueError(f"{path}: header column {c + 1} is {got}, expected {want}")
            numeric = CSV_COLUMNS[:-len(_SOLVER_COLUMNS)]
            usecols = range(len(numeric))
            n_x = UNICYCLE.state_dim
            k = 3 + n_x + UNICYCLE.input_dim  # w_norm, then V, then the margins
            # the columns a run logs finite: t, the states, w_norm and V
            finite = np.zeros(len(numeric), dtype=bool)
            finite[[0, *range(3, 3 + n_x), k, k + 1]] = True
            parts, starts, texts = [], [], []
            row = 0  # data rows before this block; row r is on line r + 2
            while rows is not None:
                for line, text in enumerate(rows, start=row + 2):
                    if text.count(",") != len(header) - 1:
                        raise ValueError(f"{path}: line {line} has {text.count(',') + 1} "
                                         f"fields, the header {len(header)}")
                if rows:
                    try:
                        part = np.loadtxt(rows, delimiter=",", usecols=usecols,
                                          comments=None, ndmin=2)
                    except ValueError as exc:
                        message = _LOADTXT_ROW.sub(
                            lambda m: f"at line {row + 2 + int(m[1])}", str(exc), count=1)
                        raise ValueError(f"{path}: {message}") from exc
                    key = part[:, 1:3]  # agent, step
                    whole = np.isfinite(key) & (np.trunc(key) == key)
                    if not whole.all():
                        r, c = np.argwhere(~whole)[0]
                        raise ValueError(f"{path}: line {row + 2 + r}: {numeric[c + 1]} "
                                         f"{rows[r].split(',')[c + 1]!r} is not an integer")
                    bad = np.isnan(part) | (finite & np.isinf(part))
                    bad[:, 3 + n_x:k] &= part[:, 2:3] != -1  # the inputs of step -1 are NaN
                    if bad.any():
                        r, c = np.argwhere(bad)[0]
                        raise ValueError(f"{path}: line {row + 2 + r}: {numeric[c]} "
                                         f"{rows[r].split(',')[c]!r} is "
                                         + ("not finite" if finite[c] else "NaN"))
                    key = key.astype(int)
                    first = np.flatnonzero(np.concatenate(
                        ([True], (key[1:] != key[:-1]).any(axis=1))))
                    parts.append(part)
                    starts.append(row + first)
                    texts += [rows[r] for r in first.tolist()]
                row += len(rows)
                rows = next(blocks, None)
        if not parts:
            raise ValueError(f"{path}: no data rows")
        # a log of one block (a 10 s run's) needs no copy
        data = parts[0] if len(parts) == 1 else np.concatenate(parts)
        del parts  # before the agents' copies of their rows
        agents = data[:, 1].astype(int)
        # the distinct ids, as np.unique gives them, whose hash path imports numpy.ma
        ids = np.sort(agents)
        ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
        if not np.array_equal(ids, np.arange(len(ids))):
            raise ValueError(f"{path}: agent ids {ids.tolist()} are not 0..{len(ids) - 1}")
        steps = data[:, 2].astype(int)
        starts = np.concatenate(starts)
        traces = []
        for i in ids:
            idx = np.flatnonzero(agents == i)
            block = data[idx]
            own = np.flatnonzero(agents[starts] == i)
            step_values, first = np.unique(steps[starts[own]], return_index=True)
            step_meta = []
            for step, j in zip(step_values.tolist(), own[first].tolist()):
                if step < 0:
                    continue
                status, cost, errsq_int, relaxed, capped = (
                    texts[j].split(",")[-len(_SOLVER_COLUMNS):])
                try:
                    record = {
                        "t": step * h,
                        "status": status,
                        "cost": float(cost),
                        "errsq_int": float(errsq_int),
                        "terminal_relaxed": bool(int(relaxed)),
                        "tube_capped": bool(int(capped)),
                    }
                except ValueError as exc:
                    raise ValueError(f"{path}: line {starts[j] + 2}: {exc}") from exc
                if not (math.isfinite(record["cost"]) and math.isfinite(record["errsq_int"])):
                    name, text = (("cost", cost) if not math.isfinite(record["cost"])
                                  else ("errsq_int", errsq_int))
                    raise ValueError(f"{path}: line {starts[j] + 2}: {name} {text!r} is not finite")
                step_meta.append(record)
            traces.append(AgentTrace(
                times=block[:, 0], states=block[:, 3:3 + n_x], inputs=block[:, 3 + n_x:k],
                w_norms=block[:, k], V=block[:, k + 1], margins=block[:, k + 2:],
                step_meta=step_meta))
        return cls(traces=traces)


def _stacked(rows, width):
    """The (len(rows), width) float array of a list of rows, as `np.array`
    gives it, by one concatenation: faster on many short rows."""
    return np.concatenate(rows or [()], dtype=float).reshape(len(rows), width)


def _residual(sol):
    return sol.solve_stats["residual"]


@dataclass(frozen=True)
class AgentProblem:
    """Agent `agent`'s FHOCP at time `t`, as :meth:`Simulation.problem`
    builds it and :func:`solve_ladder` reads it. It holds data and no
    callable, so it pickles."""

    agent: int
    t: float
    errordyn: ErrorDynamics
    e0: np.ndarray
    geometry: StageGeometry  # the constraint snapshot, net of the safety margin
    rho: np.ndarray          # the simulation's one tube, at each substep of the horizon
    capped: bool             # rho is clipped at tube_cap
    tiers: tuple             # use_terminal of each tier, in order
    terminal_excluded: bool  # a terminal-enforced tier was skipped as provably infeasible
    starts: list             # the warm starts, best first


def _margin_fn(geometry, rho, goal):
    """Tightened margins of errors about a reference at position `goal` and
    a callable that forms their error Jacobian, which is the position
    gradient on the position components and zero on the others."""

    def margin_fn(errors):
        margins, gradient = geometry.tightened(errors[..., _POSITION] + goal, rho)

        def jacobian():
            grad = gradient()
            jac = np.zeros(grad.shape[:-1] + errors.shape[-1:])
            jac[..., _POSITION] = grad
            return jac

        return margins, jacobian

    return margin_fn


def _detours(config):
    """The ladder's lateral detours for a blocked plan, turn then drive at
    0.7 u_bar: 1 turn stage +/-, then 2 turn stages +/-."""
    mag = 0.7 * config.u_bar
    out = [np.zeros((config.n_stages, 2)) for _ in range(4)]
    for detour, (turn_stages, sign) in zip(out, ((1, 1.0), (1, -1.0), (2, 1.0), (2, -1.0))):
        detour[:turn_stages, 1] = sign * mag
        detour[turn_stages:, 0] = mag
    return out


def solve_ladder(problem: AgentProblem, config: OcpConfig):
    """Solve `problem` through the fallback ladder, over its tiers.

    Returns `(sol, record)`: the accepted solution and the solve's one
    record, which `Simulation.step` logs in `step_meta` as it is; or, when
    every tier fails, the lowest-residual attempt (the first of equals) and
    None. The record's `attempts` (solve_fhocp and restore_feasibility
    calls), `iterations` (their sum) and `wall_time` cover the whole ladder;
    its other fields are the accepted attempt's, with `feasible_witness`
    true when that attempt is terminal-enforced and started from the shifted
    plan, feasible within `CONSTRAINT_TOL`. Each attempt's `solve_stats`
    stay as solve_fhocp wrote them.

    In each tier: the starts until one ends feasible; if its plan is
    blocked, the starts not yet tried and the lateral detours, the cheapest
    feasible plan winning. If none ends feasible, the relaxed tier runs
    restore_feasibility from its lowest-residual attempt and makes one
    attempt from the restored plan; a terminal-enforced tier does not.
    """
    wall_start = time.perf_counter()
    errordyn, e0, starts, capped = problem.errordyn, problem.e0, problem.starts, problem.capped
    margin_fn = _margin_fn(problem.geometry, problem.rho, errordyn.z_des[_POSITION])
    pos_e0 = e0[_POSITION]
    pos_err = math.sqrt(pos_e0.dot(pos_e0))
    shifted = starts[0] if len(starts) > 1 else None
    # every solve_fhocp solution and restore_feasibility iteration count
    tried, restores = [], []
    witness = None  # the terminal-enforced attempt from a feasible shifted plan
    for use_terminal in problem.tiers:
        first = len(tried)

        def attempt(start):
            nonlocal witness
            sol = solve_fhocp(errordyn, e0, margin_fn, config, warm_start=start,
                              use_terminal=use_terminal)
            if use_terminal and start is shifted and sol.solve_stats["start_feasible"]:
                witness = sol
            tried.append(sol)
            return sol

        for k, start in enumerate(starts):
            sol = attempt(start)
            if sol.status != "infeasible":
                break
        if sol.status != "infeasible":
            # a plan that barely moves while far from the goal signals a
            # blocked local optimum: probe lateral detours for a cheaper one
            moved = (sol.dense_errors[-1] - sol.dense_errors[0])[_POSITION]
            if pos_err > 1.0 and math.sqrt(moved.dot(moved)) < 0.1 * config.u_bar * config.T_p:
                # the starts not yet tried, then the lateral detours
                accepted = len(tried) - 1
                for start in [*starts[k + 1:], *_detours(config)]:
                    attempt(start)
                sol = min((s for s in tried[accepted:] if s.status != "infeasible"),
                          key=lambda s: s.cost)
        elif not use_terminal:
            # phase-1 margin maximization from the tier's lowest-residual
            # attempt; a failed terminal-enforced tier falls through to
            # the relaxed one instead
            nearest = min(tried[first:], key=_residual)
            restored, iterations = restore_feasibility(errordyn, e0, margin_fn, config,
                                                       nearest.inputs)
            restores.append(iterations)
            sol = attempt(restored)
        if sol.status != "infeasible":
            if (not use_terminal or capped) and sol.status == "optimal":
                sol.status = "feasible-suboptimal"
            # predicted nominal error energy over the applied interval
            # (for ISS), by the trapezoid rule as np.trapezoid sums it
            dense = sol.dense_errors[: config.substeps + 1]
            errsq = np.add.reduce(dense * dense, axis=1)
            iterations = [s.solve_stats["iterations"] for s in tried] + restores
            return sol, {
                "t": problem.t,
                "status": sol.status,
                "cost": sol.cost,
                "errsq_int": float(np.add.reduce(
                    (config.h / config.substeps) * (errsq[1:] + errsq[:-1]) / 2.0)),
                "terminal_relaxed": not use_terminal,
                "tube_capped": capped,
                "terminal_excluded": problem.terminal_excluded,
                "suboptimal_stop": sol.solve_stats["suboptimal_stop"],
                "feasible_witness": sol is witness,
                "iterations": sum(iterations),
                "attempts": len(iterations),
                "wall_time": time.perf_counter() - wall_start,
            }
    return min(tried, key=_residual), None


class SimulationError(RuntimeError):
    """A step failed (solver infeasible or raised); carries the partial log."""

    def __init__(self, message, partial_log=None, agent=None, t=None):
        super().__init__(message)
        self.partial_log = partial_log
        self.agent = agent
        self.t = t


class Simulation:
    """Round-robin closed-loop simulation for a fixed scenario.

    All randomness is seeded and the loop is single-threaded, so identical
    scenarios produce bit-identical logs. `tube_cap`, when set, is one
    ceiling on the tube radius for every constraint kind and every solve;
    a cap that the tube profile never exceeds on the horizon leaves the
    tube, and the solves, uncapped.

    A solve at t_k senses the agents before it in the schedule after their
    move (t_k + h) and those after it at t_k, and is constrained against
    each one's newest posted plan: this step's, or the previous step's.
    """

    def __init__(self, world: WorldModel, references, config: OcpConfig,
                 profile: TubeProfile, schedule, disturbances, initial_states,
                 total_time, tube_cap=None):
        self.world = world
        # every agent is a unicycle
        self.models = [UNICYCLE] * len(references)
        self.errordyns = [ErrorDynamics(UNICYCLE, z) for z in references]
        self.config = config
        self.profile = profile
        self.schedule = list(schedule)
        if sorted(self.schedule) != list(range(len(self.models))):
            raise ValueError("schedule must be a permutation of the agents")
        self.disturbances = disturbances
        self.states = [np.asarray(z, dtype=float).copy() for z in initial_states]
        self.total_time = float(total_time)
        if not 0.0 < self.total_time < np.inf:
            raise ValueError(f"total time must be positive and finite, got {self.total_time}")
        if tube_cap is not None and not tube_cap >= 0.0:
            raise ValueError(f"tube_cap must be nonnegative, got {tube_cap}")
        self.tube_cap = tube_cap
        self.board = {}  # agent -> latest posted PredictionEntry
        self.known_obstacles = [set() for _ in self.models]
        self.prev_solution: list = [None] * len(self.models)
        self.traces = [AgentTrace() for _ in self.models]
        # V(e) >= lambda_min(P) |e|^2: a terminal-feasible plan ends this close
        # to the goal
        self.terminal_radius = ultimate_bound(config.eps_omega + CONSTRAINT_TOL,
                                              float(np.linalg.eigvalsh(config.P)[0]))
        self._n_steps = int(round(self.total_time / config.h))
        if abs(self._n_steps * config.h - self.total_time) > 1e-9:
            raise ValueError("sampling time must divide the total time")

    # -- helpers --------------------------------------------------------

    def _positions(self):
        return np.asarray([z[_POSITION] for z in self.states])

    def _update_known_obstacles(self, i):
        """Add the obstacles in agent i's detection range. Once per turn, at
        its start, suffices: an agent moves only in its own turns."""
        p = self.states[i][_POSITION]
        b_i = self.world.detection_ranges[i]
        for ell, obstacle in enumerate(self.world.obstacles):
            offset = p - obstacle.center
            if math.sqrt(offset.dot(offset)) - obstacle.radius <= b_i:
                self.known_obstacles[i].add(ell)

    def _bootstrap_board(self):
        n_grid = self.config.n_stages * self.config.substeps + 1
        for i, position in enumerate(self._positions()):
            self.board[i] = PredictionEntry(t0=0.0, h=self.config.h / self.config.substeps,
                                            positions=np.tile(position, (n_grid, 1)))

    @functools.cached_property
    def _tube(self):
        """(dense_taus, rho, capped): the horizon's substep offsets, the tube
        radius at each, clipped at `tube_cap` when the profile exceeds the
        cap somewhere on the horizon, and whether it is; the same for every
        solve. Built at the first solve rather than in __init__, so that it
        runs inside `run`, where perfbench's tracer counts the
        `tube_profile_radii` call."""
        cfg = self.config
        dense_taus = (cfg.h / cfg.substeps) * np.arange(1, cfg.n_stages * cfg.substeps + 1)
        rho = tube_profile_radii(self.profile, dense_taus)
        capped = self.tube_cap is not None and bool((rho > self.tube_cap).any())
        return dense_taus, np.minimum(rho, self.tube_cap) if capped else rho, capped

    def problem(self, i, t_k):
        """Agent i's problem at t_k. Its constraints hold the agents in
        sensing range (from the current states, so at t_k + h for the agents
        that moved this step), against each one's newest posted plan, and the
        known obstacles. Its terminal-enforced tier runs only near the goal,
        and not when provably infeasible (StageGeometry.terminal_excluded).
        Its starts are the shifted previous plan (the paper's feasibility
        candidate), when there is one, then zero input."""
        cfg = self.config
        dense_taus, rho, capped = self._tube
        in_range = sensing_set(i, self._positions(), self.world.sensing_ranges[i])
        times = t_k + dense_taus
        tracks = {j: self.board[j].positions_at(times)
                  for j in in_range | self.world.neighbor_sets[i]}
        geometry = self.world.geometry(i, dense_taus, tracks, in_range, self.known_obstacles[i],
                                       self.world.margin)
        errordyn = self.errordyns[i]
        e0 = errordyn.error_of(self.states[i])
        pos_e0 = e0[_POSITION]
        terminal_plausible = math.sqrt(pos_e0.dot(pos_e0)) <= 0.5 * cfg.u_bar * cfg.T_p
        terminal_excluded = terminal_plausible and geometry.terminal_excluded(
            errordyn.z_des[_POSITION], self.terminal_radius, rho[-1], CONSTRAINT_TOL)
        starts = [np.zeros((cfg.n_stages, UNICYCLE.input_dim))]
        prev = self.prev_solution[i]
        if prev is not None and prev.status != "infeasible":
            starts.insert(0, warm_start_shift(prev, errordyn.z_des, cfg))
        return AgentProblem(
            agent=i, t=t_k, errordyn=errordyn, e0=e0, geometry=geometry, rho=rho, capped=capped,
            tiers=(True, False) if terminal_plausible and not terminal_excluded else (False,),
            terminal_excluded=terminal_excluded, starts=starts)

    # -- main loop ------------------------------------------------------

    def _log_initial(self):
        for i, trace in enumerate(self.traces):
            trace.times.append(0.0)
            trace.states.append(self.states[i].copy())
            trace.inputs.append(np.full(UNICYCLE.input_dim, np.nan))
            trace.w_norms.append(0.0)
            e = self.errordyns[i].error_of(self.states[i])
            trace.V.append(float(e @ self.config.P @ e))

    def step(self, k):
        """Run one sampling step (all agents in schedule order).

        Each agent's first input is applied to its true dynamics by one
        `integrate` call, which draws the step's disturbance samples in one
        generator call: the four RK4 stages of each substep and the step's
        last logged row. Each logged row's `w_norm` is the norm of the
        sample at its time, zero without a disturbance.

        Raises SimulationError with the partial log when a solve ends
        infeasible or the solver raises (diverged, non-finite iterate).
        """
        t_k = k * self.config.h
        cfg = self.config
        for i in self.schedule:
            self._update_known_obstacles(i)
            try:
                sol, record = solve_ladder(self.problem(i, t_k), cfg)
            except RuntimeError as exc:
                raise SimulationError(
                    f"agent {i} solver failed at t = {t_k:.3f}: {exc}",
                    partial_log=self.finalize_log(), agent=i, t=t_k) from exc
            if record is None:
                raise SimulationError(
                    f"agent {i} infeasible at t = {t_k:.3f} "
                    f"(residual {sol.solve_stats['residual']:.3g})",
                    partial_log=self.finalize_log(), agent=i, t=t_k)
            self.board[i] = PredictionEntry(
                t0=t_k, h=cfg.h / cfg.substeps,
                positions=(sol.dense_errors[:, _POSITION]
                           + self.errordyns[i].z_des[_POSITION]))
            self.prev_solution[i] = sol

            # apply the first input segment to the true disturbed dynamics
            u0 = sol.inputs[0]
            times, states, w_norms = integrate(self.states[i], u0, self.disturbances[i],
                                               t_k, t_k + cfg.h, cfg.h / cfg.substeps)
            self.states[i] = states[-1].copy()

            # log the substeps after t_k, which the previous step logged, as
            # one block; np.vecdot gives V the floats of each row's own dot
            # product ep[r] @ e[r]
            trace = self.traces[i]
            times, states = times[1:], states[1:]
            trace.times.extend(times.tolist())
            trace.states.extend(states)
            trace.inputs.extend(u0[None].repeat(len(states), axis=0))
            trace.w_norms.extend(w_norms)
            e = self.errordyns[i].error_of(states)
            ep = e @ cfg.P
            trace.V.extend(np.vecdot(ep, e).tolist())
            trace.step_meta.append(record)

    def finalize_log(self):
        """The log of the run so far, with its raw margins filled in.

        Each trace's fields are arrays, converted once from the engine's
        rows, as :meth:`TrajectoryLog.from_csv` returns them; the
        simulation's own traces stay lists, and its step records are shared
        with the log's step_meta lists.
        """
        log_out = TrajectoryLog(
            traces=[AgentTrace(times=np.array(tr.times, dtype=float),
                               states=_stacked(tr.states, UNICYCLE.state_dim),
                               inputs=_stacked(tr.inputs, UNICYCLE.input_dim),
                               w_norms=np.array(tr.w_norms, dtype=float),
                               V=np.array(tr.V, dtype=float),
                               step_meta=list(tr.step_meta))
                    for tr in self.traces])
        self._fill_margins(log_out)
        return log_out

    def _fill_margins(self, log_out):
        """Post-hoc raw margins (eps = 0) by kind on every logged sample: the
        smallest column of each kind, inf where the kind has none.

        The inter-agent margin covers only the agents within sensing range at
        that sample; the neighbor margin covers the fixed neighbor set. The
        samples are reduced chunk by chunk, as `WorldModel.logged_margins`
        gives them.
        """
        traces = log_out.traces
        times = [tr.times for tr in traces]
        positions = [tr.states[:, _POSITION] for tr in traces]
        for i, trace in enumerate(traces):
            trace.margins = np.empty((len(trace.times), len(MARGIN_KINDS)))
            for rows, kinds, margins, dist in self.world.logged_margins(i, times, positions,
                                                                        0.0):
                sensed = ((kinds != MARGIN_KINDS.index("inter-agent"))
                          | (dist < self.world.sensing_ranges[i]))
                margins = np.where(sensed, margins, np.inf)
                for k in range(len(MARGIN_KINDS)):
                    trace.margins[rows, k] = np.min(margins[:, kinds == k], axis=1,
                                                    initial=np.inf)

    def run(self):
        """Iterate steps over the full duration; returns the trajectory log."""
        failures = validate_initial(self.world, self.states)
        if failures:
            raise ValueError("infeasible initial configuration: " + "; ".join(failures))
        self._bootstrap_board()
        self._log_initial()
        for k in range(self._n_steps):
            self.step(k)
        return self.finalize_log()
