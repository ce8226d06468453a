#!/usr/bin/env python3
"""Robustness sweep: short corridor runs of the bundled scenario over fixed
weight seeds and seeded start jitter.

Usage, from the root of a checkout:

    python3 scripts/sweep.py

Runs 40 deterministic closed loops of 1.5 s simulated time:

- ``weight-seed s`` for s = 1..20: the scenario's seeded weights drawn from
  seed s, from the file's own starts;
- ``jitter s`` for s = 1..20: the file's weights, each agent's start moved by
  up to 5 cm in x and in y, drawn uniformly from ``default_rng(s)``.

Prints one line per run (``ok``, or ``abort`` with the agent, the time and
the ``SimulationError`` message) and then the completion count. The runs are
spread over one worker process per available CPU; they are bitwise
deterministic, so two sweeps of the same code print the same lines in the
order above whatever the number of CPUs.

    python3 scripts/sweep.py --parent parent_sweep.txt

also reads the lines another sweep printed (saved to a file, typically from
the parent commit) and then prints each run whose outcome flipped and the
paired gate for changes that move the closed loop's iterates: newly aborting
minus newly completing runs must not exceed 2 sqrt(flipped runs), a
two-sigma sign test. The exit status is 1 when the gate fails.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the thread count changes the iterates
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import math
import re
import sys
from multiprocessing import Pool
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dnmpc import cli  # noqa: E402
from dnmpc.coordination import SimulationError  # noqa: E402

SCENARIO = ROOT / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"
SWEEP_TIME = 1.5
SEEDS = range(1, 21)
JITTER = 0.05   # bound on each start's x and y offset, in metres
RUNS = [("weight-seed", s) for s in SEEDS] + [("jitter", s) for s in SEEDS]


def scenario_for(kind, seed):
    """The bundled scenario with weight seed `seed`, or with its starts
    jittered by the offsets drawn from `seed`."""
    if kind == "weight-seed":
        return cli.load_scenario(SCENARIO, seed=seed)
    scenario = cli.load_scenario(SCENARIO)
    rng = np.random.default_rng(seed)
    for spec in scenario.agents:
        offset = np.zeros_like(spec.start)
        offset[:2] = rng.uniform(-JITTER, JITTER, 2)
        spec.start = spec.start + offset
    return scenario


def run_one(run):
    """Outcome line of one run."""
    kind, seed = run
    sim = scenario_for(kind, seed).build_simulation(total_time=SWEEP_TIME)
    try:
        sim.run()
    except SimulationError as exc:
        return f"{kind} {seed}: abort agent {exc.agent} t = {exc.t:.3f}: {exc}"
    return f"{kind} {seed}: ok"


def outcomes(lines):
    """{"<kind> <seed>": completed} of the run lines among `lines`."""
    runs = {}
    for line in lines:
        match = re.match(r"((?:weight-seed|jitter) \d+): (.*)$", line.strip())
        if match:
            runs[match[1]] = match[2] == "ok"
    return runs


def paired_gate(parent_lines, lines):
    """(report lines, passed) of the paired gate of `lines` against
    `parent_lines`: the runs whose outcome flipped, then newly aborting -
    newly completing <= 2 sqrt(flipped)."""
    parent, change = outcomes(parent_lines), outcomes(lines)
    if set(parent) != set(change):
        raise ValueError(f"the two sweeps have different runs: {sorted(set(parent) ^ set(change))}")
    report = [f"flipped {run}: {'ok' if parent[run] else 'abort'} -> "
              f"{'ok' if change[run] else 'abort'}"
              for run in change if parent[run] != change[run]]
    aborting = sum(parent[run] and not change[run] for run in change)
    completing = sum(change[run] and not parent[run] for run in change)
    bound = 2.0 * math.sqrt(len(report))
    passed = aborting - completing <= bound
    report.append(f"paired gate: newly aborting {aborting} - newly completing {completing} = "
                  f"{aborting - completing} <= 2 sqrt({len(report)}) = {bound:.2f}: "
                  f"{'pass' if passed else 'FAIL'}")
    return report, passed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="file with the lines of another sweep to compare with")
    args = parser.parse_args(argv)
    parent_lines = None
    if args.parent:
        with open(args.parent) as fh:
            parent_lines = fh.read().splitlines()
        names = {f"{kind} {seed}" for kind, seed in RUNS}
        if set(outcomes(parent_lines)) != names:
            parser.error(f"{args.parent} does not have one line for each of the {len(RUNS)} runs")
    with Pool(len(os.sched_getaffinity(0))) as pool:
        lines = pool.map(run_one, RUNS, chunksize=1)
    for line in lines:
        print(line)
    completed = sum(line.endswith(": ok") for line in lines)
    print(f"completed {completed}/{len(RUNS)}")
    if parent_lines is None:
        return 0
    report, passed = paired_gate(parent_lines, lines)
    for line in report:
        print(line)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
