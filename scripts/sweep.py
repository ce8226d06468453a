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
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the thread count changes the iterates
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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


def main():
    with Pool(len(os.sched_getaffinity(0))) as pool:
        lines = pool.map(run_one, RUNS, chunksize=1)
    for line in lines:
        print(line)
    completed = sum(line.endswith(": ok") for line in lines)
    print(f"completed {completed}/{len(RUNS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
