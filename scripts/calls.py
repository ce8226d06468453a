#!/usr/bin/env python3
"""Python-level calls of the engine's sampling steps, by solver layer.

Usage, from the root of a checkout:

    python3 scripts/calls.py

Runs the bundled scenario for 12 s and counts, inside ``Simulation.step``,
every Python function call and every call of a builtin or compiled function
(the ``call`` and ``c_call`` events of ``sys.setprofile``) over two windows:

- ``corridor``: t in [0, 3.4) s, the corridor crossing from the file's own
  starts (102 agent-solves, the fallback ladder at work);
- ``rest``: t in [10, 12) s, all three agents at rest at their goals (60
  agent-solves, each one terminal-enforced solve from a feasible witness).

Each event counts towards the innermost layer whose entry function is on the
stack (see ``LAYERS``); calls outside every layer count towards ``engine``.
The rollout's input Jacobian and the margins' error Jacobian are formed by
callables that the rollout and the margins return, so each callable is an
entry of its own: ``jacobian`` for the rollout's, ``margins`` for the
margins'. The window also counts the rollouts, the rollout Jacobians formed
and the margin evaluations (entries of ``rollout_zoh``, of its callable and
of the engine's ``margin_fn``). The counts do not depend on the machine's
speed or load, only on the code and on the installed Python, numpy and
scipy, so two checkouts compare on a noisy machine where single timings
cannot resolve a 10% change. Prints one table per window, with each layer's
calls, share and calls per agent-step, and, last, one JSON object with every
count.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the thread count changes the iterates
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dnmpc import cli, coordination, dynamics, ocp  # noqa: E402

SCENARIO = ROOT / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"
# (name, first step, end step); the scenario's h is 0.1 s
WINDOWS = (("corridor", 0, 34), ("rest", 100, 120))

ROLLOUT = (dynamics, "rollout_zoh")
JACOBIAN = (dynamics, "rollout_zoh.<locals>.jacobian")
MARGINS = (coordination, "_margin_fn.<locals>.margin_fn")

# (module, qualified name of the entry function) -> layer
LAYERS = {
    (dynamics, "integrate"): "plant",
    ROLLOUT: "rollout",
    JACOBIAN: "jacobian",
    MARGINS: "margins",
    (coordination, "_margin_fn.<locals>.margin_fn.<locals>.jacobian"): "margins",
    (ocp, "_Transcription.eval"): "evaluation",
    (ocp, "minimize"): "minimize",
    (ocp, "_gauss_newton_sqp"): "minimize",
    (ocp, "_gauss_newton_scaling"): "scaling",
    (coordination, "Simulation.problem"): "geometry",
    (coordination, "solve_ladder"): "ladder",
}
ORDER = ["plant", "rollout", "jacobian", "margins", "evaluation", "minimize", "scaling", "geometry",
         "ladder", "engine"]


def code_of(module, qualname):
    """The code object of the function `qualname` of `module`, nested ones
    ("<owner>.<locals>.<name>", at any depth) included."""
    owner, *nested = qualname.split(".<locals>.")
    obj = module
    for part in owner.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    for name in nested:
        code = next(c for c in code.co_consts
                    if isinstance(c, types.CodeType) and c.co_name == name)
    return code


class CallCounter:
    """A ``sys.setprofile`` hook that counts call events by layer, and the
    entries of each layer's entry function by its code object."""

    def __init__(self):
        self.layers = {code_of(module, name): layer for (module, name), layer in LAYERS.items()}
        self.counts = Counter()
        self.entries = Counter()
        self._stack = [(None, "engine")]

    def __call__(self, frame, event, arg):
        if event == "call":
            layer = self.layers.get(frame.f_code)
            if layer is not None:
                self.entries[frame.f_code] += 1
                self._stack.append((frame, layer))
            self.counts[self._stack[-1][1]] += 1
        elif event == "c_call":
            self.counts[self._stack[-1][1]] += 1
        elif event == "return" and self._stack[-1][0] is frame:
            self._stack.pop()


def measure():
    """{window: {"t", "agent_solves", "feasible_witness_solves",
    "solver_iterations", "rollouts", "jacobians", "margins", "calls": {layer:
    count}, "total"}} of one 12 s run of the bundled scenario; the iterations
    are SLSQP's in terminal-enforced solves and restorations and the
    Gauss-Newton SQP's in relaxed solves, "jacobians" counts the rollout
    Jacobians formed and "margins" the margin evaluations."""
    sim = cli.load_scenario(SCENARIO).build_simulation(total_time=12.0)
    counters = {name: CallCounter() for name, _, _ in WINDOWS}
    step = sim.step

    def counted_step(k):
        for name, first, end in WINDOWS:
            if first <= k < end:
                sys.setprofile(counters[name])
                try:
                    return step(k)
                finally:
                    sys.setprofile(None)
        return step(k)

    sim.step = counted_step
    log = sim.run()
    h = sim.config.h
    out = {}
    for name, first, end in WINDOWS:
        metas = [m for trace in log.traces for m in trace.step_meta
                 if first <= round(m["t"] / h) < end]
        counter = counters[name]
        calls = {layer: counter.counts[layer] for layer in ORDER}
        out[name] = {"t": [round(first * h, 9), round(end * h, 9)],
                     "agent_solves": len(metas),
                     "feasible_witness_solves": sum(m["feasible_witness"] for m in metas),
                     "solver_iterations": sum(m["iterations"] for m in metas),
                     "rollouts": counter.entries[code_of(*ROLLOUT)],
                     "jacobians": counter.entries[code_of(*JACOBIAN)],
                     "margins": counter.entries[code_of(*MARGINS)],
                     "calls": calls, "total": sum(calls.values())}
    return out


def table(name, window):
    """The printed lines of one window of :func:`measure`: per layer, its
    calls, its share and its calls per agent-step (the count over the
    window's agent-solves)."""
    start, end = window["t"]
    solves = window["agent_solves"]
    lines = [f"{name}: t in [{start:g}, {end:g}) s, {solves} agent-solves "
             f"({window['feasible_witness_solves']} from a feasible witness), "
             f"{window['solver_iterations']} solver iterations, "
             f"{window['rollouts']} rollouts, {window['jacobians']} Jacobians formed, "
             f"{window['margins']} margin evaluations",
             f"  {'layer':<11}{'calls':>10}  {'share':>6}  {'per step':>8}"]
    for layer, count in list(window["calls"].items()) + [("total", window["total"])]:
        lines.append(f"  {layer:<11}{count:>10,}  {count / window['total']:6.1%}  "
                     f"{count / solves:8.1f}")
    return lines


def main():
    result = measure()
    for name, window in result.items():
        print("\n".join(table(name, window)))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
