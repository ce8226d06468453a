#!/usr/bin/env python3
"""Judge a solver change problem by problem: the agent-solves of three runs,
each solved by the code of two revisions.

Usage, from the root of a checkout:

    python3 scripts/corpus.py <rev-a> <rev-b> [--corpus FILE]

Extracts ``git archive`` of both revisions into a temporary directory. In
the checkout of `rev-a` it records every `coordination.AgentProblem` that
three runs pose: the bundled scenario for its own 10 s (``bundled-10s``), a
copy with ``w_bar: 0.0`` for 10 s (``nominal-10s``) and the bundled scenario
for 100 s (``bundled-100s``); an aborted run's failing problem is recorded
too. Each problem is pickled, about 7 KB, and the corpus is zlib-compressed
into FILE, a temporary file unless ``--corpus`` names one. An existing FILE
is read and not recorded again, so that two comparisons judge the same
problems. With each problem that has a terminal-enforced tier and a shifted
start goes that start's witness data: its cost J~ and whether it meets
every constraint of the terminal-enforced problem within
``ocp.CONSTRAINT_TOL`` (a feasible witness).

Each side solves every problem with ``coordination.solve_ladder`` in a
process of its own: once for the outcomes, with each ``solve_fhocp``
attempt's statistics read, then `REPEATS` times for the time, the sides
alternating and each problem's time the smallest of its `REPEATS`. Per run
and per tier that `rev-a` accepts (terminal, relaxed, or failed: no tier
gave a feasible plan) it prints:

- the problems, the feasibility flips (accepted on one side, failed on the
  other) and the problems whose accepted tier differs;
- the problems whose outcome differs (plan bytes, cost, status or the
  solve's record, its wall time aside);
- the quantiles (0, 10, 50, 90, 100%) of the cost ratio b / a over the
  problems both sides accept, and of the paired time ratio b / a;
- the iterations and rollouts of the ``solve_fhocp`` attempts on each side
  (the restoration's are not counted);
- for the terminal tier, the problems with a feasible witness, on each side
  how many of them cost at most J~, the quantiles of cost / J~, and how
  many of their terminal attempts from the witness are feasible, with the
  problems where `rev-a`'s was and `rev-b`'s is not.

Then one line for the problems whose ladder runs no terminal-enforced
attempt on either side, with the count that differ, and last one JSON
object with all of it, the block a ``BENCH_<pr>.json`` records. ``corpus.py
HEAD HEAD`` prints no difference: its time ratios are the timing noise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = Path("src") / "dnmpc" / "scenarios" / "three_unicycles.yaml"
# (name, total time or None for the file's, disturbance-free)
RUNS = (("bundled-10s", None, False), ("nominal-10s", None, True),
        ("bundled-100s", 100.0, False))
TIERS = ("terminal", "relaxed", "failed")
QUANTILES = (0.0, 0.1, 0.5, 0.9, 1.0)
REPEATS = 3  # timed passes per side


# -- in a checkout, with its own dnmpc on the path ---------------------------

def record_here(path, total_time=None):
    """Run the three `RUNS` with the dnmpc on the path, `total_time` in place
    of each run's when given, and write their problems to `path`: the
    zlib-compressed pickle of [(run name, pickled config, [(pickled problem,
    witness), ...]), ...], witness being None or (J~, feasible)."""
    from dnmpc import coordination
    from dnmpc.cli import load_scenario

    corpus = []
    with tempfile.TemporaryDirectory(prefix="corpus-") as tmp:
        nominal = Path(tmp) / "nominal.yaml"
        nominal.write_text(SCENARIO.read_text().replace("\nw_bar: 0.1", "\nw_bar: 0.0", 1))
        for name, total, disturbance_free in RUNS:
            sim = load_scenario(nominal if disturbance_free else SCENARIO).build_simulation(
                total_time=total if total_time is None else total_time)
            problems, ladder = [], coordination.solve_ladder

            def recorded(problem, config):
                problems.append((pickle.dumps(problem), _witness(problem, config)))
                return ladder(problem, config)

            coordination.solve_ladder = recorded
            try:
                sim.run()
            except coordination.SimulationError:
                pass
            finally:
                coordination.solve_ladder = ladder
            corpus.append((name, pickle.dumps(sim.config), problems))
    Path(path).write_bytes(zlib.compress(pickle.dumps(corpus)))


def _witness(problem, config):
    """(J~, feasible) of the shifted start of a problem with a terminal tier,
    as the terminal-enforced solve from it evaluates it; else None."""
    from dnmpc import coordination, ocp

    if not problem.tiers[0] or len(problem.starts) < 2:
        return None
    margin_fn = coordination._margin_fn(problem.geometry, problem.rho,
                                        problem.errordyn.z_des[:2])
    tr = ocp._Transcription(problem.errordyn, problem.e0, margin_fn, config, "terminal")
    res = tr.eval(ocp._project_inputs(problem.starts[0], config.u_bar).ravel())
    return res["cost"], bool(-res["slack"] <= ocp.CONSTRAINT_TOL)


def _load(path):
    return [(name, pickle.loads(config), [pickle.loads(blob) for blob, _ in problems])
            for name, config, problems in pickle.loads(zlib.decompress(Path(path).read_bytes()))]


def outcomes_here(path, out):
    """Solve every problem of the corpus at `path` once and write to `out`
    the JSON list, per run, of each problem's outcome."""
    from dnmpc import coordination

    attempts, solve_fhocp = [], coordination.solve_fhocp

    def observed(*args, use_terminal, **kwargs):
        sol = solve_fhocp(*args, use_terminal=use_terminal, **kwargs)
        attempts.append((use_terminal, sol))
        return sol

    coordination.solve_fhocp = observed
    result = []
    for _, config, problems in _load(path):
        rows = []
        for problem in problems:
            attempts.clear()
            sol, record = coordination.solve_ladder(problem, config)
            tier = "failed" if record is None else (
                "relaxed" if record["terminal_relaxed"] else "terminal")
            witness_attempt = (attempts[0][1].status != "infeasible"
                               if problem.tiers[0] and len(problem.starts) > 1 else None)
            summary = repr((sol.inputs.tobytes(), repr(sol.cost), sol.status,
                            None if record is None else {**record, "wall_time": None}))
            rows.append({
                "tier": tier,
                "cost": sol.cost,
                "digest": hashlib.sha256(summary.encode()).hexdigest()[:16],
                "iterations": sum(s.solve_stats["iterations"] for _, s in attempts),
                "rollouts": sum(s.solve_stats["rollouts"] for _, s in attempts),
                "terminal_attempts": sum(terminal for terminal, _ in attempts),
                "witness_attempt_feasible": witness_attempt,
            })
        result.append(rows)
    Path(out).write_text(json.dumps(result))


def times_here(path, out):
    """Solve every problem of the corpus at `path` once and write to `out`
    the JSON list, per run, of each problem's seconds in `solve_ladder`."""
    from dnmpc import coordination

    result = []
    for _, config, problems in _load(path):
        seconds = []
        for problem in problems:
            start = time.perf_counter()
            coordination.solve_ladder(problem, config)
            seconds.append(time.perf_counter() - start)
        result.append(seconds)
    Path(out).write_text(json.dumps(result))


# -- the driver --------------------------------------------------------------

def _here(side, *args):
    """Run this script's `args` in checkout `side`, its dnmpc on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(side) / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, __file__, *map(str, args)], cwd=side, env=env, check=True)


def record(side, path, total_time=None):
    """Record the corpus at `path` with the code of checkout `side`."""
    _here(side, "_record", path, *([] if total_time is None else [total_time]))


def solve(sides, path, repeats, work):
    """({side name: outcomes}, {side name: seconds}) of the corpus at `path`
    in the checkouts `sides` ({name: root}, two of them): one outcomes pass
    each, then `repeats` timed passes each, the sides alternating, and each
    problem's smallest time."""
    work = Path(work)
    outcomes, seconds = {}, {name: None for name in sides}
    for name, root in sides.items():
        _here(root, "_outcomes", path, work / f"{name}-outcomes.json")
        outcomes[name] = json.loads((work / f"{name}-outcomes.json").read_text())
    order = list(sides.items())
    for k in range(repeats):
        for name, root in order if k % 2 == 0 else order[::-1]:
            _here(root, "_times", path, work / f"{name}-times.json")
            new = json.loads((work / f"{name}-times.json").read_text())
            seconds[name] = new if seconds[name] is None else [
                [min(a, b) for a, b in zip(old_run, new_run)]
                for old_run, new_run in zip(seconds[name], new)]
    return outcomes, seconds


def _quantiles(values):
    if not values:
        return None
    return [float(q) for q in np.quantile(np.asarray(values, dtype=float), QUANTILES)]


def summarize(witnesses, a, b, time_a, time_b):
    """The comparison block of one run from the two sides' outcomes `a` and
    `b`, their seconds and each problem's witness data (None or (J~,
    feasible)): per tier that side a accepts, and the problems whose ladder
    runs no terminal attempt."""
    out = {}
    for tier in TIERS:
        index = [k for k, row in enumerate(a) if row["tier"] == tier]
        if not index:
            continue
        both = [k for k in index if a[k]["tier"] != "failed" and b[k]["tier"] != "failed"]
        block = {
            "problems": len(index),
            "feasibility_flips": sum((a[k]["tier"] == "failed") != (b[k]["tier"] == "failed")
                                     for k in index),
            "tier_changes": sum(a[k]["tier"] != b[k]["tier"] for k in index),
            "outcomes_differ": sum(a[k]["digest"] != b[k]["digest"] for k in index),
            "cost_ratio_quantiles": _quantiles([b[k]["cost"] / a[k]["cost"] for k in both]),
            "time_ratio_quantiles": _quantiles([time_b[k] / time_a[k] for k in index]),
            "iterations": [sum(side[k]["iterations"] for k in index) for side in (a, b)],
            "rollouts": [sum(side[k]["rollouts"] for k in index) for side in (a, b)],
        }
        if tier == "terminal":
            feasible = [k for k in index if witnesses[k] is not None and witnesses[k][1]]
            block["feasible_witnesses"] = len(feasible)
            block["cost_at_most_witness"] = [
                sum(side[k]["tier"] == "terminal" and side[k]["cost"] <= witnesses[k][0]
                    for k in feasible) for side in (a, b)]
            block["cost_over_witness_quantiles"] = [
                _quantiles([side[k]["cost"] / witnesses[k][0] for k in feasible])
                for side in (a, b)]
            block["witness_attempts_feasible"] = [
                sum(bool(side[k]["witness_attempt_feasible"]) for k in feasible)
                for side in (a, b)]
            block["witness_attempts_lost"] = [
                k for k in feasible
                if a[k]["witness_attempt_feasible"] and not b[k]["witness_attempt_feasible"]]
        out[tier] = block
    no_terminal = [k for k in range(len(a))
                   if a[k]["terminal_attempts"] == 0 and b[k]["terminal_attempts"] == 0]
    out["no_terminal_attempt"] = {
        "problems": len(no_terminal),
        "outcomes_differ": sum(a[k]["digest"] != b[k]["digest"] for k in no_terminal)}
    return out


def _format(values):
    return "-" if values is None else " ".join(f"{v:.4g}" for v in values)


def summary_lines(run, block):
    """The printed lines of one run's :func:`summarize` block."""
    lines = []
    for tier in TIERS:
        if tier not in block:
            continue
        m = block[tier]
        lines.append(
            f"{run} {tier}: {m['problems']} problems, {m['feasibility_flips']} feasibility "
            f"flips, {m['tier_changes']} tier changes, {m['outcomes_differ']} outcomes differ; "
            f"cost b/a [{_format(m['cost_ratio_quantiles'])}]; time b/a "
            f"[{_format(m['time_ratio_quantiles'])}]; iterations {m['iterations'][0]} -> "
            f"{m['iterations'][1]}; rollouts {m['rollouts'][0]} -> {m['rollouts'][1]}")
        if tier == "terminal":
            lines.append(
                f"{run} terminal witnesses: {m['feasible_witnesses']} feasible; cost <= J~ "
                f"{m['cost_at_most_witness'][0]} -> {m['cost_at_most_witness'][1]}; cost/J~ "
                f"a [{_format(m['cost_over_witness_quantiles'][0])}] b "
                f"[{_format(m['cost_over_witness_quantiles'][1])}]; attempts from the witness "
                f"feasible {m['witness_attempts_feasible'][0]} -> "
                f"{m['witness_attempts_feasible'][1]}, lost {m['witness_attempts_lost']}")
    m = block["no_terminal_attempt"]
    lines.append(f"{run} without a terminal attempt: {m['problems']} problems, "
                 f"{m['outcomes_differ']} outcomes differ")
    return lines


def compare(path, sides, repeats, work):
    """{run: summarize block} of the corpus at `path` solved in `sides` (an
    ordered {name: checkout root} of side a, then side b)."""
    (name_a, _), (name_b, _) = sides.items()
    outcomes, seconds = solve(sides, path, repeats, work)
    corpus = pickle.loads(zlib.decompress(Path(path).read_bytes()))
    return {run: summarize([witness for _, witness in problems], outcomes[name_a][k],
                           outcomes[name_b][k], seconds[name_a][k], seconds[name_b][k])
            for k, (run, _, problems) in enumerate(corpus)}


def _checkout(rev, directory):
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")
    return directory


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("_record", "_outcomes", "_times"):
        if argv[0] == "_record":
            record_here(argv[1], float(argv[2]) if len(argv) > 2 else None)
        else:
            (outcomes_here if argv[0] == "_outcomes" else times_here)(argv[1], argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--corpus", type=Path,
                        help="corpus file, read when it exists, else recorded into")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="corpus-") as tmp:
        tmp = Path(tmp)
        sides = {"a": _checkout(args.rev_a, tmp / "a"), "b": _checkout(args.rev_b, tmp / "b")}
        path = args.corpus or tmp / "corpus.bin"
        if not path.exists():
            record(sides["a"], path.resolve())
        blocks = compare(path.resolve(), sides, REPEATS, tmp)
    for run, block in blocks.items():
        for line in summary_lines(run, block):
            print(line)
    print(json.dumps({"a": args.rev_a, "b": args.rev_b, "repeats": REPEATS,
                      "runs": blocks}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
