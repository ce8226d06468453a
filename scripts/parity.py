#!/usr/bin/env python3
"""Bit-for-bit evidence of a change against a parent revision.

Usage, from the root of a checkout:

    python3 scripts/parity.py <parent-rev> [--pairs N]

Extracts ``git archive <parent-rev>`` into a temporary directory and runs the
same pieces there and in this checkout's working tree:

- ``dnmpc run`` of the bundled scenario for its own 10 s and for 100 s, and
  of a copy with ``w_bar: 0.0`` (no disturbance) for 10 s, each keeping its
  ``trajectory.csv`` and ``report.txt`` and measuring the peak RSS of each
  run process;
- ``dnmpc verify`` of the 10 s and 100 s runs' ``trajectory.csv``, keeping
  its standard output and exit status, and measuring the peak RSS of each
  verify process;
- ``scripts/sweep.py``, on the change with ``--parent`` and the parent's
  lines, so that it also prints the flipped runs and the paired gate, and
  ``scripts/calls.py``;
- ``perfbench/run.py --trace 1 --seed 1`` of each workload, as a subprocess.

Prints one line per artifact: ``identical`` when the two sides' bytes are
the same (as ``cmp`` finds them), otherwise the first differing line of each
side. Of the sweep, the run lines and the completion count are compared. Of
a traced benchmark run only the lines that do not depend on the machine are
compared: the verdicts, the digests, the failed fraction, every metric
counted in calls, rows, iterations or bytes, and ``correct``. The run and
verify processes' peak RSS is recorded, not compared. Last, it prints one
JSON object with the comparisons, the sweep's completion counts and paired
gate, both sides' ``scripts/calls.py`` counts, run and verify peak RSS and
traced counts, the block a ``BENCH_<pr>.json`` records. The exit status is 0
when every artifact is identical and 1 otherwise.

With ``--pairs N`` it also runs ``perfbench/run.py --seconds 5`` of each
workload on both sides for seeds 1 to N, the two runs of a seed one after
the other, the parent's first on odd seeds and the change's first on even
ones. Per workload and end-to-end metric it prints both sides' medians, the
parent's interquartile range and in how many pairs the change's value is
lower, and the JSON object gets these under ``end_to_end``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = Path("src") / "dnmpc" / "scenarios" / "three_unicycles.yaml"
# (name, total time or None for the file's, disturbance-free)
RUNS = (("bundled-10s", None, False), ("bundled-100s", 100.0, False),
        ("nominal-10s", None, True))
# the runs whose trajectory.csv ``dnmpc verify`` reads back
VERIFIED = ("bundled-10s", "bundled-100s")
# the artifacts that are recorded but not compared
UNCOMPARED = ("paired gate", "run peak_rss_mb", "verify peak_rss_mb")
# ``python3 -c _PEAK_RSS <command>`` runs the command as its only child, the
# command's standard output passed through, then prints the child's peak RSS
# in KiB on standard error and exits with the child's status
_PEAK_RSS = """import resource, subprocess, sys
code = subprocess.run(sys.argv[1:], stderr=subprocess.DEVNULL).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""
WORKLOADS = ("corridor", "settle", "replay")
# perfbench metrics in these units do not depend on the machine
COUNT_UNITS = ("count", "bytes")
PAIR_SECONDS = 5


def first_difference(a, b):
    """None when the byte strings `a` and `b` are equal, else (line number,
    line of a, line of b) of their first differing line, counted from 1, with
    None for a side that has no such line."""
    if a == b:
        return None
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for k in range(max(len(lines_a), len(lines_b))):
        line_a = lines_a[k] if k < len(lines_a) else None
        line_b = lines_b[k] if k < len(lines_b) else None
        if line_a != line_b:
            return (k + 1, _text(line_a), _text(line_b))
    # equal lines, different line ends
    return (len(lines_a), _text(lines_a[-1]), _text(lines_b[-1]))


def _text(line):
    return None if line is None else line.decode(errors="replace")


def traced_lines(output):
    """The lines of a ``perfbench/run.py --trace 1`` output that do not depend
    on the machine, as bytes: ``workload``, ``verify``, ``digest`` and
    ``failed_frac`` lines, the metrics in `COUNT_UNITS`, and ``correct``
    from the closing JSON object."""
    keep = []
    lines = output.decode().splitlines()
    for line in lines:
        head = line.split(":", 1)[0]
        if head in ("workload", "verify", "digest", "failed_frac"):
            keep.append(line)
        elif " = " in line and not line.startswith("raw "):
            if line.rsplit(" ", 1)[-1] in COUNT_UNITS:
                keep.append(line)
    if lines:
        keep.append(f"correct: {json.loads(lines[-1])['correct']}")
    return "\n".join(keep).encode() + b"\n"


def traced_counts(kept):
    """{"digest", "correct", metric: value} of :func:`traced_lines`' lines."""
    out = {}
    for line in kept.decode().splitlines():
        if line.startswith("digest: "):
            out["digest"] = line[len("digest: "):]
        elif line.startswith("correct: "):
            out["correct"] = line == "correct: True"
        elif " = " in line and not line.startswith(("workload", "verify", "failed_frac")):
            name, value = line.split(" = ", 1)
            out[name] = json.loads(value.rsplit(" ", 1)[0])
    return out


def _env(side):
    return dict(os.environ, PYTHONPATH=str(side / "src"), PYTHONDONTWRITEBYTECODE="1")


def _run(side, args):
    """(exit status, standard output) of ``python3 <args>`` in `side`, with
    `side`'s own source first on the path."""
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=side, env=_env(side),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    return proc.returncode, proc.stdout


def _run_peak_rss(side, args):
    """(exit status, standard output, peak RSS in MB) of ``python3 <args>``
    run as `_run` runs it, as the only child of a process of its own, so
    that that process's ``resource.getrusage(RUSAGE_CHILDREN)`` is the
    command's peak alone."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable, *map(str, args)],
                          cwd=side, env=_env(side), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    return proc.returncode, proc.stdout, int(proc.stderr) / 1024.0


def verify_artifacts(side, work):
    """{artifact name: bytes} of ``dnmpc verify`` in checkout `side` of the
    ``trajectory.csv`` of each run of `VERIFIED` under `work`: its standard
    output and exit status, and under "verify peak_rss_mb" the JSON object
    of each verify process's peak RSS in MB."""
    out, peaks = {}, {}
    for name in VERIFIED:
        status, stdout, peaks[name] = _run_peak_rss(
            side, ["-m", "dnmpc.cli", "verify", work / name / "trajectory.csv", SCENARIO])
        out[f"{name} verify stdout"] = stdout
        out[f"{name} verify exit status"] = str(status).encode()
    out["verify peak_rss_mb"] = json.dumps(peaks).encode()
    return out


def artifacts(side, work, parent_sweep=None):
    """{artifact name: bytes} of every piece run in checkout `side`, its
    outputs written under `work`; "run peak_rss_mb" holds the JSON object of
    each run process's peak RSS in MB, "sweep" the sweep's run lines and
    completion count, "paired gate" the lines it prints after them when
    given the file `parent_sweep`."""
    out, peaks = {}, {}
    nominal = work / "nominal.yaml"
    nominal.write_text((side / SCENARIO).read_text().replace("\nw_bar: 0.1", "\nw_bar: 0.0", 1))
    for name, total, disturbance_free in RUNS:
        run_dir = work / name
        args = ["-m", "dnmpc.cli", "run", nominal if disturbance_free else SCENARIO,
                "--out", run_dir]
        if total is not None:
            args += ["--total-time", total]
        status, _, peaks[name] = _run_peak_rss(side, args)
        out[f"{name} exit status"] = str(status).encode()
        for file in ("trajectory.csv", "report.txt"):
            out[f"{name} {file}"] = (run_dir / file).read_bytes()
    out["run peak_rss_mb"] = json.dumps(peaks).encode()
    out.update(verify_artifacts(side, work))
    args = ["scripts/sweep.py"] + ([] if parent_sweep is None else ["--parent", parent_sweep])
    lines = _run(side, args)[1].splitlines(keepends=True)
    end = next(k for k, line in enumerate(lines) if line.startswith(b"completed ")) + 1
    out["sweep"], out["paired gate"] = b"".join(lines[:end]), b"".join(lines[end:])
    out["calls"] = _run(side, ["scripts/calls.py"])[1]
    for workload in WORKLOADS:
        _, stdout = _run(side, ["perfbench/run.py", "--workload", workload, "--seed", 1,
                                "--seconds", 1, "--trace", 1])
        out[f"traced {workload}"] = traced_lines(stdout)
    return out


def record(parent_rev, parent, change):
    """The JSON block of a ``BENCH_<pr>.json`` from both sides' artifacts."""
    bit_for_bit = {}
    for name in parent:
        if name in UNCOMPARED:
            continue
        diff = first_difference(parent[name], change[name])
        bit_for_bit[name] = "identical" if diff is None else {
            "line": diff[0], "parent": diff[1], "change": diff[2]}
    return {
        "parent": parent_rev,
        "bit_for_bit": bit_for_bit,
        "sweep": {side: arts["sweep"].decode().splitlines()[-1]
                  for side, arts in (("parent", parent), ("change", change))},
        "paired_gate": change["paired gate"].decode().splitlines(),
        "calls": {side: json.loads(arts["calls"].decode().splitlines()[-1])
                  for side, arts in (("parent", parent), ("change", change))},
        "run_peak_rss_mb": {side: json.loads(arts["run peak_rss_mb"])
                            for side, arts in (("parent", parent), ("change", change))},
        "verify_peak_rss_mb": {side: json.loads(arts["verify peak_rss_mb"])
                               for side, arts in (("parent", parent), ("change", change))},
        "traced": {workload: {side: traced_counts(arts[f"traced {workload}"])
                              for side, arts in (("parent", parent), ("change", change))}
                   for workload in WORKLOADS},
    }


def end_to_end_runs(parent, change, pairs):
    """{workload: {"parent": [...], "change": [...]}} of the closing JSON
    objects of ``perfbench/run.py --seconds PAIR_SECONDS`` for seeds 1 to
    `pairs`, run in checkouts `parent` and `change`, the parent first on odd
    seeds."""
    out = {}
    for workload in WORKLOADS:
        runs = out[workload] = {"parent": [], "change": []}
        for seed in range(1, pairs + 1):
            order = (("parent", parent), ("change", change))
            for side, root in order if seed % 2 else order[::-1]:
                _, stdout = _run(root, ["perfbench/run.py", "--workload", workload, "--seed",
                                        seed, "--seconds", PAIR_SECONDS])
                runs[side].append(json.loads(stdout.decode().splitlines()[-1]))
    return out


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return [quartiles[0], quartiles[2]]


def pair_summary(parent, change):
    """The end-to-end block of one workload from the paired runs' JSON
    objects, `parent[k]` and `change[k]` of the same seed: whether every run
    was correct with no failed operation, then per metric both sides'
    medians, their relative change and values, the parent's quartiles and
    interquartile range, and in how many pairs the change's value is
    lower."""
    out = {"pairs": len(parent),
           "order": f"seeds 1 to {len(parent)}, the parent first on odd seeds",
           "all_correct_failed_0": all(run["correct"] and run["failed"] == 0
                                       for run in parent + change)}
    for name in parent[0]["metrics"]:
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        low, high = _quartiles(a)
        median_a, median_b = statistics.median(a), statistics.median(b)
        out[name] = {
            "median_parent": median_a,
            "median_change": median_b,
            "rel_change": median_b / median_a - 1.0,
            "parent_quartiles": [low, high],
            "parent_iqr": high - low,
            "change_lower_pairs": sum(y < x for x, y in zip(a, b)),
            "parent": a,
            "change": b,
        }
    return out


def summary_lines(workload, summary):
    """One printed line per metric of a :func:`pair_summary`."""
    lines = []
    for name, m in summary.items():
        if isinstance(m, dict):
            lines.append(f"{workload} {name}: parent {m['median_parent']:.6g} change "
                         f"{m['median_change']:.6g} ({m['rel_change']:+.1%}), parent IQR "
                         f"{m['parent_iqr']:.3g}, lower in {m['change_lower_pairs']}/"
                         f"{summary['pairs']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--pairs", type=int, default=0,
                        help="end-to-end perfbench pairs per workload (default 0: none)")
    args = parser.parse_args(argv)
    parent_rev = args.parent_rev
    archive = subprocess.run(["git", "archive", parent_rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        parent_root = tmp / "parent"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_root, filter="data")
        sides, parent_sweep = {}, tmp / "parent-sweep.txt"
        for side, root in (("parent", parent_root), ("change", ROOT)):
            work = tmp / f"{side}-out"
            work.mkdir()
            sides[side] = artifacts(root, work, parent_sweep if side == "change" else None)
            if side == "parent":
                parent_sweep.write_bytes(sides[side]["sweep"])
        runs = end_to_end_runs(parent_root, ROOT, args.pairs) if args.pairs > 0 else {}
    result = record(parent_rev, sides["parent"], sides["change"])
    for name, verdict in result["bit_for_bit"].items():
        if verdict == "identical":
            print(f"{name}: identical")
        else:
            print(f"{name}: differs at line {verdict['line']}: "
                  f"parent {verdict['parent']!r} change {verdict['change']!r}")
    if runs:
        result["end_to_end"] = {workload: pair_summary(r["parent"], r["change"])
                                for workload, r in runs.items()}
        for workload, summary in result["end_to_end"].items():
            for line in summary_lines(workload, summary):
                print(line)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0 if all(v == "identical" for v in result["bit_for_bit"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
