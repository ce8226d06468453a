"""Closed-loop benchmark of the dnmpc simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corridor|settle|replay --seed N \
        --seconds S --trace 0|1 [--weight-seed N]

It imports the ``dnmpc`` source under ``src/`` (see ``shim.py``), sets the
workload up several times, then repeats passes of fixed work until ``S``
seconds have gone by, at least one pass. With ``--trace 0`` the only hooks are
the timestamps of ``hooks.SolveClock`` and the end-to-end metrics are printed.
With ``--trace 1`` one traced pass runs, then an untraced reference for the
trace overhead, and the per-layer metrics of the traced pass are printed.
Outputs are checked in both modes. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a run that cannot import ``dnmpc`` exits with code 2 instead.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: more threads only add CPU time on
# these small problems, and the thread count changes the trajectory
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WORKLOADS = ("corridor", "settle", "replay")

# hooks that every agent-solve passes through; a 0 means a name was rebound.
# restore_feasibility only runs on some ladder solves, so it is not required.
REQUIRED_SPANS = ("step", "integrate", "solve_fhocp", "slsqp", "rollout",
                  "margins", "tube_profile_radii", "tube_radius")


def blas_threads():
    """Threads of each OpenBLAS that numpy and scipy loaded, by library."""
    import numpy
    import scipy

    out = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    out[package.__name__] = getter()
                    break
    return out


def end_to_end(passes, setup, k):
    """End-to-end metrics from the raw (k=0) or scaled (k=1) timings."""
    ops = [op[k] for p in passes for op in p.latencies]
    deciles = statistics.quantiles(ops, n=10, method="inclusive")
    return {
        "wall_per_sim_s": (sum(p.loop[k] for p in passes) / sum(p.sim_s for p in passes),
                           "s/s"),
        "op_p50_s": (deciles[4], "s"),
        "op_p90_s": (deciles[8], "s"),
        "post_s": (statistics.median(x[k] for p in passes for x in p.post_s), "s"),
        "replay_rows_per_s": (statistics.median(x[k] for p in passes for x in p.rows_per_s),
                              "rows/s"),
        "setup_s": (setup[k], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(traced, overhead, load_s):
    """Per-layer metrics of the traced pass."""
    tr = traced.tracer
    spans, counts = tr.spans, tr.counts
    solves = spans["integrate"].calls
    attempts = spans["solve_fhocp"].calls + spans["restore_feasibility"].calls
    return {
        "dynamics.rollout_calls": (spans["rollout"].calls, "count"),
        "dynamics.rollout_rows": (counts["rollout_rows"], "count"),
        "dynamics.rollout_s": (spans["rollout"].total_s, "s"),
        "dynamics.rollout_share": (spans["rollout"].total_s / traced.loop[0], "ratio"),
        "dynamics.integrate_s": (spans["integrate"].total_s, "s"),
        "constraints.margins_calls": (spans["margins"].calls, "count"),
        "constraints.margins_s": (spans["margins"].total_s, "s"),
        "setalg.tube_radius_calls": (spans["tube_radius"].calls, "count"),
        "ocp.agent_solves": (solves, "count"),
        "ocp.fhocp_calls": (spans["solve_fhocp"].calls, "count"),
        "ocp.restore_calls": (spans["restore_feasibility"].calls, "count"),
        "ocp.attempts_per_solve": (attempts / solves if solves else 0.0, "ratio"),
        "ocp.slsqp_iterations": (counts["slsqp_iterations"], "count"),
        "ocp.slsqp_nfev": (counts["slsqp_nfev"], "count"),
        "ocp.slsqp_s": (spans["slsqp"].total_s, "s"),
        "ocp.slsqp_self_s": (spans["slsqp"].self_s, "s"),
        "ocp.ladder_s": (tr.ladder_s, "s"),
        "coordination.step_s": (spans["step"].total_s, "s"),
        "coordination.engine_self_s": (spans["step"].self_s, "s"),
        "coordination.finalize_s": (traced.layer["finalize_s"], "s"),
        "coordination.to_csv_s": (traced.layer["to_csv_s"], "s"),
        "coordination.csv_bytes": (traced.layer["csv_bytes"], "bytes"),
        "coordination.from_csv_s": (traced.layer["from_csv_s"], "s"),
        "certify.verify_s": (traced.layer["verify_s"], "s"),
        "cli.load_scenario_s": (load_s, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


def self_check(traced):
    """Every hook that each agent-solve passes through must have fired."""
    spans = traced.tracer.spans
    problems = [f"hook {name} recorded no calls" for name in REQUIRED_SPANS
                if spans[name].calls == 0]
    if traced.tracer.counts["slsqp_iterations"] == 0:
        problems.append("SLSQP reported no iterations")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--weight-seed", type=int, default=None,
                        help="scenario weight seed of corridor and settle "
                             "(default: the file's)")
    args = parser.parse_args(argv)
    # exit through the finally blocks on SIGTERM, so the work directory goes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    try:
        import shim
        shim_status = shim.import_dnmpc()
    except ImportError as exc:
        print(f"error: cannot import dnmpc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    import dnmpc
    if Path(dnmpc.__file__).resolve().parent != (ROOT / "src" / "dnmpc").resolve():
        print(f"error: imported dnmpc from {dnmpc.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import numpy
    import scipy

    import hooks
    import workloads

    if not workloads.SCENARIO.is_file():
        print(f"error: scenario file {workloads.SCENARIO} not found", file=sys.stderr)
        return 2
    print(f"import_shim: {shim_status}")
    threads = blas_threads()
    print(f"env: python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} blas_threads="
          + ",".join(f"{k}:{v}" for k, v in threads.items()))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        probe = hooks.SpeedProbe()
        setup_times, load_times = [], []
        for _ in range(SETUP_REPEATS):
            with probe.timed(setup_times):
                if args.workload == "replay":
                    workload = workloads.Replay(args.seed, workdir, probe)
                else:
                    kind = (workloads.Corridor if args.workload == "corridor"
                            else workloads.Settle)
                    workload = workloads.SimulatedWorkload(
                        kind(args.seed, args.weight_seed), workdir, probe)
            load_times.append(workload.load_s)
        setup_raw = import_s + statistics.median(raw for raw, _, _ in setup_times)

        if args.trace:
            traced = workload.run_pass(traced=True)
            reference, overhead = workload.trace_reference(traced)
            passes = [traced, reference]
            problems = [] if args.workload == "replay" else self_check(traced)
            metrics = per_layer(traced, overhead, statistics.median(load_times))
            raw = {}
        else:
            passes, problems, raw = [], [], {}
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(workload.run_pass())
            # the import runs before the probe can, and a set-up lasts a few
            # probes, so set-up time is scaled by the speed of the whole run
            setup = (setup_raw, setup_raw * probe.run_factor())
            raw = end_to_end(passes, setup, 0)
            metrics = end_to_end(passes, setup, 1)

    attempted = sum(p.attempted for p in passes) + len(problems)
    failed = sum(p.failed for p in passes) + len(problems)
    for p in passes:
        problems += p.problems
    print(f"workload: {args.workload} seed={args.seed} passes={len(passes)} "
          f"operations={sum(len(p.latencies) for p in passes)}")
    for line in passes[0].verdict_lines:
        print(f"verify: {line}")
    print("digest: " + " ".join(d[:16] for d in passes[0].digests))
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for name, (value, unit) in raw.items():
        print(f"raw {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
