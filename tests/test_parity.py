import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from dnmpc.cli import load_scenario, main
from dnmpc.coordination import AgentTrace, TrajectoryLog

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def parity():
    """scripts/parity.py as a module."""
    spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_difference_names_the_first_differing_line(parity, tmp_path):
    """Two small logs: equal bytes give None; otherwise the first differing
    line of each side, counted from 1, with None past a side's end."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_bytes(b"t,x\n0.0,1.0\n0.1,1.5\n")
    b.write_bytes(b"t,x\n0.0,1.0\n0.1,1.5\n")
    assert parity.first_difference(a.read_bytes(), b.read_bytes()) is None
    b.write_bytes(b"t,x\n0.0,1.0\n0.1,1.4999999999999998\n")
    assert parity.first_difference(a.read_bytes(), b.read_bytes()) == (
        3, "0.1,1.5", "0.1,1.4999999999999998")
    b.write_bytes(b"t,x\n0.0,1.0\n0.1,1.5\n0.2,2.0\n")
    assert parity.first_difference(a.read_bytes(), b.read_bytes()) == (4, None, "0.2,2.0")
    b.write_bytes(b"t,x\r\n0.0,1.0\r\n0.1,1.5\r\n")
    assert parity.first_difference(a.read_bytes(), b.read_bytes()) == (3, "0.1,1.5", "0.1,1.5")


def _traced(digest, rollout_s, correct=True):
    """A short ``perfbench/run.py --trace 1`` output."""
    metrics = {"dynamics.rollout_calls": (2072, "count"), "dynamics.rollout_s": (rollout_s, "s"),
               "coordination.csv_bytes": (294203, "bytes"),
               "trace.overhead_frac": (0.01, "ratio")}
    lines = ["import_shim: not-needed", "env: python=3.11.7 numpy=2.4.6 scipy=1.17.1",
             "workload: corridor seed=1 passes=2 operations=204",
             "verify: inter-agent-separation PASS", f"digest: {digest}",
             "failed_frac: 0/2 = 0"]
    lines += [f"{name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(json.dumps({"correct": correct, "attempted": 2, "failed": 0,
                             "metrics": {}}))
    return ("\n".join(lines) + "\n").encode()


def test_traced_runs_compare_on_their_machine_independent_lines(parity):
    """Timings and the environment line are dropped, so runs that differ only
    there are identical; a digest, a count or `correct` that differs is
    reported, and the counts read back with their values."""
    a = parity.traced_lines(_traced("fb873281d5a58a05", 0.036))
    assert a == parity.traced_lines(_traced("fb873281d5a58a05", 0.079))
    assert parity.first_difference(a, parity.traced_lines(_traced("0eda171861e4b0db", 0.036)))[
        1:] == ("digest: fb873281d5a58a05", "digest: 0eda171861e4b0db")
    assert parity.first_difference(
        a, parity.traced_lines(_traced("fb873281d5a58a05", 0.036, correct=False)))[1:] == (
        "correct: True", "correct: False")
    assert parity.traced_counts(a) == {"digest": "fb873281d5a58a05", "correct": True,
                                       "dynamics.rollout_calls": 2072,
                                       "coordination.csv_bytes": 294203}


def _bench(correct=True, failed=0, **metrics):
    """The closing JSON object of a ``perfbench/run.py`` run."""
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()}}


def test_pair_summary_gives_medians_parent_iqr_and_lower_pairs(parity):
    """Three pairs of two metrics, then one pair with a failed operation:
    medians per side, the parent's inclusive quartiles and IQR, the pairs
    in which the change is lower, and one printed line per metric."""
    parent = [_bench(post_s=0.020, op_p50_s=0.002), _bench(post_s=0.018, op_p50_s=0.003),
              _bench(post_s=0.019, op_p50_s=0.001)]
    change = [_bench(post_s=0.016, op_p50_s=0.002), _bench(post_s=0.019, op_p50_s=0.002),
              _bench(post_s=0.017, op_p50_s=0.004)]
    summary = parity.pair_summary(parent, change)
    assert summary["pairs"] == 3 and summary["all_correct_failed_0"]
    post = summary["post_s"]
    assert (post["median_parent"], post["median_change"]) == (0.019, 0.017)
    assert post["parent_quartiles"] == pytest.approx([0.0185, 0.0195])
    assert post["parent_iqr"] == pytest.approx(0.001)
    assert post["rel_change"] == pytest.approx(0.017 / 0.019 - 1.0)
    assert post["change_lower_pairs"] == 2
    assert (post["parent"], post["change"]) == ([0.020, 0.018, 0.019], [0.016, 0.019, 0.017])
    assert summary["op_p50_s"]["change_lower_pairs"] == 1  # ties are not lower
    assert parity.summary_lines("corridor", summary) == [
        "corridor post_s: parent 0.019 change 0.017 (-10.5%), parent IQR 0.001, lower in 2/3",
        "corridor op_p50_s: parent 0.002 change 0.002 (+0.0%), parent IQR 0.001, lower in 1/3"]

    one = parity.pair_summary([_bench(post_s=0.5)], [_bench(failed=1, post_s=0.4)])
    assert not one["all_correct_failed_0"]
    assert one["post_s"]["parent_quartiles"] == [0.5, 0.5] and one["post_s"]["parent_iqr"] == 0.0
    assert parity.summary_lines("replay", one) == [
        "replay post_s: parent 0.5 change 0.4 (-20.0%), parent IQR 0, lower in 1/1"]


def test_peak_rss_is_the_commands_own(parity):
    """The wrapped command's standard output and exit status pass through,
    and its peak RSS is its own: 64 MiB more for a command that holds 64
    MiB of bytes than for one that holds none."""
    status, stdout, idle = parity._run_peak_rss(ROOT, ["-c", "print('out'); raise SystemExit(3)"])
    assert (status, stdout) == (3, b"out\n")
    _, _, held = parity._run_peak_rss(ROOT, ["-c", "held = b'x' * (64 << 20)"])
    assert 0 < idle < 64 < held


def test_verify_artifacts_are_dnmpc_verifys_output(parity, tmp_path, capsys):
    """`dnmpc verify` of each verified run's CSV gives its standard output
    and exit status, as the in-process command prints and returns them, and
    each verify process's peak RSS; a CSV without rows exits 2 with nothing
    on standard output."""
    scenario_path = ROOT / parity.SCENARIO
    traces = [AgentTrace(times=[0.0], states=[spec.start], inputs=[np.full(2, np.nan)],
                         w_norms=[0.0], V=[0.0])
              for spec in load_scenario(scenario_path).agents]
    good, empty = (tmp_path / name / "trajectory.csv" for name in parity.VERIFIED)
    for path in (good, empty):
        path.parent.mkdir()
    TrajectoryLog(traces=traces).to_csv(good)
    empty.write_text(good.read_text().splitlines()[0] + "\n")
    out = parity.verify_artifacts(ROOT, tmp_path)
    assert list(out) == ["bundled-10s verify stdout", "bundled-10s verify exit status",
                         "bundled-100s verify stdout", "bundled-100s verify exit status",
                         "verify peak_rss_mb"]
    status = main(["verify", str(good), str(scenario_path)])
    assert out["bundled-10s verify stdout"] == capsys.readouterr().out.encode()
    assert out["bundled-10s verify exit status"] == str(status).encode()
    assert (out["bundled-100s verify stdout"], out["bundled-100s verify exit status"]) == (
        b"", b"2")
    peaks = json.loads(out["verify peak_rss_mb"])
    assert list(peaks) == list(parity.VERIFIED) and all(0 < mb < 1000 for mb in peaks.values())


def test_record_compares_verify_output_and_records_its_peak(parity):
    """The verify artifacts are compared like the others, and the run and
    verify processes' peak RSS go to blocks of their own, not to the
    comparisons."""
    def side(verify_stdout, peak, run_peaks):
        out = {"bundled-10s verify stdout": verify_stdout,
               "bundled-10s verify exit status": b"0",
               "verify peak_rss_mb": json.dumps({"bundled-10s": peak}).encode(),
               "run peak_rss_mb": json.dumps(dict(zip(
                   (name for name, _, _ in parity.RUNS), run_peaks))).encode(),
               "sweep": b"completed 17/40\n", "paired gate": b"gate: pass\n",
               "calls": b'{"corridor": 1}\n'}
        out.update({f"traced {workload}": parity.traced_lines(_traced("fb873281d5a58a05", 0.03))
                    for workload in parity.WORKLOADS})
        return out

    result = parity.record("HEAD~", side(b"a = 1\nb = 2\n", 62.1, [45.3, 67.9, 45.2]),
                           side(b"a = 1\nb = 3\n", 56.2, [45.1, 64.2, 45.0]))
    assert result["bit_for_bit"]["bundled-10s verify stdout"] == {
        "line": 2, "parent": "b = 2", "change": "b = 3"}
    assert result["bit_for_bit"]["bundled-10s verify exit status"] == "identical"
    assert not set(parity.UNCOMPARED) & set(result["bit_for_bit"])
    assert result["verify_peak_rss_mb"] == {"parent": {"bundled-10s": 62.1},
                                            "change": {"bundled-10s": 56.2}}
    assert result["run_peak_rss_mb"] == {
        "parent": {"bundled-10s": 45.3, "bundled-100s": 67.9, "nominal-10s": 45.2},
        "change": {"bundled-10s": 45.1, "bundled-100s": 64.2, "nominal-10s": 45.0}}
