import importlib.util
import json
from pathlib import Path

import pytest

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
