import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def sweep(monkeypatch):
    """scripts/sweep.py as a module; the BLAS variables it sets at import are
    restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "scripts" / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lines(aborted):
    """A sweep's printed lines with the runs in `aborted` aborting."""
    lines = [f"{kind} {seed}: abort agent 2 t = 0.300: agent 2 infeasible at t = 0.300 "
             f"(residual 0.5)" if f"{kind} {seed}" in aborted else f"{kind} {seed}: ok"
             for kind, seed in (("weight-seed", s) for s in range(1, 21))]
    lines += [f"jitter {s}: ok" for s in range(1, 21)]
    return lines + [f"completed {40 - len(aborted)}/40"]


def test_paired_gate_counts_the_flipped_runs(sweep):
    parent = _lines({"weight-seed 1", "weight-seed 2", "weight-seed 3"})
    same, passed = sweep.paired_gate(parent, parent)
    assert passed and same == [
        "paired gate: newly aborting 0 - newly completing 0 = 0 <= 2 sqrt(0) = 0.00: pass"]
    # 3 newly aborting and 1 newly completing: 2 <= 2 sqrt(4) = 4
    change = _lines({"weight-seed 1", "weight-seed 2", "weight-seed 4", "weight-seed 5",
                     "weight-seed 6"})
    report, passed = sweep.paired_gate(parent, change)
    assert passed
    assert report == [
        "flipped weight-seed 3: abort -> ok",
        "flipped weight-seed 4: ok -> abort",
        "flipped weight-seed 5: ok -> abort",
        "flipped weight-seed 6: ok -> abort",
        "paired gate: newly aborting 3 - newly completing 1 = 2 <= 2 sqrt(4) = 4.00: pass"]
    # 5 newly aborting and none completing: 5 > 2 sqrt(5) = 4.47
    report, passed = sweep.paired_gate(
        parent, _lines({"weight-seed 1", "weight-seed 2", "weight-seed 3", "weight-seed 9",
                        "weight-seed 10", "weight-seed 11", "weight-seed 12", "weight-seed 13"}))
    assert not passed and report[-1].endswith("= 4.47: FAIL")
    with pytest.raises(ValueError, match="different runs"):
        sweep.paired_gate(parent[:-2], parent)
