import contextlib
import importlib.util
import io
import inspect
from pathlib import Path

import pytest

from dnmpc import cli, coordination

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def traffic(monkeypatch):
    """scripts/traffic.py as a module; the BLAS variables it sets at import are
    restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("traffic", ROOT / "scripts" / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line_of(function, text):
    """The file line number of the line of `function` that starts with `text`."""
    lines, first = inspect.getsourcelines(function)
    return first + next(k for k, line in enumerate(lines) if line.strip().startswith(text))


def test_a_short_run_leaves_its_guards_unexecuted(traffic, tmp_path):
    """A 0.2 s run of the bundled scenario never reaches `Simulation`'s
    schedule-permutation raise, nor calls `from_csv`, and runs the first
    statement of `Simulation.step`; docstrings and declarations are never
    listed."""
    argv = ["run", str(traffic.SCENARIO), "--out", str(tmp_path), "--total-time", "0.2"]
    with contextlib.redirect_stdout(io.StringIO()):
        found = traffic.unexecuted(traffic.traced(lambda: cli.main(argv)))
    listed = {line: text for line, text in found["coordination.py"]}
    schedule = _line_of(coordination.Simulation.__init__, "raise ValueError(\"schedule must")
    assert listed[schedule].startswith("raise ValueError(\"schedule must be a permutation")
    from_csv = coordination.TrajectoryLog.from_csv
    assert listed[_line_of(from_csv, "def from_csv")] == "def from_csv(cls, path, h):"
    assert _line_of(from_csv, "with open") not in listed  # listed once, by its def line
    assert _line_of(coordination.Simulation.step, "t_k = ") not in listed
    texts = [text for statements in found.values() for _, text in statements]
    assert not [text for text in texts if text.startswith(('"""', "nonlocal", "global"))]
