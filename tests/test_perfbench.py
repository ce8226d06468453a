"""The names the benchmark hooks into exist in the program. perfbench patches
them by attribute name, so a renamed one would otherwise show only as a
failed traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(monkeypatch, name):
    """perfbench/<name>.py as a module, registered while the test runs (its
    dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def hooks(monkeypatch):
    return _load(monkeypatch, "hooks")


def test_every_hooked_name_resolves(hooks):
    """Each (owner, attribute) that the untraced clock and the tracer patch
    is there to patch, and `installed` puts every original back."""
    clock = hooks.SolveClock(hooks.SpeedProbe())
    patches = clock.patches() + hooks.Tracer(clock).patches()
    originals = [getattr(owner, attr) for owner, attr, _ in patches]
    assert all(callable(fn) for fn in originals)
    names = {attr for _, attr, _ in patches}
    assert {"rollout_zoh", "minimize", "solve_fhocp", "restore_feasibility", "integrate",
            "tube_profile_radii", "tube_radius", "margins", "step"} <= names
    with hooks.installed(patches):
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr, _), fn in zip(patches, originals))
    assert all(getattr(owner, attr) is fn for (owner, attr, _), fn in zip(patches, originals))


def test_rollout_rows_reads_the_initial_error(hooks):
    """The rollout span counts one row per initial error, the second
    argument: one for the unbatched (n,) error every solve passes."""
    tracer = hooks.Tracer(hooks.SolveClock(hooks.SpeedProbe()))
    tracer._rollout_rows((None, np.zeros(3), np.zeros((6, 2)), 0.1, 10), None)
    assert tracer.counts["rollout_rows"] == 1


def test_shim_imports_every_module(monkeypatch):
    """perfbench/shim.py imports each dnmpc module of its list, with no
    rewrite of the source needed."""
    assert _load(monkeypatch, "shim").import_dnmpc() == "not-needed"
