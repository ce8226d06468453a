import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from dnmpc import coordination, dynamics
from dnmpc.cli import load_scenario
from dnmpc.constraints import StageGeometry
from dnmpc.dynamics import UNICYCLE, ErrorDynamics

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"


@pytest.fixture
def calls(monkeypatch):
    """scripts/calls.py as a module; the BLAS variables it sets at import are
    restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("calls", ROOT / "scripts" / "calls.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_entry_resolves(calls):
    """A renamed entry function fails here rather than reading 0 calls. The
    Jacobian entries are the code of the callables that the rollout and the
    engine's margin function return, so their calls and the Jacobians
    formed are attributed and counted; the margin evaluations are the
    entries of the engine's margin function."""
    codes = [calls.code_of(module, name) for module, name in calls.LAYERS]
    assert [code.co_name for code in codes] == [name.rsplit(".", 1)[-1]
                                                for _, name in calls.LAYERS]
    assert set(calls.LAYERS.values()) | {"engine"} == set(calls.ORDER)
    assert calls.LAYERS[calls.ROLLOUT] == "rollout"
    assert calls.LAYERS[calls.JACOBIAN] == "jacobian"
    ed = ErrorDynamics(UNICYCLE, np.zeros(3))
    _, jacobian = dynamics.rollout_zoh(ed, np.zeros(3), np.zeros((2, 2)), 0.1, 2)
    assert jacobian.__code__ is calls.code_of(*calls.JACOBIAN)
    geometry = StageGeometry(np.array([0.1]), workspace=(np.zeros(2), 9.0), interagent=[],
                             neighbor=[], obstacles=[])
    margin_fn = coordination._margin_fn(geometry, np.zeros(1), np.zeros(2))
    assert calls.LAYERS[calls.MARGINS] == "margins"
    assert margin_fn.__code__ is calls.code_of(*calls.MARGINS)
    _, margin_jacobian = margin_fn(np.zeros((1, 3)))
    assert calls.LAYERS[(coordination, margin_jacobian.__qualname__)] == "margins"
    assert margin_jacobian.__code__ is calls.code_of(coordination,
                                                     margin_jacobian.__qualname__)


def _inner(x):
    return abs(x) + len([x])


def _outer(x):
    def nested(y):
        return _inner(y)

    return nested(x) + _inner(x)


def test_calls_count_towards_the_innermost_layer(calls, monkeypatch):
    """_outer's own call and its nested function's count towards layer "a";
    each _inner call, made from inside "a", and its two builtin calls
    towards "b"; the builtin calls outside both layers towards "engine"."""
    toy = types.ModuleType("toy")
    toy._outer, toy._inner = _outer, _inner
    monkeypatch.setattr(calls, "LAYERS", {(toy, "_outer"): "a", (toy, "_inner"): "b"})
    counter = calls.CallCounter()
    sys.setprofile(counter)
    try:
        _outer(-2)
        len("x")
    finally:
        sys.setprofile(None)
    # the setprofile(None) call itself is a builtin call outside every layer
    assert dict(counter.counts) == {"a": 2, "b": 6, "engine": 2}


def test_table_prints_calls_per_agent_step(calls):
    """The last column of each layer's row, and of the total, is its count
    over the window's agent-solves."""
    window = {"t": [10.0, 12.0], "agent_solves": 60, "feasible_witness_solves": 60,
              "solver_iterations": 60, "rollouts": 120, "jacobians": 60, "margins": 120,
              "calls": {layer: 7 * (i + 1) for i, layer in enumerate(calls.ORDER)}}
    window["total"] = sum(window["calls"].values())
    lines = calls.table("rest", window)
    assert lines[0].startswith("rest: t in [10, 12) s, 60 agent-solves")
    assert lines[0].endswith("60 solver iterations, 120 rollouts, 60 Jacobians formed, "
                             "120 margin evaluations")
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    assert list(rows) == calls.ORDER + ["total"]
    for layer, row in rows.items():
        count = window["total"] if layer == "total" else window["calls"][layer]
        assert int(row[1].replace(",", "")) == count
        assert float(row[3]) == round(count / 60, 1)


def test_margin_evaluations_are_the_engine_margin_fn_entries(calls, monkeypatch):
    """The margin evaluations of a window are the calls of the engine's
    margin function: on a 0.2 s run, as many as a wrapper around each one
    sees."""
    sim = load_scenario(SCENARIO).build_simulation(total_time=0.2)
    seen = [0]
    real = coordination._margin_fn

    def margin_fn_of(*args):
        margin_fn = real(*args)

        def counted(errors):
            seen[0] += 1
            return margin_fn(errors)

        return counted

    # the layers' code, resolved before the wrapper replaces the module's function
    counter, margins = calls.CallCounter(), calls.code_of(*calls.MARGINS)
    monkeypatch.setattr(coordination, "_margin_fn", margin_fn_of)
    sys.setprofile(counter)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    assert seen[0] > 0
    assert counter.entries[margins] == seen[0]
