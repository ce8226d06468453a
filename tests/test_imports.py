"""Import hygiene and dead code: every name a module of the package, of the
tests or of the scripts imports is used in that module, or exported through
its `__all__`; everything the package defines is used by the program, not
only by its own unit tests; and a fresh interpreter that runs the package's
commands first loads neither numpy.random, numpy.ma nor scipy's packages."""

import ast
import os
import re
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import pytest

from dnmpc import ocp
from dnmpc.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "src" / "dnmpc" / "scenarios" / "three_unicycles.yaml"


def unused_imports(source):
    """(line, name) of each imported name that `source` never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c, d\n"
                          "__all__ = ['d']\nnp.zeros(c)\n") == [(1, "os")]
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for pattern in ("src/dnmpc/*.py", "tests/*.py", "scripts/*.py")
             for path in sorted(ROOT.glob(pattern))
             for line, name in unused_imports(path.read_text())]
    assert not found


# where a use of a package definition counts: the program, its benchmark and
# scripts, and the acceptance criteria
USERS = ("src/dnmpc/*.py", "perfbench/*.py", "scripts/*.py", "tests/test_acceptance.py")


def definitions(source):
    """(name, first line, last line) of each function, method and class, and
    of each module-level constant, that `source` defines; dunders excluded."""
    tree = ast.parse(source)
    found = [(node.name, node.lineno, node.end_lineno) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                found += [(name.id, node.lineno, node.end_lineno) for name in ast.walk(target)
                          if isinstance(name, ast.Name)]
    return [d for d in found if not (d[0].startswith("__") and d[0].endswith("__"))]


def references(source):
    """(name, line) of each name that `source` reads, as a variable, as an
    attribute or as an identifier inside a string literal (perfbench patches
    by attribute name). Docstrings and `__all__` entries name without using."""
    tree = ast.parse(source)
    skip = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            skip.update(id(elt) for elt in node.value.elts)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            found += [(word, node.lineno) for word in re.findall(r"[A-Za-z_]\w*", node.value)]
    return found


def test_no_definition_only_tests_use():
    example = ('"""Doc: unused, _Hidden."""\n__all__ = ["unused"]\nLIMIT = 2\n'
               'def unused():\n    return unused()\n'
               'class _Hidden:\n    def __init__(self): pass\n    def probe(self): pass\n'
               'def used(x):\n    return getattr(x, "probe")(LIMIT)\n')
    uses = references(example)
    assert [name for name, first, last in definitions(example)
            if not any(n == name and not first <= line <= last for n, line in uses)
            ] == ["unused", "_Hidden", "used"]
    users = [path for pattern in USERS for path in sorted(ROOT.glob(pattern))]
    uses = {path: references(path.read_text()) for path in users}
    found = [f"{path.relative_to(ROOT)}:{first}: {name}"
             for path in sorted(ROOT.glob("src/dnmpc/*.py"))
             for name, first, last in definitions(path.read_text())
             if not any(n == name and (user != path or not first <= line <= last)
                        for user, names in uses.items() for n, line in names)]
    assert not found


# run by a fresh interpreter with argv [scenario, output directory, tests directory]
FRESH_INTERPRETER = """
import os
import sys


def assert_unloaded(after):
    loaded = sorted({"numpy.random", "numpy.ma", "scipy", "scipy.optimize", "scipy.linalg",
                     "scipy.linalg._flapack"} & set(sys.modules))
    assert not loaded, f"{after} loaded {loaded}"


import dnmpc.cli

assert_unloaded("import dnmpc.cli")
scenario, out = sys.argv[1], sys.argv[2]
assert dnmpc.cli.main(["certify", scenario]) == 0
assert_unloaded("certify")
assert dnmpc.cli.main(["run", scenario, "--out", out, "--total-time", "0.2"]) == 1
assert_unloaded("run")
assert dnmpc.cli.main(["verify", os.path.join(out, "trajectory.csv"), scenario]) == 1
assert_unloaded("verify")

sys.path.insert(0, sys.argv[3])
import scipy.optimize
import test_ocp

tr, x0 = test_ocp._restore_form(*list(test_ocp._unicycle_problems())[1])
with test_ocp.single_blas_thread():
    ours = test_ocp.ocp.minimize(tr, x0)
assert (ours.x.tobytes(), ours.nit, ours.nfev, ours.status) == test_ocp._scipy_reference(tr, x0)
"""


def test_fresh_interpreter_loads_no_numpy_random_numpy_ma_or_scipy_package(tmp_path, capsys):
    """In a fresh interpreter, where dnmpc is loaded before anything else
    (in-process tests always find numpy.random and scipy.optimize loaded by
    a test module), neither `import dnmpc.cli`, nor `certify`, nor a 0.2 s
    `run`, nor a `verify` of that run's CSV loads numpy.random, numpy.ma,
    scipy's package itself, scipy.optimize, scipy.linalg or scipy's LAPACK
    extension `scipy.linalg._flapack`: the solver loads only the compiled
    `scipy.optimize._slsqplib` (SLSQP's core and `nnls`) and takes its
    triangular inverse from numpy, and the weights' draw and the log's
    read-back need neither numpy subpackage. The run's CSV is byte for byte
    the in-process run's, and once scipy.optimize is imported after all, a
    seeded problem of tests/test_ocp.py restores bitwise as scipy's public
    SLSQP solves it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER, str(SCENARIO), str(tmp_path / "fresh"),
         str(ROOT / "tests")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert fresh.returncode == 0, fresh.stderr
    assert main(["run", str(SCENARIO), "--out", str(tmp_path / "here"),
                 "--total-time", "0.2"]) == 1
    capsys.readouterr()
    assert ((tmp_path / "fresh" / "trajectory.csv").read_bytes()
            == (tmp_path / "here" / "trajectory.csv").read_bytes())


def test_missing_compiled_scipy_module_names_its_path_and_scipys_version():
    """A scipy without a compiled file that the solver loads fails with an
    ImportError that names the file's path and scipy's installed version."""
    with pytest.raises(ImportError) as raised:
        ocp._scipy_compiled("optimize", "_no_such_module")
    assert str(raised.value).startswith(
        f"scipy {version('scipy')} has no compiled module "
        f"{ocp._SCIPY / 'optimize' / '_no_such_module'} with any of the suffixes ")
