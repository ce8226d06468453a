#!/usr/bin/env python3
"""The statements of the ``dnmpc`` package that no run executes.

Usage, from the root of a checkout:

    python3 scripts/traffic.py

Traces, with ``sys.settrace`` on the frames of ``src/dnmpc`` only, the lines
that these runs execute, one after another in this process:

- ``dnmpc run`` of the bundled scenario (10 s), and of a copy of it with
  ``w_bar: 0.0`` (no disturbance);
- the 40 runs of ``scripts/sweep.py``;
- ``dnmpc verify`` of the bundled run's ``trajectory.csv``, ``dnmpc
  certify`` of the bundled scenario and ``dnmpc columns``.

Then prints, per module, each statement of a function body that none of
them executed, as ``<module>:<line>: <first line of its text>``, a count,
and last one JSON object ``{module: [[line, text], ...]}``. A function that
none of them entered is listed once, by its ``def`` line; in a function
that they entered, an unexecuted statement is listed only when the
statement that holds it was executed, so a branch that never runs is listed
by its first statement. Docstrings and ``global`` and ``nonlocal``
declarations are left out, and so are module and class bodies, which run
when a module is imported. A statement counts as executed when a line event
fell on one of its own lines (for a compound statement, its header) or on a
statement that it holds, so two statements on one line count together. The
trace starts before ``dnmpc`` is imported, so the functions that run at
import count as executed. It takes about 40 s on a 2-vCPU machine.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the thread count changes the iterates
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dnmpc"
SCENARIO = PACKAGE / "scenarios" / "three_unicycles.yaml"


def traced(work):
    """{file name: line numbers} of the line events in the frames of the
    package's files while `work()` runs."""
    prefix = str(PACKAGE) + os.sep
    lines = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        add = lines.setdefault(filename, set()).add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        work()
    finally:
        sys.settrace(None)
    return lines


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _children(node):
    """The statements that the statement `node` holds, a nested function's
    body excluded."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return []
    blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
    blocks += [handler.body for handler in getattr(node, "handlers", [])]
    return [child for block in blocks for child in block]


def _lines(node):
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return set(range(start, node.end_lineno + 1))


class _Module:
    """One source file's function bodies, against the lines executed in it."""

    def __init__(self, path, executed):
        self.source = path.read_text().splitlines()
        self.executed = executed
        self.memo = {}
        self.found = []
        tree = ast.parse("\n".join(self.source))
        for node in tree.body:
            self._scope(node)

    def ran(self, node):
        """Whether a line event fell on one of the own lines of `node` or on
        a statement that it holds."""
        if node not in self.memo:
            children = _children(node)
            own = _lines(node).difference(*map(_lines, children))
            if isinstance(node, ast.FunctionDef):
                own -= set(range(node.body[0].lineno, node.end_lineno + 1))
            self.memo[node] = bool(own & self.executed) or any(map(self.ran, children))
        return self.memo[node]

    def _scope(self, node):
        """Visit the module- or class-level statement `node`: its functions'
        bodies, the methods of a class."""
        if isinstance(node, ast.FunctionDef):
            self._function(node)
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                self._scope(child)

    def _function(self, node):
        body = [stmt for k, stmt in enumerate(node.body) if k or not _is_docstring(stmt)]
        if not any(map(self.ran, body)):
            self._list(node)
            return
        for stmt in body:
            self._statement(stmt)

    def _statement(self, node):
        """List `node` if it never ran, else what never ran in it."""
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            return  # a declaration, which compiles to no code
        if isinstance(node, ast.FunctionDef) and self.ran(node):
            self._function(node)
        elif not self.ran(node):
            self._list(node)
        else:
            for child in _children(node):
                self._statement(child)

    def _list(self, node):
        self.found.append([node.lineno, self.source[node.lineno - 1].strip()])


def unexecuted(lines):
    """{module file name: [[line, text], ...]} of the statements of the
    package's function bodies that the line events `lines` (as `traced`
    returns them) never reached, in file and line order."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = _Module(path, lines.get(str(path), set()))
        if module.found:
            out[path.name] = sorted(module.found)
    return out


def bundled_work(out):
    """The runs of the module docstring, their files written under the
    directory `out` and their printed output dropped."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    from dnmpc import cli

    import sweep

    nominal = out / "nominal.yaml"
    nominal.write_text(SCENARIO.read_text().replace("\nw_bar: 0.1", "\nw_bar: 0.0", 1))
    commands = [["run", SCENARIO, "--out", out / "bundled"],
                ["run", nominal, "--out", out / "nominal"],
                ["verify", out / "bundled" / "trajectory.csv", SCENARIO],
                ["certify", SCENARIO], ["columns"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in commands:
            cli.main([str(arg) for arg in argv])
        for run in sweep.RUNS:
            sweep.run_one(run)


def main():
    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp:
        found = unexecuted(traced(lambda: bundled_work(Path(tmp))))
    for name, statements in found.items():
        for line, text in statements:
            print(f"{name}:{line}: {text}")
    print(f"unexecuted: {sum(map(len, found.values()))} statements in {len(found)} modules")
    print(json.dumps(found))
    return 0


if __name__ == "__main__":
    sys.exit(main())
