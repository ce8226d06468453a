"""Load the unmodified ``dnmpc`` source, working around one known import error.

On Python 3.11+ ``dataclasses`` rejects the unhashable ``slice`` default of
``AgentModel.position_slice`` in ``dnmpc/dynamics.py`` and ``import dnmpc``
fails. When, and only when, that exact error is raised, the module is compiled
from its source with that one default rewritten to ``default_factory``; the
files on disk are not touched. Once the source is fixed the shim is a no-op.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import sys

_ERROR = "mutable default <class 'slice'> for field position_slice"
_OLD = "field(default=slice(0, 2))"
_NEW = "field(default_factory=lambda: slice(0, 2))"


class _PatchedLoader(importlib.machinery.SourceFileLoader):
    """Compile from source with the default rewritten; never use or write bytecode."""

    def get_code(self, fullname):
        text = self.get_data(self.path).decode("utf-8")
        if text.count(_OLD) != 1:
            raise ImportError(f"import shim: expected one {_OLD!r} in {self.path}")
        return compile(text.replace(_OLD, _NEW), self.path, "exec", dont_inherit=True)


def _drop_partial_imports():
    for name in [n for n in sys.modules if n == "dnmpc" or n.startswith("dnmpc.")]:
        del sys.modules[name]


def import_dnmpc():
    """Import every ``dnmpc`` module; return "applied" or "not-needed"."""
    modules = ("dynamics", "setalg", "constraints", "ocp", "coordination", "certify", "cli")
    try:
        importlib.import_module("dnmpc.dynamics")
        status = "not-needed"
    except ValueError as exc:
        if _ERROR not in str(exc):
            raise
        _drop_partial_imports()
        package = importlib.import_module("dnmpc")
        path = package.__path__[0] + "/dynamics.py"
        loader = _PatchedLoader("dnmpc.dynamics", path)
        spec = importlib.util.spec_from_file_location("dnmpc.dynamics", path, loader=loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules["dnmpc.dynamics"] = module
        try:
            loader.exec_module(module)
        except BaseException:
            del sys.modules["dnmpc.dynamics"]
            raise
        package.dynamics = module
        status = "applied"
    for name in modules:
        importlib.import_module(f"dnmpc.{name}")
    return status
