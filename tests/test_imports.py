"""Import hygiene: every name a module of the package, of the tests or of
the scripts imports is used in that module, or exported through its
`__all__`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
