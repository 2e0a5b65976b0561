"""Every name a module imports is used, and every private module-level
function or class is referred to: the lint step, as a test.

Scans each module of the package except __init__.py (which imports to
re-export) and fails on an imported name that the module never loads.  Scans
all modules together and fails on a private (one leading underscore)
module-level function or class that no module refers to outside its own
definition; a reference from the tests alone does not count.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "orbits"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in loaded)


def test_scanner_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .x import a, b\nprint(np, b)\n"
    assert unused_imports(source) == [(1, "os"), (3, "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_privates(sources):
    """(module, name) of each private module-level function or class that no
    top-level statement of any module, other than its own definition, names."""
    defs, uses = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = (module, stmt.name)
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defs.append(own)
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            uses.append((own, names))
    return sorted(
        d for d in defs if not any(d[1] in names for own, names in uses if own != d)
    )


def test_scanner_finds_an_unreferenced_private():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\n_used()\n",
        "c": "import a\n\ndef f():\n    return a._other()\n\ndef _other():\n    pass\n",
    }
    assert unreferenced_privates(sources) == [("a", "_Gone"), ("a", "_dead")]


def test_no_unreferenced_privates():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []
