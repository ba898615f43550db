"""Every name a module imports is read somewhere in that module.

``src/hopfly/__init__.py`` is left out: its imports are the public surface.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(
    path
    for path in glob.glob(os.path.join(ROOT, "src", "hopfly", "*.py"))
    + glob.glob(os.path.join(ROOT, "scripts", "*.py"))
    if os.path.basename(path) != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(e)\n") == [
        "line 1: os", "line 2: c"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as f:
        assert unused_imports(f.read()) == []
