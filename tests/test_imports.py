"""Every name a module imports is used there, except the marked exceptions."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "uncerteq"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# perfbench/test_perfbench.py reads ``compare`` in these five modules, to see
# that its wrapper reached every namespace that bound the original.  Where a
# module never calls it, the import line says so.
TRACED = {"cli", "grids", "identities", "complexspace", "forms"}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    unused = _unused_imports(path)
    allowed = {"compare"} if path.stem in TRACED else set()
    assert set(unused) <= allowed, f"{path.name} imports unused {sorted(unused)}"
    lines = path.read_text().splitlines()
    for name, line in unused.items():
        assert "perfbench" in lines[line - 1], (
            f"{path.name}:{line} keeps {name} for perfbench; say so on that line")
