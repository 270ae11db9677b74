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


# Public functions that no code in src/ calls: the whole-grid operators that
# tests/test_grids.py compares grids.hardy_terms and grids.lattice_zeta with.
TEST_REFERENCES = {"grids.coulomb", "grids.radial_part", "grids.spherical_derivative"}


def _references(path):
    """'module.name' of each function of src/ that ``path`` reads, outside
    that function's own body.  A name read through a module chosen at run
    time (``ops.name``) is no reference."""
    tree = ast.parse(path.read_text())
    own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = {name: f"{path.stem}.{name}" for name in own}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = alias.asname or alias.name
                if node.module is None:
                    modules[target] = alias.name
                else:
                    names[target] = f"{node.module}.{alias.name}"
    found = set()
    for stmt in tree.body:
        inside = (f"{path.stem}.{stmt.name}" if isinstance(stmt, ast.FunctionDef)
                  else None)
        for node in ast.walk(stmt):
            ref = None
            if isinstance(node, ast.Name):
                ref = names.get(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                ref = f"{modules[node.value.id]}.{node.attr}"
            if ref is not None and ref != inside:
                found.add(ref)
    return found


def _public_functions():
    return {f"{path.stem}.{node.name}" for path in MODULES
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def test_every_public_function_has_a_caller():
    # A caller in src/ other than the function itself, an export of the
    # package, or a place on TEST_REFERENCES; a test reference that gains a
    # caller leaves the list.
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {f"{node.module}.{alias.name}" for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    called = set().union(*map(_references, MODULES))
    uncalled = _public_functions() - called - exported
    assert uncalled == TEST_REFERENCES, (
        f"no caller: {sorted(uncalled - TEST_REFERENCES)}; "
        f"called or gone: {sorted(TEST_REFERENCES - uncalled)}")
