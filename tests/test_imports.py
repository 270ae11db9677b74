"""Every name a module imports is used there, except the marked exceptions."""

import ast
import pathlib
import re

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


README = SRC.parent.parent / "README.md"
ACCEPTANCE = SRC.parent.parent / "tests" / "test_acceptance.py"


def _gate_imports():
    """'module.name' of each name that tests/test_acceptance.py or the
    README library example imports from the package: ``from uncerteq.m
    import name``, ``from uncerteq import name`` (resolved through the
    package's own imports) and ``m.name`` of a module it imports."""
    init = {alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in ast.parse((SRC / "__init__.py").read_text()).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    (example,) = re.findall(r"## Library example\n\n```python\n(.*?)```",
                            README.read_text(), re.S)
    found = set()
    for tree in (ast.parse(ACCEPTANCE.read_text()), ast.parse(example)):
        modules = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("uncerteq")):
                continue
            for alias in node.names:
                if node.module != "uncerteq":
                    found.add(f"{node.module.split('.')[1]}.{alias.name}")
                elif (SRC / f"{alias.name}.py").exists():
                    modules.add(alias.asname or alias.name)
                else:
                    found.add(init[alias.name])
        found |= {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in modules}
    return found


def test_every_public_function_has_a_caller():
    # A caller in src/ other than the function itself, an import by the
    # acceptance gate or the README library example, or a place on
    # TEST_REFERENCES; a test reference that gains a caller leaves the list.
    # An export of the package alone is no caller: a function only tests
    # call is dead code.
    called = set().union(*map(_references, MODULES))
    uncalled = _public_functions() - called - _gate_imports()
    assert uncalled == TEST_REFERENCES, (
        f"no caller: {sorted(uncalled - TEST_REFERENCES)}; "
        f"called or gone: {sorted(TEST_REFERENCES - uncalled)}")


def _optional_parameters():
    """{function name: (its positional parameters, its parameters with a
    default)} of each public module-level function of src/."""
    found = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                optional = positional[len(positional) - len(args.defaults):]
                optional += [a.arg for a, default in zip(args.kwonlyargs,
                                                         args.kw_defaults)
                             if default is not None]
                found[f"{path.stem}.{node.name}"] = positional, optional
    return found


def _set_parameters(paths, functions):
    """'module.function.parameter' of each parameter that code in ``paths``
    sets: a call passes it by keyword or by position, or the function is
    passed as a value, which may set any of them.  A call or a value is
    matched by the function's name alone (``f`` or ``m.f``); ``*args`` or
    ``**kwargs`` in a call passes every parameter it could reach."""
    by_name = {}
    for qualified, signature in functions.items():
        by_name.setdefault(qualified.rsplit(".", 1)[1], []).append(
            (qualified, signature))

    def name_of(node):
        return (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)

    found = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        called = {id(call.func) for call in calls}
        for node in ast.walk(tree):     # a function read as a value
            if (id(node) not in called
                    and isinstance(getattr(node, "ctx", None), ast.Load)):
                for qualified, (_, optional) in by_name.get(name_of(node), []):
                    found |= {f"{qualified}.{p}" for p in optional}
        for node in calls:
            for qualified, (positional, optional) in by_name.get(name_of(node.func), []):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                passed = set(positional if starred else positional[:len(node.args)])
                for keyword in node.keywords:
                    passed |= set(optional) if keyword.arg is None else {keyword.arg}
                found |= {f"{qualified}.{p}" for p in passed & set(optional)}
    return found


# Optional parameters that only callers outside src/ set: the command line's
# argument list, which the console script leaves to sys.argv.
ENTRY_POINTS = {"cli.main.argv"}


def test_every_optional_parameter_is_set_somewhere():
    # A default that no code in src/ overrides is a constant: the function
    # should say so, not offer it as a parameter that only a test sets.
    functions = _optional_parameters()
    optional = {f"{qualified}.{p}" for qualified, (_, params) in functions.items()
                for p in params}
    never_set = optional - _set_parameters(SRC.glob("*.py"), functions)
    assert never_set == ENTRY_POINTS, (
        f"never passed in src/: {sorted(never_set - ENTRY_POINTS)}; "
        f"passed or gone: {sorted(ENTRY_POINTS - never_set)}")
