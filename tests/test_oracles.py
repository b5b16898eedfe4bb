"""The oracles stay on the test side: no library module imports them."""

import ast
from pathlib import Path

import classalg

SOURCES = sorted(Path(classalg.__file__).parent.glob("*.py"))


def imported_modules(tree):
    """Every module name an import statement in the tree names, with the
    names a ``from`` import brings in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module
            yield from (alias.name for alias in node.names)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"stable.py", "wreath.py", "fock.py"}


def test_no_library_module_imports_oracles():
    offenders = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in imported_modules(ast.parse(path.read_text(), str(path)))
        if "oracles" in name.split(".")
    ]
    assert offenders == []


def unused_imports(tree):
    """(line, name) of each name an import binds that the module never
    reads; ``from __future__`` imports bind nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in bound.items() if name not in read]


def test_library_modules_read_every_imported_name():
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []


def test_only_scalars_imports_cyc():
    # every other module reads cyclotomic values as scalars or as the
    # int numerators that scalars hands out
    offenders = [
        path.name
        for path in SOURCES
        if path.name != "scalars.py"
        and "Cyc" in imported_modules(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []


def test_no_library_function_has_an_op_twin():
    # one constructor per operator: no module defines both a public f
    # and a public f_op
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        public = {
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        }
        offenders += [f"{path.name}: {f}" for f in sorted(public) if f + "_op" in public]
    assert offenders == []
