"""Structural guards: every file the package reads or writes goes through
``dof._read_file`` and ``dof._write_file``, the CLI parses no CSV of its
own, and scipy's LAPACK comes only through ``core``'s loader."""

import ast
from pathlib import Path

import tsvc

SRC = Path(tsvc.__file__).parent


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def test_only_dof_opens_files():
    opening = sorted(
        path.name for path in SRC.glob("*.py")
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "open" for node in ast.walk(_tree(path.name))))
    assert opening == ["dof.py"]


def test_cli_imports_no_csv_or_io():
    imported = set()
    for node in ast.walk(_tree("cli.py")):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {"csv", "io"}


def _imported_on_load(node):
    """Top-level names the statements run at import (all but function
    bodies) import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name.split(".")[0] for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module.split(".")[0]
        yield from _imported_on_load(child)


def test_scipy_is_loaded_only_by_the_core_loader():
    # importing scipy.linalg costs every process a few hundred modules
    # the solver never uses; core loads the one extension it calls
    assert [path.name for path in SRC.glob("*.py")
            if "scipy" in _imported_on_load(_tree(path.name))] == []
    owners = set()
    for path in SRC.glob("*.py"):
        tree = _tree(path.name)
        lines = path.read_text(encoding="utf-8").splitlines()
        start = tree.body[0].end_lineno if ast.get_docstring(tree) else 0
        for number, line in enumerate(lines[start:], start + 1):
            if "_flapack" in line:
                owner = next((node.name for node in tree.body
                              if isinstance(node, ast.FunctionDef)
                              and node.lineno <= number <= node.end_lineno), None)
                owners.add((path.name, owner))
    assert owners <= {("core.py", "_flapack_path"), ("core.py", "_load_lapack")}
