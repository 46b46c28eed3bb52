"""Structural guards: every file the package reads or writes goes through
``dof._read_file`` and ``dof._write_file``, and the CLI parses no CSV of
its own."""

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
