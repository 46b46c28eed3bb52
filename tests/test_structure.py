"""Structural guards: one job per module.  Every file the package reads
or writes, every CSV and every worker process goes through ``_io``; no
module imports another's private names; ``model`` (the fitted model
and its JSON) rests on ``core`` and ``errors`` alone; scipy's LAPACK
comes only through ``core``'s loader; the CLI's exit code is set by the
error types alone; the package exports names, not its modules; the
split search's block budget is a constant that only the block maker
reads, and its sweep width one that only the prefix pass reads; the
FP search's screen margin is a constant that only the FP search reads;
every tolerance on a direction's part off a basis is a ``core``
constant, and ``core`` alone projects off a basis and freezes a solve's
outputs; only the FP column table and a fitted surface's prediction
build FP columns; the grid CSV has one writer,
``McDofTable.to_csv``; and DoF source names become prices in ``dof``
and ``simulate`` alone."""

import ast
import inspect
from pathlib import Path

import tsvc

SRC = Path(tsvc.__file__).parent


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def _imports(name):
    """(module, names) of every import in a module, a relative module
    written with its leading dots; a plain import's names are empty."""
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            yield from ((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield module, tuple(alias.name for alias in node.names)


def test_only_io_opens_files():
    opening = sorted(
        path.name for path in SRC.glob("*.py")
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "open" for node in ast.walk(_tree(path.name))))
    assert opening == ["_io.py"]


def test_only_io_imports_csv_io_or_workers():
    # cli reads TSVC_THREADS and core finds scipy's LAPACK file through os
    reaching_out = {"csv", "io", "os", "concurrent.futures"}
    found = {}
    for path in SRC.glob("*.py"):
        modules = {module for module, _ in _imports(path.name)} & reaching_out
        if modules:
            found[path.name] = modules
    assert found == {"_io.py": reaching_out, "cli.py": {"os"}, "core.py": {"os"}}


def test_no_module_imports_a_private_name_of_another():
    private = [(path.name, module, name) for path in SRC.glob("*.py")
               for module, names in _imports(path.name)
               if module.startswith((".", "tsvc")) for name in names if name.startswith("_")]
    assert private == []


def test_model_rests_on_core_and_errors_alone():
    assert {module for module, _ in _imports("model.py")
            if module.startswith((".", "tsvc"))} <= {".core", ".errors"}
    # and no other module, tree.py included, defines a model name again
    defined = {node.name for node in _tree("model.py").body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    elsewhere = {(path.name, node.name) for path in SRC.glob("*.py") if path.name != "model.py"
                 for node in _tree(path.name).body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in defined}
    assert elsewhere == set()


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


def test_cli_exit_code_is_the_error_type():
    # main catches ValidationError (exit 2), then TsvcError (exit 3): the
    # type hierarchy in errors.py, not a list in cli.py, sets the code
    main = next(node for node in _tree("cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [ast.unparse(node.type) for node in ast.walk(main)
                if isinstance(node, ast.ExceptHandler)]
    assert handlers == ["ValidationError", "TsvcError"]


def test_package_exports_no_module():
    # ``from tsvc import *`` binds the public names, not the submodules
    assert [name for name in tsvc.__all__ if inspect.ismodule(getattr(tsvc, name))] == []


def _constant_readers(module, name, importers=()):
    """The functions of ``module`` (top-level names) that read the module
    constant ``name``, after checking that ``module`` assigns it once, at
    top level, from literals alone, and that no other module names it
    but ``importers``, which import it from ``module`` and bind it nowhere."""
    assert [path.name for path in SRC.glob("*.py") if path.name != module
            and path.name not in importers and name in path.read_text(encoding="utf-8")] == []
    for importer in importers:
        assert ("." + module.removesuffix(".py"), name) in {
            (source, imported) for source, names in _imports(importer) for imported in names}
        assert _bindings(importer, name)[0] == []
    stores, loads = _bindings(module, name)
    assert stores == [None]
    (value,) = [top.value for top in _tree(module).body if isinstance(top, ast.Assign)
                and [ast.unparse(target) for target in top.targets] == [name]]
    assert all(isinstance(node, (ast.Constant, ast.BinOp, ast.operator))
               for node in ast.walk(value)), ast.unparse(value)
    return set(loads)


def _bindings(module, name):
    """(stores, loads): the owner (top-level name) of every place that
    binds ``name`` in ``module``, and of every place that reads it."""
    stores, loads = [], []
    for top in _tree(module).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, (ast.Global, ast.Nonlocal)) and name in node.names:
                stores.append((owner, type(node).__name__))
            elif isinstance(node, ast.Attribute) and node.attr == name:
                stores.append((owner, "attribute"))
            elif isinstance(node, ast.Name) and node.id == name:
                (loads if isinstance(node.ctx, ast.Load) else stores).append(owner)
    return stores, loads


def test_block_budget_is_a_constant_read_by_the_block_maker_alone():
    # the split search's block budget is one constant, not a knob: tree.py
    # assigns it once from literals, only _candidate_blocks reads it, and
    # no other module names it, so no CLI option or environment variable
    # (tree.py imports no os, see above) can reach it
    assert _constant_readers("tree.py", "_BLOCK_ELEMENTS") == {"_candidate_blocks"}


def test_sweep_width_is_a_constant_read_by_the_prefix_pass_alone():
    # the width from which the prefix pass sweeps is a constant in the
    # same way: tree.py assigns it once from literals and only
    # _prefix_sums reads it; tree.py imports no os, so no environment
    # variable reaches it.  Fresh scores get their sums from that pass
    # alone: _score_candidates calls no cumsum of its own.
    assert _constant_readers("tree.py", "_SWEEP_LANES") == {"_prefix_sums"}
    assert "os" not in {module for module, _ in _imports("tree.py")}
    readers = _readers("tree.py", "cumsum")
    assert "_prefix_sums" in readers and "_score_candidates" not in readers
    assert "_score_candidates" in _readers("tree.py", "_prefix_sums")


def test_fp_screen_margin_and_floor_are_constants_read_by_the_fp_search_alone():
    # the FP search's screen margin is a constant in the same way: mfp.py
    # (which imports no os) assigns it once from literals, and only the
    # search reads it, where it stops refitting
    assert _constant_readers("mfp.py", "_FP_SCREEN_RTOL") == {"_FpSearch"}
    # its trust floor is core's SCREEN_FLOOR, one of the three rules on a
    # direction's part off a basis: core.py assigns each once from
    # literals, and tree.py and mfp.py import those they read and bind
    # them nowhere
    assert _constant_readers("core.py", "RANK_RTOL") == {"solve_least_squares"}
    assert _constant_readers("core.py", "DEGENERATE_RTOL", importers=("tree.py",)) == set()
    assert _constant_readers("core.py", "SCREEN_FLOOR", importers=("tree.py", "mfp.py")) == set()
    assert _readers("tree.py", "DEGENERATE_RTOL") == {"_Screen._keep"}
    assert _readers("tree.py", "SCREEN_FLOOR") == {"_Screen._keep"}
    assert _readers("mfp.py", "SCREEN_FLOOR") == {"_screened_gains"}
    # and they set no floor of their own: their only small literals are
    # the search margins and the likelihood-ratio test's zero-rss floor
    small = {(name, _owner_of_line(name, node.lineno)) for name in ("tree.py", "mfp.py")
             for node in ast.walk(_tree(name)) if isinstance(node, ast.Constant)
             and isinstance(node.value, float) and 0.0 < abs(node.value) < 1e-3}
    assert small == {("tree.py", "_SCREEN_RTOL"), ("mfp.py", "_RSS_FLOOR_RTOL"),
                     ("mfp.py", "_FP_SCREEN_RTOL")}


def _owner_of_line(module, lineno):
    """The name that the top-level statement of ``module`` holding line
    ``lineno`` defines or assigns."""
    (top,) = [top for top in _tree(module).body if top.lineno <= lineno <= top.end_lineno]
    return top.name if hasattr(top, "name") else ast.unparse(top.targets[0])


def _subtracts_a_projection(node):
    """``B - Q @ (Q' @ B)`` or ``B -= Q @ (Q' @ B)``, whatever the names."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        right = node.right
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub):
        right = node.value
    else:
        return False
    return (isinstance(right, ast.BinOp) and isinstance(right.op, ast.MatMult)
            and isinstance(right.right, ast.BinOp) and isinstance(right.right.op, ast.MatMult))


def test_one_projection_off_a_basis_in_core():
    # the two-pass projection is written once, in core.orthogonal_part,
    # and read by the split search's carry and the FP screen alone
    assert {(path.name, owner) for path in SRC.glob("*.py")
            for owner in _owners(path.name, _subtracts_a_projection)} == {
        ("core.py", "orthogonal_part")}
    assert {(path.name, owner) for path in SRC.glob("*.py")
            for owner in _readers(path.name, "orthogonal_part")} == {
        ("tree.py", "_Screen._directions"), ("mfp.py", "_screened_gains")}


def test_solve_outputs_are_frozen_in_core_alone():
    # solve_least_squares hands out read-only fits and bases, so no
    # caller freezes them: tree.py freezes its own arrays through
    # _frozen, and mfp.py only its power-pair table; a Dataset freezes
    # the copies it keeps of its arrays
    assert {(path.name, owner) for path in SRC.glob("*.py")
            for owner in _readers(path.name, "setflags")} == {
        ("core.py", "solve_least_squares"), ("core.py", "_fit_factored"),
        ("core.py", "Dataset.__post_init__"), ("tree.py", "_frozen"), ("mfp.py", None)}


def _scopes(module):
    """(owner, node) of every function and method (``Class.method``) of
    ``module``, owner None for top-level statements."""
    for top in _tree(module).body:
        if isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{getattr(node, 'name', None)}", node) for node in top.body)
        else:
            yield getattr(top, "name", None), top


def _owners(module, matches):
    """The functions and methods (``Class.method``) of ``module``, None
    for top-level statements, that hold a node ``matches`` accepts."""
    return {owner for owner, scope in _scopes(module)
            if any(matches(node) for node in ast.walk(scope))}


def _readers(module, name):
    """The functions and methods (``Class.method``) of ``module`` that
    read the name ``name``, as a variable or an attribute."""
    return _owners(module, lambda node: isinstance(node, ast.Name) and node.id == name
                   or isinstance(node, ast.Attribute) and node.attr == name)


def test_fp_columns_are_built_by_the_column_table_and_predict_alone():
    # a selection picks every FP block from one table per covariate, so FP
    # columns have one builder per selection: only _Columns.table and a
    # fitted surface's predict call fp_columns, in mfp.py or elsewhere
    assert {(path.name, owner) for path in SRC.glob("*.py")
            for owner in _readers(path.name, "fp_columns")} == {
        ("mfp.py", "_Columns.table"), ("mfp.py", "MfpFit.predict")}


def test_every_mfp_solve_goes_through_the_fit_memo():
    # a selection solves each distinct model once: in mfp.py only _fit
    # calls solve_least_squares, and only _fit reads the store's fits
    # (which _Columns.__init__ makes), so no solve path can skip the memo
    assert _readers("mfp.py", "solve_least_squares") == {"_fit"}
    assert _readers("mfp.py", "_fits") == {"_Columns.__init__", "_fit"}


def test_the_grid_csv_has_one_type_and_one_writer():
    # a Monte-Carlo result is a McDofTable, and McDofTable.to_csv is the
    # only write_csv call whose header names the grid's columns
    grid_columns = {"p", "n", "s", "dof"}
    writers = set()
    for path in SRC.glob("*.py"):
        for owner, scope in _scopes(path.name):
            nodes = list(ast.walk(scope))
            if (any(isinstance(node, ast.Name) and node.id == "write_csv" for node in nodes)
                    and grid_columns <= {node.value for node in nodes
                                         if isinstance(node, ast.Constant)}):
                writers.add((path.name, owner))
    assert writers == {("dof.py", "McDofTable.to_csv")}
    assert [name for name in tsvc.__all__ if name.startswith("McDof")] \
        == ["McDofConfig", "McDofTable"]


def test_dof_sources_resolve_in_dof_and_simulate_alone():
    # DofSpec.parse (fit, dof) and simulate.dof_specs (simulate) turn
    # source names into prices: the CLI builds no DofSpec itself, only
    # simulate.py names the Monte-Carlo sources, and one factory there
    # estimates both of their grids
    def calls(module, name):
        return [node for node in ast.walk(_tree(module)) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == name]

    assert calls("cli.py", "DofSpec") == []
    assert sorted(path.name for path in SRC.glob("*.py")
                  if any(isinstance(node, ast.Constant) and node.value in ("mc-null", "mc-dgp")
                         for node in ast.walk(_tree(path.name)))) == ["simulate.py"]
    assert len(calls("simulate.py", "mc_dof")) == 1
