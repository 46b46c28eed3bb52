"""The benchmark's per-layer hooks must find what they rebind, and the
commands must call through what they rebind.

``tsvcbench/spans.py`` traces layers by rebinding module attributes by
name.  A hook whose target is renamed away is skipped, and its metric
goes blank without failing the run; a target that is found but that the
code no longer calls through (after a function moves to another
module, say) reads 0.  Both are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "tsvcbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("tsvcbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    spans = _spans()
    targets = [hook[:2] for hook in spans.SPAN_HOOKS + spans.COUNT_HOOKS]
    targets.append(tuple(spans.CANDIDATES_HOOK))
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


# Hooks that no command reaches today: ``mc_dof`` grows its paths in
# lockstep through ``fit_paths`` (``dof`` imports ``fit_path`` only for
# this hook), and ``fit_path`` no longer calls ``grow_one_split``.
# These are the blind spots of ROADMAP items 1 and 4.
BLIND_SPOTS = {"tsvc.dof.fit_path", "tsvc.tree.grow_one_split"}


def test_every_hook_target_but_the_blind_spots_intercepts_a_call(monkeypatch, capsys):
    spans = _spans()
    called = set()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            called.add(key)
            return fn(*args, **kwargs)
        return wrapper

    targets = [hook[:2] for hook in spans.SPAN_HOOKS + spans.COUNT_HOOKS]
    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counted(f"{module_name}.{attr}", getattr(module, attr)))
    cli = importlib.import_module("tsvc.cli")
    grid = Path(cli.__file__).parent / "data" / "mc_dof_table.csv"
    for argv in (["mc-dof", "--n", "60", "--p", "3", "--smax", "2", "--m", "3", "--runs", "2"],
                 ["simulate", "--scenario", "1", "--s-dgp", "1", "--n", "100", "--reps", "1",
                  "--dof", "naive,mfp"],
                 ["derive-formula", "--table", str(grid)]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    missed = {f"{module}.{attr}" for module, attr in targets} - called
    assert missed == BLIND_SPOTS
