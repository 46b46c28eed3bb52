"""Opt-in tracing of tsvc's layers from outside the package.

Each hook rebinds one module attribute that a caller looks up at call
time (``tsvc.dof.fit_path`` is what ``mc_dof``'s fitter calls, for
example) to a wrapper that records a span: name, start, end, parent
span and command id.  Spans stay in memory; layer metrics are derived
from them after the timed phase.  ``install`` returns the names of
hooks it could not find, and ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import time

from scipy.special import betainc

# (module, attribute, span name).  A span name shared by two hooks is one
# layer reached from two callers.
SPAN_HOOKS = (
    ("tsvc.cli", "main", "cli.main"),
    ("tsvc.cli", "mc_dof", "dof.mc_dof"),
    ("tsvc.cli", "run_simulation", "simulate.run_simulation"),
    ("tsvc.cli", "derive_dof_formula", "mfp.derive_dof_formula"),
    ("tsvc.dof", "fit_path", "tree.fit_path"),
    ("tsvc.simulate", "fit_path", "tree.fit_path"),
    ("tsvc.simulate", "generate_scenario", "simulate.generate_scenario"),
    ("tsvc.simulate", "prune_path", "selection.prune_path"),
    ("tsvc.simulate", "predictive_log_lik", "simulate.predictive_log_lik"),
    ("tsvc.simulate", "predict", "tree.predict"),
    ("tsvc.tree", "grow_one_split", "tree.grow_one_split"),
    ("tsvc.tree", "build_design", "tree.build_design"),
    ("tsvc.tree", "solve_least_squares", "core.solve_least_squares"),
    ("tsvc.mfp", "mfp_select", "mfp.mfp_select"),
    ("tsvc.mfp", "solve_least_squares", "core.solve_least_squares"),
)

# Counted, not timed: a span here would move the FP design assembly out
# of mfp_select's self time.
COUNT_HOOKS = (("tsvc.mfp", "_rss", "mfp.rss_evals"),)

# Counted after the timed phase from the recorded grow_one_split arguments.
CANDIDATES_HOOK = ("tsvc.tree", "enumerate_candidates")

SOLVE = "core.solve_least_squares"
GROW = "tree.grow_one_split"

NAME, START, END, PARENT, COMMAND, INFO = range(6)


class Tracer:
    """Records spans and counts while its hooks are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.grow_args: list[tuple] = []
        self.keep_grow_args = False
        self.command = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- hooks -----------------------------------------------------------

    def install(self) -> list[str]:
        missing = []
        for module_name, attr, name in SPAN_HOOKS + COUNT_HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            counted = (module_name, attr, name) in COUNT_HOOKS
            wrapper = self._counter(original, name) if counted else self._span(original, name)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)
        return missing

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _counter(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = self._info(name, args, kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, info]
            stack.append(len(spans))
            spans.append(record)
            record[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                info["raised"] = type(exc).__name__
                raise
            finally:
                record[END] = time.perf_counter()
                stack.pop()
        return wrapper

    def _info(self, name, args, kwargs) -> dict:
        if name == SOLVE:
            n, q = args[0].shape
            return {"cells": n * q,
                    "basis": bool(kwargs.get("return_basis", args[2] if len(args) > 2 else False))}
        if name == GROW and self.keep_grow_args:
            self.grow_args.append((args, kwargs))
        return {}


def count_candidates(tracer: Tracer) -> int | None:
    """Candidates the recorded grow_one_split calls had to score, or None
    when ``enumerate_candidates`` is gone."""
    module_name, attr = CANDIDATES_HOOK
    enumerate_candidates = getattr(importlib.import_module(module_name), attr, None)
    if enumerate_candidates is None:
        return None
    total = 0
    for args, kwargs in tracer.grow_args:
        total += len(enumerate_candidates(*args, **kwargs))
    return total


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0.0 for no values).

    A Beta-weighted mean of all order statistics: unlike the sample
    quantile it moves smoothly when the samples come from a mix of fast
    and slow host stretches, instead of jumping between the two.
    """
    x = sorted(values)
    n = len(x)
    if n <= 1:
        return x[0] if x else 0.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n)))


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, counts, passes: int, candidates: int | None) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes over the
    same command set: counts and times are per pass; fit_path latency
    quantiles pool every pass."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    core_in = {"tree": 0.0, "mfp": 0.0}
    design_cells = rank_deficient = refits_banned = 0
    fit_ms = []
    for i, span in enumerate(spans):
        name, duration = span[NAME], span[END] - span[START]
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration - child[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "tree.fit_path":
            fit_ms.append(1e3 * duration)
        if name != SOLVE:
            continue
        design_cells += span[INFO]["cells"]
        deficient = span[INFO].get("raised") == "RankDeficientError"
        rank_deficient += deficient
        parent = span[PARENT]
        while parent >= 0 and _layer(spans[parent][NAME]) == "core":
            parent = spans[parent][PARENT]
        owner = _layer(spans[parent][NAME]) if parent >= 0 else None
        if owner in core_in:
            core_in[owner] += duration
        # grow_one_split's first solve builds the basis; a later one that
        # fails is an exact refit whose candidate gets banned.
        if (deficient and not span[INFO]["basis"]
                and parent >= 0 and spans[parent][NAME] == GROW):
            refits_banned += 1

    def per_pass(value):
        return value / passes

    grow_self = per_pass(self_time.get(GROW, 0.0))
    metrics = {
        "tree.grow_one_split.calls": per_pass(calls.get(GROW, 0)),
        "tree.grow_one_split.self_s": grow_self,
        "tree.fit_path.calls": per_pass(calls.get("tree.fit_path", 0)),
        "tree.fit_path.ms.p50": quantile(fit_ms, 0.5),
        "tree.fit_path.ms.p90": quantile(fit_ms, 0.9),
        "tree.build_design.calls": per_pass(calls.get("tree.build_design", 0)),
        "tree.build_design.total_s": per_pass(total.get("tree.build_design", 0.0)),
        "core.solve_least_squares.in_tree.total_s": per_pass(core_in["tree"]),
        "tree.refits_banned": per_pass(refits_banned),
        "core.solve_least_squares.calls": per_pass(calls.get(SOLVE, 0)),
        "core.solve_least_squares.in_mfp.total_s": per_pass(core_in["mfp"]),
        "core.solve_least_squares.rank_deficient": per_pass(rank_deficient),
        "core.design_mb": per_pass(8 * design_cells / 1e6),
        "mfp.mfp_select.calls": per_pass(calls.get("mfp.mfp_select", 0)),
        "mfp.mfp_select.self_s": per_pass(self_time.get("mfp.mfp_select", 0.0)),
        "mfp.rss_evals": per_pass(counts.get("mfp.rss_evals", 0)),
        "dof.mc_dof.calls": per_pass(calls.get("dof.mc_dof", 0)),
        "dof.mc_dof.self_s": per_pass(self_time.get("dof.mc_dof", 0.0)),
        "selection.prune_path.total_s": per_pass(total.get("selection.prune_path", 0.0)),
        "tree.predict.total_s": per_pass(total.get("tree.predict", 0.0)),
        "simulate.generate_scenario.total_s":
            per_pass(total.get("simulate.generate_scenario", 0.0)),
        "simulate.predictive_log_lik.total_s":
            per_pass(total.get("simulate.predictive_log_lik", 0.0)),
        "cli.main.self_s": per_pass(self_time.get("cli.main", 0.0)),
    }
    if candidates is not None:
        metrics["tree.candidates"] = candidates
        metrics["tree.candidates_per_s"] = candidates / grow_self if grow_self > 0 else 0.0
    return metrics


# Hook (module.attribute) -> metrics that cannot be computed without it.
HOOK_METRICS = {
    "tsvc.cli.main": ("cli.main.self_s",),
    "tsvc.cli.mc_dof": ("dof.mc_dof.calls", "dof.mc_dof.self_s", "cli.main.self_s"),
    "tsvc.cli.run_simulation": ("cli.main.self_s",),
    "tsvc.cli.derive_dof_formula": ("cli.main.self_s",),
    "tsvc.dof.fit_path": ("tree.fit_path.calls", "tree.fit_path.ms.p50",
                          "tree.fit_path.ms.p90", "dof.mc_dof.self_s"),
    "tsvc.simulate.fit_path": ("tree.fit_path.calls", "tree.fit_path.ms.p50",
                               "tree.fit_path.ms.p90"),
    "tsvc.simulate.generate_scenario": ("simulate.generate_scenario.total_s",),
    "tsvc.simulate.prune_path": ("selection.prune_path.total_s",),
    "tsvc.simulate.predictive_log_lik": ("simulate.predictive_log_lik.total_s",),
    "tsvc.simulate.predict": ("tree.predict.total_s",),
    "tsvc.tree.grow_one_split": ("tree.grow_one_split.calls", "tree.grow_one_split.self_s",
                                 "tree.refits_banned", "tree.candidates",
                                 "tree.candidates_per_s"),
    "tsvc.tree.build_design": ("tree.build_design.calls", "tree.build_design.total_s",
                               "tree.grow_one_split.self_s", "tree.candidates_per_s"),
    "tsvc.tree.solve_least_squares": ("core.solve_least_squares.in_tree.total_s",
                                      "core.solve_least_squares.calls",
                                      "core.solve_least_squares.rank_deficient",
                                      "core.design_mb", "tree.refits_banned",
                                      "tree.grow_one_split.self_s",
                                      "tree.candidates_per_s"),
    "tsvc.mfp.mfp_select": ("mfp.mfp_select.calls", "mfp.mfp_select.self_s",
                            "core.solve_least_squares.in_mfp.total_s"),
    "tsvc.mfp.solve_least_squares": ("core.solve_least_squares.in_mfp.total_s",
                                     "core.solve_least_squares.calls",
                                     "core.solve_least_squares.rank_deficient",
                                     "core.design_mb", "mfp.mfp_select.self_s"),
    "tsvc.mfp._rss": ("mfp.rss_evals",),
    "tsvc.tree.enumerate_candidates": ("tree.candidates", "tree.candidates_per_s"),
}
