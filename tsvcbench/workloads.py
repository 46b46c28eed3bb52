"""The benchmark's three workloads, each a stream of ``tsvc`` CLI commands.

Command ``i`` of a run with seed ``s`` is fully determined by ``(s, i)``:
the CLI ``--seed`` (or, for ``formula``, the grid noise) comes from
``numpy.random.SeedSequence([s, i])``.  The program only sees the
generated arguments and files.

Each workload knows how to build a command, how many path fits (or
derivations) one command performs, and how to check its outputs for
structural sanity.  Byte-level correctness is checked separately
against committed digests (see ``digests.py``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Command:
    argv: list
    outputs: dict  # role -> path of a file the command writes


def command_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _finite(value: str) -> bool:
    return math.isfinite(float(value))


class McCell:
    """``tsvc mc-dof`` at the grid's widest-p, smallest-n cell.

    m = 5 replicates per run share one design, and runs = 2 so the
    run-to-run standard error is aggregated: 10 path fits per command.
    """

    name = "mc-cell"
    n, p, s_max, m, runs = 100, 10, 5, 5, 2
    ops_per_command = m * runs
    traced_commands = 4

    def prepare(self, seed: int, index: int, workdir: str) -> Command:
        out = os.path.join(workdir, "grid.csv")
        argv = ["mc-dof", "--n", str(self.n), "--p", str(self.p),
                "--smax", str(self.s_max), "--m", str(self.m),
                "--runs", str(self.runs), "--seed", str(command_seed(seed, index)),
                "--threads", "1", "--out", out]
        return Command(argv, {"grid": out})

    def check(self, texts: dict) -> str | None:
        rows = _rows(texts["grid"])
        if not rows or list(rows[0]) != ["p", "n", "s", "dof", "se"]:
            return "grid CSV lacks the p,n,s,dof,se header or rows"
        splits = [int(r["s"]) for r in rows]
        if splits != sorted(set(splits)) or not 1 <= splits[0] <= splits[-1] <= self.s_max:
            return f"unexpected split counts {splits}"
        for r in rows:
            if (int(r["p"]), int(r["n"])) != (self.p, self.n):
                return f"row for the wrong cell: {r}"
            if not (_finite(r["dof"]) and float(r["dof"]) > 0
                    and _finite(r["se"]) and float(r["se"]) >= 0):
                return f"non-finite or negative estimate: {r}"
        return None


class SimDeep:
    """``tsvc simulate`` on scenario 4: n = 2985, s_max = 10.

    Two replicates per command, each with a fresh design; one path fit
    per replicate, pruned under the naive and closed-form DoF.  The
    ``table`` sources are left out: the shipped grid stops at s = 5,
    so they raise MissingDofError on this scenario.
    """

    name = "sim-deep"
    scenario, s_dgp, n, reps, s_max = 4, 4, 2985, 2, 10
    dof = ("naive", "mfp")
    ops_per_command = reps
    traced_commands = 6

    def prepare(self, seed: int, index: int, workdir: str) -> Command:
        out = os.path.join(workdir, "summary.csv")
        raw = os.path.join(workdir, "raw.csv")
        argv = ["simulate", "--scenario", str(self.scenario), "--s-dgp", str(self.s_dgp),
                "--n", str(self.n), "--reps", str(self.reps), "--dof", ",".join(self.dof),
                "--seed", str(command_seed(seed, index)), "--threads", "1",
                "--out", out, "--raw", raw]
        return Command(argv, {"summary": out, "raw": raw})

    def check(self, texts: dict) -> str | None:
        summary = _rows(texts["summary"])
        if [r["dof_approach"] for r in summary] != list(self.dof):
            return "summary rows do not match the DoF sources"
        for r in summary:
            if (int(r["scenario"]), int(r["n"]), int(r["replications"])) != (
                    self.scenario, self.n, self.reps):
                return f"summary row for the wrong setting: {r}"
            if not all(_finite(r[k]) for k in ("mean_splits", "sd_splits",
                                               "mean_pred_loglik", "sd_pred_loglik")):
                return f"non-finite summary value: {r}"
        raw = _rows(texts["raw"])
        if len(raw) != self.reps * len(self.dof):
            return f"expected {self.reps * len(self.dof)} raw rows, got {len(raw)}"
        for r in raw:
            if not 0 <= int(r["selected_splits"]) <= self.s_max or not _finite(r["pred_loglik"]):
                return f"bad raw row: {r}"
        return None


class Formula:
    """``tsvc derive-formula`` on a parametric bootstrap of the shipped grid.

    Command 0 of every run uses the shipped grid itself; command i > 0
    adds ``se * z`` (z standard normal, seeded by (seed, i)) to every
    ``dof`` value.  No tree is grown: the cost is the FP selector's
    ~435 small least-squares solves.
    """

    name = "formula"
    ops_per_command = 1
    traced_commands = 20

    def __init__(self):
        self._grid = None

    def _shipped_grid(self) -> np.ndarray:
        if self._grid is None:
            from tsvc.dof import reference_table
            self._grid = np.array(reference_table().rows, dtype=float)
        return self._grid

    def prepare(self, seed: int, index: int, workdir: str) -> Command:
        grid = self._shipped_grid().copy()
        if index > 0:
            rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
            grid[:, 3] += grid[:, 4] * rng.standard_normal(grid.shape[0])
        table = os.path.join(workdir, "table.csv")
        with open(table, "w", encoding="utf-8", newline="") as handle:
            handle.write("p,n,s,dof,se\n")
            for p, n, s, dof, se in grid.tolist():
                handle.write(f"{int(p)},{int(n)},{int(s)},{dof!r},{se!r}\n")
        out = os.path.join(workdir, "formula.json")
        return Command(["derive-formula", "--table", table, "--out-json", out],
                       {"formula": out})

    def check(self, texts: dict) -> str | None:
        doc = json.loads(texts["formula"])
        if doc.get("names") != ["s", "p", "n"] or doc.get("alpha") != 0.05:
            return "formula JSON has unexpected names or alpha"
        r2 = doc.get("r_squared")
        if not isinstance(r2, float) or not 0.0 <= r2 <= 1.0:
            return f"r_squared out of range: {r2!r}"
        if not doc.get("expression"):
            return "formula JSON lacks an expression"
        return None


WORKLOADS = {w.name: w for w in (McCell(), SimDeep(), Formula())}
