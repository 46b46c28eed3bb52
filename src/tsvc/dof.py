"""Effective degrees of freedom for greedily grown coefficient trees.

A model that searches over splits spends more degrees of freedom than
it has coefficients.  Following the generalized definition
``df = (1/sigma^2) * sum_i Cov(muhat_i, y_i)``, this module provides

* ``dof_naive``      -- the raw coefficient count ``p + s + 1``,
* ``mc_dof``         -- a Monte-Carlo grid of the generalized DoF,
* ``dof_mfp``        -- a closed-form surface fitted to a simulated
                        grid of Monte-Carlo estimates,
* ``McDofTable``     -- such a grid, the one reader and writer of the
                        grid CSV, and the shipped reference grid,
* ``DofSpec``        -- the DoF source a BIC charges a model with.

The Monte-Carlo estimator holds the mean vector fixed (zero by
default), simulates ``m`` unit-variance Gaussian response vectors,
fits the full model path to each, and sums the unbiased sample
covariances between fitted values and responses.  That is repeated
over ``runs`` independent runs; the reported value is the mean across
runs and the standard error is the spread across runs.

Grid CSVs are read and written, and runs spread over worker processes,
through ``_io``; this module holds only the DoF.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ._io import map_jobs, read_csv, read_file, write_csv
from .errors import DomainError, OffGridError, ValidationError
# fit_path is unused here but stays bound: tsvcbench/spans.py hooks tsvc.dof.fit_path
from .tree import fit_path, fit_paths

# Closed-form surface coefficients: intercept, s, p, p*s, p*s*n.
MFP_SURFACE = (2.13, 2.02, 1.26, 0.61, 0.00016)


def dof_naive(p: int, s: int) -> float:
    """Raw free-coefficient count of a model with s splits: p + s + 1."""
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if s < 0:
        raise DomainError(f"s must be >= 0, got {s}")
    return float(p + s + 1)


def dof_mfp(s: int, p: int, n: int) -> float:
    """Closed-form degrees-of-freedom surface for a greedy s-split search.

    For s >= 1 returns
    ``2.13 + 2.02*s + 1.26*p + 0.61*p*s + 0.00016*p*s*n``;
    a model without splits spends exactly its p + 1 coefficients.

    Raises
    ------
    DomainError
        If p < 2 (a varying-coefficient split needs a second covariate)
        or s < 0 or n < 1.
    """
    if p < 2:
        raise DomainError(f"the surface requires p >= 2, got {p}")
    if s < 0:
        raise DomainError(f"s must be >= 0, got {s}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if s == 0:
        return float(p + 1)
    b0, bs, bp, bps, bpsn = MFP_SURFACE
    return b0 + bs * s + bp * p + bps * p * s + bpsn * p * s * n


# ---------------------------------------------------------------------------
# Monte-Carlo estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McDofConfig:
    """Settings for the Monte-Carlo DoF estimator.

    Each of the ``runs`` runs draws a fresh standard-normal design
    (unless one is supplied to ``mc_dof``) and ``m`` response vectors.
    """

    m: int = 100
    runs: int = 10
    s_max: int = 5
    min_leaf: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise ValidationError(f"m must be >= 2, got {self.m}")
        if self.runs < 1:
            raise ValidationError(f"runs must be >= 1, got {self.runs}")
        if self.s_max < 1:
            raise ValidationError(f"s_max must be >= 1, got {self.s_max}")
        if self.min_leaf < 1:
            raise ValidationError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TsvcPathFitter:
    """Default fitter for ``mc_dof``: per response, one fitted-value vector
    per split count 1 .. s_max its greedy path reached, all grown in lockstep."""

    s_max: int = 5
    min_leaf: int = 10

    def __call__(self, Y: np.ndarray, X: np.ndarray) -> list[dict[int, np.ndarray]]:
        return [{s: fit.fitted for s, fit in enumerate(path.fits) if s >= 1}
                for path in fit_paths(X, Y, self.s_max, self.min_leaf)]


def _mc_dof_run(args):
    """One independent run: fresh design, m responses, m path fits; the
    covariance DoF of each split count that two replicates reached."""
    n, p, seed, run_index, m, mu, X, fitter = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(run_index,)))
    Xr = rng.standard_normal((n, p)) if X is None else X
    Y = mu[None, :] + rng.standard_normal((m, n))
    fits = fitter(Y, Xr)
    if len(fits) != m:
        raise ValidationError(
            f"the fitter returned {len(fits)} fits for {m} responses"
        )
    keys = sorted({s for f in fits for s in f})
    out = {}
    for s in keys:
        have = [j for j in range(m) if s in fits[j]]
        if len(have) < 2:
            continue
        M = np.stack([fits[j][s] for j in have])
        Ys = Y[have]
        Mc = M - M.mean(axis=0)
        Yc = Ys - Ys.mean(axis=0)
        out[s] = float((Mc * Yc).sum() / (len(have) - 1))
    return out


def mc_dof(n: int, p: int, config: McDofConfig, fitter=None, X=None,
           mu=None, threads: int = 1) -> McDofTable:
    """Monte-Carlo estimate of the generalized degrees of freedom.

    Parameters
    ----------
    n, p : int
        Dataset dimensions.
    config : McDofConfig
        Replicates per run, run count, seed and the search settings.
    fitter : callable, optional
        ``fitter(Y, X) -> [{s: fitted values} for each row of Y]``, called
        once per run on its (m, n) responses; ``TsvcPathFitter(config.s_max,
        config.min_leaf)`` when None.  Must be picklable when ``threads > 1``.
    X, mu : array_like, optional
        The fixed truth: the (n, p) design of every run (each run draws a
        fresh standard-normal one when None) and the length-n expectation
        of each response (zeros when None).
    threads : int
        Worker processes across runs, at least 1; results are identical
        for any value because every run derives its own random stream.

    Returns
    -------
    McDofTable
        The (p, n) cell's rows (p, n, s, dof, se) in ascending s, one per
        split count with an estimate; se is 0.0 from a single run.

    Raises
    ------
    ValidationError
        If no split count has an estimate: no two replicates of any run
        reached s = 1.
    """
    if n < 1 or p < 1:
        raise ValidationError(f"need n >= 1 and p >= 1, got n = {n}, p = {p}")
    mu = np.zeros(n) if mu is None else np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise ValidationError(f"mu must have shape ({n},), got {mu.shape}")
    if X is not None:
        X = np.asarray(X, dtype=float)
        if X.shape != (n, p):
            raise ValidationError(f"X must have shape ({n}, {p}), got {X.shape}")
    if fitter is None:
        fitter = TsvcPathFitter(s_max=config.s_max, min_leaf=config.min_leaf)

    jobs = [
        (n, p, config.seed, r, config.m, mu, X, fitter)
        for r in range(config.runs)
    ]
    per_run = map_jobs(_mc_dof_run, jobs, threads)

    keys = sorted({s for run in per_run for s in run})
    rows = []
    for s in keys:
        values = [run[s] for run in per_run if s in run]
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
        rows.append((p, n, s, mean, se))
    if not rows:
        raise ValidationError(
            f"no estimate: no two replicates of a run reached s = 1 at n = {n}, "
            f"p = {p}, min_leaf = {config.min_leaf} (a split needs p >= 2 and "
            f"a leaf of 2 * min_leaf rows)"
        )
    return McDofTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# reference grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McDofTable:
    """Grid of Monte-Carlo DoF estimates: rows (p, n, s, dof, se), where
    se is None when the grid has no standard errors."""

    rows: tuple[tuple[int, int, int, float, float | None], ...]

    @classmethod
    def from_csv_text(cls, text: str) -> "McDofTable":
        """Parse a grid CSV.  Columns p, n, s and dof are found by header
        name, se is optional and any other column is ignored; p, n and s
        must be integers of at least 1 (a grid prices searched splits, and
        every source charges s = 0 itself), dof finite and positive, se
        finite and nonnegative, and each (p, n, s) cell may appear only
        once."""
        rows = read_csv(text, {"p": int, "n": int, "s": int, "dof": float},
                        optional={"se": float})
        if not rows:
            raise ValidationError("table has no data rows")
        for r in rows:
            cell = "table cell (p={p}, n={n}, s={s})".format(**r)
            if min(r["p"], r["n"], r["s"]) < 1:
                raise ValidationError(f"{cell} is not a grid cell: p, n and s must be >= 1")
            dof, se = r["dof"], r.get("se", 0.0)
            for c, value in (("dof", dof), ("se", se)):
                if not math.isfinite(value):
                    raise ValidationError(f"{cell} has {c} = {value!r}")
            if dof <= 0:
                raise ValidationError(f"{cell} has dof = {dof!r}, but a DoF must be > 0")
            if se < 0:
                raise ValidationError(f"{cell} has se = {se!r}, but a standard error must be >= 0")
        cells = Counter((r["p"], r["n"], r["s"]) for r in rows)
        repeated = [cell for cell, k in cells.items() if k > 1]
        if repeated:
            raise ValidationError("table repeats cell (p={}, n={}, s={})".format(*repeated[0]))
        return cls(rows=tuple((r["p"], r["n"], r["s"], r["dof"], r.get("se"))
                              for r in rows))

    @classmethod
    def load(cls, path) -> "McDofTable":
        return read_file(path, cls.from_csv_text)

    def to_csv(self, path=None) -> str:
        """Write rows (p, n, s, dof, se), dof and se by ``repr``, so that
        ``from_csv_text`` reads back the same table; a table with a row
        that lacks se writes no se column.  Returns the text."""
        with_se = all(row[4] is not None for row in self.rows)
        header = ["p", "n", "s", "dof"] + (["se"] if with_se else [])
        return write_csv(header, ([int(p), int(n), int(s), repr(float(dof))]
                                  + ([repr(float(se))] if with_se else [])
                                  for p, n, s, dof, se in self.rows), path)

    def lookup(self, p: int, n: int, s: int, nearest: bool = False) -> float:
        """DoF for the cell (p, n, s), which must be present.

        With ``nearest`` p first snaps to the closest tabulated value
        (ties to the smaller), then n likewise among that p's rows; s
        must still match a tabulated split count exactly.  p < 1 or
        n < 1 raises DomainError either way.
        """
        if p < 1 or n < 1:
            raise DomainError(f"need p >= 1 and n >= 1, got p = {p}, n = {n}")
        if nearest:
            p = min({r[0] for r in self.rows}, key=lambda v: (abs(v - p), v))
            n = min({r[1] for r in self.rows if r[0] == p}, key=lambda v: (abs(v - n), v))
        for rp, rn, rs, dof, _ in self.rows:
            if (rp, rn, rs) == (p, n, s):
                return dof
        raise OffGridError(f"cell (p={p}, n={n}, s={s}) not in the table")


_REFERENCE: McDofTable | None = None


def reference_table() -> McDofTable:
    """The packaged Monte-Carlo DoF grid (p in 2..10, n in 100..1000, s in 1..5)."""
    global _REFERENCE
    if _REFERENCE is None:
        text = resources.files("tsvc").joinpath("data/mc_dof_table.csv").read_text()
        _REFERENCE = McDofTable.from_csv_text(text)
    return _REFERENCE


# ---------------------------------------------------------------------------
# degrees-of-freedom sources for model selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DofSpec:
    """The DoF charged to a model with s splits, named by its source.

    ``source`` is one of ``SOURCES``: ``naive`` (p + s + 1), ``mfp``
    (closed-form surface), ``table`` (exact grid cell) or
    ``table-nearest`` (nearest grid cell).  ``table`` is the grid the
    table sources read, the packaged one when None; a Monte-Carlo grid
    prices as ``DofSpec("table", grid, label)``, its own ``(p, n)`` cell
    only.  Every source charges a split-free model exactly p + 1, and
    ``name`` is ``label`` or else ``source``.
    """

    source: str
    table: McDofTable | None = None
    label: str | None = None

    SOURCES = ("naive", "mfp", "table", "table-nearest")

    def __post_init__(self):
        if self.source not in self.SOURCES:
            raise ValidationError(f"unknown DoF source {self.source!r}; "
                                  f"choose from {', '.join(self.SOURCES)}")

    @classmethod
    def parse(cls, name: str, table_path=None) -> "DofSpec":
        """The source called ``name``, checked before ``table_path``, a
        grid CSV that replaces the packaged grid, is read; only the table
        sources read it."""
        spec = cls(name)
        if table_path and spec.reads_table:
            return cls(name, McDofTable.load(table_path))
        return spec

    @property
    def reads_table(self) -> bool:
        return self.source in ("table", "table-nearest")

    @property
    def name(self) -> str:
        return self.label or self.source

    def dof_for(self, s: int, p: int, n: int) -> float:
        if p < 1:
            raise DomainError(f"p must be >= 1, got {p}")
        if s < 0:
            raise DomainError(f"s must be >= 0, got {s}")
        if s == 0:
            return float(p + 1)
        if self.source == "naive":
            return dof_naive(p, s)
        if self.source == "mfp":
            return dof_mfp(s, p, n)
        return (self.table or reference_table()).lookup(
            p, n, s, nearest=self.source == "table-nearest")
