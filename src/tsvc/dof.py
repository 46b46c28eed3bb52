"""Effective degrees of freedom for greedily grown coefficient trees.

A model that searches over splits spends more degrees of freedom than
it has coefficients.  Following the generalized definition
``df = (1/sigma^2) * sum_i Cov(muhat_i, y_i)``, this module provides

* ``dof_naive``      -- the raw coefficient count ``p + s + 1``,
* ``mc_dof``         -- a Monte-Carlo estimate of the generalized DoF,
* ``dof_mfp``        -- a closed-form surface fitted to a simulated
                        grid of Monte-Carlo estimates,
* the shipped reference grid itself with exact / nearest lookup.

The Monte-Carlo estimator holds the mean vector fixed (zero by
default), simulates ``m`` unit-variance Gaussian response vectors,
fits the full model path to each, and sums the unbiased sample
covariances between fitted values and responses.  That is repeated
over ``runs`` independent runs; the reported value is the mean across
runs and the standard error is the spread across runs.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import Dataset
from .errors import (
    DomainError,
    MissingDofError,
    OffGridError,
    ValidationError,
)
from .tree import fit_path, fit_paths

# Closed-form surface coefficients: intercept, s, p, p*s, p*s*n.
MFP_SURFACE = (2.13, 2.02, 1.26, 0.61, 0.00016)


def _write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, line ends untranslated; a
    file that cannot be written raises ValidationError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _check_writable(*paths) -> None:
    """Raise the ValidationError ``_write_file`` would raise for a path,
    None skipped, that is a directory or whose directory is missing or
    unwritable.  It only stats, so a command checks its outputs first."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise ValidationError(f"cannot write {path}: is a directory")
        if not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK):
            raise ValidationError(f"cannot write {path}: no writable directory")


def _read_file(path, parse):
    """``parse`` of the text of a UTF-8 file, without a leading byte-order
    mark.  A file that cannot be read or decoded raises ValidationError,
    and so does a parse error, prefixed with the path."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _write_csv(header, rows, path=None) -> str:
    """CSV text of a header and rows with ``\\n`` line ends, also written
    to ``path`` when one is given."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if path is not None:
        _write_file(path, text)
    return text


def _read_csv(text: str, columns: dict, optional: dict | None = None,
              others=None) -> list[dict]:
    """Rows of a CSV as dicts of typed cells in header order, blank lines
    skipped.  ``columns`` and ``optional`` map header names to cell types
    and ``others`` types the rest (None ignores them); rows lack an
    optional column the header lacks.  A column with a blank header cell,
    such as a trailing comma writes, is ignored while its cells are blank.
    A missing or repeated name, a row not as wide as the header, a value
    under a blank header cell or a bad cell raises ValidationError."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader, [])]
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValidationError(f"CSV lacks column(s) {', '.join(missing)}")
    repeated = [c for c, k in Counter(header).items() if k > 1 and c]
    if repeated:
        raise ValidationError(f"CSV repeats column(s) {', '.join(repeated)}")
    types = {**dict.fromkeys(header, others), **(optional or {}), **columns}
    unnamed = [i for i, c in enumerate(header) if not c]
    rows = []
    for line in reader:
        if not line:
            continue
        try:
            rows.append({c: types[c](v) for c, v in zip(header, line, strict=True)
                         if c and types[c] is not None})
        except ValueError as exc:
            raise ValidationError(f"bad table row {line!r}") from exc
        held = [i for i in unnamed if line[i].strip()]
        if held:
            raise ValidationError(f"CSV column {held[0] + 1} has no name but holds "
                                  f"{line[held[0]]!r} on line {reader.line_num}")
    return rows


def _map_jobs(fn, jobs, threads: int) -> list:
    """``[fn(job) for job in jobs]``; above one thread the jobs run in
    that many worker processes, so ``fn`` and the jobs must pickle."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


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

@dataclass(frozen=True, eq=False)
class McDofConfig:
    """Settings for the Monte-Carlo DoF estimator.

    ``mu`` is the fixed expectation vector (zeros when None).  Each of
    the ``runs`` runs draws a fresh standard-normal design (unless one
    is supplied to ``mc_dof``) and ``m`` response vectors.
    """

    m: int = 100
    runs: int = 10
    s_max: int = 5
    min_leaf: int = 10
    seed: int = 0
    mu: np.ndarray | None = None

    def __post_init__(self):
        if self.m < 2:
            raise ValidationError(f"m must be >= 2, got {self.m}")
        if self.runs < 1:
            raise ValidationError(f"runs must be >= 1, got {self.runs}")
        if self.s_max < 1:
            raise ValidationError(f"s_max must be >= 1, got {self.s_max}")
        if self.min_leaf < 1:
            raise ValidationError(f"min_leaf must be >= 1, got {self.min_leaf}")


@dataclass(frozen=True)
class McDofEntry:
    s: int
    dof: float
    se: float
    runs_used: int
    short_paths: int


@dataclass(frozen=True)
class McDofResult:
    """Per-split-count DoF estimates with run-to-run standard errors.

    ``short_paths`` counts replicate fits that stopped before reaching
    the given split count and therefore did not contribute to it.
    """

    n: int
    p: int
    m: int
    runs: int
    seed: int
    entries: tuple[McDofEntry, ...]

    def dof_for(self, s: int) -> float:
        for entry in self.entries:
            if entry.s == s:
                return entry.dof
        raise MissingDofError(f"no Monte-Carlo estimate for s = {s}")

    def table(self) -> McDofTable:
        """The entries as the grid rows (p, n, s, dof, se) of their own
        (p, n) cell: what ``to_csv`` writes and ``McDofTable`` reads."""
        return McDofTable(rows=tuple((self.p, self.n, e.s, e.dof, e.se)
                                     for e in self.entries))

    def to_csv(self, path=None) -> str:
        """Write rows (p, n, s, dof, se); returns the text."""
        return _write_csv(["p", "n", "s", "dof", "se"],
                          ([self.p, self.n, e.s, repr(e.dof), repr(e.se)]
                           for e in self.entries), path)


@dataclass(frozen=True)
class TsvcPathFitter:
    """Default path fitter for ``mc_dof``: one fitted-value vector per
    split count 1 .. s_max actually reached by the greedy path.  Its
    ``block`` call fits the m responses of a run in lockstep; ``mc_dof``
    uses it where a fitter has one."""

    s_max: int = 5
    min_leaf: int = 10

    def __call__(self, y: np.ndarray, X: np.ndarray) -> dict[int, np.ndarray]:
        return _fitted(fit_path(Dataset.from_arrays(y, X), self.s_max, self.min_leaf))

    def block(self, Y: np.ndarray, X: np.ndarray) -> list[dict[int, np.ndarray]]:
        """``[self(y, X) for y in Y]``, from paths grown in lockstep."""
        return [_fitted(path) for path in fit_paths(X, Y, self.s_max, self.min_leaf)]


def _fitted(path) -> dict[int, np.ndarray]:
    return {m.s: m.fit.fitted for m in path.models if m.s >= 1}


def _mc_dof_run(args):
    """One independent run: fresh design, m responses, m path fits."""
    n, p, seed, run_index, m, mu, X, fitter = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(run_index,)))
    Xr = rng.standard_normal((n, p)) if X is None else X
    Y = mu[None, :] + rng.standard_normal((m, n))
    block = getattr(fitter, "block", None)
    fits = block(Y, Xr) if block is not None else [fitter(y, Xr) for y in Y]
    keys = sorted({s for f in fits for s in f})
    out = {}
    for s in keys:
        have = [j for j in range(m) if s in fits[j]]
        short = m - len(have)
        if len(have) < 2:
            out[s] = (None, short)
            continue
        M = np.stack([fits[j][s] for j in have])
        Ys = Y[have]
        Mc = M - M.mean(axis=0)
        Yc = Ys - Ys.mean(axis=0)
        dof = float((Mc * Yc).sum() / (len(have) - 1))
        out[s] = (dof, short)
    return out


def mc_dof(n: int, p: int, config: McDofConfig, fitter=None, X=None,
           threads: int = 1) -> McDofResult:
    """Monte-Carlo estimate of the generalized degrees of freedom.

    Parameters
    ----------
    n, p : int
        Dataset dimensions.  When ``X`` is None each run draws a fresh
        standard-normal design held fixed within that run.
    config : McDofConfig
        Replicates per run, run count, seed and the fixed mean vector.
    fitter : callable, optional
        ``fitter(y, X) -> {s: fitted values}``.  Defaults to the greedy
        tree path with ``config.s_max`` and ``config.min_leaf``, whose
        ``block(Y, X)`` call fits the m responses of a run in lockstep;
        a fitter without one is called once per response.  Must be
        picklable when ``threads > 1``.
    threads : int
        Worker processes across runs, at least 1; results are identical
        for any value because every run derives its own random stream.

    Returns
    -------
    McDofResult

    Raises
    ------
    ValidationError
        If no split count has an estimate: no two replicates of any run
        reached s = 1.
    """
    if n < 1 or p < 1:
        raise ValidationError(f"need n >= 1 and p >= 1, got n = {n}, p = {p}")
    mu = np.zeros(n) if config.mu is None else np.asarray(config.mu, dtype=float)
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
    per_run = _map_jobs(_mc_dof_run, jobs, threads)

    keys = sorted({s for run in per_run for s in run})
    entries = []
    for s in keys:
        values = [run[s][0] for run in per_run if s in run and run[s][0] is not None]
        short = sum(run[s][1] for run in per_run if s in run)
        if not values:
            continue
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
        entries.append(
            McDofEntry(s=s, dof=mean, se=se, runs_used=len(values), short_paths=short)
        )
    if not entries:
        raise ValidationError(
            f"no estimate: no two replicates of a run reached s = 1 at n = {n}, "
            f"p = {p}, min_leaf = {config.min_leaf} (a split needs p >= 2 and "
            f"a leaf of 2 * min_leaf rows)"
        )
    return McDofResult(
        n=n, p=p, m=config.m, runs=config.runs, seed=config.seed,
        entries=tuple(entries),
    )


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
        must be integers, dof and se finite, and each (p, n, s) cell may
        appear only once."""
        rows = _read_csv(text, {"p": int, "n": int, "s": int, "dof": float},
                         optional={"se": float})
        if not rows:
            raise ValidationError("table has no data rows")
        for r in rows:
            for c in ("dof", "se"):
                if not math.isfinite(r.get(c, 0.0)):
                    raise ValidationError(f"table cell (p={r['p']}, n={r['n']}, "
                                          f"s={r['s']}) has {c} = {r[c]!r}")
        cells = Counter((r["p"], r["n"], r["s"]) for r in rows)
        repeated = [cell for cell, k in cells.items() if k > 1]
        if repeated:
            raise ValidationError("table repeats cell (p={}, n={}, s={})".format(*repeated[0]))
        return cls(rows=tuple((r["p"], r["n"], r["s"], r["dof"], r.get("se"))
                              for r in rows))

    @classmethod
    def load(cls, path) -> "McDofTable":
        return _read_file(path, cls.from_csv_text)

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
    table sources read, the packaged one when None; a Monte-Carlo result
    prices as ``DofSpec("table", result.table(), label)``, its own
    ``(p, n)`` cell only.  Every source charges a split-free model
    exactly p + 1, and ``name`` is ``label`` or else ``source``.
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
        try:
            return (self.table or reference_table()).lookup(
                p, n, s, nearest=self.source == "table-nearest")
        except OffGridError as exc:
            raise MissingDofError(str(exc)) from exc
