"""Simulation scenarios for studying split selection and prediction.

Four data-generating processes with standard-normal covariates and
errors.  Only some coefficients vary; all non-varying coefficients are
zero, so the signal sits entirely in a handful of piecewise-constant
coefficient functions:

* scenario 1 (p = 2): the coefficient of x1 varies with x2 through 0,
  1, 2 or 3 indicator terms (s_dgp = 0..3),
* scenario 2 (p = 6): coefficients of x1, x3, x5 vary with x2, x4, x6
  respectively, switched on one at a time as s_dgp grows 0..3,
* scenario 3 (p = 10): scenario 2 plus four pure-noise covariates,
* scenario 4 (p = 4, n = 2985): coefficients of x1 and x3 vary with
  x2 and x4 symmetrically, with s_dgp in {0, 2, 4, 6} indicator terms
  in total and a deeper search (s_max = 10).

Each replicate fits one greedy path on a training set, prunes it under
every requested degrees-of-freedom source, and scores the selected
model by its predictive log-likelihood on an independent test set of
the same size (using the training variance estimate).  ``dof_specs``
turns a setting's DoF source names (``DOF_SOURCES``) into the
``DofSpec``s it prunes by, estimating ``mc-null`` and ``mc-dgp`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._io import map_jobs, read_csv, write_csv
from .core import Dataset
from .dof import DofSpec, McDofConfig, McDofTable, mc_dof
from .errors import DegenerateFitError, ValidationError
from .model import TsvcModel, predict
from .selection import prune_path
from .tree import fit_path

SCENARIO_P = {1: 2, 2: 6, 3: 10, 4: 4}
SCENARIO_S_DGP = {1: (0, 1, 2, 3), 2: (0, 1, 2, 3), 3: (0, 1, 2, 3), 4: (0, 2, 4, 6)}
SCENARIO_N = {1: (100, 400, 1000), 2: (100, 400, 1000), 3: (100, 400, 1000),
              4: (2985,)}
SCENARIO_S_MAX = {1: 5, 2: 5, 3: 5, 4: 10}


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation setting.

    ``n`` and ``s_max`` outside the scenario's standard menu require
    ``allow_nonstandard=True``, and ``s_max=None`` becomes the
    scenario's own; ``s_dgp`` must always be one of the values the
    scenario defines, since it selects the coefficient functions
    themselves.
    """

    scenario: int
    s_dgp: int
    n: int
    replications: int = 25
    seed: int = 0
    s_max: int | None = None
    min_leaf: int = 10
    dof_specs: tuple[DofSpec, ...] = (DofSpec("naive"), DofSpec("mfp"))
    allow_nonstandard: bool = False

    def __post_init__(self):
        if self.scenario not in SCENARIO_P:
            raise ValidationError(f"unknown scenario {self.scenario}")
        if self.s_dgp not in SCENARIO_S_DGP[self.scenario]:
            raise ValidationError(
                f"scenario {self.scenario} defines s_dgp in "
                f"{SCENARIO_S_DGP[self.scenario]}, got {self.s_dgp}"
            )
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if not self.allow_nonstandard and self.n not in SCENARIO_N[self.scenario]:
            raise ValidationError(
                f"scenario {self.scenario} uses n in {SCENARIO_N[self.scenario]}; "
                f"pass allow_nonstandard=True for n = {self.n}"
            )
        if self.s_max is None:
            object.__setattr__(self, "s_max", SCENARIO_S_MAX[self.scenario])
        elif self.s_max != SCENARIO_S_MAX[self.scenario] and not self.allow_nonstandard:
            raise ValidationError(
                f"scenario {self.scenario} uses s_max = "
                f"{SCENARIO_S_MAX[self.scenario]}; pass allow_nonstandard=True"
            )
        if self.replications < 1:
            raise ValidationError("need at least one replication")
        if self.min_leaf < 1:
            raise ValidationError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not self.dof_specs:
            raise ValidationError("need at least one DoF source")
        names = [spec.name for spec in self.dof_specs]
        if len(set(names)) != len(names):
            raise ValidationError("DoF source names must be unique")

    @property
    def p(self) -> int:
        return SCENARIO_P[self.scenario]


# ---------------------------------------------------------------------------
# coefficient functions
# ---------------------------------------------------------------------------

def _step_coef(x: np.ndarray, n_terms: int, strict_third: bool) -> np.ndarray:
    """0, I(x>0), +2*I(x>0.675), -I(x {<=,<} 0.675) as n_terms grows."""
    out = np.zeros_like(x)
    if n_terms >= 1:
        out += (x > 0.0).astype(float)
    if n_terms >= 2:
        out += 2.0 * (x > 0.675).astype(float)
    if n_terms >= 3:
        third = (x < 0.675) if strict_third else (x <= 0.675)
        out -= third.astype(float)
    return out


def true_mu(scenario: int, s_dgp: int, X: np.ndarray) -> np.ndarray:
    """Expected response under the scenario's data-generating process."""
    if scenario == 1:
        return _step_coef(X[:, 1], s_dgp, strict_third=False) * X[:, 0]
    if scenario in (2, 3):
        mu = np.zeros(X.shape[0])
        if s_dgp >= 1:
            mu += (X[:, 1] > 0.0) * X[:, 0]
        if s_dgp >= 2:
            mu += (X[:, 3] > 0.0) * X[:, 2]
        if s_dgp >= 3:
            mu += (X[:, 5] > 0.0) * X[:, 4]
        return mu
    if scenario == 4:
        terms = s_dgp // 2
        return (_step_coef(X[:, 1], terms, strict_third=True) * X[:, 0]
                + _step_coef(X[:, 3], terms, strict_third=True) * X[:, 2])
    raise ValidationError(f"unknown scenario {scenario}")


def generate_scenario(config: ScenarioConfig, replicate_index: int):
    """Draw one replicate: training and test data with their true means.

    Returns
    -------
    (train, test, mu_train, mu_test)
        Two Datasets of size config.n and the expectation vectors.
    """
    if replicate_index < 0:
        raise ValidationError("replicate_index must be >= 0")
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(replicate_index,))
    )
    n, p = config.n, config.p
    names = tuple(f"x{j + 1}" for j in range(p))
    X_train = rng.standard_normal((n, p))
    eps_train = rng.standard_normal(n)
    X_test = rng.standard_normal((n, p))
    eps_test = rng.standard_normal(n)
    mu_train = true_mu(config.scenario, config.s_dgp, X_train)
    mu_test = true_mu(config.scenario, config.s_dgp, X_test)
    train = Dataset(y=mu_train + eps_train, X=X_train, names=names)
    test = Dataset(y=mu_test + eps_test, X=X_test, names=names)
    return train, test, mu_train, mu_test


def predictive_log_lik(model: TsvcModel, test: Dataset) -> float:
    """Gaussian log-likelihood of test data under the fitted model.

    The variance is the training estimate ``rss / n``; predictions
    come from the fitted coefficient trees.
    """
    sigma2 = model.sigma2_hat
    if sigma2 <= 0:
        raise DegenerateFitError("training fit is saturated; no variance estimate")
    resid = test.y - predict(model, test.X)
    n_test = test.n
    return -0.5 * n_test * math.log(2.0 * math.pi * sigma2) \
        - float(resid @ resid) / (2.0 * sigma2)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicateRecord:
    replicate: int
    dof_name: str
    selected_s: int
    pred_log_lik: float


@dataclass(frozen=True)
class ApproachSummary:
    dof_name: str
    mean_splits: float
    sd_splits: float
    mean_pred_log_lik: float
    sd_pred_log_lik: float


@dataclass(frozen=True)
class SimSummary:
    """Aggregated simulation results, one row per DoF source."""

    scenario: int
    n: int
    s_dgp: int
    replications: int
    seed: int
    approaches: tuple[ApproachSummary, ...]
    records: tuple[ReplicateRecord, ...]

    def approach(self, name: str) -> ApproachSummary:
        for row in self.approaches:
            if row.dof_name == name:
                return row
        raise ValidationError(f"no results for DoF source {name!r}")

    def to_csv(self, path=None) -> str:
        return write_csv(
            ["scenario", "n", "s_dgp", "dof_approach", "replications",
             "mean_splits", "sd_splits", "mean_pred_loglik", "sd_pred_loglik"],
            ([self.scenario, self.n, self.s_dgp, row.dof_name, self.replications,
              repr(row.mean_splits), repr(row.sd_splits),
              repr(row.mean_pred_log_lik), repr(row.sd_pred_log_lik)]
             for row in self.approaches), path)

    def records_to_csv(self, path=None) -> str:
        return write_csv(
            ["scenario", "n", "s_dgp", "replicate", "dof_approach",
             "selected_splits", "pred_loglik"],
            ([self.scenario, self.n, self.s_dgp, rec.replicate, rec.dof_name,
              rec.selected_s, repr(rec.pred_log_lik)] for rec in self.records), path)


def read_summary_csv(text: str) -> list[dict]:
    """Parse a summary CSV back into dict rows (numbers converted)."""
    return read_csv(text, {
        "scenario": int, "n": int, "s_dgp": int, "dof_approach": str,
        "replications": int, "mean_splits": float, "sd_splits": float,
        "mean_pred_loglik": float, "sd_pred_loglik": float,
    })


def _run_replicate(args):
    config, replicate = args
    train, test, _, _ = generate_scenario(config, replicate)
    path = fit_path(train, config.s_max, config.min_leaf)
    selected = [prune_path(path, spec).selected_s for spec in config.dof_specs]
    # sources that select the same s share one model and its score
    log_lik = {s: predictive_log_lik(path.model_at(s), test) for s in set(selected)}
    return [
        ReplicateRecord(replicate=replicate, dof_name=spec.name, selected_s=s,
                        pred_log_lik=log_lik[s])
        for spec, s in zip(config.dof_specs, selected)
    ]


def run_simulation(config: ScenarioConfig, threads: int = 1) -> SimSummary:
    """Run all replications of one setting and aggregate per DoF source.

    One greedy path is fitted per replicate and shared by every DoF
    source; only the pruning differs.  Results are independent of
    ``threads`` (at least 1) because each replicate derives its own
    random stream.
    """
    jobs = [(config, r) for r in range(config.replications)]
    nested = map_jobs(_run_replicate, jobs, threads)
    records = tuple(rec for group in nested for rec in group)

    approaches = []
    for spec in config.dof_specs:
        split_values = [r.selected_s for r in records if r.dof_name == spec.name]
        ll_values = [r.pred_log_lik for r in records if r.dof_name == spec.name]
        approaches.append(
            ApproachSummary(
                dof_name=spec.name,
                mean_splits=float(np.mean(split_values)),
                sd_splits=_sd(split_values),
                mean_pred_log_lik=float(np.mean(ll_values)),
                sd_pred_log_lik=_sd(ll_values),
            )
        )
    return SimSummary(
        scenario=config.scenario,
        n=config.n,
        s_dgp=config.s_dgp,
        replications=config.replications,
        seed=config.seed,
        approaches=tuple(approaches),
        records=records,
    )


def _sd(values) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


# ---------------------------------------------------------------------------
# a setting's DoF sources by name
# ---------------------------------------------------------------------------

# The names a setting prices by: the fixed sources and its own Monte-Carlo grids.
DOF_SOURCES = DofSpec.SOURCES + ("mc-null", "mc-dgp")


def dof_specs(config: ScenarioConfig, names: str, table_path=None, m: int = 100,
              runs: int = 10, threads: int = 1) -> tuple[DofSpec, ...]:
    """The DoF sources in ``names``, a comma list of ``DOF_SOURCES``, in order.

    Every name is checked, and a repeat refused, before ``table_path``, a
    grid CSV that replaces the packaged grid, is read (once, and only if a
    table source is named) or any Monte Carlo runs (``m`` replicates by
    ``runs`` runs for each of ``mc-null`` and ``mc-dgp``)."""
    listed = [token.strip() for token in names.split(",") if token.strip()]
    for name in listed:
        if name not in DOF_SOURCES:
            raise ValidationError(f"unknown DoF source {name!r}; "
                                  f"choose from {', '.join(DOF_SOURCES)}")
    if len(set(listed)) != len(listed):
        raise ValidationError(f"DoF source names must be unique, got {names!r}")
    fixed = {name: DofSpec(name) for name in listed if name in DofSpec.SOURCES}
    if table_path and any(spec.reads_table for spec in fixed.values()):
        table = McDofTable.load(table_path)
        fixed = {name: replace(spec, table=table) if spec.reads_table else spec
                 for name, spec in fixed.items()}
    return tuple(fixed[name] if name in fixed else
                 _mc_dof_spec(config, name, m, runs, threads) for name in listed)


def _mc_dof_spec(config: ScenarioConfig, name: str, m: int, runs: int, threads: int) -> DofSpec:
    """The setting's Monte-Carlo grid priced as a table labelled ``name``:
    ``mc-null`` under a zero mean and a fresh design per run, seed + 1;
    ``mc-dgp`` at replicate 0's design and true mean, held fixed across
    runs as the setting's representative truth, seed + 2."""
    X = mu = None
    seed = config.seed + 1
    if name == "mc-dgp":
        train, _, mu, _ = generate_scenario(config, 0)
        X, seed = train.X, config.seed + 2
    mc_config = McDofConfig(m=m, runs=runs, s_max=config.s_max, min_leaf=config.min_leaf,
                            seed=seed)
    grid = mc_dof(config.n, config.p, mc_config, X=X, mu=mu, threads=threads)
    return DofSpec("table", grid, name)
