"""Scenario generators, predictive scoring, and the replication harness."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import tsvc.simulate
from tsvc.core import Dataset, LinearFit
from tsvc.dof import DofSpec, McDofConfig, McDofTable, TsvcPathFitter, mc_dof
from tsvc.errors import DegenerateFitError, ValidationError
from tsvc.model import CoefficientTree, TsvcModel
from tsvc.simulate import (
    SCENARIO_P,
    ApproachSummary,
    ScenarioConfig,
    SimSummary,
    dof_specs,
    generate_scenario,
    predictive_log_lik,
    read_summary_csv,
    run_simulation,
    true_mu,
)
from tsvc.tree import fit_path


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_standard_menus():
    cfg = ScenarioConfig(scenario=1, s_dgp=2, n=400)
    assert cfg.p == 2
    assert cfg.s_max == 5
    cfg4 = ScenarioConfig(scenario=4, s_dgp=6, n=2985)
    assert cfg4.p == 4
    assert cfg4.s_max == 10


def test_config_rejects_bad_settings():
    with pytest.raises(ValidationError):
        ScenarioConfig(scenario=7, s_dgp=0, n=100)
    with pytest.raises(ValidationError):
        ScenarioConfig(scenario=4, s_dgp=3, n=2985)  # menu is {0,2,4,6}
    with pytest.raises(ValidationError):
        ScenarioConfig(scenario=1, s_dgp=0, n=123)
    with pytest.raises(ValidationError):
        ScenarioConfig(scenario=1, s_dgp=0, n=100, s_max=9)
    with pytest.raises(ValidationError):
        ScenarioConfig(scenario=1, s_dgp=0, n=100, replications=0)
    with pytest.raises(ValidationError, match="DoF source names must be unique"):
        run_simulation(ScenarioConfig(scenario=1, s_dgp=0, n=100),
                       (DofSpec("naive"), DofSpec("naive")))


def test_config_refuses_a_negative_seed_and_n_below_one():
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        ScenarioConfig(scenario=1, s_dgp=0, n=100, seed=-1)
    for n in (0, -1):
        with pytest.raises(ValidationError, match="n must be >= 1"):
            ScenarioConfig(scenario=1, s_dgp=0, n=n, allow_nonstandard=True)


def test_config_nonstandard_needs_flag():
    cfg = ScenarioConfig(scenario=1, s_dgp=0, n=64, s_max=3,
                         allow_nonstandard=True)
    assert cfg.n == 64 and cfg.s_max == 3


# ---------------------------------------------------------------------------
# data-generating processes
# ---------------------------------------------------------------------------

def test_scenario1_coefficient_steps():
    X = np.array([[1.0, 1.0]])
    assert true_mu(1, 0, X)[0] == 0.0
    assert true_mu(1, 1, X)[0] == 1.0          # I(x2 > 0)
    assert true_mu(1, 2, X)[0] == 3.0          # + 2 I(x2 > 0.675)
    # third term subtracts on x2 <= 0.675, so x2 = 1 is unaffected
    assert true_mu(1, 3, X)[0] == 3.0
    low = np.array([[1.0, 0.5]])
    assert true_mu(1, 3, low)[0] == 0.0        # 1 + 0 - 1
    boundary = np.array([[1.0, 0.675]])
    assert true_mu(1, 3, boundary)[0] == 0.0   # boundary counts as low


def test_scenario2_switches_terms_on_one_at_a_time():
    X = np.ones((1, 6))
    assert true_mu(2, 0, X)[0] == 0.0
    assert true_mu(2, 1, X)[0] == 1.0
    assert true_mu(2, 2, X)[0] == 2.0
    assert true_mu(2, 3, X)[0] == 3.0
    # the third term multiplies x5, not only the indicator of x6
    X5 = np.ones((1, 6))
    X5[0, 4] = 2.0
    assert true_mu(2, 3, X5)[0] == 4.0


def test_scenario3_adds_null_covariates_only():
    X = np.ones((1, 10))
    assert true_mu(3, 3, X)[0] == true_mu(2, 3, X[:, :6])[0]
    X[0, 6:] = 99.0  # the extra covariates never matter
    assert true_mu(3, 3, X)[0] == 3.0


def test_scenario4_symmetric_pairs():
    X = np.array([[1.0, 0.7, 1.0, 0.7]])
    assert true_mu(4, 0, X)[0] == 0.0
    assert true_mu(4, 2, X)[0] == 2.0          # I(>0) per pair
    assert true_mu(4, 6, X)[0] == 6.0          # (1 + 2 - 0) per pair
    # strict < : at the boundary the subtraction is off (and so is the
    # > 0.675 step), leaving I(x2 > 0) alone; pair two is zeroed by x3
    boundary = np.array([[1.0, 0.675, 0.0, 0.0]])
    assert true_mu(4, 6, boundary)[0] == 1.0
    # same modifier value under the non-strict rule loses a unit
    assert true_mu(1, 3, np.array([[1.0, 0.675]]))[0] == 0.0


def test_generate_scenario_reproducible_and_independent():
    cfg = ScenarioConfig(scenario=1, s_dgp=1, n=100, seed=5)
    a_train, a_test, a_mu, _ = generate_scenario(cfg, 3)
    b_train, b_test, b_mu, _ = generate_scenario(cfg, 3)
    np.testing.assert_array_equal(a_train.X, b_train.X)
    np.testing.assert_array_equal(a_test.y, b_test.y)
    np.testing.assert_array_equal(a_mu, b_mu)
    c_train, *_ = generate_scenario(cfg, 4)
    assert not np.array_equal(a_train.X, c_train.X)
    assert a_train.n == a_test.n == 100
    assert a_train.names == ("x1", "x2")
    np.testing.assert_array_equal(a_mu, true_mu(1, 1, a_train.X))
    with pytest.raises(ValidationError):
        generate_scenario(cfg, -1)


def test_scenario_dimensions():
    for scenario, p in SCENARIO_P.items():
        n = 2985 if scenario == 4 else 100
        cfg = ScenarioConfig(scenario=scenario,
                             s_dgp=0, n=n)
        train, test, mu_train, mu_test = generate_scenario(cfg, 0)
        assert train.p == test.p == p
        assert mu_train.shape == (n,) and mu_test.shape == (n,)


# ---------------------------------------------------------------------------
# predictive scoring
# ---------------------------------------------------------------------------

def _stub_model(coefficient, n, rss):
    tree = replace(CoefficientTree.stump(0), coefficients=(coefficient,))
    return TsvcModel(intercept=0.0, trees=(tree,), s=0, n=n, p=1,
                     names=("x1",), rss=rss, fit=None)


def test_predictive_log_lik_exact_predictions_unit_variance():
    n = 20
    x = np.linspace(-2.0, 2.0, n)
    test = Dataset.from_arrays(2.0 * x, x)
    model = _stub_model(2.0, n=n, rss=float(n))  # sigma2_hat = 1
    expected = -0.5 * n * math.log(2.0 * math.pi)
    assert predictive_log_lik(model, test) == pytest.approx(expected, abs=1e-10)


def test_predictive_log_lik_decreases_with_residuals():
    n = 20
    x = np.linspace(-2.0, 2.0, n)
    model = _stub_model(2.0, n=n, rss=float(n))
    close = Dataset.from_arrays(2.0 * x + 0.1, x)
    far = Dataset.from_arrays(2.0 * x + 1.0, x)
    assert predictive_log_lik(model, close) > predictive_log_lik(model, far)


def test_predictive_log_lik_rejects_saturated_training_fit():
    x = np.linspace(-2.0, 2.0, 20)
    test = Dataset.from_arrays(2.0 * x, x)
    with pytest.raises(DegenerateFitError):
        predictive_log_lik(_stub_model(2.0, n=20, rss=0.0), test)


def test_unsplit_model_predicts_better_than_overgrown_one():
    # under a null truth the deepest model on the path overfits
    cfg = ScenarioConfig(scenario=1, s_dgp=0, n=100, seed=17)
    gaps = []
    for rep in range(25):
        train, test, _, _ = generate_scenario(cfg, rep)
        path = fit_path(train, s_max=5, min_leaf=10)
        gaps.append(predictive_log_lik(path.model_at(0), test)
                    - predictive_log_lik(path.model_at(len(path.fits) - 1), test))
    assert np.mean(gaps) > 0


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def test_run_simulation_structure_and_determinism():
    cfg = ScenarioConfig(scenario=1, s_dgp=1, n=100, replications=4, seed=2)
    a = run_simulation(cfg, threads=1)
    b = run_simulation(cfg, threads=2)
    assert a == b
    assert len(a.records) == 4 * 2  # replications x dof sources
    assert [row.dof_name for row in a.approaches] == ["naive", "mfp"]
    for row in a.approaches:
        recs = [r for r in a.records if r.dof_name == row.dof_name]
        assert row.mean_splits == pytest.approx(
            np.mean([r.selected_s for r in recs]))
        assert row.mean_pred_log_lik == pytest.approx(
            np.mean([r.pred_log_lik for r in recs]))
    assert a.approach("mfp").dof_name == "mfp"
    with pytest.raises(ValidationError):
        a.approach("nope")


def test_run_simulation_rejects_thread_counts_below_one():
    cfg = ScenarioConfig(scenario=1, s_dgp=1, n=100, replications=1, seed=2)
    for threads in (0, -1):
        with pytest.raises(ValidationError, match="threads"):
            run_simulation(cfg, threads=threads)


def test_single_replication_has_zero_sd():
    cfg = ScenarioConfig(scenario=1, s_dgp=0, n=100, replications=1, seed=3)
    summary = run_simulation(cfg)
    assert summary.approaches[0].sd_splits == 0.0
    assert summary.approaches[0].sd_pred_log_lik == 0.0


def test_every_replicate_obeys_penalty_dominance():
    cfg = ScenarioConfig(scenario=2, s_dgp=2, n=100, replications=8, seed=4)
    summary = run_simulation(cfg, threads=2)
    by_rep = {}
    for rec in summary.records:
        by_rep.setdefault(rec.replicate, {})[rec.dof_name] = rec.selected_s
    for splits in by_rep.values():
        assert splits["mfp"] <= splits["naive"]


def test_summary_csv_round_trip(tmp_path):
    cfg = ScenarioConfig(scenario=1, s_dgp=1, n=100, replications=3, seed=6)
    summary = run_simulation(cfg)
    out = tmp_path / "summary.csv"
    text = summary.to_csv(out)
    assert out.read_text() == text
    rows = read_summary_csv(text)
    assert [r["dof_approach"] for r in rows] == ["naive", "mfp"]
    for row, approach in zip(rows, summary.approaches):
        assert row["mean_splits"] == approach.mean_splits
        assert row["mean_pred_loglik"] == approach.mean_pred_log_lik
    raw = summary.records_to_csv()
    assert raw.splitlines()[0] == ("scenario,n,s_dgp,replicate,dof_approach,"
                                   "selected_splits,pred_loglik")
    assert len(raw.splitlines()) == 1 + len(summary.records)


def test_summary_reader_takes_columns_by_name_and_refuses_bad_cells():
    summary = SimSummary(ScenarioConfig(scenario=1, s_dgp=1, n=100, replications=2),
                         approaches=(ApproachSummary("naive", 1.5, 0.5, -140.25, 0.1),
                                     ApproachSummary("mfp", 1.0, 0.0, -139.5, 2.0 / 3.0)),
                         records=())
    text = summary.to_csv()
    rows = read_summary_csv(text)
    assert rows[1]["sd_pred_loglik"] == 2.0 / 3.0
    reordered = "".join(",".join(reversed(line.split(","))) + "\n"
                        for line in text.splitlines())
    assert reordered.startswith("sd_pred_loglik,")
    assert read_summary_csv(reordered) == rows
    with pytest.raises(ValidationError, match="lacks column"):
        read_summary_csv(text.replace("sd_splits", "sd"))
    with pytest.raises(ValidationError, match="bad table row"):
        read_summary_csv(text.replace("-140.25", "low"))
    with pytest.raises(ValidationError, match="bad table row"):
        read_summary_csv(text.replace("\n1,", "\n1.0,"))


def test_monte_carlo_dof_sources():
    cfg = ScenarioConfig(scenario=1, s_dgp=1, n=64, replications=2, seed=7,
                         s_max=2, allow_nonstandard=True)
    null_spec, dgp_spec = dof_specs(cfg, "mc-null,mc-dgp", m=10, runs=1)
    assert null_spec.name == "mc-null"
    assert dgp_spec.name == "mc-dgp"
    assert null_spec.dof_for(1, cfg.p, cfg.n) > 0
    summary = run_simulation(cfg, (DofSpec("naive"), null_spec, dgp_spec))
    assert {row.dof_name for row in summary.approaches} \
        == {"naive", "mc-null", "mc-dgp"}


def test_dof_specs_estimates_each_monte_carlo_grid_by_its_recipe():
    # the recipe written out: mc-null prices a zero mean with seed + 1,
    # mc-dgp replicate 0's design and true mean with seed + 2
    cfg = ScenarioConfig(scenario=1, s_dgp=2, n=64, replications=1, seed=5,
                         s_max=2, allow_nonstandard=True)
    specs = dof_specs(cfg, "naive, mc-null,table,mc-dgp", m=6, runs=2)
    assert [spec.name for spec in specs] == ["naive", "mc-null", "table", "mc-dgp"]
    assert specs[0] == DofSpec("naive") and specs[2] == DofSpec("table")
    mc_config = McDofConfig(m=6, runs=2, seed=cfg.seed + 1)
    fitter = TsvcPathFitter(s_max=2, min_leaf=cfg.min_leaf)
    train, _, mu_train, _ = generate_scenario(cfg, 0)
    null = mc_dof(cfg.n, cfg.p, mc_config, fitter)
    dgp = mc_dof(cfg.n, cfg.p, replace(mc_config, seed=cfg.seed + 2), fitter,
                 X=train.X, mu=mu_train)
    assert null.rows != dgp.rows
    for spec, grid in ((specs[1], null), (specs[3], dgp)):
        assert (spec.source, spec.label) == ("table", spec.name)
        assert [repr(row) for row in spec.table.rows] == [repr(row) for row in grid.rows]


def test_dof_specs_checks_every_name_before_reading_or_estimating(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was read or estimated before the names were checked")

    monkeypatch.setattr(tsvc.simulate, "mc_dof", refuse)
    monkeypatch.setattr(McDofTable, "load", staticmethod(refuse))
    cfg = ScenarioConfig(scenario=1, s_dgp=1, n=100, replications=1)
    missing = tmp_path / "missing.csv"
    every = "choose from naive, mfp, table, table-nearest, mc-null, mc-dgp"
    for names, table, message in (
            ("mc-null,bogus", None, f"unknown DoF source 'bogus'; {every}"),
            ("mc-dgp,naive,mfp,naive", None,
             "DoF source names must be unique, got 'mc-dgp,naive,mfp,naive'"),
            ("table,foo", missing, f"unknown DoF source 'foo'; {every}")):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            dof_specs(cfg, names, table)
    # a grid file is read only for a table source
    assert dof_specs(cfg, "naive,mfp", missing) == (DofSpec("naive"), DofSpec("mfp"))
