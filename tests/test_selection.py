"""BIC computation and path pruning."""

import math

import numpy as np
import pytest

from tsvc.core import Dataset, LinearFit
from tsvc.dof import DofSpec, McDofConfig, McDofTable, mc_dof
from tsvc.errors import DegenerateFitError, MissingDofError, ValidationError
from tsvc.model import CoefficientTree, ModelPath, SplitRule
from tsvc.selection import PruneReport, bic, prune_path
from tsvc.tree import fit_path


def test_bic_value():
    assert bic(-5.0, 3.0, 100) == pytest.approx(10.0 + 3.0 * math.log(100),
                                                abs=1e-12)


def test_bic_dof_increment_costs_log_n():
    base = bic(-5.0, 3.0, 50)
    assert bic(-5.0, 4.0, 50) - base == pytest.approx(math.log(50), abs=1e-12)


def test_bic_closed_form_with_real_n():
    # real-valued n is accepted; with n = e^2 each dof unit costs 2
    assert bic(0.0, 2.0, math.e ** 2) == pytest.approx(4.0, abs=1e-12)


def test_bic_monotone():
    assert bic(-5.0, 4.0, 100) > bic(-5.0, 3.0, 100)
    assert bic(-6.0, 3.0, 100) > bic(-5.0, 3.0, 100)


def test_bic_rejects_degenerate_inputs():
    with pytest.raises(DegenerateFitError):
        bic(math.inf, 3.0, 100)
    for dof in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="dof must be positive and finite"):
            bic(-5.0, dof, 100)
    with pytest.raises(ValidationError):
        bic(-5.0, 3.0, 0)


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def _stub_path(log_liks, n=100, p=2):
    """Model path with prescribed per-s log-likelihoods."""
    fits = tuple(LinearFit(coefficients=np.zeros(p + s + 1),
                           fitted=np.zeros(n), rss=1.0, sigma2_hat=1.0 / n,
                           log_lik=ll, n_params=p + s + 1)
                 for s, ll in enumerate(log_liks))
    trees = tuple(CoefficientTree.stump(j) for j in range(p))
    rules = tuple(SplitRule(0, 1, 0.0, 0) for _ in log_liks[1:])
    return ModelPath(trees=(trees,) * len(fits), fits=fits, rules=rules,
                     s_max=len(log_liks) - 1, names=("x1", "x2"))


def _custom_spec(dofs, n=100, p=2):
    return DofSpec("table", McDofTable(rows=tuple((p, n, s, d, 0.0) for s, d in dofs.items())))


def test_prune_selects_argmin():
    # log-liks chosen so the BIC sequence is decreasing then increasing
    path = _stub_path([-50.0, -10.0, -9.9])
    report = prune_path(path, DofSpec("naive"))
    bics = [e.bic for e in report.entries]
    assert report.selected_s == bics.index(min(bics)) == 1
    assert [e.selected for e in report.entries] == [False, True, False]


def test_prune_tie_goes_to_smallest_s():
    # identical fits and identical dof values make the s=1 and s=2 BICs
    # exactly equal
    path = _stub_path([-50.0, -10.0, -10.0])
    report = prune_path(path, _custom_spec({1: 6.0, 2: 6.0}))
    assert report.entries[1].bic == report.entries[2].bic
    assert report.selected_s == 1


def test_prune_ignores_worse_tail_models():
    short = _stub_path([-50.0, -10.0, -9.9])
    longer = _stub_path([-50.0, -10.0, -9.9, -9.9])
    spec = DofSpec("naive")
    assert prune_path(short, spec).selected_s == prune_path(longer, spec).selected_s


def test_prune_requires_available_dof_values():
    path = _stub_path([-50.0, -10.0, -9.9])
    with pytest.raises(MissingDofError):
        prune_path(path, _custom_spec({1: 6.0}))


def test_prune_rejects_saturated_models():
    path = _stub_path([-50.0, math.inf])
    with pytest.raises(DegenerateFitError):
        prune_path(path, DofSpec("naive"))


def test_prune_report_matches_oracle_on_real_data():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((120, 2))
    y = (X[:, 1] > 0) * X[:, 0] + 0.5 * rng.standard_normal(120)
    path = fit_path(Dataset.from_arrays(y, X), s_max=4, min_leaf=10)
    for spec in (DofSpec("naive"), DofSpec("mfp")):
        report = prune_path(path, spec)
        expected = [bic(fit.log_lik, spec.dof_for(s, 2, 120), 120)
                    for s, fit in enumerate(path.fits)]
        assert [e.bic for e in report.entries] == pytest.approx(expected)
        best = min(range(len(expected)), key=lambda i: (expected[i], i))
        assert report.selected_s == path.model_at(best).s


def test_penalty_dominance_on_random_paths():
    # the per-split price of the closed-form surface exceeds the naive
    # price of 1, so its selected size can never be larger
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(30, 150))
        p = int(rng.choice([2, 4]))
        X = rng.standard_normal((n, p))
        y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        path = fit_path(Dataset.from_arrays(y, X), s_max=4, min_leaf=8)
        s_mfp = prune_path(path, DofSpec("mfp")).selected_s
        s_naive = prune_path(path, DofSpec("naive")).selected_s
        assert s_mfp <= s_naive


def test_prune_with_custom_mc_spec():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    path = fit_path(Dataset.from_arrays(y, X), s_max=2, min_leaf=10)
    config = McDofConfig(m=20, runs=1, s_max=2, min_leaf=10, seed=9)
    spec = DofSpec("table", mc_dof(n=50, p=2, config=config), "mc")
    report = prune_path(path, spec)
    assert report.dof_name == "mc"
    assert report.entries[0].dof == 3.0


def test_prune_report_csv_round_trip():
    path = _stub_path([-50.0, -10.0, -9.9])
    report = prune_path(path, DofSpec("naive"))
    text = report.to_csv()
    clone = PruneReport.from_csv_text(text, dof_name=report.dof_name)
    assert clone.entries == report.entries
    assert clone.selected_s == report.selected_s
    with pytest.raises(ValidationError):
        PruneReport.from_csv_text("s,dof\n")


def test_prune_report_reads_back_reordered_columns():
    report = prune_path(_stub_path([-50.0, -10.0, -9.9]), DofSpec("naive"))
    reordered = "".join(",".join(reversed(line.split(","))) + "\n"
                        for line in report.to_csv().splitlines())
    assert reordered.startswith("selected,bic,log_lik,dof,s\n")
    clone = PruneReport.from_csv_text(reordered)
    assert clone.entries == report.entries
    assert clone.selected_s == report.selected_s


@pytest.mark.parametrize("text, match", [
    ("s,dof,log_lik,bic\n0,3.0,-50.0,107.8\n", "lacks column"),
    ("s,dof,log_lik,bic,selected\n0,3.0,low,107.8,1\n", "bad table row"),
    ("s,dof,log_lik,bic,selected\n0,3.0,-50.0\n", "bad table row"),
])
def test_prune_report_reader_refuses_bad_tables(text, match):
    with pytest.raises(ValidationError, match=match):
        PruneReport.from_csv_text(text)
