"""Fractional-polynomial transforms, closed-test selection, surface fit."""

import importlib.machinery
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from tsvc import mfp
from tsvc.core import Dataset
from tsvc.dof import reference_table
from tsvc.errors import (
    NoConvergenceError,
    NonPositiveValuesError,
    ValidationError,
)
from tsvc.mfp import (
    FP_POWERS,
    _chi2_critical_values,
    _fp_power_sets,
    best_fp,
    derive_dof_formula,
    fp_columns,
    mfp_select,
    order_covariates,
    positivity_shift,
)

SURFACE = (2.13, 2.02, 1.26, 0.61, 0.00016)


def _grid_rows(coefs=SURFACE):
    b0, bs, bp, bps, bpsn = coefs
    rows = []
    for p in (2, 4, 6, 8, 10):
        for n in (100, 400, 700, 1000):
            for s in (1, 2, 3, 4, 5):
                rows.append((p, n, s,
                             b0 + bs * s + bp * p + bps * p * s + bpsn * p * s * n))
    return rows


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_positivity_shift():
    assert positivity_shift(np.array([0.5, 1.0, 3.0])) == 0.0
    # smallest gap is 1, minimum is -1, so the shift is 2
    assert positivity_shift(np.array([-1.0, 0.0, 2.0])) == 2.0
    assert positivity_shift(np.array([0.0, 0.0])) == 1.0


def _tiny_gap_column(n=40, seed=3):
    # the smallest gap (1e-300, between 0 and 1e-300) vanishes next to
    # min(x) = -1e6, so gap - min(x) rounds to exactly -min(x)
    rng = np.random.default_rng(seed)
    return np.concatenate([[-1e6, 0.0, 1e-300], rng.uniform(1.0, 5.0, n - 3)])


def test_positivity_shift_keeps_a_tiny_gap_above_zero():
    x = _tiny_gap_column()
    shift = positivity_shift(x)
    assert x.min() + shift > 0
    assert np.all(x + shift > 0)
    # the next float above 1e6: no larger than it must be
    assert shift == np.nextafter(1e6, np.inf)


def test_mfp_select_on_a_column_with_a_tiny_gap():
    rng = np.random.default_rng(4)
    X = np.column_stack([_tiny_gap_column(), rng.uniform(1.0, 3.0, 40)])
    y = 0.5 * X[:, 1] + rng.standard_normal(40)
    fit = mfp_select(Dataset.from_arrays(y, X))
    assert all(term.shift == positivity_shift(X[:, term.covariate]) for term in fit.terms)


def test_fp_columns_power_zero_is_log():
    x = np.array([1.0, np.e, np.e ** 2])
    np.testing.assert_allclose(fp_columns(x, (0.0,))[:, 0], [0.0, 1.0, 2.0],
                               atol=1e-12)


def test_fp_columns_simple_powers():
    x = np.array([1.0, 2.0, 4.0])
    cols = fp_columns(x, (2.0, 3.0))
    np.testing.assert_allclose(cols[:, 0], x ** 2)
    np.testing.assert_allclose(cols[:, 1], x ** 3)


def test_fp_columns_repeated_power_adds_log_product():
    x = np.array([1.0, 2.0, 4.0])
    cols = fp_columns(x, (2.0, 2.0))
    np.testing.assert_allclose(cols[:, 0], x ** 2)
    np.testing.assert_allclose(cols[:, 1], x ** 2 * np.log(x))
    cols0 = fp_columns(x, (0.0, 0.0))
    np.testing.assert_allclose(cols0[:, 1], np.log(x) ** 2)


def test_fp_columns_requires_positive_values():
    with pytest.raises(NonPositiveValuesError):
        fp_columns(np.array([1.0, 0.0]), (1.0,))


def test_power_set_sizes_and_order():
    singles = _fp_power_sets(1)
    pairs = _fp_power_sets(2)
    assert len(singles) == 8
    assert len(pairs) == 36
    assert singles == [(q,) for q in FP_POWERS]
    assert pairs == sorted(pairs)  # deterministic lexicographic enumeration


# ---------------------------------------------------------------------------
# best_fp
# ---------------------------------------------------------------------------

def _one_covariate(y, x):
    return Dataset.from_arrays(y, x.reshape(-1, 1))


def test_best_fp_recovers_square():
    rng = np.random.default_rng(31)
    x = rng.uniform(0.5, 3.0, 200)
    term = best_fp(_one_covariate(x ** 2, x), 0, 1)
    assert term.powers == (2.0,)


def test_best_fp_recovers_linear():
    rng = np.random.default_rng(32)
    x = rng.uniform(0.5, 3.0, 200)
    term = best_fp(_one_covariate(3.0 * x - 1.0, x), 0, 1)
    assert term.powers == (1.0,)


def test_best_fp_degree_two_beats_all_alternatives():
    rng = np.random.default_rng(33)
    x = rng.uniform(0.5, 3.0, 200)
    y = 1.3 * np.sqrt(x) - 0.8 / x
    term = best_fp(_one_covariate(y, x), 0, 2)
    assert term.powers == (-1.0, 0.5)
    # independent exhaustive check over the full candidate set
    best = None
    for powers in _fp_power_sets(2):
        design = np.column_stack([np.ones(len(x)), fp_columns(x, powers)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        rss = float(np.sum((y - design @ coef) ** 2))
        if best is None or rss < best[0]:
            best = (rss, powers)
    assert term.powers == best[1]


def test_best_fp_applies_shift_for_nonpositive_data():
    rng = np.random.default_rng(34)
    x = rng.standard_normal(150)  # spans negative values
    y = 2.0 * x + 1.0
    term = best_fp(_one_covariate(y, x), 0, 1)
    assert term.shift == positivity_shift(x) > 0


def test_best_fp_validates_arguments():
    rng = np.random.default_rng(35)
    x = rng.uniform(0.5, 3.0, 50)
    ds = _one_covariate(x, x)
    with pytest.raises(ValidationError):
        best_fp(ds, 0, 3)
    with pytest.raises(ValidationError):
        best_fp(ds, 5, 1)


# ---------------------------------------------------------------------------
# covariate ordering
# ---------------------------------------------------------------------------

def test_order_covariates_puts_strong_effect_first():
    rng = np.random.default_rng(36)
    X = rng.standard_normal((300, 3))
    y = 5.0 * X[:, 2] + 0.1 * X[:, 0] + rng.standard_normal(300)
    order = order_covariates(Dataset.from_arrays(y, X))
    assert order[0] == 2
    assert sorted(order) == [0, 1, 2]


def test_order_covariates_deterministic_and_trivial_case():
    rng = np.random.default_rng(37)
    X = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    ds = Dataset.from_arrays(y, X)
    assert order_covariates(ds) == order_covariates(ds)
    one = Dataset.from_arrays(y, X[:, :1])
    assert order_covariates(one) == [0]


# ---------------------------------------------------------------------------
# mfp_select
# ---------------------------------------------------------------------------

def test_mfp_select_keeps_linear_truth():
    rng = np.random.default_rng(38)
    X = rng.standard_normal((2000, 3))
    y = 2.0 * X[:, 0] + 0.05 * rng.standard_normal(2000)
    fit = mfp_select(Dataset.from_arrays(y, X))
    assert [t.covariate for t in fit.terms] == [0]
    assert fit.terms[0].powers == (1.0,)
    assert set(fit.excluded) == {1, 2}


def test_mfp_select_excludes_pure_noise():
    rng = np.random.default_rng(39)
    X = rng.standard_normal((500, 3))
    y = rng.standard_normal(500)
    fit = mfp_select(Dataset.from_arrays(y, X), alpha=0.01)
    assert fit.terms == ()
    assert set(fit.excluded) == {0, 1, 2}


def test_mfp_select_finds_pure_interaction():
    rng = np.random.default_rng(40)
    X = rng.standard_normal((400, 2))
    y = X[:, 0] * X[:, 1]
    fit = mfp_select(Dataset.from_arrays(y, X), interactions=2)
    assert [i.covariates for i in fit.interactions] == [(0, 1)]
    assert fit.interactions[0].coefficient == pytest.approx(1.0, abs=1e-8)
    assert set(fit.excluded) == {0, 1}
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_mfp_select_validates_arguments():
    rng = np.random.default_rng(41)
    ds = Dataset.from_arrays(rng.standard_normal(30), rng.standard_normal((30, 2)))
    with pytest.raises(ValidationError):
        mfp_select(ds, alpha=0.0)
    with pytest.raises(ValidationError):
        mfp_select(ds, interactions=4)
    with pytest.raises(ValidationError):
        mfp_select(ds, max_cycles=0)


def test_mfp_select_refuses_an_alpha_with_an_infinite_critical_value():
    # at 2^-53 (about 1.1e-16) and below, 1 - alpha/2 rounds to 1 and the
    # 1-df critical value would be infinite; the next float up works
    rng = np.random.default_rng(41)
    ds = Dataset.from_arrays(rng.standard_normal(30), rng.standard_normal((30, 2)))
    for alpha in (1e-300, 2.0 ** -53):
        with pytest.raises(ValidationError, match="too small"):
            mfp_select(ds, alpha=alpha)
    smallest = math.nextafter(2.0 ** -53, 1.0)
    assert mfp_select(ds, alpha=smallest).alpha == smallest


def test_mfp_select_reports_nonconvergence():
    # a curved truth changes x1's form away from linear in the first
    # cycle, so a budget of one cycle cannot confirm stability
    rng = np.random.default_rng(42)
    X = rng.uniform(0.5, 3.0, (300, 2))
    y = X[:, 0] ** 2
    ds = Dataset.from_arrays(y, X)
    with pytest.raises(NoConvergenceError):
        mfp_select(ds, max_cycles=1)
    fit = mfp_select(ds)  # default budget converges
    assert fit.terms[0].powers == (2.0,)


def test_mfp_select_tests_a_two_valued_covariate_linear_against_out():
    # no FP2 form of p in {2, 4} can be fitted, and every FP1 form fits as
    # the linear one does, so p is tested linear against exclusion
    s = np.arange(1.0, 11.0)
    p = np.array([2.0, 4.0] * 5)
    fit = mfp_select(Dataset.from_arrays(s + p, np.column_stack([s, p]), names=("s", "p")))
    assert [(t.covariate, t.powers) for t in fit.terms] == [(0, (1.0,)), (1, (1.0,))]
    assert fit.excluded == ()
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    # a two-valued covariate without an effect is still tested out
    rng = np.random.default_rng(44)
    noise = rng.standard_normal(10)
    fit = mfp_select(Dataset.from_arrays(s + 0.1 * noise, np.column_stack([s, p])))
    assert [t.covariate for t in fit.terms] == [0] and fit.excluded == (1,)


def test_derive_dof_formula_keeps_two_valued_grid_axes():
    rows = [(p, n, s, float(p + s)) for p in (2, 4) for n in (100, 200) for s in range(1, 6)]
    fit, expression = derive_dof_formula(rows)
    assert {fit.names[t.covariate]: t.powers for t in fit.terms} == {"s": (1.0,), "p": (1.0,)}
    assert [fit.names[j] for j in fit.excluded] == ["n"]
    assert fit.interactions == ()
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_mfp_predict_matches_manual_assembly():
    rng = np.random.default_rng(43)
    X = rng.uniform(0.5, 3.0, (300, 2))
    y = 1.5 * X[:, 0] ** 2 - 2.0 * X[:, 1] + 0.7
    fit = mfp_select(Dataset.from_arrays(y, X))
    manual = np.full(X.shape[0], fit.intercept)
    for term in fit.terms:
        cols = fp_columns(X[:, term.covariate] + term.shift, term.powers)
        manual += cols @ np.asarray(term.coefficients)
    np.testing.assert_allclose(fit.predict(X), manual, atol=1e-10)
    np.testing.assert_allclose(fit.predict(X), y, atol=1e-6)


# ---------------------------------------------------------------------------
# surface derivation
# ---------------------------------------------------------------------------

def test_derive_dof_formula_recovers_exact_surface():
    fit, expression = derive_dof_formula(_grid_rows())
    assert fit.names == ("s", "p", "n")
    assert fit.intercept == pytest.approx(SURFACE[0], abs=1e-6)
    by_name = {fit.names[t.covariate]: t for t in fit.terms}
    assert set(by_name) == {"s", "p"}
    assert by_name["s"].powers == (1.0,)
    assert by_name["p"].powers == (1.0,)
    assert by_name["s"].coefficients[0] == pytest.approx(SURFACE[1], abs=1e-6)
    assert by_name["p"].coefficients[0] == pytest.approx(SURFACE[2], abs=1e-6)
    inters = {tuple(sorted(fit.names[j] for j in i.covariates)): i.coefficient
              for i in fit.interactions}
    assert set(inters) == {("p", "s"), ("n", "p", "s")}
    assert inters[("p", "s")] == pytest.approx(SURFACE[3], abs=1e-6)
    assert inters[("n", "p", "s")] == pytest.approx(SURFACE[4], abs=1e-6)
    assert [fit.names[j] for j in fit.excluded] == ["n"]
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert "s*p*n" in expression


def test_derive_dof_formula_is_idempotent_on_its_own_surface():
    fit, expression = derive_dof_formula(_grid_rows())
    X = np.asarray(_grid_rows(), dtype=float)[:, [2, 0, 1]]
    refit_rows = [(p, n, s, d) for (p, n, s, _), d
                  in zip(_grid_rows(), fit.predict(X))]
    fit2, expression2 = derive_dof_formula(refit_rows)
    assert expression2 == expression


def test_derive_dof_formula_validates_input():
    with pytest.raises(ValidationError):
        derive_dof_formula(_grid_rows()[:3])
    with pytest.raises(ValidationError):
        derive_dof_formula(np.ones((30, 2)))
    bad = np.asarray(_grid_rows(), dtype=float)
    bad[0, 3] = np.nan
    with pytest.raises(ValidationError):
        derive_dof_formula(bad)


def test_mfp_fit_expression_and_json():
    fit, expression = derive_dof_formula(_grid_rows())
    assert expression.startswith("2.13")
    doc = json.loads(fit.to_json())
    assert doc["expression"] == expression
    assert doc["excluded"] == ["n"]
    assert {t["covariate"] for t in doc["terms"]} == {"s", "p"}
    assert [i["covariates"] for i in doc["interactions"]] == [["s", "p"],
                                                              ["s", "p", "n"]]


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2])
def test_chi2_critical_values_match_scipy(alpha):
    from scipy.stats import chi2

    crit = _chi2_critical_values(alpha)
    for df in (1, 2):
        assert crit[df] == pytest.approx(chi2.ppf(1.0 - alpha, df), rel=1e-12, abs=0)


def _fresh_interpreter(probe):
    """The stdout of ``probe`` run in a new interpreter that imports this
    checkout's tsvc."""
    import tsvc

    src = os.path.dirname(os.path.dirname(os.path.abspath(tsvc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_scipy_stats_out():
    probe = "import sys, tsvc.cli; print('scipy.stats' in sys.modules)"
    assert _fresh_interpreter(probe).strip() == "False"


def test_cli_import_loads_lapack_without_scipy_linalg():
    # the test run imports scipy.linalg itself, so only a new interpreter
    # shows what importing the CLI costs
    probe = textwrap.dedent("""
        import json, sys
        import tsvc.cli
        from tsvc.core import lapack
        loaded = [name for name in ("scipy.linalg", "numpy.f2py") if name in sys.modules]
        import scipy.linalg.lapack
        same = [getattr(lapack, name) is getattr(scipy.linalg.lapack, name)
                for name in ("dgeqp3", "dorgqr", "dtrtrs")]
        print(json.dumps([loaded, lapack.__file__, same]))
    """)
    loaded, path, same = json.loads(_fresh_interpreter(probe))
    assert loaded == []
    directory, file = os.path.split(path)
    assert os.path.basename(directory) == "linalg"
    assert file in {"_flapack" + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES}
    # a later scipy.linalg hands out the very wrappers the solver calls
    assert same == [True, True, True]


def _design_from_scratch(dataset, forms, interactions):
    cols = [np.ones(dataset.n)]
    for j in sorted(forms):
        cols.append(fp_columns(dataset.X[:, j] + forms[j].shift, forms[j].powers))
    for covs in interactions:
        cols.append(np.prod(dataset.X[:, list(covs)], axis=1).reshape(-1, 1))
    return np.column_stack(cols)


def _bootstrap_grids(count, seed=17):
    """The shipped grid, then ``count`` grids with se * z added to dof."""
    grid = np.array(reference_table().rows, dtype=float)
    rng = np.random.default_rng(seed)
    grids = [grid]
    for _ in range(count):
        noisy = grid.copy()
        noisy[:, 3] += noisy[:, 4] * rng.standard_normal(grid.shape[0])
        grids.append(noisy)
    return grids


def test_column_store_designs_equal_a_fresh_build(monkeypatch):
    # every design the selection solves, candidates and the final fit,
    # is the one built from scratch, to the last bit
    candidates, designs = [], []
    rss, solve = mfp._rss, mfp.solve_least_squares

    def recording_rss(columns, forms, interactions):
        candidates.append((columns.dataset, dict(forms), list(interactions)))
        return rss(columns, forms, interactions)

    def recording_solve(design, y):
        designs.append(design)
        return solve(design, y)

    monkeypatch.setattr(mfp, "_rss", recording_rss)
    monkeypatch.setattr(mfp, "solve_least_squares", recording_solve)
    for grid in _bootstrap_grids(5):
        candidates.clear()
        designs.clear()
        fit, _ = derive_dof_formula(grid)
        assert len(designs) == len(candidates) + 1
        for (dataset, forms, interactions), design in zip(candidates, designs):
            expected = _design_from_scratch(dataset, forms, interactions)
            assert design.shape == expected.shape
            assert design.tobytes() == expected.tobytes()
        final = {t.covariate: t for t in fit.terms}
        expected = _design_from_scratch(candidates[0][0], final, [i.covariates for i in fit.interactions])
        assert designs[-1].tobytes() == expected.tobytes()


_SELECT_ALONE = """
import sys
import numpy as np
from tsvc.mfp import derive_dof_formula
grid = np.array([[float(v) for v in line.split(",")] for line in sys.stdin.read().split()])
print(derive_dof_formula(grid)[0].to_json())
"""


def test_selections_on_same_shape_data_do_not_share_columns():
    # two grids of one shape with different covariates, selected back to
    # back in one process, each give what a process of its own gives
    first, second = _bootstrap_grids(1)
    second = second.copy()
    second[:, 1] = second[::-1, 1]  # other n values in every row
    src = os.path.dirname(os.path.dirname(os.path.abspath(mfp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    back_to_back = [derive_dof_formula(grid)[0].to_json() for grid in (first, second)]
    assert back_to_back[0] != back_to_back[1]
    for grid, together in zip((first, second), back_to_back):
        rows = "\n".join(",".join(repr(v) for v in row) for row in grid.tolist())
        alone = subprocess.run([sys.executable, "-c", _SELECT_ALONE], input=rows, env=env,
                               check=True, capture_output=True, text=True).stdout
        assert alone.strip() == together
