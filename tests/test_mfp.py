"""Fractional-polynomial transforms, closed-test selection, surface fit."""

import gc
import importlib.machinery
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
from hypothesis import example, given, reject, strategies as st

from tsvc import mfp
from tsvc.core import Dataset
from tsvc.dof import reference_table
from tsvc.errors import (
    NoConvergenceError,
    NonPositiveValuesError,
    RankDeficientError,
    ValidationError,
)
from tsvc.mfp import (
    FP_POWERS,
    LINEAR,
    _POWER_SETS,
    FpTerm,
    _chi2_critical_values,
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
    singles = _POWER_SETS[1]
    pairs = _POWER_SETS[2]
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
    for powers in _POWER_SETS[2]:
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


def test_best_fp_refuses_other_forms_outside_the_fp_tuples():
    # every block is picked from the FP_POWERS table, so a current form of
    # another covariate must be an FP1 or FP2 tuple of FP_POWERS
    rng = np.random.default_rng(35)
    X = rng.uniform(0.5, 3.0, (50, 2))
    ds = Dataset.from_arrays(X.sum(axis=1), X)
    for powers in ((1.5,), (1.0, 2.0, 3.0), ()):
        with pytest.raises(ValidationError, match="not an FP1 or FP2 tuple"):
            best_fp(ds, 0, 1, current_forms={1: FpTerm(1, powers)})
    assert best_fp(ds, 0, 1, current_forms={1: FpTerm(1, (0.0, 0.0))}).degree == 1
    # a form whose powers are written as a list is the tuple it lists
    assert (best_fp(ds, 0, 1, current_forms={1: FpTerm(1, [0.0, 0.0])})
            == best_fp(ds, 0, 1, current_forms={1: FpTerm(1, (0.0, 0.0))}))


def test_an_overflowing_fp_power_is_an_unfittable_candidate():
    # 1e-160 ** -2 overflows: every block holding that column is refused
    # like a singular one, under warnings as errors, and no crash follows
    X = np.column_stack([[1e-160, 1.0, 2.0, 3.0] * 3, np.arange(12.0)])
    ds = Dataset.from_arrays(np.sin(np.arange(12.0)), X)
    assert np.isfinite(mfp_select(ds).r_squared)
    term = best_fp(ds, 0, 1)
    assert np.isfinite(fp_columns(X[:, 0] + term.shift, term.powers)).all()


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


def _model_key(forms, interactions):
    return (tuple((j, forms[j].powers, forms[j].shift) for j in sorted(forms)),
            tuple(tuple(covs) for covs in interactions))


def test_column_store_designs_equal_a_fresh_build(monkeypatch):
    # every model the selection asks for, each FP search's null model (the
    # model without the searched covariate, asked for its basis), the
    # candidates it refits, the other tested models and the final fit, is
    # solved once, on the design built from scratch, to the last bit
    requests, designs = [], []
    search, rss, solve = mfp._FpSearch, mfp._rss, mfp.solve_least_squares

    def recording_search(columns, j, forms, interactions, delta, floor):
        others = {k: v for k, v in forms.items() if k != j}
        requests.append((columns.dataset, others, list(interactions)))
        return search(columns, j, forms, interactions, delta, floor)

    def recording_rss(columns, forms, interactions):
        requests.append((columns.dataset, dict(forms), list(interactions)))
        return rss(columns, forms, interactions)

    def recording_solve(design, y, return_basis=False):
        designs.append(design)
        return solve(design, y, return_basis=return_basis)

    monkeypatch.setattr(mfp, "_FpSearch", recording_search)
    monkeypatch.setattr(mfp, "_rss", recording_rss)
    monkeypatch.setattr(mfp, "solve_least_squares", recording_solve)
    for grid in _bootstrap_grids(5):
        requests.clear()
        designs.clear()
        fit, _ = derive_dof_formula(grid)
        final = {t.covariate: t for t in fit.terms}
        requests.append((requests[0][0], final, [i.covariates for i in fit.interactions]))
        # one solve per distinct model, in the order first asked for
        first = {}
        for dataset, forms, interactions in requests:
            first.setdefault(_model_key(forms, interactions), (dataset, forms, interactions))
        assert len(first) < len(requests)
        assert len(designs) == len(first)
        assert len({(d.shape, d.tobytes()) for d in designs}) == len(designs)
        for (dataset, forms, interactions), design in zip(first.values(), designs):
            expected = _design_from_scratch(dataset, forms, interactions)
            assert design.shape == expected.shape
            assert design.tobytes() == expected.tobytes()
            # and its layout: an F-ordered design fits to other bits
            assert design.flags.c_contiguous and design.strides == expected.strides


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


# ---------------------------------------------------------------------------
# the screened FP search
# ---------------------------------------------------------------------------

def _exhaustive_best_fp(columns, j, degree, current_forms, interactions, delta):
    """The FP search without a screen: every candidate refit exactly, the
    least rss winning and ties going to the first tuple."""
    others = {k: v for k, v in current_forms.items() if k != j}
    best, best_rss = None, math.inf
    for powers in _POWER_SETS[degree]:
        forms = dict(others)
        forms[j] = FpTerm(j, powers, delta)
        rss = mfp._rss(columns, forms, interactions)
        if rss is not None and rss < best_rss:
            best, best_rss = FpTerm(j, powers, delta), rss
    return best, best_rss, mfp._rss(columns, others, interactions)


@st.composite
def fp_search_cases(draw):
    """(X, y, interactions): 8-60 rows, 1-3 covariates of a few distinct
    levels (tenths in [-3, 3]) at scales 1e-4 to 1e4, and a noisy or an
    exactly fitted y."""
    n = draw(st.integers(8, 60))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        levels = draw(st.lists(st.integers(-30, 30), min_size=2, max_size=5, unique=True))
        rows = draw(st.lists(st.integers(0, len(levels) - 1), min_size=n, max_size=n))
        columns.append(np.array(levels)[rows] * 10.0 ** draw(st.integers(-5, 3)))
    X = np.column_stack(columns)
    if draw(st.booleans()):
        y = 1.0 + 2.0 * X[:, 0] - X[:, -1]
    else:
        y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return X, y, draw(st.booleans())


_TWO_VALUED = np.column_stack([np.arange(1.0, 11.0), [2.0, 4.0] * 5])
_TWINNED = np.column_stack([np.arange(1.0, 13.0), 2.0 * np.arange(1.0, 13.0),
                            [1.0, 3.0, 2.0] * 4])
# covariate 0 has three levels, two of them 0.001 apart
_CLOSE_LEVELS = np.column_stack([
    [127, 126, 126, 127, -33, -33, 127, 126, 127, 126, -33, -33, 126, 127,
     -33, 127, 126, 126, -33, 126, 127, -33, 126, -33, 126, 126, 126, 126],
    [1358, 1181, 1181, 1685, 1548, 1548, 1358, 1685, 1548, 1358, 1358, 1181, 1358, 1358,
     1358, 1181, 1358, 1181, 1358, 1358, 1548, 1181, 1358, 1685, 1181, 1358, 1181, 1181],
]) / 1000.0
_CLOSE_LEVELS_Y = np.array([117, 122, 123, 112, 33, 56, 109, 118, 121, 106, 18, 23, 109, 117,
                            32, 134, 120, 122, 45, 137, 111, 46, 130, 25, 108, 114, 124,
                            126]) / 1000.0


@given(fp_search_cases())
# a two-valued covariate: every FP2 block is singular with the intercept
@example((_TWO_VALUED, _TWO_VALUED.sum(axis=1), False))
# an exactly fitted response: the FP2 pairs with power 1 tie at rss 0, and
# the first of them wins
@example((_TWO_VALUED[:, :1], 3.0 - _TWO_VALUED[:, 0], False))
# a singular null design: covariate 1 is twice covariate 0, so the model
# without covariate 2 is singular and every candidate is refit
@example((_TWINNED, np.log(_TWINNED[:, 0]) + _TWINNED[:, 2], True))
# every FP2 form of covariate 0 fits its three level means, so the rss
# values tie up to rounding, and the near-parallel projected columns of
# the (q, q) pairs screen too coarsely to be trusted
@example((_CLOSE_LEVELS, _CLOSE_LEVELS_Y, False))
def test_screened_fp_search_is_the_exhaustive_search(case):
    # the screen only orders the candidates: the screened search returns
    # the exhaustive search's term and bit for bit its rss, and the null
    # model's rss
    X, y, with_interactions = case
    try:
        dataset = Dataset.from_arrays(y, X)
        floor = mfp._LrTester(dataset).floor
    except ValidationError:
        reject()
    columns = mfp._Columns(dataset)
    shifts = [positivity_shift(X[:, j]) for j in range(dataset.p)]
    forms = {j: FpTerm(j, LINEAR, shifts[j]) for j in range(dataset.p)}
    interactions = list(itertools.combinations(range(dataset.p), 2)) if with_interactions else []
    for j in range(dataset.p):
        search = mfp._FpSearch(columns, j, forms, interactions, shifts[j], floor)
        for degree in (2, 1):  # the closed test's order, on one null solve
            got = search.best(degree)
            expected = _exhaustive_best_fp(columns, j, degree, forms, interactions, shifts[j])
            assert got[0] == expected[0]
            assert float(got[1]).hex() == float(expected[1]).hex()
            assert search.rss_null == expected[2]


def test_shipped_grid_derivation_refits_only_near_best_candidates(monkeypatch):
    # the exhaustive FP search made 435 least-squares solves on the shipped
    # grid; screened, the derivation makes at most a quarter of them
    solves = []
    solve = mfp.solve_least_squares

    def counting_solve(*args, **kwargs):
        solves.append(args[0].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(mfp, "solve_least_squares", counting_solve)
    derive_dof_formula(reference_table().rows)
    assert len(solves) <= 435 // 4


def test_shipped_grid_derivation_solves_each_null_once_and_builds_each_table_once(monkeypatch):
    # a closed test's FP2 and FP1 searches share one null solve (73 solves
    # when each solved its own), every other model asked for again reads
    # its first fit (65 solves, 22 of them repeats, when each request
    # solved), and every FP block is picked from one table per covariate
    # (132 fp_columns calls when built block by block)
    solves, tables = [], []
    solve, columns = mfp.solve_least_squares, mfp.fp_columns

    def counting_solve(*args, **kwargs):
        solves.append((args[0].shape, args[0].tobytes()))
        return solve(*args, **kwargs)

    def counting_columns(*args, **kwargs):
        tables.append(args[1])
        return columns(*args, **kwargs)

    monkeypatch.setattr(mfp, "solve_least_squares", counting_solve)
    monkeypatch.setattr(mfp, "fp_columns", counting_columns)
    derive_dof_formula(reference_table().rows)
    assert len(solves) == 43
    assert len(set(solves)) == len(solves)
    assert len(tables) == 3


def test_a_singular_model_is_solved_once_and_its_store_holds_no_cycle(monkeypatch):
    # every FP2 form of the two-valued p is singular with the intercept: a
    # store tries such a model once and remembers that it cannot be fitted,
    # without keeping the error, whose traceback would hold the store in a
    # reference cycle that only the cyclic collector frees
    s = np.arange(1.0, 11.0)
    p = np.array([2.0, 4.0] * 5)
    dataset = Dataset.from_arrays(s + p, np.column_stack([s, p]), names=("s", "p"))
    attempts, singular = [], []
    solve = mfp.solve_least_squares

    def counting_solve(*args, **kwargs):
        attempts.append(args[0].shape)
        try:
            return solve(*args, **kwargs)
        except RankDeficientError:
            singular.append(args[0].shape)
            raise

    monkeypatch.setattr(mfp, "solve_least_squares", counting_solve)
    columns = mfp._Columns(dataset)
    forms = {0: FpTerm(0, LINEAR), 1: FpTerm(1, (1.0, 2.0))}
    assert [mfp._rss(columns, forms, []) for _ in range(2)] == [None, None]
    for _ in range(2):
        with pytest.raises(RankDeficientError):
            mfp._fit(columns, forms, [])
    assert attempts == singular == [(10, 4)]

    stores = []

    class Recorded(mfp._Columns):
        def __init__(self, dataset):
            super().__init__(dataset)
            stores.append(weakref.ref(self))

    monkeypatch.setattr(mfp, "_Columns", Recorded)
    singular.clear()
    gc.disable()
    try:
        mfp_select(dataset)
        assert singular and len(stores) == 1
        assert stores[0]() is None
    finally:
        gc.enable()


def _selection(fit):
    return ([(t.covariate, t.powers, t.shift) for t in fit.terms],
            [i.covariates for i in fit.interactions], fit.excluded)


def _coefficients(fit):
    return ([fit.intercept] + [c for t in fit.terms for c in t.coefficients]
            + [i.coefficient for i in fit.interactions])


def test_derive_dof_formula_on_a_rescaled_grid_selects_alike_or_refuses():
    # dof scaled by 2^k gives the k = 0 selection with every coefficient
    # scaled by exactly 2^k, or, below the scale where the rss floor is a
    # normal float, a ValidationError; never another selection or a crash
    grid = np.array(reference_table().rows, dtype=float)
    base, _ = derive_dof_formula(grid)
    ks = list(range(-560, -470)) + list(range(-470, 401, 10))
    refused = []
    for k in ks:
        scaled = grid.copy()
        scaled[:, 3] = np.ldexp(grid[:, 3], k)
        try:
            fit, _ = derive_dof_formula(scaled)
        except ValidationError as exc:
            assert "rescale y" in str(exc)
            refused.append(k)
            continue
        assert _selection(fit) == _selection(base), k
        assert _coefficients(fit) == [math.ldexp(c, k) for c in _coefficients(base)], k
        assert fit.r_squared == base.r_squared, k
    # the refusals are the smallest scales, from -560 up to a threshold
    assert refused == ks[:len(refused)]
    assert -540 in refused and -470 not in refused
