"""Acceptance gate.

One test per shipped guarantee; each prints a single

    [acceptance] criterion N: PASS/FAIL (detail)

line before asserting, so a plain ``pytest -s tests/test_acceptance.py``
doubles as a checklist. Tolerances are part of the guarantee and are not
tuned to the current build.
"""

import itertools
import math

import numpy as np
from scipy.stats import chi2

from tsvc.core import Dataset, solve_least_squares
from tsvc.dof import DofSpec, McDofConfig, TsvcPathFitter, dof_mfp, mc_dof, reference_table
from tsvc.mfp import best_fp, derive_dof_formula
from tsvc.selection import prune_path
from tsvc.simulate import ScenarioConfig, run_simulation
from tsvc.tree import fit_path, grow_one_split


_FP_POWERS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


def _check(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


class OlsFitter:
    """Plain 3-parameter least squares, used as a known-DoF reference."""

    def __call__(self, Y, X):
        design = np.column_stack([np.ones(len(X)), X])
        return [{1: fit.fitted} for fit in solve_least_squares(design, Y)]


def test_criterion_01_closed_form_anchors():
    a = dof_mfp(1, 2, 100)
    b = dof_mfp(5, 10, 1000)
    ok = abs(a - 7.922) <= 1e-9 and abs(b - 63.33) <= 1e-9
    _check(1, ok, f"dof_mfp(1,2,100) = {a!r}, dof_mfp(5,10,1000) = {b!r}")


def test_criterion_02_covariance_dof_matches_projection_rank():
    config = McDofConfig(m=500, runs=1, seed=6)
    result = mc_dof(100, 2, config, fitter=OlsFitter())
    dof = result.lookup(2, 100, 1)
    ok = abs(dof - 3.0) <= 0.3
    _check(2, ok, f"OLS fitter dof = {dof:.3f}, target 3.0 +/- 0.3")


def test_criterion_03_reference_grid_cell_p2_n100():
    # min_leaf 14 is the effective minimum node size behind the shipped
    # grid's n=100 column; the library default (10) admits finer splits
    # and sits above these bands.
    config = McDofConfig(m=100, runs=10, seed=20260814)
    result = mc_dof(100, 2, config, TsvcPathFitter(s_max=5, min_leaf=14), threads=1)
    d1, d5 = result.lookup(2, 100, 1), result.lookup(2, 100, 5)
    ok = 6.99 <= d1 <= 7.83 and 18.70 <= d5 <= 19.84
    _check(3, ok, f"s=1 dof = {d1:.3f} in [6.99, 7.83]; "
                  f"s=5 dof = {d5:.3f} in [18.70, 19.84]")


def _oracle_fp_columns(x, powers):
    """FP basis of a positive x: power 0 is log(x); a repeated power
    multiplies the previous column by log(x)."""
    cols = []
    for i, q in enumerate(powers):
        col = np.log(x) if q == 0.0 else x ** q
        if i and q == powers[i - 1]:
            col = cols[-1] * np.log(x)
        cols.append(col)
    return cols


def _oracle_rss(X, y, forms, products):
    """RSS of the lstsq fit on an intercept, FP forms and raw products.

    Columns are scaled to unit norm before the fit, so the rank check
    does not depend on the units of s, p and n; a singular design gets
    an infinite RSS, which no test statistic can prefer.
    """
    cols = [np.ones(len(y))]
    for j, powers in forms.items():
        cols.extend(_oracle_fp_columns(X[:, j], powers))
    cols.extend(np.prod(X[:, list(covs)], axis=1) for covs in products)
    design = np.column_stack(cols)
    design = design / np.linalg.norm(design, axis=0)
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        return math.inf
    return float(np.sum((y - design @ coef) ** 2))


def _oracle_lr(y, rss_null, rss_alt):
    return len(y) * (math.log(rss_null) - math.log(rss_alt))


def _oracle_closed_test(X, y, j, forms, products, crit):
    """Closed-test decision for covariate j, the others held at ``forms``.

    Follows the df that ``mfp_select`` documents: best FP2 against the
    model without j on 2 df, then against linear and against the best
    FP1 on 1 df each. Returns the decision (None when j is excluded,
    else its power tuple) and the three statistics against the best FP2.
    """
    others = {k: v for k, v in forms.items() if k != j}

    def rss_with(powers):
        return _oracle_rss(X, y, {**others, j: powers}, products)

    fp1 = [(q,) for q in _FP_POWERS]
    fp2 = list(itertools.combinations_with_replacement(_FP_POWERS, 2))
    best1 = min(fp1, key=rss_with)
    best2 = min(fp2, key=rss_with)
    rss2 = rss_with(best2)
    stats = {
        "drop": _oracle_lr(y, _oracle_rss(X, y, others, products), rss2),
        "linear": _oracle_lr(y, rss_with((1.0,)), rss2),
        "fp1": _oracle_lr(y, rss_with(best1), rss2),
    }
    if not stats["drop"] > crit[2]:
        decision = None
    elif not stats["linear"] > crit[1]:
        decision = (1.0,)
    elif not stats["fp1"] > crit[1]:
        decision = best1
    else:
        decision = best2
    return decision, stats


def _oracle_mfp_select(X, y, crit, max_cycles=10):
    """Replay of the selection cycle that ``mfp_select`` documents.

    Starts from all-linear forms and no products and visits covariates
    by decreasing drop statistic in the all-linear model. Each cycle
    runs the closed test per covariate, then tests every two- and
    three-way product in or out on 1 df; cycles repeat until one
    changes nothing. Returns the forms, the products and the last
    cycle's tests, which are the closed tests at the selected model.
    """
    p = X.shape[1]
    linear = {j: (1.0,) for j in range(p)}
    full = _oracle_rss(X, y, linear, [])

    def drop_stat(j):
        rest = {k: v for k, v in linear.items() if k != j}
        return _oracle_lr(y, _oracle_rss(X, y, rest, []), full)

    order = sorted(range(p), key=drop_stat, reverse=True)
    candidates = [c for size in (2, 3)
                  for c in itertools.combinations(range(p), size)]
    forms, products = dict(linear), []
    for _ in range(max_cycles):
        before = (dict(forms), list(products))
        form_tests, product_tests = {}, {}
        for j in order:
            decision, stats = _oracle_closed_test(X, y, j, forms, products, crit)
            form_tests[j] = (decision, stats)
            if decision is None:
                forms.pop(j, None)
            else:
                forms[j] = decision
        for covs in candidates:
            rest = [c for c in products if c != covs]
            stat = _oracle_lr(y, _oracle_rss(X, y, forms, rest),
                              _oracle_rss(X, y, forms, rest + [covs]))
            product_tests[covs] = stat
            products = rest + [covs] if stat > crit[1] else rest
        products.sort(key=lambda c: (len(c), c))
        if (forms, products) == before:
            break
    return forms, products, form_tests, product_tests


def test_criterion_04_surface_rederivation_from_shipped_grid():
    # The selected surface must be the one the level-alpha closed test
    # supports on the shipped grid, as replayed by the lstsq oracle
    # above, and fit the grid at least as well as the paper's surface.
    alpha = 0.05
    rows = [[p, n, s, dof] for p, n, s, dof, _ in reference_table().rows]
    fit, expression = derive_dof_formula(rows, alpha=alpha)
    grid = np.asarray(rows, dtype=float)
    X, y = grid[:, [2, 0, 1]], grid[:, 3]  # covariates (s, p, n)
    names = fit.names
    forms = {t.covariate: t.powers for t in fit.terms}
    products = [i.covariates for i in fit.interactions]
    crit = {df: float(chi2.ppf(1.0 - alpha, df)) for df in (1, 2)}

    def shown(powers):
        return "excluded" if powers is None else str(powers)

    print("[acceptance]   selected: dof ~ " + expression)
    oracle_forms, oracle_products, form_tests, product_tests = (
        _oracle_mfp_select(X, y, crit))
    forms_ok = oracle_forms == forms
    inters_ok = oracle_products == products
    for j, name in enumerate(names):
        decision, stats = form_tests[j]
        print(f"[acceptance]   {name}: selected {shown(forms.get(j))}, "
              f"oracle {shown(decision)} (vs best FP2: "
              f"drop {stats['drop']:.1f}, linear {stats['linear']:.1f}, "
              f"FP1 {stats['fp1']:.1f})")
    for covs, stat in product_tests.items():
        print(f"[acceptance]   {'*'.join(names[k] for k in covs)}: "
              f"{'kept' if covs in products else 'dropped'}, "
              f"oracle {stat:.1f} on 1 df vs {crit[1]:.2f}")

    tss = float(np.sum((y - y.mean()) ** 2))
    paper = np.array([dof_mfp(int(s), int(p), int(n)) for s, p, n in X])
    paper_r2 = 1.0 - float(np.sum((y - paper) ** 2)) / tss
    r2_ok = fit.r_squared >= 0.95
    r2_paper_ok = fit.r_squared >= paper_r2
    ps_ok = (0, 1) in products
    psn_ok = (0, 1, 2) in products
    print(f"[acceptance]   r_squared = {fit.r_squared:.4f} (>= 0.95: {r2_ok}; "
          f">= {paper_r2:.4f} of dof_mfp: {r2_paper_ok})")

    # the paper's functional form, tested by the same oracle; reported
    # only, never asserted
    for label, name, alt, df in (("linear s", "s", "linear", 1),
                                 ("linear p", "p", "linear", 1),
                                 ("no n", "n", "drop", 2)):
        stat = form_tests[names.index(name)][1][alt]
        verdict = "rejected" if stat > crit[df] else "retained"
        print(f"[acceptance]   paper form, {label}: {stat:.1f} on {df} df "
              f"vs {crit[df]:.2f}, {verdict} (non-blocking)")

    # coefficient comparison against the closed-form surface constants;
    # reported only, never asserted
    for (label, key), target in ((("p*s", (0, 1)), 0.61),
                                 (("p*s*n", (0, 1, 2)), 0.00016)):
        match = next((i for i in fit.interactions if i.covariates == key), None)
        if match is None:
            print(f"[acceptance]   {label} coefficient: absent (non-blocking)")
            continue
        rel = (match.coefficient - target) / target
        verdict = "within" if abs(rel) <= 0.15 else "outside"
        print(f"[acceptance]   {label} coefficient {match.coefficient:.6g} "
              f"vs {target}: {rel:+.1%}, {verdict} +/-15% (non-blocking)")

    ok = r2_ok and r2_paper_ok and forms_ok and inters_ok and ps_ok and psn_ok
    _check(4, ok, f"r2 >= 0.95: {r2_ok}, r2 >= dof_mfp's: {r2_paper_ok}, "
                  f"forms match closed-test oracle: {forms_ok}, "
                  f"interactions match oracle: {inters_ok}, "
                  f"p*s: {ps_ok}, p*s*n: {psn_ok}")


def test_criterion_05_two_covariate_scenario_selection():
    null_cfg = ScenarioConfig(scenario=1, s_dgp=0, n=400, replications=25,
                              seed=11)
    one_cfg = ScenarioConfig(scenario=1, s_dgp=1, n=400, replications=25,
                             seed=11)
    null_sum = run_simulation(null_cfg, threads=1)
    one_sum = run_simulation(one_cfg, threads=1)
    mfp0 = null_sum.approach("mfp").mean_splits
    naive0 = null_sum.approach("naive").mean_splits
    mfp1 = one_sum.approach("mfp").mean_splits
    ok = mfp0 == 0.0 and 0.0 <= naive0 <= 1.2 and 0.9 <= mfp1 <= 1.1
    _check(5, ok, f"s_dgp=0: mfp = {mfp0:.2f} (want 0.00), "
                  f"naive = {naive0:.2f} (want [0.0, 1.2]); "
                  f"s_dgp=1: mfp = {mfp1:.2f} (want [0.9, 1.1])")


def test_criterion_06_ten_covariate_scenario_selection():
    cfg = ScenarioConfig(scenario=3, s_dgp=3, n=100, replications=10, seed=11)
    summary = run_simulation(cfg, threads=1)
    naive = summary.approach("naive").mean_splits
    mfp = summary.approach("mfp").mean_splits
    ok = naive == 5.0 and mfp == 0.0
    _check(6, ok, f"naive = {naive:.2f} (want 5.00), mfp = {mfp:.2f} (want 0.00)")


def test_criterion_07_penalty_dominance_across_random_data():
    rng = np.random.default_rng(7)
    violations = 0
    for i in range(200):
        n = int(rng.integers(40, 201))
        p = int(rng.choice([2, 4]))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        if i % 3 == 0:
            y = y + 1.5 * X[:, 0] * (X[:, 1] > 0)
        path = fit_path(Dataset.from_arrays(y, X), s_max=5, min_leaf=10)
        s_mfp = prune_path(path, DofSpec("mfp")).selected_s
        s_naive = prune_path(path, DofSpec("naive")).selected_s
        violations += s_mfp > s_naive
    _check(7, violations == 0,
           f"{200 - violations}/200 datasets with mfp splits <= naive splits")


def test_criterion_08_predictive_ordering_six_covariates():
    worst = None
    fails = []
    for s_dgp in (0, 1, 2, 3):
        cfg = ScenarioConfig(scenario=2, s_dgp=s_dgp, n=100, replications=25,
                             seed=11)
        summary = run_simulation(cfg, threads=1)
        gap = (summary.approach("mfp").mean_pred_log_lik
               - summary.approach("naive").mean_pred_log_lik)
        worst = gap if worst is None else min(worst, gap)
        if gap <= 0:
            fails.append(s_dgp)
    _check(8, not fails,
           f"mfp - naive predictive log-lik gap > 0 for s_dgp in 0..3, "
           f"smallest gap = {worst:.2f}" + (f", failed at {fails}" if fails else ""))


def _oracle_first_split(dataset, min_leaf):
    """Exhaustive re-enumeration of the first split, scored by lstsq."""
    n, p = dataset.X.shape
    best = None
    for j in range(p):
        for k in range(p):
            if k == j:
                continue
            xk = dataset.X[:, k]
            vals = np.unique(xk)
            for c in (vals[:-1] + vals[1:]) / 2.0:
                left = xk <= c
                if left.sum() < min_leaf or n - left.sum() < min_leaf:
                    continue
                cols = [np.ones(n)]
                for jj in range(p):
                    if jj == j:
                        cols.append(np.where(left, dataset.X[:, jj], 0.0))
                        cols.append(np.where(left, 0.0, dataset.X[:, jj]))
                    else:
                        cols.append(dataset.X[:, jj])
                design = np.column_stack(cols)
                coef, *_ = np.linalg.lstsq(design, dataset.y, rcond=None)
                rss = float(np.sum((dataset.y - design @ coef) ** 2))
                if best is None or rss < best[0]:
                    best = (rss, j, k, float(c))
    return best


def test_criterion_09_greedy_step_equals_exhaustive_oracle():
    rng = np.random.default_rng(9)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(20, 51))
        p = int(rng.choice([2, 3]))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n) + X[:, 0] * (1.0 + (X[:, 1] > 0))
        dataset = Dataset.from_arrays(y, X)
        base = fit_path(dataset, s_max=0).model_at(0)
        rule, model = grow_one_split(dataset, base.trees, min_leaf=4)
        rss, j, k, c = _oracle_first_split(dataset, min_leaf=4)
        agree = (rule.target == j and rule.modifier == k
                 and rule.threshold == c
                 and abs(model.rss - rss) <= 1e-8 * max(1.0, rss))
        mismatches += not agree
    _check(9, mismatches == 0,
           f"{50 - mismatches}/50 first splits identical to the oracle")


def test_criterion_10_power_recovery_on_noiseless_data():
    rng = np.random.default_rng(10)
    x = rng.uniform(0.5, 3.0, size=300)

    def col(q):
        return np.log(x) if q == 0.0 else x ** q

    hits = 0
    total = 0
    for q in _FP_POWERS:
        dataset = Dataset.from_arrays(1.7 * col(q) + 0.3, x)
        total += 1
        hits += best_fp(dataset, 0, degree=1).powers == (q,)

    pairs = [(-2.0, 3.0), (1.0, 3.0), (-0.5, 2.0), (-0.5, 0.0), (3.0, 3.0),
             (0.5, 3.0), (0.5, 2.0), (-0.5, -0.5), (-1.0, 0.0), (0.0, 0.5)]
    for q1, q2 in pairs:
        if q1 == q2:
            basis = (col(q1), col(q1) * np.log(x))
        else:
            basis = (col(q1), col(q2))
        dataset = Dataset.from_arrays(1.3 * basis[0] - 0.8 * basis[1] + 0.5, x)
        total += 1
        hits += best_fp(dataset, 0, degree=2).powers == (q1, q2)

    _check(10, hits == total, f"{hits}/{total} generating power sets recovered")
