"""Multivariable fractional polynomials for smooth surface fitting.

Each covariate may enter as a fractional polynomial of degree 1 or 2
with powers drawn from {-2, -1, -0.5, 0, 0.5, 1, 2, 3}, where power 0
means log(x) and a repeated power (q, q) means {x^q, x^q * log(x)}.
Covariates are processed in decreasing order of their contribution to
a full linear model; for each one a closed test chain decides between
exclusion, a linear effect, and the best degree-1 or degree-2 form,
holding all other covariates at their current forms.  Full cycles
repeat until the selected forms stabilise.

Optional interaction candidates enter the same inclusion machinery as
plain products of raw covariates, tested linear-in / linear-out.

The main consumer here is ``derive_dof_formula``, which fits a closed
form to a grid of Monte-Carlo degrees-of-freedom estimates in the
covariates (s, p, n).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .core import Dataset, solve_least_squares
from .errors import (
    NoConvergenceError,
    NonPositiveValuesError,
    RankDeficientError,
    ValidationError,
)

FP_POWERS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)

LINEAR = (1.0,)

# Any rss below this fraction of n * mean(y^2) is numerically a perfect
# fit; likelihood-ratio statistics are clamped accordingly so that an
# exactly representable surface cannot trigger spurious rejections.
_RSS_FLOOR_RTOL = 1e-14


@dataclass(frozen=True)
class FpTerm:
    """One covariate's fractional-polynomial form.

    ``powers`` has length equal to the degree; ``shift`` is added to
    the covariate before transforming so that all values are positive.
    ``coefficients`` align with the transformed columns and are filled
    only on a final fitted surface.
    """

    covariate: int
    powers: tuple[float, ...]
    shift: float = 0.0
    coefficients: tuple[float, ...] | None = None

    @property
    def degree(self) -> int:
        return len(self.powers)


@dataclass(frozen=True)
class InteractionTerm:
    """Plain product of two or more raw covariates, linear coefficient."""

    covariates: tuple[int, ...]
    coefficient: float | None = None


@dataclass(frozen=True)
class MfpFit:
    """A fitted fractional-polynomial surface."""

    terms: tuple[FpTerm, ...]
    interactions: tuple[InteractionTerm, ...]
    intercept: float
    excluded: tuple[int, ...]
    alpha: float
    r_squared: float
    names: tuple[str, ...]

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != len(self.names):
            raise ValidationError(
                f"expected {len(self.names)} columns, got {X.shape[1]}"
            )
        out = np.full(X.shape[0], self.intercept)
        for term in self.terms:
            cols = fp_columns(X[:, term.covariate] + term.shift, term.powers)
            out += cols @ np.asarray(term.coefficients)
        for inter in self.interactions:
            out += inter.coefficient * np.prod(X[:, list(inter.covariates)], axis=1)
        return out

    def expression(self, digits: int = 6) -> str:
        """Human-readable closed form of the fitted surface."""

        def fmt(value):
            return f"{value:.{digits}g}"

        pieces = [fmt(self.intercept)]
        for term in self.terms:
            base = self.names[term.covariate]
            if term.shift:
                base = f"({base} + {fmt(term.shift)})"
            prev = None
            for power, coef in zip(term.powers, term.coefficients):
                if power == prev:
                    piece = f"{_power_expr(base, power)}*log({base})"
                else:
                    piece = _power_expr(base, power)
                prev = power
                pieces.append(f"{fmt(coef)}*{piece}" if piece != "1" else fmt(coef))
        for inter in self.interactions:
            prod = "*".join(self.names[j] for j in inter.covariates)
            pieces.append(f"{fmt(inter.coefficient)}*{prod}")
        return " + ".join(pieces).replace("+ -", "- ")

    def to_dict(self) -> dict:
        return {
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "alpha": self.alpha,
            "names": list(self.names),
            "terms": [
                {
                    "covariate": self.names[t.covariate],
                    "powers": list(t.powers),
                    "shift": t.shift,
                    "coefficients": list(t.coefficients),
                }
                for t in self.terms
            ],
            "interactions": [
                {
                    "covariates": [self.names[j] for j in i.covariates],
                    "coefficient": i.coefficient,
                }
                for i in self.interactions
            ],
            "excluded": [self.names[j] for j in self.excluded],
            "expression": self.expression(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _power_expr(base: str, power: float) -> str:
    if power == 0.0:
        return f"log({base})"
    if power == 1.0:
        return base
    return f"{base}^{power:g}"


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def positivity_shift(x: np.ndarray) -> float:
    """Shift delta such that min(x) + delta > 0, zero when unneeded.

    Uses the smallest positive gap between adjacent distinct values as
    the margin above zero (1.0 when all values coincide).  Where that
    gap is too small to survive ``gap - min(x)``, the shift is rounded
    up to the next float that keeps ``min(x) + delta`` above zero.
    """
    x = np.asarray(x, dtype=float)
    lo = float(x.min())
    if lo > 0:
        return 0.0
    distinct = np.unique(x)
    gap = 1.0 if distinct.size < 2 else float(np.min(np.diff(distinct)))
    shift = gap - lo
    while lo + shift <= 0:
        shift = float(np.nextafter(shift, np.inf))
    return shift


def fp_columns(x_pos: np.ndarray, powers) -> np.ndarray:
    """Transform a positive vector by a fractional-polynomial power tuple.

    Power 0 maps to log(x); a repeated power q yields the pair
    ``{x^q, x^q * log(x)}``.
    """
    x_pos = np.asarray(x_pos, dtype=float)
    if np.any(x_pos <= 0):
        raise NonPositiveValuesError("fractional polynomials need positive values")
    cols = []
    prev = None
    for power in powers:
        if power == 0.0:
            col = np.log(x_pos)
        else:
            col = x_pos ** power
        if prev is not None and power == prev:
            col = cols[-1] * np.log(x_pos)
        cols.append(col)
        prev = power
    return np.column_stack(cols)


def _fp_power_sets(degree: int):
    if degree == 1:
        return [(q,) for q in FP_POWERS]
    return [tuple(pair) for pair in
            itertools.combinations_with_replacement(FP_POWERS, 2)]


# ---------------------------------------------------------------------------
# model assembly and testing machinery
# ---------------------------------------------------------------------------

class _Columns:
    """The model columns of one dataset, each built once: FP blocks keyed
    by (covariate, powers, shift), interaction products by covariates.

    A selection scores hundreds of candidate models that share most of
    their columns; ``design`` assembles a candidate's design from the
    blocks built so far.  A store lives for one call on one dataset.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self._ones = np.ones((dataset.n, 1))
        self._fp: dict[tuple, np.ndarray] = {}
        self._products: dict[tuple[int, ...], np.ndarray] = {}

    def design(self, forms: dict[int, FpTerm], interactions) -> np.ndarray:
        """Intercept, then each form's block by covariate, then each product."""
        X = self.dataset.X
        cols = [self._ones]
        for j in sorted(forms):
            term = forms[j]
            key = (j, tuple(term.powers), term.shift)
            if key not in self._fp:
                self._fp[key] = fp_columns(X[:, j] + term.shift, term.powers)
            cols.append(self._fp[key])
        for covs in interactions:
            key = tuple(covs)
            if key not in self._products:
                self._products[key] = np.prod(X[:, list(key)], axis=1).reshape(-1, 1)
            cols.append(self._products[key])
        return np.concatenate(cols, axis=1)


def _rss(columns: _Columns, forms, interactions) -> float | None:
    """rss of the least-squares fit, or None when the design is singular."""
    design = columns.design(forms, interactions)
    try:
        return solve_least_squares(design, columns.dataset.y).rss
    except RankDeficientError:
        return None


def _chi2_critical_values(alpha: float) -> dict[int, float]:
    """Upper-alpha critical values of chi-square on 1 and 2 df.

    Chi-square on 1 df is a squared standard normal and on 2 df an
    exponential with mean 2, so both quantiles have closed forms.
    """
    return {1: NormalDist().inv_cdf(1.0 - alpha / 2.0) ** 2, 2: -2.0 * math.log(alpha)}


class _LrTester:
    """Likelihood-ratio chi-square tests with a numerical-zero floor.

    Without ``alpha`` it gives statistics only, not test decisions.
    """

    def __init__(self, dataset: Dataset, alpha: float | None = None):
        self.n = dataset.n
        scale = float(np.mean(dataset.y ** 2))
        self.floor = max(_RSS_FLOOR_RTOL * self.n * max(scale, 1e-300), 1e-300)
        self._crit = None if alpha is None else _chi2_critical_values(alpha)

    def statistic(self, rss_null: float, rss_alt: float) -> float:
        rss_null = max(rss_null, self.floor)
        rss_alt = max(rss_alt, self.floor)
        return max(self.n * math.log(rss_null / rss_alt), 0.0)

    def significant(self, rss_null, rss_alt, df: int) -> bool:
        if rss_alt is None:
            return False
        if rss_null is None:
            return True
        return self.statistic(rss_null, rss_alt) > self._crit[df]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def order_covariates(dataset: Dataset) -> list[int]:
    """Covariate indices by decreasing contribution to a full linear model.

    Contribution is the likelihood-ratio statistic from dropping the
    covariate out of the all-linear model; ties keep index order.
    """
    return _order_covariates(_Columns(dataset))


def _order_covariates(columns: _Columns) -> list[int]:
    dataset = columns.dataset
    forms = {j: FpTerm(j, LINEAR, positivity_shift(dataset.X[:, j]))
             for j in range(dataset.p)}
    full = _rss(columns, forms, [])
    if full is None:
        raise RankDeficientError("full linear model is singular")
    tester = _LrTester(dataset)
    scores = []
    for j in range(dataset.p):
        reduced = {k: v for k, v in forms.items() if k != j}
        rss_j = _rss(columns, reduced, [])
        stat = math.inf if rss_j is None else tester.statistic(rss_j, full)
        scores.append((-stat, j))
    return [j for _, j in sorted(scores)]


def best_fp(dataset: Dataset, j: int, degree: int,
            current_forms: dict[int, FpTerm] | None = None,
            interactions=()) -> FpTerm:
    """Best fractional-polynomial form of the given degree for covariate j.

    All candidate power tuples are scored by the rss of the refitted
    model, holding the other covariates at ``current_forms`` (and any
    supplied interactions in the model); ties go to the
    lexicographically smallest tuple.  The covariate is shifted by its
    ``positivity_shift``.
    """
    if degree not in (1, 2):
        raise ValidationError(f"degree must be 1 or 2, got {degree}")
    if j < 0 or j >= dataset.p:
        raise ValidationError(f"no covariate {j}")
    term, _ = _best_fp_with_rss(_Columns(dataset), j, degree, current_forms or {},
                                interactions, positivity_shift(dataset.X[:, j]))
    if term is None:
        raise RankDeficientError(
            f"every degree-{degree} candidate for covariate {j} is singular"
        )
    return term


def _best_fp_with_rss(columns, j, degree, current_forms, interactions, delta):
    """``best_fp`` with covariate j shifted by ``delta``, and the rss of
    its fit; (None, inf) when every candidate is singular."""
    others = {k: v for k, v in current_forms.items() if k != j}
    best = None
    best_rss = math.inf
    for powers in _fp_power_sets(degree):
        forms = dict(others)
        forms[j] = FpTerm(j, powers, delta)
        rss = _rss(columns, forms, interactions)
        if rss is not None and rss < best_rss:
            best_rss = rss
            best = FpTerm(j, powers, delta)
    return best, best_rss


def mfp_select(dataset: Dataset, alpha: float = 0.05, interactions: int = 0,
               max_cycles: int = 10) -> MfpFit:
    """Multivariable fractional-polynomial selection with a closed test.

    Per covariate and cycle: (1) the best degree-2 form against the
    model without the covariate, on 2 df -- failure excludes it;
    (2) best degree-2 against linear, on 1 df -- failure keeps the
    linear effect; (3) best degree-2 against best degree-1, on 1 df.
    With ``interactions`` set to 2 or 3, all products of that many
    distinct covariates are then tested in and out on 1 df each.
    Cycles repeat until nothing changes.

    Raises
    ------
    NoConvergenceError
        If forms keep changing after ``max_cycles`` cycles.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    if interactions not in (0, 2, 3):
        raise ValidationError("interactions must be 0, 2 or 3")
    if max_cycles < 1:
        raise ValidationError(f"max_cycles must be >= 1, got {max_cycles}")

    p = dataset.p
    tester = _LrTester(dataset, alpha)
    shifts = tuple(positivity_shift(dataset.X[:, j]) for j in range(p))
    forms: dict[int, FpTerm] = {j: FpTerm(j, LINEAR, shifts[j]) for j in range(p)}
    inter_candidates: list[tuple[int, ...]] = []
    if interactions:
        for size in range(2, interactions + 1):
            inter_candidates.extend(itertools.combinations(range(p), size))
    included_inters: list[tuple[int, ...]] = []
    columns = _Columns(dataset)
    order = _order_covariates(columns)

    for _cycle in range(max_cycles):
        before = (tuple(sorted((j, t.powers) for j, t in forms.items())),
                  tuple(included_inters))
        for j in order:
            others = {k: v for k, v in forms.items() if k != j}
            fp2, rss_fp2 = _best_fp_with_rss(columns, j, 2, others,
                                             included_inters, shifts[j])
            if fp2 is None:
                forms.pop(j, None)
                continue
            rss_null = _rss(columns, others, included_inters)
            if not tester.significant(rss_null, rss_fp2, df=2):
                forms.pop(j, None)
                continue
            linear = dict(others)
            linear[j] = FpTerm(j, LINEAR, shifts[j])
            rss_linear = _rss(columns, linear, included_inters)
            if not tester.significant(rss_linear, rss_fp2, df=1):
                forms[j] = linear[j]
                continue
            fp1, rss_fp1 = _best_fp_with_rss(columns, j, 1, others,
                                             included_inters, shifts[j])
            if fp1 is not None and not tester.significant(rss_fp1, rss_fp2, df=1):
                forms[j] = fp1
            else:
                forms[j] = fp2
        for covs in inter_candidates:
            rest = [t for t in included_inters if t != covs]
            rss_without = _rss(columns, forms, rest)
            rss_with = _rss(columns, forms, rest + [covs])
            wanted = tester.significant(rss_without, rss_with, df=1)
            if wanted and covs not in included_inters:
                included_inters = rest + [covs]
            elif not wanted and covs in included_inters:
                included_inters = rest
        included_inters.sort(key=lambda t: (len(t), t))
        after = (tuple(sorted((j, t.powers) for j, t in forms.items())),
                 tuple(included_inters))
        if after == before:
            break
    else:
        raise NoConvergenceError(
            f"forms still changing after {max_cycles} cycles"
        )

    return _final_fit(columns, forms, included_inters, alpha)


def _final_fit(columns, forms, included_inters, alpha) -> MfpFit:
    dataset = columns.dataset
    fit = solve_least_squares(columns.design(forms, included_inters), dataset.y)
    coefs = fit.coefficients
    pos = 1
    terms = []
    for j in sorted(forms):
        term = forms[j]
        width = term.degree
        terms.append(replace(term,
                             coefficients=tuple(float(c) for c in coefs[pos:pos + width])))
        pos += width
    inters = []
    for covs in included_inters:
        inters.append(InteractionTerm(covariates=covs, coefficient=float(coefs[pos])))
        pos += 1
    y = dataset.y
    tss = float(np.sum((y - y.mean()) ** 2))
    r_squared = 0.0 if tss == 0 else max(0.0, min(1.0, 1.0 - fit.rss / tss))
    excluded = tuple(j for j in range(dataset.p) if j not in forms)
    return MfpFit(
        terms=tuple(terms),
        interactions=tuple(inters),
        intercept=float(coefs[0]),
        excluded=excluded,
        alpha=alpha,
        r_squared=r_squared,
        names=dataset.names,
    )


def derive_dof_formula(rows, alpha: float = 0.05):
    """Fit a closed-form DoF surface to a Monte-Carlo grid.

    Parameters
    ----------
    rows : array-like, shape (N, 4+)
        Rows (p, n, s, dof); extra columns (e.g. standard errors) are
        ignored.  At least 20 rows are required.
    alpha : float
        Significance level for the selection tests.

    Returns
    -------
    (MfpFit, str)
        The fitted surface over covariates (s, p, n) with interaction
        candidates s*p, s*n, p*n and s*p*n, and its rendered form.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 4:
        raise ValidationError("expected rows (p, n, s, dof)")
    if rows.shape[0] < 20:
        raise ValidationError(
            f"need at least 20 grid rows to fit a surface, got {rows.shape[0]}"
        )
    if not np.isfinite(rows).all():
        raise ValidationError("grid rows must be finite")
    X = rows[:, [2, 0, 1]]
    y = rows[:, 3]
    dataset = Dataset.from_arrays(y, X, names=("s", "p", "n"))
    fit = mfp_select(dataset, alpha=alpha, interactions=3)
    return fit, fit.expression()
