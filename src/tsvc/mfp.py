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
import sys
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .core import SCREEN_FLOOR, Dataset, orthogonal_part, solve_least_squares
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

# The FP search screens every power tuple of a covariate from the basis of
# the model without it and refits exactly only the tuples whose screened
# rss lies within _FP_SCREEN_RTOL times that model's rss, plus the zero-rss
# floor, of the best exact rss so far.  The screen only orders the
# candidates: the exact refits decide, ties included.
_FP_SCREEN_RTOL = 1e-6


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


# Every FP block is a pick of 16 columns (``_Columns.table``): column 2i is
# x^q for q = FP_POWERS[i] (log x for q = 0) and column 2i + 1 is that
# times log x.  _PICKS maps each FP1 and FP2 power tuple to its columns.
_TABLE_POWERS = tuple(q for q in FP_POWERS for _ in range(2))
_PICKS = {(q,): [2 * i] for i, q in enumerate(FP_POWERS)}
_PICKS.update({(q, r): [2 * i, 2 * k if k > i else 2 * i + 1] for (i, q), (k, r)
               in itertools.combinations_with_replacement(enumerate(FP_POWERS), 2)})
_POWER_SETS = {d: [powers for powers in _PICKS if len(powers) == d] for d in (1, 2)}
# the two table columns of each FP2 block, in _POWER_SETS[2] order
_FP2_COLUMNS = np.array([_PICKS[powers] for powers in _POWER_SETS[2]]).T
_FP2_COLUMNS.setflags(write=False)


# ---------------------------------------------------------------------------
# model assembly and testing machinery
# ---------------------------------------------------------------------------

class _Columns:
    """The model columns of one dataset, each built once: per (covariate,
    shift) the table every FP block is picked from, and interaction
    products by covariates; and each model's fit, solved once (``_fit``).

    A selection scores hundreds of candidate models that share most of
    their columns, and tests some models more than once; ``design``
    assembles a candidate's design from the columns.  A store lives for
    one call on one dataset.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self._ones = np.ones((dataset.n, 1))
        self._tables: dict[tuple[int, float], np.ndarray] = {}
        self._products: dict[tuple[int, ...], np.ndarray] = {}
        self._fits: dict[tuple, tuple | str] = {}

    def table(self, j: int, shift: float) -> np.ndarray:
        """The (n, 16) columns of ``_TABLE_POWERS`` on covariate j + shift;
        a power that overflows leaves an infinite column."""
        key = (j, shift)
        if key not in self._tables:
            with np.errstate(over="ignore"):
                self._tables[key] = fp_columns(self.dataset.X[:, j] + shift, _TABLE_POWERS)
        return self._tables[key]

    def design(self, forms: dict[int, FpTerm], interactions) -> np.ndarray:
        """Intercept, then each form's block by covariate, then each product."""
        X = self.dataset.X
        cols = [self._ones]
        for j in sorted(forms):
            term = forms[j]
            # C-ordered, as a fresh fp_columns block is: a design of
            # F-ordered picks is F-ordered and its fit rounds differently
            cols.append(np.ascontiguousarray(self.table(j, term.shift)[:, _PICKS[tuple(term.powers)]]))
        for covs in interactions:
            key = tuple(covs)
            if key not in self._products:
                self._products[key] = np.prod(X[:, list(key)], axis=1).reshape(-1, 1)
            cols.append(self._products[key])
        return np.concatenate(cols, axis=1)


def _fit(columns: _Columns, forms, interactions):
    """The least-squares fit of a model and its design's orthonormal
    basis, as (fit, Q); RankDeficientError where its design is singular
    or, an FP power having overflowed, not finite.

    ``columns`` keeps each model's fit and basis, or the words of its
    error (never the error, whose traceback would hold ``columns`` in a
    cycle), keyed by the forms and products that make its design: a
    model is solved once per store, and a repeat reads the same bits.
    """
    key = (tuple((j, tuple(forms[j].powers), forms[j].shift) for j in sorted(forms)),
           tuple(tuple(covs) for covs in interactions))
    if key not in columns._fits:
        design = columns.design(forms, interactions)
        try:
            if not np.isfinite(design).all():
                raise RankDeficientError("an FP column overflows")
            columns._fits[key] = solve_least_squares(design, columns.dataset.y,
                                                     return_basis=True)
        except RankDeficientError as error:
            columns._fits[key] = str(error)
    solved = columns._fits[key]
    if isinstance(solved, str):
        raise RankDeficientError(solved)
    return solved


def _rss(columns: _Columns, forms, interactions) -> float | None:
    """rss of the least-squares fit, or None when it cannot be fitted."""
    try:
        return _fit(columns, forms, interactions)[0].rss
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

    Without ``alpha`` it gives statistics only, not test decisions.  A
    response whose floor is not a normal float is refused: below that
    the rss values lose bits to underflow and no longer scale with y.
    """

    def __init__(self, dataset: Dataset, alpha: float | None = None):
        self.n = dataset.n
        self.floor = _RSS_FLOOR_RTOL * self.n * float(np.mean(dataset.y ** 2))
        if self.floor < sys.float_info.min:
            raise ValidationError("y is too small for the likelihood-ratio tests "
                                  "(its rss floor underflows): rescale y")
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
    shifts = [positivity_shift(dataset.X[:, j]) for j in range(dataset.p)]
    return _order_covariates(_Columns(dataset), shifts)


def _order_covariates(columns: _Columns, shifts) -> list[int]:
    dataset = columns.dataset
    tester = _LrTester(dataset)
    forms = {j: FpTerm(j, LINEAR, shifts[j]) for j in range(dataset.p)}
    full = _rss(columns, forms, [])
    if full is None:
        raise RankDeficientError("full linear model is singular")
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
    model, holding the other covariates at ``current_forms`` (each an
    FP1 or FP2 tuple of ``FP_POWERS``), with any supplied interactions in
    the model; ties go to the lexicographically smallest tuple.  The
    covariate is shifted by its ``positivity_shift``.
    """
    if degree not in (1, 2):
        raise ValidationError(f"degree must be 1 or 2, got {degree}")
    if j < 0 or j >= dataset.p:
        raise ValidationError(f"no covariate {j}")
    current_forms = current_forms or {}
    for term in current_forms.values():
        if tuple(term.powers) not in _PICKS:
            raise ValidationError(f"powers {tuple(term.powers)} are not an FP1 or FP2 "
                                  f"tuple of {FP_POWERS}")
    search = _FpSearch(_Columns(dataset), j, current_forms, interactions,
                       positivity_shift(dataset.X[:, j]), _LrTester(dataset).floor)
    term, _ = search.best(degree)
    if term is None:
        raise RankDeficientError(
            f"every degree-{degree} candidate for covariate {j} is singular"
        )
    return term


class _FpSearch:
    """The FP searches for covariate j, shifted by ``delta``, with the
    other covariates at their ``forms`` and ``interactions`` in the model:
    ``best(degree)`` is ``best_fp``'s term and the rss of its fit (None
    and inf when every candidate is singular), and ``rss_null`` the rss
    of the model without covariate j (None when it cannot be fitted).

    The model without j is solved once and j's table projected off its
    basis once, which screens every candidate of both degrees
    (``_screened_gains``).  A search refits its candidates exactly in
    ascending screened order, until a screened rss exceeds the best exact
    rss by more than the margin: ``_FP_SCREEN_RTOL`` times the null rss
    plus ``floor``, the zero-rss floor.  A candidate the screen cannot
    trust reads -inf, so it is always refit; where the null model cannot
    be fitted, every candidate does.  The result is the exhaustive loop's:
    the least exact rss, ties to the first tuple.
    """

    def __init__(self, columns, j, forms, interactions, delta, floor):
        self.columns, self.j, self.interactions, self.delta = columns, j, interactions, delta
        self.others = {k: v for k, v in forms.items() if k != j}
        try:
            null, Q = _fit(columns, self.others, interactions)
        except RankDeficientError:
            self.rss_null, self.margin = None, 0.0
            self.screened = {d: np.full(len(_POWER_SETS[d]), -np.inf) for d in (1, 2)}
        else:
            self.rss_null, self.margin = null.rss, _FP_SCREEN_RTOL * null.rss + floor
            gains = _screened_gains(columns.table(j, delta), Q, columns.dataset.y - null.fitted)
            self.screened = {d: null.rss - g for d, g in gains.items()}

    def best(self, degree: int):
        power_sets, screened = _POWER_SETS[degree], self.screened[degree]
        best, best_rss, best_k = None, math.inf, len(power_sets)
        for k in np.argsort(screened, kind="stable"):
            if screened[k] > best_rss + self.margin:
                break
            forms = dict(self.others)
            forms[self.j] = FpTerm(self.j, power_sets[k], self.delta)
            rss = _rss(self.columns, forms, self.interactions)
            if rss is not None and (rss, k) < (best_rss, best_k):
                best, best_rss, best_k = forms[self.j], rss, k
        return best, best_rss


def _screened_gains(C, Q, r) -> dict[int, np.ndarray]:
    """Per degree, the fall in rss from adding each power tuple's block,
    picked from the table C, to the model with orthonormal basis Q and
    residual r, in ``_POWER_SETS`` order: with B the block projected
    off Q (``orthogonal_part``), ``t' G^-1 t`` for G = B'B and t = B'r, in
    closed form.  inf where the arithmetic is not finite or too little is
    left to screen by: a column keeps less than ``SCREEN_FLOOR`` of its
    squared norm off Q, or two columns come that close to parallel."""
    i, k = _FP2_COLUMNS
    with np.errstate(all="ignore"):
        B = orthogonal_part(Q, C)
        t = r @ B
        squares = np.einsum("ij,ij->j", B, B)
        kept = squares / np.einsum("ij,ij->j", C, C) >= SCREEN_FLOOR
        fp1 = t[::2] * t[::2] / squares[::2]  # the even columns are the FP1 blocks
        a, c = squares[i], squares[k]
        b = np.einsum("ij,ij->j", B[:, i], B[:, k])
        det = a * c - b * b
        fp2 = (c * t[i] * t[i] - 2.0 * b * t[i] * t[k] + a * t[k] * t[k]) / det
        trusted = {1: kept[::2], 2: kept[i] & kept[k] & (det >= SCREEN_FLOOR * a * c)}
        return {degree: np.where(trusted[degree] & np.isfinite(g), g, np.inf)
                for degree, g in ((1, fp1), (2, fp2))}


def mfp_select(dataset: Dataset, alpha: float = 0.05, interactions: int = 0,
               max_cycles: int = 10) -> MfpFit:
    """Multivariable fractional-polynomial selection with a closed test.

    Per covariate and cycle: (1) the best degree-2 form against the
    model without the covariate, on 2 df -- failure excludes it (where
    no degree-2 form can be fitted, linear against exclusion on 1 df
    decides instead); (2) best degree-2 against linear, on 1 df --
    failure keeps the linear effect; (3) best degree-2 against best
    degree-1, on 1 df.
    With ``interactions`` set to 2 or 3, all products of that many
    distinct covariates are then tested in and out on 1 df each.
    Cycles repeat until nothing changes.

    Raises
    ------
    ValidationError
        If alpha is outside (0, 1) or so small that ``1 - alpha/2``
        rounds to 1, where the 1-df critical value is infinite.
    NoConvergenceError
        If forms keep changing after ``max_cycles`` cycles.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValidationError(f"alpha = {alpha!r} is too small: 1 - alpha/2 rounds to 1")
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
    order = _order_covariates(columns, shifts)

    for _cycle in range(max_cycles):
        before = (tuple(sorted((j, t.powers) for j, t in forms.items())),
                  tuple(included_inters))
        for j in order:
            search = _FpSearch(columns, j, forms, included_inters, shifts[j], tester.floor)
            fp2, rss_fp2 = search.best(2)
            linear = {**search.others, j: FpTerm(j, LINEAR, shifts[j])}
            if fp2 is None:
                # no FP2 form fits (a covariate with two values, say, on which
                # every FP1 form fits as the linear one does): linear or out
                rss_linear = _rss(columns, linear, included_inters)
                if tester.significant(search.rss_null, rss_linear, df=1):
                    forms[j] = linear[j]
                else:
                    forms.pop(j, None)
                continue
            if not tester.significant(search.rss_null, rss_fp2, df=2):
                forms.pop(j, None)
                continue
            rss_linear = _rss(columns, linear, included_inters)
            if not tester.significant(rss_linear, rss_fp2, df=1):
                forms[j] = linear[j]
                continue
            fp1, rss_fp1 = search.best(1)
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
    fit, _ = _fit(columns, forms, included_inters)
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
