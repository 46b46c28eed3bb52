"""Unit tests for the least-squares core."""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from tsvc import core
from tsvc.core import (
    RANK_RTOL,
    RSS_ZERO_RTOL,
    Dataset,
    _pivoted_qr,
    gaussian_log_lik,
    solve_least_squares,
)
from tsvc.errors import (
    DegenerateFitError,
    DimensionMismatchError,
    RankDeficientError,
    ValidationError,
)


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

def test_dataset_from_arrays_basics():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 2))
    y = rng.standard_normal(12)
    ds = Dataset.from_arrays(y, X)
    assert ds.n == 12 and ds.p == 2
    assert ds.names == ("x1", "x2")


def test_dataset_accepts_one_dimensional_covariates():
    ds = Dataset.from_arrays([1.0, 2, 3, 4, 5], [0.0, 1, 2, 3, 4])
    assert ds.p == 1 and ds.X.shape == (5, 1)


def test_dataset_rejects_bad_shapes():
    y = np.zeros(10)
    with pytest.raises(ValidationError):
        Dataset.from_arrays(y, np.zeros((9, 2)))
    with pytest.raises(ValidationError):
        Dataset(y=np.zeros((5, 2)), X=np.zeros((5, 2)), names=("a", "b"))


def test_dataset_requires_enough_rows():
    # the search needs at least 2p + 2 observations
    with pytest.raises(ValidationError, match="2p"):
        Dataset.from_arrays(np.zeros(5), np.zeros((5, 2)))
    Dataset.from_arrays(np.zeros(6), np.arange(12.0).reshape(6, 2))


def test_dataset_rejects_nonfinite_and_bad_names():
    y = np.zeros(8)
    X = np.ones((8, 2))
    X[0, 0] = np.nan
    with pytest.raises(ValidationError):
        Dataset.from_arrays(y, X)
    X[0, 0] = 0.0
    with pytest.raises(ValidationError):
        Dataset.from_arrays(y, X, names=("a", "a"))
    with pytest.raises(ValidationError):
        Dataset.from_arrays(y, X, names=("a",))


def test_dataset_rejects_sums_of_squares_past_the_float_range():
    # every entry is finite, but the fits would overflow
    rng = np.random.default_rng(4)
    X = rng.standard_normal((80, 2))
    y = rng.standard_normal(80)
    with pytest.raises(ValidationError, match="^the sum of squares of y overflows: rescale y$"):
        Dataset.from_arrays(y * 1e160, X)
    wide = X.copy()
    wide[:, 1] *= 1e160
    with pytest.raises(ValidationError, match="sum of squares of column 'b' overflows"):
        Dataset.from_arrays(y, wide, names=("a", "b"))
    Dataset.from_arrays(y * 1e152, X)


def test_dataset_rejects_constant_and_duplicate_columns():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((10, 3))
    X[:4, 0] = 0.0
    y = rng.standard_normal(10)
    names = ("a", "b", "c")
    const = X.copy()
    const[:, 1] = 2.5
    with pytest.raises(ValidationError, match="'b' is constant"):
        Dataset.from_arrays(y, const, names=names)
    dup = X.copy()
    dup[:, 2] = dup[:, 0]
    with pytest.raises(ValidationError, match="'c' duplicates column 'a'"):
        Dataset.from_arrays(y, dup, names=names)
    dup[:4, 2] = -0.0  # the same values, whatever the sign of zero
    with pytest.raises(ValidationError, match="'c' duplicates column 'a'"):
        Dataset.from_arrays(y, dup, names=names)
    # a rescaled copy is not an input error; the rank check handles it
    dup[:, 2] = 2.0 * dup[:, 0]
    Dataset.from_arrays(y, dup, names=names)


# ---------------------------------------------------------------------------
# gaussian_log_lik
# ---------------------------------------------------------------------------

def test_gaussian_log_lik_unit_variance():
    # rss = n means sigma2 = 1: -(n/2) * (log(2 pi) + 1)
    assert gaussian_log_lik(10.0, 10) == pytest.approx(-14.189385332046727, abs=1e-12)


def test_gaussian_log_lik_double_variance():
    assert gaussian_log_lik(20.0, 10) == pytest.approx(-17.655121234846453, abs=1e-12)


def test_gaussian_log_lik_monotone_in_rss():
    assert gaussian_log_lik(8.0, 10) > gaussian_log_lik(16.0, 10)


def test_gaussian_log_lik_errors():
    with pytest.raises(DegenerateFitError):
        gaussian_log_lik(0.0, 10)
    with pytest.raises(ValidationError):
        gaussian_log_lik(-1.0, 10)
    with pytest.raises(ValidationError):
        gaussian_log_lik(1.0, 0)


# ---------------------------------------------------------------------------
# solve_least_squares
# ---------------------------------------------------------------------------

def test_intercept_only_mean_fit():
    fit = solve_least_squares(np.ones((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]))
    assert fit.coefficients[0] == pytest.approx(2.5)
    assert fit.rss == pytest.approx(5.0)
    assert fit.n_params == 1
    assert fit.sigma2_hat == pytest.approx(5.0 / 4.0)


def test_exact_interpolation_flags_infinite_likelihood():
    # an all-zero response is reproduced without rounding error, so this
    # pins the rss == 0 branch exactly
    design = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    fit = solve_least_squares(design, np.zeros(3))
    assert fit.rss == 0.0
    assert math.isinf(fit.log_lik)
    np.testing.assert_allclose(fit.coefficients, np.zeros(2), atol=0.0)

    near = solve_least_squares(design, design @ np.array([2.0, -3.0]))
    assert near.rss == pytest.approx(0.0, abs=1e-20)
    np.testing.assert_allclose(near.coefficients, [2.0, -3.0], atol=1e-12)


def test_zero_rss_floor_is_relative_to_the_response():
    # a tiny response keeps its rss: scaling y by 2^k scales the fit
    # exactly, the rss by 4^k
    rng = np.random.default_rng(5)
    design = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
    y = rng.standard_normal(40)
    fit = solve_least_squares(design, y)
    for k in (-60, -300, 300):
        scaled = solve_least_squares(design, np.ldexp(y, k))
        assert scaled.rss == np.ldexp(fit.rss, 2 * k) > 0.0
        assert scaled.fitted.tobytes() == np.ldexp(fit.fitted, k).tobytes()
        assert math.isfinite(scaled.log_lik)


def test_noiseless_recovery():
    rng = np.random.default_rng(3)
    design = rng.standard_normal((20, 3))
    beta = np.array([1.5, -2.0, 0.25])
    fit = solve_least_squares(design, design @ beta)
    np.testing.assert_allclose(fit.coefficients, beta, atol=1e-8)


def test_matches_lstsq_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(8, 40))
        q = int(rng.integers(1, 5))
        design = rng.standard_normal((n, q))
        y = rng.standard_normal(n)
        fit = solve_least_squares(design, y)
        ref, *_ = np.linalg.lstsq(design, y, rcond=None)
        np.testing.assert_allclose(fit.coefficients, ref, atol=1e-9)
        resid = y - design @ ref
        assert fit.rss == pytest.approx(float(resid @ resid), abs=1e-9)
        assert fit.log_lik == pytest.approx(gaussian_log_lik(fit.rss, n), abs=1e-9)


def test_nested_design_never_raises_rss():
    rng = np.random.default_rng(5)
    design = rng.standard_normal((30, 3))
    y = rng.standard_normal(30)
    small = solve_least_squares(design[:, :2], y)
    big = solve_least_squares(design, y)
    assert big.rss <= small.rss + 1e-10


def test_log_lik_invariant_under_row_permutation():
    rng = np.random.default_rng(6)
    design = rng.standard_normal((25, 3))
    y = rng.standard_normal(25)
    perm = rng.permutation(25)
    a = solve_least_squares(design, y)
    b = solve_least_squares(design[perm], y[perm])
    assert a.log_lik == pytest.approx(b.log_lik, abs=1e-10)


def test_saturated_one_hot_reproduces_y():
    y = np.array([3.0, -1.0, 0.5, 2.0])
    fit = solve_least_squares(np.eye(4), y)
    np.testing.assert_allclose(fit.fitted, y, atol=1e-12)
    assert fit.rss == 0.0


def test_rank_deficient_design_raises():
    design = np.ones((10, 2))  # duplicated column
    with pytest.raises(RankDeficientError, match=r"^design has numerical rank 1 < 2$"):
        solve_least_squares(design, np.arange(10.0))
    with pytest.raises(RankDeficientError, match=r"^design has numerical rank 0 < 1$"):
        solve_least_squares(np.zeros((5, 1)), np.zeros(5))


def test_shape_checks():
    with pytest.raises(DimensionMismatchError):
        solve_least_squares(np.ones((4, 5)), np.ones(4))  # q > n
    with pytest.raises(DimensionMismatchError):
        solve_least_squares(np.ones((4, 1)), np.ones(5))


def test_return_basis_spans_design():
    rng = np.random.default_rng(7)
    design = rng.standard_normal((15, 3))
    y = rng.standard_normal(15)
    fit, Q = solve_least_squares(design, y, return_basis=True)
    np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-10)
    # projecting the design onto Q changes nothing
    np.testing.assert_allclose(Q @ (Q.T @ design), design, atol=1e-10)
    np.testing.assert_allclose(Q @ (Q.T @ y), fit.fitted, atol=1e-10)


def test_responses_share_one_factorisation_bit_for_bit():
    # m responses against one design: each fit is the one a solve of
    # that response alone gives, to the last bit
    rng = np.random.default_rng(11)
    for n, q in ((31, 3), (100, 11), (257, 6)):
        design = rng.standard_normal((n, q))
        Y = rng.standard_normal((5, n))
        fits, Q = solve_least_squares(design, Y, return_basis=True)
        assert len(fits) == 5
        for y, fit in zip(Y, fits):
            alone, Q_alone = solve_least_squares(design, y.copy(), return_basis=True)
            assert fit.coefficients.tobytes() == alone.coefficients.tobytes()
            assert fit.fitted.tobytes() == alone.fitted.tobytes()
            assert fit.rss == alone.rss and fit.log_lik == alone.log_lik
            assert Q.tobytes() == Q_alone.tobytes()



def _scipy_solve(design, y):
    """The solve as ``scipy.linalg.qr`` and ``solve_triangular`` give it:
    (Q, R, piv, [(coefficients, fitted, rss) per response]), or the rank
    the check finds in place of the fits when it fails."""
    Q, R, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0 or np.any(diag < RANK_RTOL * diag[0]):
        return Q, R, piv, 0 if diag[0] == 0.0 else int(np.sum(diag >= RANK_RTOL * diag[0]))
    fits = []
    for response in np.atleast_2d(y):
        coefficients = np.empty(design.shape[1])
        coefficients[piv] = scipy.linalg.solve_triangular(R, Q.T @ response)
        fitted = design @ coefficients
        resid = response - fitted
        rss = float(resid @ resid)
        if rss <= RSS_ZERO_RTOL * float(response @ response):
            rss = 0.0
        fits.append((coefficients, fitted, rss))
    return Q, R, piv, fits


def test_lapack_solve_equals_scipy_bit_for_bit():
    # the direct LAPACK calls must reproduce scipy's pivoted QR and
    # triangular solve to the last bit, whatever the shape, memory order
    # or column scales, and leave the design as it was; past about 128
    # columns LAPACK takes its blocked path, set by the workspace size
    rng = np.random.default_rng(2024)
    shapes = [(1, 1), (7, 1), (7, 7), (100, 16), (200, 1), (40, 40), (300, 160), (200, 200)]
    for _ in range(1992):
        n = int(rng.integers(1, 150))
        shapes.append((n, int(rng.integers(1, min(n, 24) + 1))))
    deficient = 0
    for i, (n, q) in enumerate(shapes):
        # columns anywhere in 1e-6..1e6, some designs spread over all of it
        spread = rng.choice([0.0, 1.0, 5.0])
        design = rng.standard_normal((n, q)) * 10.0 ** (
            rng.uniform(-6 + spread, 6 - spread) + rng.uniform(-spread, spread, q))
        if i % 2:
            design = np.asfortranarray(design)
        y = rng.standard_normal((3, n) if i % 5 == 0 else n)
        before = design.copy(order="K")
        Q, R, piv, fits = _scipy_solve(design, y)
        Q2, R2, piv2 = _pivoted_qr(design)
        assert (Q2.tobytes(), R2.tobytes(), piv2.tolist()) == (Q.tobytes(), R.tobytes(), piv.tolist())
        assert R2.flags.c_contiguous == R.flags.c_contiguous
        if isinstance(fits, int):
            deficient += 1
            with pytest.raises(RankDeficientError, match=rf"^design has numerical rank {fits} < {q}$"):
                solve_least_squares(design, y)
            continue
        got, basis = solve_least_squares(design, y, return_basis=True)
        assert basis.tobytes() == Q.tobytes()
        for fit, (coefficients, fitted, rss) in zip(got if y.ndim == 2 else [got], fits):
            assert fit.coefficients.tobytes() == coefficients.tobytes()
            assert fit.fitted.tobytes() == fitted.tobytes()
            assert fit.rss == rss
        assert design.tobytes(order="A") == before.tobytes(order="A")
        assert design.flags.f_contiguous == before.flags.f_contiguous
    # the scale spread makes the rank check fire on some designs
    assert 0 < deficient < len(shapes) // 2


def test_lapack_loader_falls_back_to_scipy_linalg(monkeypatch):
    def not_found():
        raise ImportError("scipy/linalg/_flapack not found")

    rng = np.random.default_rng(15)
    design = rng.standard_normal((60, 5)) * 10.0 ** rng.uniform(-3, 3, 5)
    y = rng.standard_normal(60)
    direct = solve_least_squares(design, y)

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(core, "_flapack_path", not_found)
    fallback = core._load_lapack()
    assert fallback is scipy.linalg.lapack
    monkeypatch.setattr(core, "lapack", fallback)
    via_fallback = solve_least_squares(design, y)
    assert via_fallback.coefficients.tobytes() == direct.coefficients.tobytes()
    assert via_fallback.rss == direct.rss


# past about 128 columns dgeqp3 and dorgqr take their blocked paths
_CROSSOVER_WIDTHS = (1, 8, 127, 128, 129, 160)


def test_each_lapack_call_gets_the_workspace_its_own_query_gives(monkeypatch):
    # the lwork cached per shape is what a fresh lwork=-1 query on the
    # call's own arrays gives, whichever shapes came before
    calls = []

    def recorded(name, routine):
        def call(*args, lwork, **kwargs):
            if lwork != -1:  # not the query itself
                fresh = int(routine(*args, lwork=-1)[-2][0])
                calls.append((name, args[0].shape, lwork, fresh))
            return routine(*args, lwork=lwork, **kwargs)
        return call

    lapack = core.lapack
    monkeypatch.setattr(core, "lapack", SimpleNamespace(
        dgeqp3=recorded("dgeqp3", lapack.dgeqp3), dorgqr=recorded("dorgqr", lapack.dorgqr),
        dtrtrs=lapack.dtrtrs))
    rng = np.random.default_rng(16)
    for q in _CROSSOVER_WIDTHS + _CROSSOVER_WIDTHS[::-1]:
        solve_least_squares(rng.standard_normal((200, q)), rng.standard_normal(200))
    assert [(name, shape[1]) for name, shape, *_ in calls] == [
        (name, q) for q in _CROSSOVER_WIDTHS + _CROSSOVER_WIDTHS[::-1]
        for name in ("dgeqp3", "dorgqr")]
    for name, shape, lwork, fresh in calls:
        assert lwork == fresh, (name, shape)


def test_cold_and_warm_workspace_cache_solve_to_the_same_bytes():
    rng = np.random.default_rng(17)
    problems = [(rng.standard_normal((200, q)), rng.standard_normal(200))
                for q in _CROSSOVER_WIDTHS]
    core._workspace.cache_clear()
    cold = [solve_least_squares(design, y, return_basis=True) for design, y in problems]
    assert core._workspace.cache_info().misses == 2 * len(problems)
    for (design, y), (fit, Q) in zip(problems[::-1], cold[::-1]):
        warm, warm_Q = solve_least_squares(design, y, return_basis=True)
        assert warm.coefficients.tobytes() == fit.coefficients.tobytes()
        assert warm.fitted.tobytes() == fit.fitted.tobytes()
        assert warm.rss == fit.rss
        assert warm_Q.tobytes() == Q.tobytes()
    assert core._workspace.cache_info().misses == 2 * len(problems)


def test_nonfinite_design_raises_value_error():
    rng = np.random.default_rng(8)
    for bad in (np.inf, -np.inf, np.nan):
        design = rng.standard_normal((10, 3))
        design[4, 1] = bad
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            solve_least_squares(design, rng.standard_normal(10))
