"""Gaussian least-squares backbone shared by every model fit.

All tree models in this package reduce to ordinary least squares on an
expanded design matrix, so the numerical core lives here: a validated
data container, a rank-checked QR solver, the projection off a basis,
and the profile Gaussian log-likelihood at the variance MLE ``rss / n``.

The solver calls LAPACK ``dgeqp3``, ``dorgqr`` and ``dtrtrs`` in the
sequence ``scipy.linalg.qr(..., mode="economic", pivoting=True)`` and
``scipy.linalg.solve_triangular`` use, so its bits are theirs without
their per-call Python overhead.  scipy queries the optimal workspace
before every ``dgeqp3`` and ``dorgqr`` call; that size depends only on
the routine and the array shapes, so here it is queried once per shape
and reused, and each call gets the very ``lwork`` scipy's would.  The
routines come from scipy's compiled extension ``scipy/linalg/_flapack``, loaded on
its own: ``scipy.linalg.lapack`` re-exports the same wrapper objects, but
importing it runs ``scipy/linalg/__init__``, which loads some 300
modules the solver never uses (``numpy.f2py`` and scipy's array-API
layer among them) and so dominates the start-up of every CLI process.
If the extension cannot be loaded that way, ``scipy.linalg.lapack`` is
imported instead.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFitError,
    DimensionMismatchError,
    RankDeficientError,
    ValidationError,
)


def _flapack_path() -> str:
    """File of scipy's compiled LAPACK extension, found without importing
    scipy."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    raise ImportError("scipy/linalg/_flapack not found")


def _load_lapack():
    """scipy's LAPACK wrappers without ``scipy/linalg/__init__``.

    The extension registers itself in ``sys.modules``, so a later
    ``import scipy.linalg`` finds it there and its ``lapack`` module
    hands out the very objects returned here.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        spec = importlib.util.spec_from_file_location(name, _flapack_path())
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except ImportError:
        from scipy.linalg import lapack

        return lapack


lapack = _load_lapack()

# A diagonal entry of a design's pivoted R factor below RANK_RTOL times
# the largest pivot counts as zero: the design is rank deficient.
RANK_RTOL = 1e-10

# A split candidate whose added column keeps less than this share of its
# squared norm off the basis (sin^2 of its angle to the span) is skipped.
DEGENERATE_RTOL = 1e-10

# A kept share this small has lost too many digits to cancellation to
# screen by: a downdated split score is rescored, an FP tuple refit.
SCREEN_FLOOR = 1e-6

# A residual sum of squares this small relative to ||y||^2 is QR
# round-off on a response the design reproduces exactly (for example a
# constant y against an intercept); it is treated as exactly zero so
# saturated fits are flagged instead of reporting a bogus likelihood.
RSS_ZERO_RTOL = 1e-28


@dataclass(frozen=True)
class Dataset:
    """Response vector with a named covariate matrix.

    Attributes
    ----------
    y : ndarray, shape (n,)
        Response values, a read-only copy of those passed in.
    X : ndarray, shape (n, p)
        Covariate matrix, one column per covariate, a read-only copy.
    names : tuple of str
        Unique column labels, used in reports and serialised models.
    """

    y: np.ndarray
    X: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        # The checks below must hold for as long as the dataset lives, so
        # it keeps copies of the arrays that no caller can write to.
        y, X = (np.array(a, dtype=float) for a in (self.y, self.X))
        for name, a in (("y", y), ("X", X)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if y.ndim != 1 or X.ndim != 2:
            raise ValidationError("y must be 1-d and X 2-d")
        n, p = X.shape
        if y.shape[0] != n:
            raise ValidationError(f"y has {y.shape[0]} rows, X has {n}")
        if p < 1:
            raise ValidationError("at least one covariate is required")
        # 2p + 2 is the smallest size at which a one-split model per
        # covariate is even conceivable; below that the search is vacuous.
        if n < 2 * p + 2:
            raise ValidationError(f"need n >= 2p + 2 = {2 * p + 2}, got n = {n}")
        if not (np.isfinite(y).all() and np.isfinite(X).all()):
            raise ValidationError("y and X must be finite")
        check_response_scale(y[None])
        if len(self.names) != p:
            raise ValidationError(f"expected {p} column names, got {len(self.names)}")
        if len(set(self.names)) != p:
            raise ValidationError("column names must be unique")
        # A constant column is collinear with the intercept and a repeated
        # one with its twin, so every design built on them is singular;
        # past the float range, fits and split gains overflow.
        seen: dict[bytes, str] = {}
        square_sums = _sums_of_squares(X.T)
        # + 0.0 turns -0.0 into 0.0
        for name, column, square_sum in zip(self.names, X.T + 0.0, square_sums):
            if square_sum == math.inf:
                raise ValidationError(f"the sum of squares of column {name!r} overflows: "
                                      f"rescale it")
            if (column == column[0]).all():
                raise ValidationError(f"column {name!r} is constant")
            twin = seen.setdefault(column.tobytes(), name)
            if twin != name:
                raise ValidationError(f"column {name!r} duplicates column {twin!r}")

    def __reduce__(self):
        # an unpickled dataset is checked and copied like a new one
        return Dataset, (self.y, self.X, self.names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @classmethod
    def from_arrays(cls, y, X, names=None) -> "Dataset":
        """Build a validated Dataset, coercing inputs to float arrays."""
        y = np.ascontiguousarray(y, dtype=float)
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if names is None:
            names = tuple(f"x{j + 1}" for j in range(X.shape[1] if X.ndim == 2 else 0))
        return cls(y=y, X=X, names=tuple(names))


def _sums_of_squares(rows: np.ndarray) -> np.ndarray:
    """The sum of squares of each row of a 2-d array, inf where it
    overflows the float range, without a warning."""
    with np.errstate(over="ignore"):
        return np.einsum("ij,ij->i", rows, rows)


def check_response_scale(Y: np.ndarray) -> None:
    """Refuse responses (the rows of Y, all finite) whose sum of squares
    overflows the float range: their fits would overflow too."""
    if (_sums_of_squares(Y) == math.inf).any():
        raise ValidationError("the sum of squares of y overflows: rescale y")


@dataclass(frozen=True)
class LinearFit:
    """Result of one least-squares solve.

    ``sigma2_hat`` is the maximum-likelihood variance ``rss / n``, ``log_lik``
    the Gaussian log-likelihood profiled at it; the arrays are read-only.  A
    fit that interpolates exactly (``rss == 0``) carries ``log_lik = inf``;
    downstream likelihood consumers treat that as a degenerate model.
    """

    coefficients: np.ndarray
    fitted: np.ndarray
    rss: float
    sigma2_hat: float
    log_lik: float
    n_params: int


def gaussian_log_lik(rss: float, n: int) -> float:
    """Profile Gaussian log-likelihood at the variance MLE rss / n.

    Parameters
    ----------
    rss : float
        Residual sum of squares, strictly positive.
    n : int
        Number of observations, at least 1.

    Returns
    -------
    float
        ``-(n / 2) * (log(2 * pi * (rss / n)) + 1)``.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if rss < 0:
        raise ValidationError(f"rss must be nonnegative, got {rss}")
    if rss == 0:
        raise DegenerateFitError("zero residual sum of squares: likelihood is unbounded")
    return -0.5 * n * (math.log(2.0 * math.pi * (rss / n)) + 1.0)


def solve_least_squares(design, y, return_basis: bool = False):
    """Least squares via column-pivoted QR with an explicit rank check.

    Parameters
    ----------
    design : ndarray, shape (n, q)
        Design matrix with q <= n.
    y : ndarray, shape (n,) or (m, n)
        Response vector, or m responses that share the one
        factorisation of the design; each is solved as it would be alone.
    return_basis : bool
        When True, also return the orthonormal basis Q of the column
        space (used by the split search to score rank-one updates).

    Returns
    -------
    LinearFit or (LinearFit, ndarray); a list of m fits for m responses.
    The coefficients, fitted values and Q are read-only.

    Raises
    ------
    RankDeficientError
        If any pivot falls below ``RANK_RTOL`` times the largest pivot.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    if design.ndim != 2 or y.ndim not in (1, 2) or design.shape[0] != y.shape[-1]:
        raise DimensionMismatchError(
            f"incompatible shapes {design.shape} and {y.shape}"
        )
    n, q = design.shape
    if q < 1 or q > n:
        raise DimensionMismatchError(f"need 1 <= q <= n, got q = {q}, n = {n}")

    Q, R, piv = _pivoted_qr(design)
    diag = np.abs(R.diagonal())
    if diag[0] == 0.0 or diag.min() < RANK_RTOL * diag[0]:
        rank = 0 if diag[0] == 0.0 else int(np.sum(diag >= RANK_RTOL * diag[0]))
        raise RankDeficientError(f"design has numerical rank {rank} < {q}")

    Q.setflags(write=False)
    if y.ndim == 1:
        fit = _fit_factored(design, Q, R, piv, y)
    else:
        fit = [_fit_factored(design, Q, R, piv, response) for response in y]
    if return_basis:
        return fit, Q
    return fit


def orthogonal_part(Q, B) -> np.ndarray:
    """The part of the columns B off the orthonormal columns of a basis Q,
    (n, q) or a stack (w, n, q) with B to match: ``B - Q(Q^T B)`` twice, the
    second pass restoring what cancellation lost (Parlett 1980, "twice is enough")."""
    for _ in range(2):
        B = B - Q @ (Q.swapaxes(-1, -2) @ B)
    return B


@functools.lru_cache(maxsize=1024)
def _workspace(routine, *shapes) -> int:
    """The optimal ``lwork`` of a LAPACK wrapper for arguments of these
    shapes, from a ``lwork=-1`` query, which reads no array values."""
    return int(routine(*(np.zeros(shape) for shape in shapes), lwork=-1)[-2][0])


@functools.lru_cache(maxsize=256)
def _strictly_lower(q: int):
    """Indices of the strictly lower triangle of a q x q array."""
    return np.tril_indices(q, -1)


def _lapack(routine, *args, **kwargs):
    """Call a LAPACK wrapper as ``scipy.linalg`` does, with the workspace
    its query gives (the blocked path, and so the bits, depend on
    ``lwork``); the outputs without ``work`` and ``info``."""
    lwork = _workspace(routine, *[arg.shape for arg in args])
    *out, _, info = routine(*args, lwork=lwork, **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine.__name__}")
    return out


def _pivoted_qr(design):
    """``scipy.linalg.qr(design, mode="economic", pivoting=True)`` for
    q <= n, the design left as it is."""
    if not np.isfinite(design).all():
        raise ValueError("array must not contain infs or NaNs")  # scipy's check and words
    q = design.shape[1]
    qr, jpvt, tau = _lapack(lapack.dgeqp3, design)
    R = qr[:q].copy()  # C order, as np.triu gives it
    R[_strictly_lower(q)] = 0.0
    Q, = _lapack(lapack.dorgqr, qr, tau, overwrite_a=1)
    return Q, R, jpvt - 1


def _fit_factored(design, Q, R, piv, y) -> LinearFit:
    """The fit of one response from the pivoted QR of the design."""
    n, q = design.shape
    # solve_triangular's path for a C-ordered R, the transposed lower
    # system (a 1 x 1 R, its other path, is one division either way)
    coef_piv, info = lapack.dtrtrs(R.T, Q.T @ y, lower=1, trans=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dtrtrs")
    coefficients = np.empty(q)
    coefficients[piv] = coef_piv
    fitted = design @ coefficients
    coefficients.setflags(write=False)
    fitted.setflags(write=False)
    resid = y - fitted
    rss = float(resid @ resid)
    if rss <= RSS_ZERO_RTOL * float(y @ y):
        rss = 0.0
    return LinearFit(
        coefficients=coefficients,
        fitted=fitted,
        rss=rss,
        sigma2_hat=rss / n,
        log_lik=math.inf if rss == 0.0 else gaussian_log_lik(rss, n),
        n_params=q,
    )
