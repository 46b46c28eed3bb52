"""Exception types shared across the package.

Two broad families matter to callers, and the type says which one an
error belongs to: problems with user-supplied input (bad data files,
out-of-range parameters) are ``ValidationError`` or a subclass of it,
and every other ``TsvcError`` is a failure during a computation
(rank-deficient designs, saturated fits, a DoF cell the source cannot
price).  The CLI exits 2 on the first family and 3 on the second.
"""


class TsvcError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(TsvcError, ValueError):
    """Invalid user-supplied data or parameters."""


class DomainError(ValidationError):
    """Argument outside the domain of a closed-form expression."""


class DimensionMismatchError(ValidationError):
    """Array shapes incompatible with the model or operation."""


class NonPositiveValuesError(ValidationError):
    """Nonpositive values fed to a transform that requires positivity."""


class RankDeficientError(TsvcError):
    """Design matrix numerically rank deficient."""


class DegenerateFitError(TsvcError):
    """Zero residual variance; the Gaussian likelihood is unbounded."""


class EmptyLeafError(TsvcError):
    """A tree leaf captures no training observations."""


class NoAdmissibleSplitError(TsvcError):
    """No candidate split satisfies the minimum leaf size."""


class MissingDofError(TsvcError):
    """A degrees-of-freedom source cannot supply a needed value."""


class OffGridError(MissingDofError):
    """Requested cell absent from a lookup table."""


class NoConvergenceError(TsvcError):
    """Iterative selection failed to stabilise within the cycle budget."""
