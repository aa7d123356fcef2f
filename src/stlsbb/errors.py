"""Exception types shared across the package."""


class StlsbbError(Exception):
    """Base class for all package-specific errors."""


class NonpositiveCurvatureError(StlsbbError):
    """The secant pair has s'y <= 0, so no BB-type steplength is defined."""


class InvalidParameterError(StlsbbError):
    """A parameter is outside its admissible range."""


class MissingStateError(StlsbbError):
    """A steplength policy needs carried state that was not provided."""


class DimensionMismatchError(StlsbbError):
    """Vector shapes do not agree."""


class DimensionTooSmallError(StlsbbError):
    """The requested problem dimension is too small for the chosen recipe."""


class InvalidSettingError(StlsbbError):
    """A spectrum recipe was requested with incompatible parameters."""


class InvalidBracketError(StlsbbError):
    """A scalar search bracket is empty or reversed."""


class DegenerateInputError(StlsbbError):
    """Input is degenerate for the requested computation (e.g. y = 0)."""


class LineSearchStallError(StlsbbError):
    """Backtracking hit its cap; objective and gradient likely disagree."""


class AllFailedOnProblemError(StlsbbError):
    """A performance profile needs at least one finite cost per problem."""
