"""Exception types shared across the package."""


class LinalgError(Exception):
    """Base class for dense linear algebra failures."""


class NotSymmetricError(LinalgError):
    """Input matrix is not symmetric within the requested tolerance."""


class NoConvergenceError(LinalgError):
    """LAPACK reported that an eigensolver or SVD did not converge."""


class RankDeficientError(LinalgError):
    """QR found a negligible diagonal entry in R."""


class SingularMatrixError(LinalgError):
    """A matrix to solve with is singular to working precision: LAPACK
    found it exactly singular, or its Frobenius condition number
    ||a|| ||a^-1|| is above the threshold or not finite."""


class DegenerateDiagonalError(Exception):
    """A diagonal entry of the lateral weight matrix fell below the floor.

    Signals divergence of a learning run; callers treat it as a trial
    failure rather than attempting recovery.
    """


class DegenerateSpectrumError(Exception):
    """Leading eigenvalues are too close for a unique subspace."""


class NonFiniteReadoutError(Exception):
    """A learner's filter or Procrustes error at an evaluation point is
    not finite, though its weights are."""


# Model failures that end a learning run: recorded as its divergence.
MODEL_ERRORS = (DegenerateDiagonalError, LinalgError, NonFiniteReadoutError)


class TrialDivergedError(Exception):
    """A learning run failed mid-trajectory.

    Attributes:
        iteration -- step index at which the underlying error occurred
    """

    def __init__(self, iteration, cause):
        super().__init__(f"trial diverged at iteration {iteration}: {cause}")
        self.iteration = iteration
        self.cause = cause


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes."""


class MalformedRowError(Exception):
    """A dataset file row could not be parsed.

    Attributes:
        line -- 1-based line number of the offending row
    """

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigParseError(Exception):
    """Configuration text is structurally invalid (bad syntax, unknown key)."""


class ConfigValidationError(Exception):
    """Configuration parsed but violates a constraint."""


class ReportFormatError(Exception):
    """A file is not a JSON report written by this package."""
