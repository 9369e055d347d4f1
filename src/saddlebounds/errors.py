"""Exception types shared across the package."""


class SaddleBoundsError(Exception):
    """Base class for every error raised by this package."""


class ConvergenceError(SaddleBoundsError):
    """A dense eigenvalue or singular value iteration failed to converge."""


class ProblemValidationError(SaddleBoundsError):
    """A saddle problem violates one of its structural invariants."""


class NotPositiveSemidefiniteError(ProblemValidationError):
    """The leading block has an eigenvalue below the semidefinite tolerance."""


class RankDeficientError(ProblemValidationError):
    """The constraint block is not full row rank within tolerance."""


class SingularKError(ProblemValidationError):
    """The assembled saddle matrix is numerically singular."""


class AugmentedBlockSingularError(SaddleBoundsError):
    """The scalar weight gamma * I fails to regularize A: A + gamma B^T B
    is not positive definite, so ``wbound`` has no value at gamma; or, in
    the inverse-identity check, the augmented saddle matrix is
    numerically singular, so the identity is undefined at gamma."""


class RankAssumptionError(SaddleBoundsError):
    """Operation needs the lowest-rank case rank(A) = n - m."""


class RankTooLowError(SaddleBoundsError):
    """rank(A) < n - m, which forces the saddle matrix to be singular."""


class ZeroAngleError(SaddleBoundsError):
    """Minimum principal angle is numerically zero; no finite optimal gamma."""


class ParameterOutOfRangeError(SaddleBoundsError):
    """A parameter lies outside its documented domain, or a matrix entry is
    not a finite real number."""


class GenerationFailedError(SaddleBoundsError):
    """A seeded generator exhausted its retry budget or failed a post check."""


class SizeCapError(SaddleBoundsError):
    """The problem exceeds the dense oracle size cap."""


class ParseError(SaddleBoundsError):
    """Malformed Matrix Market input.

    Carries the 1-based line number and, when a specific token is at
    fault, the 1-based character column where it starts.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class StructureError(SaddleBoundsError):
    """A matrix has the wrong shape or structure: not 2-D, empty, not
    square or not symmetric where that is needed, or blocks that do not
    fit the saddle-point block structure."""
