"""Exception types shared across the package."""


class ChannelLabError(Exception):
    """Base class for all package errors."""


class AssumptionViolation(ChannelLabError):
    """Channel profile violates the standing geometric assumptions."""


class OutOfRange(ChannelLabError):
    """Requested parameter lies outside the admissible range."""


class DegenerateGrid(ChannelLabError):
    """Grid resolution below the supported minimum."""


class LinearSolveFailure(ChannelLabError):
    """A sparse linear system could not be solved."""


class NonConvergence(ChannelLabError):
    """Nonlinear iteration failed to reach the residual tolerance."""

    def __init__(self, message, best_residual=None, iterations=None,
                 factorizations=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.iterations = iterations
        self.factorizations = factorizations


class EigenFailure(ChannelLabError):
    """Eigen solve failed or returned a pair that fails its residual check."""


class AscentStagnation(ChannelLabError):
    """Gradient ascent failed to improve from any start."""


class SaddleSolveFailure(ChannelLabError):
    """Constrained (saddle-point) solve failed."""


class NonMonotoneSamples(ChannelLabError):
    """Sample sequence expected to be nondecreasing is not."""


class InsufficientTail(ChannelLabError):
    """Too few tail samples for an asymptotic fit."""


class LemmaViolation(ChannelLabError):
    """A theorem-backed conclusion failed numerically: implementation bug."""


class HypothesisNotMet(ChannelLabError):
    """Input does not satisfy the hypotheses required by the check."""


class ParseError(ChannelLabError):
    """Scenario or expression text could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ValidationError(ChannelLabError):
    """Scenario field failed validation."""

    def __init__(self, field, constraint):
        super().__init__(f"{field}: {constraint}")
        self.field = field
        self.constraint = constraint
