"""Exception types shared by all hypopq modules."""


class HypopqError(Exception):
    """Base class for all library errors."""


class InvalidParam(HypopqError):
    """A parameter violates its admissibility constraints."""


class NonConvergent(HypopqError):
    """A series did not satisfy the stopping rule within the term cap."""


class StepTooSmall(HypopqError):
    """Finite-difference step so small that cancellation destroys all digits."""


class DomainExceeded(HypopqError):
    """An evaluation point left the admissible domain (e.g. c outside (0,1))."""


class PoleHit(HypopqError):
    """Evaluation at (or too near) a pole of a rational expression."""


class PrecisionExhausted(HypopqError):
    """Two-precision agreement (or an escalation ladder) left fewer
    significant digits than required."""


class SingularStep(HypopqError):
    """A recurrence step hit a vanishing denominator."""

    def __init__(self, message, index=None, which=None):
        super().__init__(message)
        self.index = index
        self.which = which
