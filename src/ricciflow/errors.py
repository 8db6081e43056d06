"""Exception types shared across the package."""

from .spaces import _public


class RicciFlowError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RicciFlowError, ValueError):
    """An input lies outside the domain where a closed form is defined."""


class StepSizeUnderflow(RicciFlowError):
    """The adaptive integrator could not continue (step size collapsed)."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class NonPositiveState(RicciFlowError):
    """A run sampled a nonpositive state (a start that is not positive raises ValueError)."""


class NoExitWithinHorizon(RicciFlowError):
    """The flow never crossed the positivity-cone boundary before max_time."""


__all__ = _public(globals())
