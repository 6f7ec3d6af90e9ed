"""Exception hierarchy shared across the package."""

__all__ = ["BDHeightError", "ParameterError", "CapacityError", "SimulationAbort"]


class BDHeightError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(BDHeightError, ValueError):
    """A constructor or operation received arguments outside its domain."""


class CapacityError(BDHeightError):
    """A computation was refused because it exceeds a configured size cap."""


class SimulationAbort(BDHeightError, RuntimeError):
    """A sampling run was stopped by the per-excursion step circuit breaker.

    ``steps_taken`` is the step count at which it tripped; the message
    says how many of the batch's samples completed.
    """

    def __init__(self, *args, steps_taken=None):
        super().__init__(*args)
        self.steps_taken = steps_taken
