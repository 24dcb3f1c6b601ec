"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration value violates an invariant (message names the first one)."""


class CapacityExceededError(ValueError):
    """Devices do not fit into the available (cluster, rank) slots."""


class SingletonClusterError(ValueError):
    """A cluster would end up with exactly one member and no legal repair exists."""


class InvalidAssignmentError(ValueError):
    """A cluster assignment failed structural validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "assignment fails structural checks: "
            + "; ".join(str(v) for v in self.violations)
        )


class NonFiniteRateError(ValueError):
    """A candidate rate came out NaN or infinite, so no argmax is meaningful."""


class UnassignedDeviceError(LookupError):
    """The device is not placed in any cluster."""


class DegenerateRatesError(ValueError):
    """All rates are zero; the fairness index is undefined."""


class NonmonotoneTailError(ValueError):
    """A tail-power vector is not nonincreasing, so no power vector maps to it."""


class InfeasibleClusterError(ValueError):
    """No power allocation can meet the cluster's rate thresholds within budget."""


class ConvergenceError(RuntimeError):
    """The solver missed its tolerances within the iteration cap.

    Carries the best iterate found so callers can still inspect it.
    """

    def __init__(self, message, best_powers=None, best_objective=None):
        super().__init__(message)
        self.best_powers = best_powers
        self.best_objective = best_objective


class InstanceTooLargeError(ValueError):
    """The instance exceeds the documented bounds of an exhaustive search."""


class GridResolutionError(RuntimeError):
    """The search grid contains no feasible point; refine the step size."""
