"""Exception types shared across the package."""


class DomainError(Exception):
    """An input the model cannot serve, not a bug: the harness's error rows."""


class ConfigError(DomainError, ValueError):
    """A configuration value violates an invariant (message names the first one)."""


class CapacityExceededError(DomainError, ValueError):
    """Devices do not fit into the available (cluster, rank) slots."""


class SingletonClusterError(DomainError, ValueError):
    """A cluster would end up with exactly one member and no legal repair exists."""


class InvalidAssignmentError(DomainError, ValueError):
    """A cluster assignment failed structural validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "assignment fails structural checks: "
            + "; ".join(str(v) for v in self.violations)
        )


class NonFiniteRateError(DomainError, ValueError):
    """A candidate rate came out NaN or infinite, so no argmax is meaningful."""


class UnassignedDeviceError(DomainError, LookupError):
    """The device is not placed in any cluster."""


class InvalidPowerError(DomainError, ValueError):
    """A transmit power is negative or not finite (message names the first)."""


class DegenerateRatesError(DomainError, ValueError):
    """All rates are zero; the fairness index is undefined."""


class NonmonotoneTailError(DomainError, ValueError):
    """A tail-power vector is not nonincreasing, so no power vector maps to it."""


class InfeasibleClusterError(DomainError, ValueError):
    """No power allocation can meet the cluster's rate thresholds within budget."""


class ConvergenceError(DomainError, RuntimeError):
    """The solver's point failed its optimality certificate.

    Carries that point so callers can still inspect it.
    """

    def __init__(self, message, best_powers=None, best_objective=None):
        super().__init__(message)
        self.best_powers = best_powers
        self.best_objective = best_objective


class InstanceTooLargeError(DomainError, ValueError):
    """The instance exceeds the documented bounds of an exhaustive search."""


class GridResolutionError(DomainError, RuntimeError):
    """The search grid contains no feasible point; refine the step size."""
