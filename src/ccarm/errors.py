"""Exception hierarchy shared across the package."""


class CcarmError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CcarmError):
    """Invalid or incomplete arm parameter document."""


class ConfigurationError(CcarmError, ValueError):
    """Configuration or tip load outside the model's domain (non-finite, theta < 0, ...)."""


class InfeasibleTensionsError(CcarmError):
    """No non-negative tendon tension vector realizes the requested wrench."""


class SingularConfigurationError(CcarmError):
    """Linearization point where the task-space stiffness is undefined."""

    def __init__(self, message, sigma_min=None, tolerance=None):
        super().__init__(message)
        self.sigma_min = sigma_min
        self.tolerance = tolerance


class ConvergenceError(CcarmError):
    """Iterative solver exhausted its budget before meeting its tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class UnreachableTargetError(CcarmError):
    """Tip anchor lies outside the arm's reachable chord length."""
