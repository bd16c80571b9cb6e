"""Exception types shared across the package."""


class SphereGapError(Exception):
    """Base class for all spheregap errors."""


class GammaPoleError(SphereGapError, ValueError):
    """Gamma function evaluated at a non-positive integer."""


class DomainError(SphereGapError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(SphereGapError, RuntimeError):
    """An iterative computation stopped short of the requested tolerance.

    The ``residual`` attribute carries the best accuracy actually achieved.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (achieved residual {residual:.3e})")
        self.residual = residual


class AssemblyError(SphereGapError, RuntimeError):
    """Discrete operator assembly produced an unusable matrix pair."""
