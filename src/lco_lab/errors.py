"""Exception types shared across the library.

Every error raised on a contract violation derives from LcoLabError so
callers can catch library failures with a single except clause.
"""


class LcoLabError(Exception):
    """Base class for all library errors."""


class InvalidInputError(LcoLabError, ValueError):
    """An argument violates a documented precondition."""


class DivergenceUndefinedError(LcoLabError, ValueError):
    """KL divergence requested where q lacks support on p."""


class DegenerateRatioError(LcoLabError, ValueError):
    """Behavioral probability of the sampled action is numerically zero."""


class InactiveRegionError(LcoLabError, ValueError):
    """Clipped-surrogate curvature requested where the gradient is gated off."""


class KinkError(LcoLabError, ValueError):
    """Numeric differentiation stencil leaves where ``Objective.smooth`` holds: a clip boundary."""


class WitnessSearchError(LcoLabError, RuntimeError):
    """The Hessian's least eigenvalue is not negative enough to witness non-convexity."""


class InvalidStateError(LcoLabError, KeyError):
    """State not in the model's state space."""


class StepSizeError(LcoLabError, ValueError):
    """Gradient-descent step size yields spectral radius >= 1."""

    def __init__(self, rho: float):
        super().__init__(f"spectral radius {rho:.6g} >= 1; reduce the step size")
        self.rho = rho


class NonFiniteGradientError(LcoLabError, FloatingPointError):
    """Training produced a NaN or infinite gradient."""


class NonFiniteLossError(LcoLabError, FloatingPointError):
    """Training produced a NaN or infinite episode loss."""


class NonFiniteModelError(LcoLabError, FloatingPointError):
    """Training met parameters whose logits are not finite, or whose sigma_max overflows."""


class NonFiniteOutputError(LcoLabError, FloatingPointError):
    """A number bound for an output file is not finite."""
