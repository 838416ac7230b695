"""Exception types shared across the package."""


class CurvError(Exception):
    """Base class for package-specific errors."""


class OutOfDomainError(CurvError):
    """Evaluation point lies outside a field's domain (margin included)."""


class NonFiniteJetError(CurvError):
    """A jet evaluation produced NaN or infinity."""


class MetricNotPositiveError(CurvError):
    """A base metric failed the positive-definiteness check."""


class NonRegularPointError(CurvError):
    """|grad u| is below the regularity threshold at a slice point.

    exact_zero distinguishes an analytically vanishing gradient (the normal
    is vertical and no slice frame exists) from a merely tiny one.
    """

    def __init__(self, message: str, grad_norm: float = 0.0, exact_zero: bool = False):
        super().__init__(message)
        self.grad_norm = float(grad_norm)
        self.exact_zero = bool(exact_zero)


class NotOnLevelError(CurvError):
    """The queried point does not lie on the requested level set."""


class ConformalFactorError(CurvError):
    """Conformal factor is non-positive where it must be positive."""


class NoTouchError(CurvError):
    """Barrier slide: the field is strictly negative, no touching occurs."""
