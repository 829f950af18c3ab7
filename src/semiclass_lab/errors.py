"""Exception types shared across the package."""


class SemiclassError(Exception):
    """Base class for all package-specific errors."""


class GrazingError(SemiclassError):
    """Billiard collision too close to tangential for a stable reflection."""

    def __init__(self, message, bounce_index=None):
        super().__init__(message)
        self.bounce_index = bounce_index


class QuantizationConditionError(SemiclassError):
    """Map fails the parity (checkerboard) condition a*b, c*d even."""


class InvalidObservable(SemiclassError):
    """Trigonometric coefficients break the reality or integer-frequency rule."""


class AliasingError(SemiclassError):
    """Requested Fourier cutoff exceeds the Nyquist limit N/2."""


class NumericalError(SemiclassError):
    """An eigensolver or linear-algebra routine failed to converge."""


class DegenerateConstruction(SemiclassError):
    """Time-averaged state vanished by destructive interference."""


class GeometryError(SemiclassError):
    """Discretization produced an empty or invalid interior."""


class UnderResolved(SemiclassError):
    """Sampling too coarse for the requested scale: too many empty Bowen
    balls (enlarge the cloud or reduce T), or a grid too coarse for the
    wavelength (refine the spacing)."""


class ConfigError(SemiclassError):
    """Invalid experiment configuration."""
