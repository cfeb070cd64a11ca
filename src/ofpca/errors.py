"""Exception types raised by the library."""


class OfpcaError(Exception):
    """Base class for all library errors."""


class SpaceMismatch(OfpcaError):
    """Operands live in different metric spaces."""


class InvalidObject(OfpcaError):
    """Data violates the invariants of its metric space."""


class BadWeights(OfpcaError):
    """Barycenter weights do not sum to one (or are malformed)."""


class TooFewTrajectories(OfpcaError):
    """The pairwise estimator needs at least two trajectories."""


class DegenerateVariance(OfpcaError):
    """A correlation margin has zero metric variance."""


class BadRank(OfpcaError):
    """Requested more eigencomponents than grid points."""


class InvalidSurface(OfpcaError):
    """A kernel surface is not symmetric or otherwise malformed."""


class DegenerateSpectrum(OfpcaError):
    """All clipped eigenvalues are zero; fractions are undefined."""


class NonIntegrableEigenfunction(OfpcaError):
    """Eigenfunction integrates to (numerically) zero; the object
    principal component for this direction is undefined."""


class SchemaError(OfpcaError):
    """An input file does not match the expected schema."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
