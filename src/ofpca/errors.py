"""Exception types raised by the library.  An ``InputError`` is the caller's
fault (the command line exits 2); any other ``OfpcaError`` exits 3."""


class OfpcaError(Exception):
    """Base class for all library errors."""


class InputError(OfpcaError):
    """The caller's input is at fault, not the computation."""


class SpaceMismatch(InputError):
    """Operands live in different metric spaces."""


class InvalidObject(InputError):
    """Data violates the invariants of its metric space."""


class BadWeights(InputError):
    """Barycenter weights do not sum to one (or are malformed)."""


class TooFewTrajectories(InputError):
    """The pairwise estimator needs at least two trajectories."""


class DegenerateVariance(OfpcaError):
    """A correlation margin has zero metric variance."""


class BadRank(InputError):
    """Requested more eigencomponents than grid points."""


class InvalidSurface(OfpcaError):
    """A kernel surface is not symmetric or otherwise malformed."""


class NonIntegrableEigenfunction(OfpcaError):
    """Eigenfunction integrates to (numerically) zero; the object
    principal component for this direction is undefined."""


class SchemaError(InputError):
    """An input file does not match the expected schema."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
