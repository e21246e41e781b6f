"""Exception types shared across the package."""


class PerifouError(Exception):
    """Base class for all package-specific errors."""


class NonnegativeEmbeddingFailure(PerifouError):
    """Circulant embedding produced a significantly negative eigenvalue."""


class FactorizationFailure(PerifouError):
    """Covariance factorization rejected (size guard or not positive definite)."""


class DegenerateDesign(PerifouError):
    """Residual variance of the path is numerically zero; the
    mean-reversion rate is unidentifiable from these data."""


class InvalidInput(PerifouError, ValueError):
    """A refused input: a malformed configuration, a value outside its
    admissible range, a path off the uniform grid, or an unreadable path
    file.  The message names the key or line at fault."""
