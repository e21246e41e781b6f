"""Exception types shared across the package."""


class PerifouError(Exception):
    """Base class for all package-specific errors."""


class NonnegativeEmbeddingFailure(PerifouError):
    """Circulant embedding produced a significantly negative eigenvalue."""


class FactorizationFailure(PerifouError):
    """Covariance factorization rejected (size guard or not positive definite)."""


class InvalidStep(PerifouError):
    """Simulation step does not divide the unit period exactly."""


class GridMismatch(PerifouError):
    """A sample path's grid, values or increments break the uniform-grid
    contract, or two sample paths do not share grid and driving increments."""


class PartialPeriod(PerifouError):
    """Observation window does not span a whole number of periods."""


class DegenerateDesign(PerifouError):
    """Residual variance of the path is numerically zero; the
    mean-reversion rate is unidentifiable from these data."""


class ConfigError(PerifouError):
    """Malformed or inadmissible configuration."""


class InvalidInput(PerifouError, ValueError):
    """A value outside its admissible range, or an unreadable path file."""
