"""Exact-covariance fractional Gaussian noise.

The increments of fractional Brownian motion on a uniform grid with spacing
``step`` form a stationary Gaussian sequence with covariance
``step**(2H) * rho_H(|i - j|)``.  Samplers here reproduce that covariance
exactly: an O(N log N) circulant embedding for production use and an
O(N^2) Cholesky factorization as a small-size test oracle.
All draws are deterministic functions of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from perifou.errors import FactorizationFailure, NonnegativeEmbeddingFailure

# fGn circulant embeddings are nonnegative definite for every H in (0, 1);
# the tolerance only absorbs FFT rounding.
EIGENVALUE_TOLERANCE = 1e-10

# Above this size an O(N^2) factorization is rejected.
CHOLESKY_COUNT_GUARD = 1 << 13

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def substream_seed(master_seed: int, *keys: int) -> int:
    """Derive a 64-bit sub-seed from a master seed and integer keys.

    Replicate r of a Monte Carlo run uses ``substream_seed(master, n, r)``
    so the draw depends only on (master_seed, n, r), never on scheduling.
    """
    s = master_seed & _MASK64
    for k in keys:
        s = _splitmix64(s ^ (int(k) & _MASK64))
    return _splitmix64(s)


@dataclass(frozen=True)
class FgnSpec:
    """Specification of one fractional Gaussian noise draw.

    ``count`` increments with marginal variance ``step**(2*hurst)``.
    """

    hurst: float
    step: float
    count: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.step <= 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


def fgn_autocovariance(hurst: float, lag):
    """Autocovariance rho_H(lag) of unit-step fGn increments.

    rho_H(n) = ((n+1)^{2H} + |n-1|^{2H} - 2 n^{2H}) / 2.  For a grid with
    spacing ``step`` the caller scales by ``step**(2H)``.  Accepts a scalar
    or an array of nonnegative lags.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    lags = np.asarray(lag, dtype=float)
    if np.any(lags < 0):
        raise ValueError("lags must be nonnegative")
    two_h = 2.0 * hurst
    rho = 0.5 * ((lags + 1.0) ** two_h + np.abs(lags - 1.0) ** two_h - 2.0 * lags**two_h)
    if np.isscalar(lag):
        return float(rho)
    return rho


def fgn_covariance(hurst: float, count: int, step: float = 1.0) -> np.ndarray:
    """Toeplitz covariance matrix of ``count`` fGn increments."""
    rho = fgn_autocovariance(hurst, np.arange(count))
    return step ** (2.0 * hurst) * scipy.linalg.toeplitz(rho)


@lru_cache(maxsize=32)
def _embedding_eigenvalues(hurst: float, count: int) -> np.ndarray:
    """Eigenvalues of the smallest power-of-two circulant embedding."""
    size = 1 << max(1, 2 * (count - 1) - 1).bit_length()
    half = size // 2
    rho = fgn_autocovariance(hurst, np.arange(half + 1))
    first_row = np.concatenate([rho, rho[-2:0:-1]])
    eig = np.fft.fft(first_row).real
    eig.setflags(write=False)
    return eig


def generate_fgn_circulant(spec: FgnSpec) -> np.ndarray:
    """Draw fGn by circulant embedding of the Toeplitz covariance.

    The covariance is embedded in a circulant of power-of-two size
    >= 2*(count-1), diagonalized by the FFT; a complex Gaussian spectrum is
    synthesized and transformed back, and the real part of the first
    ``count`` entries is returned, scaled by ``step**hurst``.

    Raises NonnegativeEmbeddingFailure if an eigenvalue is materially
    negative.
    """
    rng = np.random.default_rng(spec.seed)
    scale = spec.step**spec.hurst
    if spec.count == 1:
        return scale * rng.standard_normal(1)
    eig = _embedding_eigenvalues(spec.hurst, spec.count)
    floor = -EIGENVALUE_TOLERANCE * eig.max()
    if eig.min() < floor:
        raise NonnegativeEmbeddingFailure(
            f"circulant eigenvalue {eig.min():.3e} below tolerance {floor:.3e} "
            f"(hurst={spec.hurst}, count={spec.count})"
        )
    size = eig.size
    amplitude = np.sqrt(np.maximum(eig, 0.0) / size)
    spectrum = amplitude * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    draw = np.fft.fft(spectrum)[: spec.count].real
    return scale * draw


def generate_fgn_cholesky(spec: FgnSpec, guard: int = CHOLESKY_COUNT_GUARD) -> np.ndarray:
    """Draw fGn through a dense lower-triangular covariance factorization.

    Exact like the circulant sampler but O(count^2); rejected above
    ``guard`` increments.
    """
    if spec.count > guard:
        raise FactorizationFailure(
            f"count={spec.count} exceeds O(n^2) factorization guard {guard}"
        )
    cov = fgn_covariance(spec.hurst, spec.count)
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(
            f"fGn covariance not numerically positive definite: {exc}"
        ) from exc
    rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal(spec.count)
    return spec.step**spec.hurst * (lower @ z)
