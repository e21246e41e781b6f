"""Exact-covariance fractional Gaussian noise.

The increments of fractional Brownian motion on a uniform grid with spacing
``step`` form a stationary Gaussian sequence with covariance
``step**(2H) * rho_H(|i - j|)``.  Samplers here reproduce that covariance
exactly: an O(N log N) circulant embedding for production use and an
O(N^2) Cholesky factorization as a small-size test oracle.  The circulant
spectrum is symmetric, so the sampler folds each pair of frequencies
k, M-k into a Hermitian half spectrum and needs one real inverse FFT per
draw; it returns what the real part of a complex FFT of the full spectrum
would, to rounding.  All draws are deterministic functions of the seed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from perifou.errors import FactorizationFailure, InvalidInput, NonnegativeEmbeddingFailure

# fGn circulant embeddings are nonnegative definite for every H in (0, 1);
# the tolerance only absorbs FFT rounding.
EIGENVALUE_TOLERANCE = 1e-10

# Above this size an O(N^2) factorization is rejected.
CHOLESKY_COUNT_GUARD = 1 << 13

_MASK64 = (1 << 64) - 1

# Each thread's draw buffers (normals, half spectrum and inverse transform)
# for its last embedding size.  Allocated afresh, these 4 MB at M = 2^17 made
# glibc trim its heap after a draw and fault ~1500 pages back in at the next.
_DRAW_BUFFERS = threading.local()


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
            raise InvalidInput(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.step <= 0.0:
            raise InvalidInput(f"step must be positive, got {self.step}")
        if self.count < 1:
            raise InvalidInput(f"count must be >= 1, got {self.count}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")


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
    lags = np.arange(count)
    rho = fgn_autocovariance(hurst, lags)
    return step ** (2.0 * hurst) * rho[np.abs(lags[:, None] - lags)]


def _embedding_eigenvalues(hurst: float, count: int) -> np.ndarray:
    """Eigenvalues lambda_0..lambda_{M/2} of the smallest power-of-two
    circulant embedding, of size M >= 2*(count-1).

    The first row is symmetric, so lambda_k = lambda_{M-k} and the real FFT
    of the row gives the whole spectrum.
    """
    size = 1 << max(1, 2 * (count - 1) - 1).bit_length()
    rho = fgn_autocovariance(hurst, np.arange(size // 2 + 1))
    return np.fft.rfft(np.concatenate([rho, rho[-2:0:-1]])).real


@lru_cache(maxsize=32)
def _half_spectrum_weights(hurst: float, count: int) -> np.ndarray:
    """Weights w_k = M * sqrt(lambda_k / M) of the folded half spectrum,
    halved for 0 < k < M/2, after checking that no eigenvalue is
    materially negative."""
    eig = _embedding_eigenvalues(hurst, count)
    floor = -EIGENVALUE_TOLERANCE * eig.max()
    if eig.min() < floor:
        raise NonnegativeEmbeddingFailure(
            f"circulant eigenvalue {eig.min():.3e} below tolerance {floor:.3e} "
            f"(hurst={hurst}, count={count})"
        )
    half = eig.size - 1
    weights = np.sqrt(np.maximum(eig, 0.0) * (2 * half))
    weights[1:half] *= 0.5
    weights.setflags(write=False)
    return weights


def generate_fgn_circulant(spec: FgnSpec) -> np.ndarray:
    """Draw fGn by circulant embedding of the Toeplitz covariance.

    The covariance is embedded in a circulant of power-of-two size
    M >= 2*(count-1) with eigenvalues lambda_k.  With a_k = sqrt(lambda_k/M)
    and two blocks z1, z2 of M standard normals, the draw is the real part
    of the first ``count`` entries of FFT(a * (z1 + i z2)), scaled by
    ``step**hurst``.  Since lambda_k = lambda_{M-k}, the terms at k and M-k
    fold into one Hermitian half spectrum
        Y_0 = a_0 z1_0,  Y_{M/2} = a_{M/2} z1_{M/2},
        Y_k = a_k/2 * ((z1_k + z1_{M-k}) - i (z2_k - z2_{M-k})),  0 < k < M/2,
    and the draw is M * irfft(Y) over the same first ``count`` entries: one
    real inverse transform of size M in place of a complex one.

    Raises NonnegativeEmbeddingFailure if an eigenvalue is materially
    negative.
    """
    rng = np.random.default_rng(spec.seed)
    scale = spec.step**spec.hurst
    if spec.count == 1:
        return scale * rng.standard_normal(1)
    weights = _half_spectrum_weights(spec.hurst, spec.count)
    half = weights.size - 1
    size = 2 * half
    z, spectrum, draw = getattr(_DRAW_BUFFERS, "last", (np.empty(0), None, None))
    if z.size != 2 * size:
        # imag[0] and imag[half] of the spectrum are never written and stay 0
        spectrum = np.zeros(half + 1, dtype=complex)
        z, draw = np.empty(2 * size), np.empty(size)
        _DRAW_BUFFERS.last = z, spectrum, draw
    rng.standard_normal(out=z)  # the same stream as two calls of size M
    z1, z2 = z[:size], z[size:]
    spectrum.real = z1[: half + 1]
    spectrum.real[1:half] += z1[:half:-1]
    np.subtract(z2[:half:-1], z2[1:half], out=spectrum.imag[1:half])
    spectrum *= weights
    np.fft.irfft(spectrum, n=size, out=draw)
    return scale * draw[: spec.count]


def generate_fgn_cholesky(spec: FgnSpec) -> np.ndarray:
    """Draw fGn through a dense lower-triangular covariance factorization.

    Exact like the circulant sampler but O(count^2); rejected above
    CHOLESKY_COUNT_GUARD increments.
    """
    if spec.count > CHOLESKY_COUNT_GUARD:
        raise FactorizationFailure(
            f"count={spec.count} exceeds O(n^2) factorization guard {CHOLESKY_COUNT_GUARD}"
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
