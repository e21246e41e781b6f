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

import ctypes
import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from perifou.errors import FactorizationFailure, InvalidInput, NonnegativeEmbeddingFailure

# fGn circulant embeddings are nonnegative definite for every H in (0, 1);
# the tolerance only absorbs FFT rounding.
EIGENVALUE_TOLERANCE = 1e-10

# Above this size an O(N^2) factorization is rejected.
CHOLESKY_COUNT_GUARD = 1 << 13

_MASK64 = (1 << 64) - 1

# fgn_autocovariance's binomial series: lag n keeps terms while C(2H, 2i) n^{-2i}
# can exceed 1e-17 of the first, ceil(ln(1e17) / (2 ln n)) terms, 29 at lag 2.
_SERIES_DIGITS = 17.0 * math.log(10.0) / 2.0
_SERIES_TERMS = math.ceil(_SERIES_DIGITS / math.log(2.0))
_SERIES_ENDS = [math.inf, math.inf] + [
    math.exp(_SERIES_DIGITS / (i - 1)) for i in range(2, _SERIES_TERMS + 1)
]
_SERIES_CHUNK = 1 << 14


def _series_terms(lag: float) -> int:
    return math.ceil(_SERIES_DIGITS / math.log(lag))

# glibc mallopt parameters, from malloc.h.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


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

    That second difference loses about eps n^2 relative at lag n, so it is
    taken only below lag 2, and at lag 1 as expm1((2H-1) log 2).  From lag
    2 on rho_H is the binomial series n^{2H-2} sum_{i>=1} C(2H, 2i) n^{2-2i},
    whose terms all have one sign, summed by Horner's rule to the last term
    above 1e-17 relative at that lag; so each value depends on (H, n) alone
    and lies within a few eps of the exact one.  Lags are taken in chunks
    that stay in cache, and most need two or three terms.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    lags = np.asarray(lag, dtype=float)
    if np.any(lags < 0):
        raise ValueError("lags must be nonnegative")
    two_h, flat = 2.0 * hurst, lags.reshape(-1)
    coefficients, c = [], 1.0
    for r in range(2 * _SERIES_TERMS + 1):  # C(2H, r), kept at even r >= 2
        if r >= 2 and r % 2 == 0:
            coefficients.append(c)
        c *= (two_h - r) / (r + 1)
    rho = np.empty(flat.size)
    for first in range(0, flat.size, _SERIES_CHUNK):
        n = np.maximum(flat[first : first + _SERIES_CHUNK], 2.0)
        inverse_square = np.multiply(n, n)
        np.reciprocal(inverse_square, out=inverse_square)
        total, most, least = np.zeros(n.size), _series_terms(n.min()), _series_terms(n.max())
        if most > least:  # Horner's steps i > least, on the lags below _SERIES_ENDS[i] alone
            few = np.flatnonzero(n < _SERIES_ENDS[least + 1])
            head, small, square = np.zeros(few.size), n[few], inverse_square[few]
            for i in range(most, least, -1):
                head *= square
                head += np.where(small < _SERIES_ENDS[i], coefficients[i - 1], 0.0)
            total[few] = head
        for i in range(least, 0, -1):
            total *= inverse_square
            total += coefficients[i - 1]
        out = rho[first : first + _SERIES_CHUNK]
        np.power(n, two_h - 2.0, out=out)
        out *= total
    below = flat < 2.0
    if below.any():
        n = flat[below]
        rho[below] = 0.5 * ((n + 1.0) ** two_h + np.abs(n - 1.0) ** two_h - 2.0 * n**two_h)
        rho[flat == 1.0] = math.expm1((two_h - 1.0) * math.log(2.0))
    if np.isscalar(lag):
        return float(rho[0])
    return rho.reshape(lags.shape)


def fgn_covariance(hurst: float, count: int, step: float = 1.0) -> np.ndarray:
    """Toeplitz covariance matrix of ``count`` fGn increments."""
    lags = np.arange(count)
    rho = fgn_autocovariance(hurst, lags)
    return step ** (2.0 * hurst) * rho[np.abs(lags[:, None] - lags)]


def embedding_size(count: int) -> int:
    """M, the smallest power of two >= 2*(count-1) (and >= 2): the size of the
    circulant that embeds the covariance of ``count`` increments."""
    return 1 << max(1, 2 * (count - 1) - 1).bit_length()


def _embedding_eigenvalues(hurst: float, count: int) -> np.ndarray:
    """Eigenvalues lambda_0..lambda_{M/2} of the smallest power-of-two
    circulant embedding, of size M >= 2*(count-1).

    The first row is symmetric, so lambda_k = lambda_{M-k} and the real FFT
    of the row gives the whole spectrum.  Each array is dropped once the
    next is made, and the spectrum's real part is copied out, so at most
    the row and its transform are held at once.
    """
    size = embedding_size(count)
    rho = fgn_autocovariance(hurst, np.arange(size // 2 + 1, dtype=float))
    row = np.concatenate([rho, rho[-2:0:-1]])
    del rho
    spectrum = np.fft.rfft(row)
    del row
    return spectrum.real.copy()


@lru_cache(maxsize=32)
def _half_spectrum_weights(hurst: float, count: int) -> np.ndarray:
    """Weights w_k = M * sqrt(lambda_k / M) of the folded half spectrum,
    halved for 0 < k < M/2, after checking that no eigenvalue is
    materially negative.  Built in place in the eigenvalues' array."""
    weights = _embedding_eigenvalues(hurst, count)
    floor = -EIGENVALUE_TOLERANCE * weights.max()
    if weights.min() < floor:
        raise NonnegativeEmbeddingFailure(
            f"circulant eigenvalue {weights.min():.3e} below tolerance {floor:.3e} "
            f"(hurst={hurst}, count={count})"
        )
    half = weights.size - 1
    np.maximum(weights, 0.0, out=weights)
    weights *= 2 * half
    np.sqrt(weights, out=weights)
    weights[1:half] *= 0.5
    weights.setflags(write=False)
    return weights


@cache
def _keep_heap_warm() -> None:
    """Stop glibc from trimming the heap top after every draw, once per process.

    glibc raises its trim threshold only to twice the largest mapped block
    freed so far (about 2 MB here), so after each draw at M = 2^17 it gave
    back the draw's arrays and ~1.9 MB of ``irfft`` scratch, which the next
    draw faulted in again (~480 pages per n = 200 replicate for the scratch
    alone).  The process pool of a Monte Carlo study forks after the first
    replicate, so its workers inherit the setting.
    Setting either threshold turns off glibc's adjustment of both, so both
    are set: blocks below 16 MB come from the heap, and up to 64 MB of free
    heap top is kept.  A C library without ``mallopt`` is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


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
    real inverse transform of size M in place of a complex one.  This is
    :func:`generate_fgn_batch` for one spec.

    Raises NonnegativeEmbeddingFailure if an eigenvalue is materially
    negative.
    """
    return generate_fgn_batch([spec])[0]


def generate_fgn_batch(specs) -> np.ndarray:
    """:func:`generate_fgn_circulant` for specs that differ in seed alone, as
    the rows of a (len(specs), count) array.

    Each row draws its own 2M normals from its own seed and folds them into
    its half spectrum, so a row is the draw of its spec alone, bit for bit;
    the weights product, the inverse transform and the scale run once over
    the batch.  While it runs, a batch of B draws holds its B half spectra
    and the B·M inverse transforms, whose first row is first the block of
    normals reused for z1 and z2 of every row.
    """
    first = specs[0]
    if any((s.hurst, s.step, s.count) != (first.hurst, first.step, first.count) for s in specs):
        raise ValueError("a batch of fGn draws shares hurst, step and count")
    scale, count = first.step**first.hurst, first.count
    if count == 1:
        return scale * np.array([np.random.default_rng(s.seed).standard_normal(1) for s in specs])
    weights = _half_spectrum_weights(first.hurst, count)
    half = weights.size - 1
    size = 2 * half
    _keep_heap_warm()
    # imag[0] and imag[half] of each spectrum are never written and stay 0
    spectra, draws = np.zeros((len(specs), half + 1), dtype=complex), np.empty((len(specs), size))
    z = draws[0]
    for spec, spectrum in zip(specs, spectra):
        rng = np.random.default_rng(spec.seed)
        rng.standard_normal(out=z)  # z1, then z2: the same stream as one call of size 2M
        spectrum.real = z[: half + 1]
        spectrum.real[1:half] += z[:half:-1]
        rng.standard_normal(out=z)
        np.subtract(z[:half:-1], z[1:half], out=spectrum.imag[1:half])
    spectra *= weights
    np.fft.irfft(spectra, n=size, axis=-1, out=draws)
    del spectra
    return scale * draws[:, :count]


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
