"""Exactness and law checks for the fractional Gaussian noise samplers."""

import math
import sys
import threading
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from perifou import FactorizationFailure
from perifou.fgn import (
    FgnSpec,
    fgn_autocovariance,
    fgn_covariance,
    generate_fgn_cholesky,
    generate_fgn_circulant,
    substream_seed,
)


def test_autocovariance_lag0_is_one_for_every_hurst():
    for hurst in (0.51, 0.6, 0.75, 0.9):
        assert fgn_autocovariance(hurst, 0) == 1.0


def test_autocovariance_brownian_increments_independent():
    assert fgn_autocovariance(0.5, 3) == 0.0
    assert fgn_autocovariance(0.5, 1) == 0.0


def test_autocovariance_h075_lag1():
    # 0.5 * (2^1.5 - 2) = sqrt(2) - 1
    assert fgn_autocovariance(0.75, 1) == pytest.approx(0.4142135623730950, abs=1e-12)


@pytest.mark.parametrize("hurst", [0.51, 0.6, 0.74])
@pytest.mark.parametrize("lag", [1, 10, 100])
def test_autocovariance_matches_arbitrary_precision(hurst, lag):
    with localcontext() as ctx:
        ctx.prec = 60
        h2 = 2 * Decimal(str(hurst))
        n = Decimal(lag)
        exact = ((n + 1) ** h2 + abs(n - 1) ** h2 - 2 * n**h2) / 2
    ours = fgn_autocovariance(hurst, lag)
    assert abs(ours - float(exact)) <= 1e-10 * abs(float(exact))


def test_autocovariance_rejects_negative_lag():
    with pytest.raises(ValueError):
        fgn_autocovariance(0.7, -1)


def test_circulant_single_increment_uses_first_normal():
    spec = FgnSpec(hurst=0.62, step=0.25, count=1, seed=991)
    draw = generate_fgn_circulant(spec)
    z = np.random.default_rng(991).standard_normal(1)
    np.testing.assert_allclose(draw, 0.25**0.62 * z, rtol=0, atol=0)


def test_circulant_deterministic_bitwise():
    spec = FgnSpec(hurst=0.7, step=1 / 256, count=1000, seed=17)
    first = generate_fgn_circulant(spec)
    second = generate_fgn_circulant(spec)
    assert np.array_equal(first, second)


def test_circulant_law_matches_toeplitz_covariance():
    # empirical covariance of many draws vs the exact Toeplitz target
    hurst, count, reps = 0.7, 512, 10_000
    draws = np.empty((reps, count))
    for r in range(reps):
        spec = FgnSpec(hurst, 1.0, count, substream_seed(2024, 0, r))
        draws[r] = generate_fgn_circulant(spec)
    for lag in range(4):
        products = draws[:, : count - lag] * draws[:, lag:]
        per_draw = products.mean(axis=1)
        se = per_draw.std(ddof=1) / math.sqrt(reps)
        gap = abs(per_draw.mean() - fgn_autocovariance(hurst, lag))
        assert gap <= 5 * se, f"lag {lag}: gap {gap:.4g} > 5 SE {5 * se:.4g}"


def test_cholesky_brownian_factor_is_scaled_identity():
    spec = FgnSpec(hurst=0.5, step=0.5, count=3, seed=5)
    draw = generate_fgn_cholesky(spec)
    z = np.random.default_rng(5).standard_normal(3)
    np.testing.assert_allclose(draw, 0.5**0.5 * z, rtol=0, atol=1e-15)


@pytest.mark.parametrize("hurst", [0.6, 0.7])
def test_cholesky_factor_reproduces_covariance(hurst):
    cov = fgn_covariance(hurst, 64)
    lower = np.linalg.cholesky(cov)
    assert np.max(np.abs(lower @ lower.T - cov)) <= 1e-10


def test_cholesky_count_guard():
    spec = FgnSpec(hurst=0.7, step=1.0, count=10_000, seed=1)
    with pytest.raises(FactorizationFailure):
        generate_fgn_cholesky(spec)


@pytest.mark.parametrize("count", [1, 2, 64])
def test_covariance_is_bit_identical_to_scipy_toeplitz(count):
    rho = fgn_autocovariance(0.65, np.arange(count))
    expected = 0.25 ** (2.0 * 0.65) * scipy.linalg.toeplitz(rho)
    assert fgn_covariance(0.65, count, 0.25).tobytes() == expected.tobytes()


def test_partial_sum_variance_telescopes():
    # 1^T T 1 = Var(B_N) = N^{2H}
    for count in (16, 64, 256):
        cov = fgn_covariance(0.7, count)
        expected = count**1.4
        assert abs(cov.sum() - expected) <= 1e-8 * expected


def test_circulant_and_cholesky_agree_in_law():
    hurst, count, reps = 0.65, 128, 4000
    circ = np.empty((reps, count))
    chol = np.empty((reps, count))
    for r in range(reps):
        circ[r] = generate_fgn_circulant(FgnSpec(hurst, 1.0, count, substream_seed(7, 1, r)))
        chol[r] = generate_fgn_cholesky(FgnSpec(hurst, 1.0, count, substream_seed(7, 2, r)))
    for lag in range(3):
        a = (circ[:, : count - lag] * circ[:, lag:]).mean(axis=1)
        b = (chol[:, : count - lag] * chol[:, lag:]).mean(axis=1)
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(reps)
        assert abs(a.mean() - b.mean()) <= 5 * se


def test_circulant_rejects_negative_embedding(monkeypatch):
    # fGn embeddings are nonnegative definite, so force the failure branch
    import perifou.fgn as fgn_module
    from perifou import NonnegativeEmbeddingFailure

    spec = FgnSpec(hurst=0.7, step=1.0, count=3, seed=0)
    generate_fgn_circulant(spec)  # the checked weights for (0.7, 3) are now cached
    bad = np.array([4.0, 1.0, -1.0])  # lambda_0..lambda_{M/2} of a size-4 embedding
    monkeypatch.setattr(fgn_module, "_embedding_eigenvalues", lambda h, c: bad)
    monkeypatch.setattr(
        fgn_module, "_half_spectrum_weights", fgn_module._half_spectrum_weights.__wrapped__
    )
    with pytest.raises(NonnegativeEmbeddingFailure):
        generate_fgn_circulant(spec)


def _embedding_size(count):
    return 1 << max(1, 2 * (count - 1) - 1).bit_length()


def _complex_fft_draw(spec):
    """The circulant draw as the real part of one complex FFT of the full
    spectrum, the construction the folded sampler must reproduce."""
    size = _embedding_size(spec.count)
    rho = fgn_autocovariance(spec.hurst, np.arange(size // 2 + 1))
    eig = np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real
    rng = np.random.default_rng(spec.seed)
    spectrum = np.sqrt(np.maximum(eig, 0.0) / size) * (
        rng.standard_normal(size) + 1j * rng.standard_normal(size)
    )
    return spec.step**spec.hurst * np.fft.fft(spectrum)[: spec.count].real


@pytest.mark.parametrize("hurst", [0.51, 0.7, 0.9])
@pytest.mark.parametrize("count", [2, 3, 4, 5, 17, 3840, 56064])
def test_circulant_matches_complex_fft_construction(hurst, count):
    for seed in (0, 1, 2024, 2**40 + 3):
        spec = FgnSpec(hurst, 1 / 256, count, seed)
        reference = _complex_fft_draw(spec)
        draw = generate_fgn_circulant(spec)
        assert draw.shape == (count,)
        assert np.max(np.abs(draw - reference)) <= 1e-13 * np.max(np.abs(reference))


def _fresh_array_draw(spec):
    """The folded half-spectrum draw with every array allocated afresh and
    scipy's inverse transform: what the sampler computed before it reused
    its buffers and moved to numpy.fft."""
    size = _embedding_size(spec.count)
    half = size // 2
    rho = fgn_autocovariance(spec.hurst, np.arange(half + 1))
    eig = scipy.fft.rfft(np.concatenate([rho, rho[-2:0:-1]])).real
    weights = np.sqrt(np.maximum(eig, 0.0) * size)
    weights[1:half] *= 0.5
    z = np.random.default_rng(spec.seed).standard_normal(2 * size)
    z1, z2 = z[:size], z[size:]
    spectrum = np.zeros(half + 1, dtype=complex)
    spectrum.real = z1[: half + 1]
    spectrum.real[1:half] += z1[:half:-1]
    spectrum.imag[1:half] = z2[:half:-1] - z2[1:half]
    spectrum *= weights
    return spec.step**spec.hurst * scipy.fft.irfft(spectrum, n=size)[: spec.count]


def test_reused_draw_buffers_reproduce_fresh_array_draws_bit_for_bit():
    # the embedding size changes between draws, so the buffers are rebuilt
    # and reused in turn
    for count in (3, 56064, 17, 56064, 2, 3840, 3840, 5):
        spec = FgnSpec(0.7, 1 / 256, count, 31 * count)
        assert generate_fgn_circulant(spec).tobytes() == _fresh_array_draw(spec).tobytes()


def test_threads_draw_into_their_own_buffers():
    specs = [FgnSpec(0.65, 1 / 256, count, seed) for count in (100, 3840, 56064) for seed in (1, 2)]
    expected = [_fresh_array_draw(spec) for spec in specs]
    matched = {}

    def work(worker):
        pairs = list(zip(specs, expected))
        pairs = pairs[worker:] + pairs[:worker]  # the threads change size at different draws
        matched[worker] = all(
            np.array_equal(generate_fgn_circulant(spec), want)
            for _ in range(3)
            for spec, want in pairs
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert matched == {w: True for w in range(4)}


class _UnitNormals:
    """Stands in for the generator: its normals, over all calls, are the
    unit vector e_column of length ``total``."""

    def __init__(self, column, total):
        self.normals = np.zeros(total)
        self.normals[column] = 1.0
        self.used = 0

    def standard_normal(self, out):
        out[:] = self.normals[self.used : self.used + out.size]
        self.used += out.size
        return out


@pytest.mark.parametrize("hurst", [0.51, 0.7, 0.9])
@pytest.mark.parametrize("count", [2, 3, 4, 5, 17, 33, 64])
def test_circulant_linear_map_reproduces_toeplitz_covariance(monkeypatch, hurst, count):
    # the draw is linear in the 2M normals: column j of A is the draw from e_j
    total = 2 * _embedding_size(count)
    monkeypatch.setattr(np.random, "default_rng", lambda column: _UnitNormals(column, total))
    columns = [generate_fgn_circulant(FgnSpec(hurst, 1.0, count, j)) for j in range(total)]
    a = np.column_stack(columns)
    assert np.max(np.abs(a @ a.T - fgn_covariance(hurst, count))) <= 1e-12


def test_substream_seed_is_deterministic_and_spread():
    a = substream_seed(123, 10, 4)
    assert a == substream_seed(123, 10, 4)
    others = {substream_seed(123, n, r) for n in (10, 20) for r in range(100)}
    assert len(others) == 200
    assert substream_seed(123, 10, 4) != substream_seed(124, 10, 4)
