"""Least-squares estimator: sums, normal equations, corrections, identities."""

import math
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc

from oracles import (
    basis_bound,
    brute_lag_sums,
    every_lag_trace_correction,
    normal_matrix,
    response,
    skorokhod_correction,
)
from perifou import BasisSet, DegenerateDesign, FouModel, InvalidInput, estimate, simulate_path
from perifou.estimator import (
    DesignStats,
    EstimateResult,
    build_design,
    discrete_trace_correction,
    estimate_rows,
    euler_lag_sum,
    normal_matrix_inverse,
    scaled_upper_gamma,
)
from perifou.fgn import fgn_autocovariance, substream_seed
from perifou.model import SamplePath, fold_periods, period_grid, refuse_aliasing, simulate_paths


def sine_basis():
    return BasisSet.from_specs([{"kind": "sin", "k": 1}])


def sincos_basis():
    return BasisSet.from_specs([{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}])


def const_basis():
    return BasisSet.from_specs([{"kind": "const"}])


def make_path(model, x, step):
    grid = np.arange(x.size) * step
    return SamplePath(grid=grid, x=x, driver_increments=None, model=model)


# ------------------------------------------------------------- sums

_SPECS = [{"kind": "const"}] + [
    {"kind": kind, "k": k} for k in (1, 2, 3) for kind in ("sin", "cos")
]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    subset=st.lists(st.integers(0, len(_SPECS) - 1), min_size=1, max_size=7, unique=True),
    n=st.integers(1, 8),
    m=st.sampled_from([4, 16, 64]),
    stationary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_folded_sums_match_full_grid_sums(subset, n, m, stationary, seed):
    basis = BasisSet.from_specs([_SPECS[i] for i in sorted(subset)])
    mu = tuple(np.linspace(0.5, 1.5, basis.p))
    model = FouModel(hurst=0.65, alpha=1.0, mu=mu, sigma=0.5, basis=basis)
    step = 1 / m
    path = simulate_path(model, n, step, seed, stationary_start=stationary)
    try:
        result = estimate(path, mode="naive_pathwise")
    except (DegenerateDesign, InvalidInput):
        assume(False)  # coarse grids alias some frequencies (m = 4 carries k < 2 only)
    phi = basis.evaluate(path.grid[:-1])
    x_left, dx, db = path.x[:-1], np.diff(path.x), path.driver_increments

    def close(folded, full, terms):
        # relative to the sum of absolute terms, the scale of the rounding
        return np.all(np.abs(folded - full) <= 1e-12 * terms)

    bound = basis_bound(basis)
    design = result.design
    assert close(n * refuse_aliasing(basis, step), step * phi @ phi.T, n * bound**2)
    assert close(n * design.loadings, step * phi @ x_left, step * bound * np.abs(x_left).sum())
    assert close(result.noise_vector[:-1], phi @ db, bound * np.abs(db).sum())
    assert result.noise_vector[-1] == -float(np.einsum("i,i", x_left, db))
    # theta_hat = Q^{-1} P: the rounding gap between the folded and the
    # full-grid response reaches theta_hat through |Q^{-1}|
    inverse = normal_matrix_inverse(design)
    terms = np.append(np.full(basis.p, bound * np.abs(dx).sum()), np.abs(x_left * dx).sum())
    assert close(result.theta_hat, inverse @ response(path), np.abs(inverse) @ terms)


def test_design_zero_path_is_degenerate():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(0.0,), sigma=0.0, basis=const_basis())
    path = make_path(model, np.zeros(65), 1 / 64)
    stats = build_design(path)
    with pytest.raises(DegenerateDesign, match="mean reversion is unidentifiable"):
        normal_matrix_inverse(stats)
    np.testing.assert_array_equal(stats.loadings, [0.0])
    assert stats.residual == 0.0


def test_design_constant_path_constant_basis_degenerate_with_loadings():
    model = FouModel(hurst=0.7, alpha=0.8, mu=(1.2,), sigma=0.0, basis=const_basis())
    c = 1.2 / 0.8
    path = make_path(model, np.full(4 * 64 + 1, c), 1 / 64)
    stats = build_design(path)
    with pytest.raises(DegenerateDesign, match="mean reversion is unidentifiable"):
        normal_matrix_inverse(stats)
    assert stats.loadings[0] == pytest.approx(c, abs=1e-8)
    assert stats.residual + stats.loadings[0] ** 2 == pytest.approx(c**2, abs=1e-8)


def test_design_riemann_sums_match_manual():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(0.5,), sigma=0.4, basis=sine_basis())
    path = simulate_path(model, 3, 1 / 32, seed=8)
    stats = build_design(path)
    t = path.grid[:-1]
    phi = math.sqrt(2) * np.sin(2 * np.pi * t)
    assert 3 * stats.loadings[0] == pytest.approx(np.sum(phi * path.x[:-1]) / 32, rel=1e-12)
    energy = 3 * (stats.residual + stats.loadings[0] ** 2)
    assert energy == pytest.approx(np.sum(path.x[:-1] ** 2) / 32, rel=1e-12)
    assert 3 * refuse_aliasing(model.basis, path.step)[0, 0] == pytest.approx(3.0, abs=1e-10)


def test_gram_block_close_to_identity_scaled():
    model = FouModel(
        hurst=0.65, alpha=1.0, mu=(1.0, 2.0), sigma=0.5, basis=sincos_basis()
    )
    step = 1 / 128
    path = simulate_path(model, 7, step, seed=4)
    assert np.max(np.abs(refuse_aliasing(model.basis, path.step) - np.eye(2))) <= 10 * step


# ------------------------------------------------------------- inverse


def test_inverse_block_diagonal_when_loadings_vanish():
    stats = DesignStats(loadings=np.zeros(2), residual=2.0, n_periods=5)
    inv = normal_matrix_inverse(stats)
    expected = np.diag([1 / 5, 1 / 5, (5 / 10.0) / 5]).astype(float)
    np.testing.assert_allclose(inv, expected, atol=1e-14)


def test_inverse_two_by_two_hand_value():
    # p=1, loadings 1, energy/n = 2 -> residual 1; direct inversion of
    # [[n, -n], [-n, 2n]] gives (1/n) [[2, 1], [1, 1]]
    n = 7
    stats = DesignStats(loadings=np.array([1.0]), residual=1.0, n_periods=n)
    inv = normal_matrix_inverse(stats)
    np.testing.assert_allclose(inv, np.array([[2.0, 1.0], [1.0, 1.0]]) / n, atol=1e-14)
    np.testing.assert_allclose(inv, np.linalg.inv(normal_matrix(stats)), atol=1e-14)


def test_inverse_matches_dense_solver_on_random_designs():
    rng = np.random.default_rng(31)
    for trial in range(100):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(3, 400))
        loadings = rng.normal(scale=2.0, size=p)
        residual = float(rng.uniform(0.05, 4.0))
        stats = DesignStats(loadings=loadings, residual=residual, n_periods=n)
        q = normal_matrix(stats)
        inv = normal_matrix_inverse(stats)
        assert np.max(np.abs(q @ inv - np.eye(p + 1))) <= 1e-8
        assert np.max(np.abs(inv - np.linalg.inv(q))) <= 1e-8 * np.max(np.abs(inv))


def test_inverse_rejects_degenerate_designs():
    stats = DesignStats(loadings=np.array([1.0]), residual=0.0, n_periods=4)
    with pytest.raises(DegenerateDesign):
        normal_matrix_inverse(stats)


def test_record_shapes():
    """Three numbers determine the design; the result keeps no value that
    only tests read."""
    assert [f.name for f in fields(DesignStats)] == ["loadings", "residual", "n_periods"]
    assert [f.name for f in fields(EstimateResult)] == [
        "theta_hat", "design", "mode", "noise_vector", "correction",
        "correction_alpha", "correction_alpha_source",
    ]
    assert not hasattr(EstimateResult, "mu_hat")


def acceptance_model(mu, sigma: float) -> FouModel:
    """The model of configs/acceptance.json with the given mu and sigma."""
    return FouModel(hurst=0.65, alpha=1.0, mu=mu, sigma=sigma, basis=sincos_basis())


@pytest.mark.parametrize("scale", [1e-6, 1e-5, 1e5])
def test_degeneracy_does_not_depend_on_the_units_of_x(scale):
    """alpha_hat is invariant when sigma and mu scale together, so the
    degeneracy test must be too.  An absolute bound of 1e-12 on the
    residual variance flagged the path at scale 1e-6."""
    step, kwargs = 1 / 256, dict(mode="oracle_divergence", alpha_for_correction=1.0)
    unit = simulate_path(acceptance_model((1.0, 2.0), 0.5), 50, step, 42, stationary_start=True)
    scaled = simulate_path(
        acceptance_model((scale, 2.0 * scale), 0.5 * scale), 50, step, 42, stationary_start=True
    )
    alpha_unit = estimate(unit, sigma=0.5, **kwargs).alpha_hat
    alpha_scaled = estimate(scaled, sigma=0.5 * scale, **kwargs).alpha_hat
    assert alpha_scaled == pytest.approx(alpha_unit, rel=1e-10)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e5, 1e8])
def test_noiseless_in_span_path_is_degenerate_at_every_scale(scale):
    """At sigma = 0 the stationary path is the steady orbit, in the sin/cos
    span.  Its rounding residual grows with |mu|^2: an absolute bound
    passed it at mu = (1e5, 3e5) and returned alpha_hat = -0.870."""
    model = acceptance_model((scale, 3.0 * scale), 0.0)
    path = simulate_path(model, 50, 1 / 256, seed=42, stationary_start=True)
    with pytest.raises(DegenerateDesign, match="mean reversion is unidentifiable"):
        estimate(path, mode="oracle_divergence", alpha_for_correction=1.0)


# ------------------------------------------------------------- corrections


def test_skorokhod_correction_vanishes_at_zero_horizon():
    assert skorokhod_correction(1.0, 0.6, 0.0) == 0.0
    assert skorokhod_correction(1.0, 0.6, 1e-9) <= 1e-9


def test_skorokhod_correction_slope_limit():
    # correction(alpha, H, T)/T -> H Gamma(2H) alpha^{1-2H}
    target = 0.6 * math.gamma(1.2)
    assert skorokhod_correction(1.0, 0.6, 2000.0) / 2000.0 == pytest.approx(target, abs=1e-4)
    target2 = 0.65 * math.gamma(1.3) * 2.0 ** (1 - 1.3)
    assert skorokhod_correction(2.0, 0.65, 4000.0) / 4000.0 == pytest.approx(target2, abs=1e-4)


def test_skorokhod_correction_monotone_in_horizon():
    values = [skorokhod_correction(0.8, 0.7, t) for t in (0.5, 1.0, 5.0, 20.0, 100.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_skorokhod_correction_matches_quadrature():
    alpha, hurst, horizon = 1.3, 0.62, 17.0
    a = 2 * hurst - 1

    def inner(t):
        return hurst * a * alpha ** (-a) * math.gamma(a) * gammainc(a, alpha * t)

    quad, _ = scipy.integrate.quad(inner, 0.0, horizon, limit=200)
    assert skorokhod_correction(alpha, hurst, horizon) == pytest.approx(quad, rel=1e-9)


def test_discrete_trace_matches_brute_double_sum():
    alpha, hurst, step, n_steps = 0.9, 0.68, 1 / 16, 48
    a = 1 - alpha * step
    brute = 0.0
    for k in range(n_steps):
        for j in range(k):
            brute += a ** (k - 1 - j) * fgn_autocovariance(hurst, k - j) * step ** (2 * hurst)
    ours = discrete_trace_correction(alpha, hurst, step, n_steps, stationary=False)
    assert ours == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("alpha", [255.0, 4.0, 1.0, 0.1, 0.01, 1e-4])
@pytest.mark.parametrize("hurst", [0.55, 0.65, 0.74, 0.95])
def test_fixed_start_trace_stops_at_the_kernel_cut_bit_for_bit(hurst, alpha):
    """The lags past a^{j-1} < 1e-18 do not move the last bit of the sum; at
    alpha = 4 that cut is lag 2632, below N = 51200 and 2^18."""
    sizes = [1, 2, 12, 51200, 2**18]
    ours = [discrete_trace_correction(alpha, hurst, 1 / 256, n, stationary=False) for n in sizes]
    assert ours == [every_lag_trace_correction(alpha, hurst, 1 / 256, n) for n in sizes]


def test_fixed_start_trace_at_2_22_steps_is_short_and_small():
    """alpha = 1, m = 256: 10590 lags instead of 2^22, whose arrays took
    0.56-0.63 s and a 201 MB tracemalloc peak."""
    args = (1.0, 0.65, 1 / 256, 2**22, False)
    elapsed = []
    for _ in range(3):
        discrete_trace_correction.cache_clear()
        start = time.perf_counter()
        discrete_trace_correction(*args)
        elapsed.append(time.perf_counter() - start)
    discrete_trace_correction.cache_clear()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        discrete_trace_correction(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert min(elapsed) <= 5e-3
    assert peak <= 1e6


def test_discrete_trace_matches_simulated_mean():
    # E[sum X_k dB_k] = sigma * trace for stationary mu=0 paths
    model = FouModel(hurst=0.7, alpha=1.0, mu=(0.0,), sigma=1.0, basis=sine_basis())
    step, n, reps = 1 / 32, 20, 3000
    stats = []
    for r in range(reps):
        path = simulate_path(model, n, step, substream_seed(55, n, r), stationary_start=True)
        stats.append(float(np.dot(path.x[:-1], path.driver_increments)))
    stats = np.asarray(stats)
    expected = discrete_trace_correction(model.alpha, model.hurst, step, n * 32, stationary=True)
    se = stats.std(ddof=1) / math.sqrt(reps)
    assert abs(stats.mean() - expected) <= 4 * se


def test_discrete_trace_approaches_continuous_minus_cell_mass():
    # continuous correction = discrete trace + same-cell kernel mass T h^{2H-1}/2
    alpha, hurst, horizon = 1.0, 0.65, 50.0
    for m in (256, 1024):
        step = 1.0 / m
        disc = discrete_trace_correction(alpha, hurst, step, int(horizon * m), stationary=True)
        cont = skorokhod_correction(alpha, hurst, horizon)
        cell = horizon * step ** (2 * hurst - 1) / 2
        assert abs(disc + cell - cont) <= 0.01 * cont


@pytest.mark.parametrize("alpha_step", [0.5, 2.0**-8, 1e-3, 1e-4, 4.6e-6])  # the last: 10^7 lags
@pytest.mark.parametrize("hurst", [0.55, 0.65, 0.8, 0.95])
def test_euler_lag_sum_matches_brute_force(hurst, alpha_step):
    step = 1 / 256
    alpha = alpha_step / step
    at_0, at_5000 = brute_lag_sums(alpha, hurst, step, (0, 5000))
    # rho_H is free of cancellation, so the kernel's own error shows, below
    # 2e-14 at both starts (the second difference cost 3.3e-8 from lag 5000)
    assert euler_lag_sum(alpha, hurst, step) == pytest.approx(at_0, rel=1e-12)
    assert euler_lag_sum(alpha, hurst, step, 5000) == pytest.approx(at_5000, rel=1e-12)


def test_stationary_trace_correction_below_the_old_tail_threshold():
    """The correction of ``perifou estimate`` on configs/acceptance.json with
    estimate.alpha_for_correction = 1e-4 (12800 steps of 1/256): an analytic
    tail below alpha * step = 2e-5, which lacked a factor step, once made it
    13480.24."""
    correction = discrete_trace_correction(1e-4, 0.65, 1 / 256, 12800, stationary=True)
    assert correction == pytest.approx(457.54, abs=0.005)


def test_scaled_upper_gamma_matches_scipy():
    for a in (0.1, 0.3, 0.9, -1.1, -1.7):
        for x in (1e-6, 0.5, 1.99, 2.0, 10.0, 200.0):
            # scipy's gammaincc is the regularized upper gamma, for a > 0 only
            if a > 0:
                expected = math.exp(x) * x**-a * math.gamma(a) * gammaincc(a, x)
                assert scaled_upper_gamma(a, x) == pytest.approx(expected, rel=1e-12)
            # Gamma(a, x) = (Gamma(a + 1, x) - x^a e^{-x}) / a
            recurrence = (x * scaled_upper_gamma(a + 1.0, x) - 1.0) / a
            assert scaled_upper_gamma(a, x) == pytest.approx(recurrence, rel=1e-11)


# ------------------------------------------------------------- estimation


def test_noiseless_recovery_fixed_start():
    basis = sincos_basis()
    model = FouModel(hurst=0.65, alpha=0.8, mu=(1.0, 0.5), sigma=0.0, basis=basis, xi0=1.0)
    path = simulate_path(model, 50, 1 / 1024, seed=3)
    result = estimate(path)
    assert np.max(np.abs(result.theta_hat - model.theta)) <= 1e-10


def test_noiseless_recovery_stationary_sine_only():
    # steady orbit has an out-of-span cosine component, so alpha stays
    # identifiable under a stationary start
    model = FouModel(hurst=0.65, alpha=0.8, mu=(1.0,), sigma=0.0, basis=sine_basis())
    path = simulate_path(model, 50, 1 / 1024, seed=3, stationary_start=True)
    result = estimate(path)
    assert np.max(np.abs(result.theta_hat - model.theta)) <= 1e-10


def test_noiseless_stationary_full_frequency_basis_is_degenerate():
    # with sin and cos at one frequency the stationary noiseless path lies
    # exactly in the basis span: every alpha' reproduces it, so the design
    # must be flagged instead of returning an arbitrary estimate
    model = FouModel(
        hurst=0.65, alpha=0.8, mu=(1.0, 0.5), sigma=0.0, basis=sincos_basis()
    )
    path = simulate_path(model, 50, 1 / 1024, seed=3, stationary_start=True)
    with pytest.raises(DegenerateDesign):
        estimate(path)


def test_noiseless_stationary_degeneracy_admits_solution_family():
    # concrete witness of the unidentifiability behind the DegenerateDesign
    # above: for wrong mean-reversion rates there are amplitudes that
    # reproduce the observed increments to float precision
    model = FouModel(
        hurst=0.65, alpha=0.8, mu=(1.0, 0.5), sigma=0.0, basis=sincos_basis()
    )
    step = 1 / 1024
    path = simulate_path(model, 50, step, seed=3, stationary_start=True)
    t = path.grid[:-1]
    design = np.column_stack(
        [f(t) for f in model.basis.functions] + [-path.x[:-1]]
    ) * step
    dx = np.diff(path.x)
    for alpha_alt in (0.4, 2.0):
        mu_alt = np.linalg.lstsq(design[:, :2], dx - design[:, 2] * alpha_alt, rcond=None)[0]
        fit = design @ np.append(mu_alt, alpha_alt)
        assert np.max(np.abs(fit - dx)) <= 1e-11
        assert abs(alpha_alt - model.alpha) > 0.3


def test_zero_path_is_degenerate():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(0.0,), sigma=0.0, basis=sine_basis(), xi0=0.0)
    path = simulate_path(model, 5, 1 / 64, seed=1)
    with pytest.raises(DegenerateDesign):
        estimate(path)


def test_oracle_mode_runs_without_driver():
    """theta_hat needs no driver: an x-only path gives the same estimate,
    with the plug-in and with a given alpha, and no noise vector."""
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    path = simulate_path(model, 3, 1 / 64, seed=2)
    stripped = SamplePath(
        grid=path.grid, x=path.x, driver_increments=None, model=model
    )
    for alpha in (None, 1.0):
        kwargs = dict(mode="oracle_divergence", sigma=0.5, alpha_for_correction=alpha)
        with_driver = estimate(path, **kwargs)
        without = estimate(stripped, **kwargs)
        assert np.array_equal(without.theta_hat, with_driver.theta_hat)
        assert without.correction == with_driver.correction
        assert without.noise_vector is None


def test_estimate_rejects_unknown_mode():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    path = simulate_path(model, 3, 1 / 64, seed=2)
    with pytest.raises(ValueError):
        estimate(path, mode="bayes")


@pytest.mark.parametrize("mode", ["naive_pathwise", "oracle_divergence"])
def test_estimator_identity_exact(mode):
    # theta_hat - theta = sigma Q^{-1} R for the discretized system
    model = FouModel(hurst=0.65, alpha=1.0, mu=(1.0, 2.0), sigma=0.5, basis=sincos_basis())
    path = simulate_path(model, 20, 1 / 256, seed=11, stationary_start=True)
    alpha = model.alpha if mode == "oracle_divergence" else None
    result = estimate(path, mode=mode, sigma=model.sigma, alpha_for_correction=alpha)
    inverse = normal_matrix_inverse(result.design)
    gap = result.theta_hat - model.theta - model.sigma * (inverse @ result.noise_vector)
    assert np.max(np.abs(gap)) <= 1e-8


def test_theta_solves_normal_equations():
    model = FouModel(hurst=0.65, alpha=1.0, mu=(1.0, 2.0), sigma=0.5, basis=sincos_basis())
    path = simulate_path(model, 10, 1 / 128, seed=21, stationary_start=True)
    result = estimate(path, mode="oracle_divergence", sigma=model.sigma,
                      alpha_for_correction=model.alpha)
    dense = np.linalg.solve(
        normal_matrix(result.design), response(path, model.sigma, result.correction)
    )
    assert np.max(np.abs(result.theta_hat - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))


def test_scale_equivariance_of_noiseless_estimate():
    basis = sincos_basis()
    base = FouModel(hurst=0.65, alpha=0.9, mu=(0.8, -0.3), sigma=0.0, basis=basis, xi0=0.7)
    doubled = replace(base, mu=(1.6, -0.6), xi0=1.4)
    path_a = simulate_path(base, 20, 1 / 256, seed=5)
    path_b = simulate_path(doubled, 20, 1 / 256, seed=5)
    np.testing.assert_allclose(2.0 * path_a.x, path_b.x, atol=1e-12)
    alpha_a = estimate(path_a).alpha_hat
    alpha_b = estimate(path_b).alpha_hat
    assert abs(alpha_a - alpha_b) <= 1e-8


def test_oracle_alpha_unbiased_within_monte_carlo_error():
    model = FouModel(hurst=0.65, alpha=1.0, mu=(1.0, 2.0), sigma=0.5, basis=sincos_basis())
    step, n, reps = 1 / 128, 200, 150
    alphas = np.empty(reps)
    for r in range(reps):
        path = simulate_path(model, n, step, substream_seed(301, n, r), stationary_start=True)
        alphas[r] = estimate(
            path, mode="oracle_divergence", sigma=model.sigma, alpha_for_correction=model.alpha
        ).alpha_hat
    se = alphas.std(ddof=1) / math.sqrt(reps)
    assert abs(alphas.mean() - model.alpha) <= 3 * se


def test_naive_versus_oracle_gap_exact_algebra():
    # alpha_oracle - alpha_naive = gamma_n sigma^2 corr / n exactly, and
    # positive: the naive estimate sits below the corrected one
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0, 0.5), sigma=0.5, basis=sincos_basis())
    step, n = 1 / 128, 100
    for r in range(50):
        path = simulate_path(model, n, step, substream_seed(77, n, r), stationary_start=True)
        naive = estimate(path, mode="naive_pathwise")
        oracle = estimate(
            path, mode="oracle_divergence", sigma=model.sigma, alpha_for_correction=model.alpha
        )
        gap = oracle.alpha_hat - naive.alpha_hat
        expected = model.sigma**2 * oracle.correction / (oracle.design.residual * n)
        assert gap > 0.0
        assert gap == pytest.approx(expected, rel=1e-10)


def test_plug_in_gap_tracks_true_alpha_correction():
    # the two-pass plug-in needs the naive alpha_hat to land in the right
    # neighborhood, which requires the steady mean to carry energy outside
    # the basis span exceeding the stationary variance; use a small-sigma
    # single-sine model where that holds
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.15, basis=sine_basis())
    step, n, reps = 1 / 128, 100, 200
    agree = 0
    for r in range(reps):
        path = simulate_path(model, n, step, substream_seed(77, n, r), stationary_start=True)
        naive = estimate(path, mode="naive_pathwise")
        oracle = estimate(
            path, mode="oracle_divergence", sigma=model.sigma, alpha_for_correction=model.alpha
        )
        plug = estimate(path, mode="oracle_divergence", sigma=model.sigma)
        gap = oracle.alpha_hat - naive.alpha_hat
        plug_gap = plug.alpha_hat - naive.alpha_hat
        if gap > 0 and abs(plug_gap - gap) <= 0.3 * gap:
            agree += 1
    assert agree >= 0.9 * reps


def test_two_pass_plug_in_close_to_true_alpha_correction():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.15, basis=sine_basis())
    path = simulate_path(model, 100, 1 / 128, seed=909, stationary_start=True)
    plug = estimate(path, mode="oracle_divergence", sigma=model.sigma)
    known = estimate(
        path, mode="oracle_divergence", sigma=model.sigma, alpha_for_correction=model.alpha
    )
    assert plug.alpha_hat == pytest.approx(known.alpha_hat, abs=0.15)


def test_report_dictionary_shape():
    model = FouModel(hurst=0.65, alpha=1.0, mu=(1.0, 2.0), sigma=0.5, basis=sincos_basis())
    path = simulate_path(model, 5, 1 / 64, seed=2, stationary_start=True)
    result = estimate(path, mode="oracle_divergence", sigma=model.sigma,
                      alpha_for_correction=model.alpha)
    report = result.to_report()
    assert list(report) == [
        "mode", "theta_hat", "mu_hat", "alpha_hat", "lambda_n", "gamma_n", "degenerate",
        "n_periods", "correction", "correction_alpha", "correction_alpha_source",
    ]
    assert report["mu_hat"] == report["theta_hat"][:2]
    assert report["gamma_n"] == 1.0 / result.design.residual
    assert report["degenerate"] is False
    assert len(report["theta_hat"]) == 3
    assert len(report["lambda_n"]) == 2
    assert report["gamma_n"] > 0
    assert report["n_periods"] == 5


@pytest.mark.parametrize("m", [16, 256])
def test_design_and_response_from_cached_basis_are_bit_identical(m):
    """build_design and estimate read the cached period values of the basis;
    every sum equals the one over a fresh basis.evaluate bit for bit."""
    specs = [{"kind": "const"}] + [
        {"kind": kind, "k": k} for k in (1, 2, 3) for kind in ("sin", "cos")
    ]
    mu = (1.0, -0.5, 2.0, 0.0, 0.25, -1.5, 0.75)
    model = FouModel(hurst=0.65, alpha=1.0, mu=mu, sigma=0.5, basis=BasisSet.from_specs(specs))
    step, n = 1.0 / m, 6
    path = simulate_path(model, n, step, seed=m, stationary_start=True)
    phi = model.basis.evaluate(period_grid(step))
    x_left, dx, db = path.x[:-1], np.diff(path.x), path.driver_increments

    design = build_design(path)
    np.testing.assert_array_equal(refuse_aliasing(model.basis, step), step * (phi @ phi.T))
    np.testing.assert_array_equal(design.loadings, step * (phi @ fold_periods(x_left, m)) / n)
    energy = step * float(np.einsum("i,i", x_left, x_left))
    assert design.residual == energy / n - float(np.dot(design.loadings, design.loadings))

    result = estimate(path, mode="naive_pathwise")
    alpha_entry = -float(np.einsum("i,i", x_left, dx))
    np.testing.assert_array_equal(
        result.theta_hat,
        normal_matrix_inverse(design) @ np.append(phi @ fold_periods(dx, m), alpha_entry),
    )
    noise_alpha_entry = -float(np.einsum("i,i", x_left, db))
    np.testing.assert_array_equal(
        result.noise_vector, np.append(phi @ fold_periods(db, m), noise_alpha_entry)
    )


@pytest.mark.parametrize("mode", ["naive_pathwise", "oracle_divergence"])
def test_batched_path_sums_equal_the_one_path_formulas(mode):
    """Each row of a batch gets the one-path sums written out here: a
    matrix-vector product per fold, einsum over the N grid points and np.dot
    for |L|^2 (an einsum over the batch there differs in the last bit on
    about a third of the rows at p = 7)."""
    specs = [{"kind": "const"}] + [
        {"kind": kind, "k": k} for k in (1, 2, 3) for kind in ("sin", "cos")
    ]
    mu = (1.0, -0.5, 2.0, 0.0, 0.25, -1.5, 0.75)
    model = FouModel(hurst=0.65, alpha=4.0, mu=mu, sigma=0.5, basis=BasisSet.from_specs(specs))
    step, n, m = 1.0 / 64, 5, 64
    batch = simulate_paths(model, n, step, range(12), stationary_start=True)
    phi = model.basis.evaluate(period_grid(step))
    design = build_design(batch)
    alpha = 4.0 if mode == "oracle_divergence" else None
    results = estimate_rows(batch, mode=mode, alpha_for_correction=alpha)
    for row, (x, db) in enumerate(zip(batch.x, batch.driver_increments)):
        x_left, dx = x[:-1], np.diff(x)
        loadings = step * (phi @ fold_periods(x_left, m)) / n
        residual = step * float(np.einsum("i,i", x_left, x_left)) / n - float(np.dot(loadings, loadings))
        np.testing.assert_array_equal(design.loadings[row], loadings)
        assert design.residual[row] == residual
        wanted = np.append(phi @ fold_periods(dx, m), -float(np.einsum("i,i", x_left, dx)))
        noise = np.append(phi @ fold_periods(db, m), -float(np.einsum("i,i", x_left, db)))
        correction = 0.0
        if mode == "oracle_divergence":
            correction = discrete_trace_correction(4.0, 0.65, step, n * m, stationary=True)
            wanted[-1] += 0.25 * correction
            noise[-1] += 0.5 * correction
        inverse = normal_matrix_inverse(DesignStats(loadings, residual, n))
        assert results[row].theta_hat.tobytes() == (inverse @ wanted).tobytes()
        assert results[row].noise_vector.tobytes() == noise.tobytes()
    with pytest.raises(InvalidInput, match="estimate_rows takes a batch"):
        estimate(batch, mode=mode)


def _p7_batch(rows: int, step: float = 1.0 / 64, n: int = 5):
    specs = [{"kind": "const"}] + [
        {"kind": kind, "k": k} for k in (1, 2, 3) for kind in ("sin", "cos")
    ]
    mu = (1.0, -0.5, 2.0, 0.0, 0.25, -1.5, 0.75)
    model = FouModel(hurst=0.65, alpha=4.0, mu=mu, sigma=0.5, basis=BasisSet.from_specs(specs))
    return simulate_paths(model, n, step, range(rows), stationary_start=True)


def _row(batch, row: int) -> SamplePath:
    return SamplePath(batch.grid, batch.x[row], batch.driver_increments[row], batch.model, True)


def test_plug_in_batch_equals_each_path_alone_bit_for_bit():
    """With alpha unknown each path of a batch gets its own plug-in alpha and
    correction: the batch solve equals estimate of each path alone."""
    batch = _p7_batch(6)
    results = estimate_rows(batch, mode="oracle_divergence")
    alphas = set()
    for row, result in enumerate(results):
        alone = estimate(_row(batch, row), mode="oracle_divergence")
        assert result.theta_hat.tobytes() == alone.theta_hat.tobytes()
        assert result.noise_vector.tobytes() == alone.noise_vector.tobytes()
        assert result.correction == alone.correction
        assert result.correction_alpha == alone.correction_alpha
        assert result.correction_alpha_source == alone.correction_alpha_source == "plug-in"
        alphas.add(result.correction_alpha)
    assert len(alphas) == len(results)


@pytest.mark.parametrize("alpha", [None, 4.0])
def test_overflow_after_a_degenerate_row_is_refused_in_a_batch(alpha):
    """A degenerate path gives None and raises nothing in a batch, so the
    overflow of a later path is what the batch raises, naming that path."""
    model = FouModel(hurst=0.65, alpha=4.0, mu=(1.0,), sigma=0.5, basis=const_basis())
    batch = simulate_paths(model, 3, 1 / 64, (1, 2, 3), stationary_start=True)
    x = batch.x.copy()
    x[0] = 0.7  # constant against the constant basis: no residual variance
    x[2] *= 1e160  # its sum of x^2 overflows
    batch = SamplePath(batch.grid, x, batch.driver_increments, model, True)
    with pytest.raises(InvalidInput, match="overflow double precision") as refusal:
        estimate_rows(batch, mode="oracle_divergence", alpha_for_correction=alpha)
    assert f"max |x| = {np.abs(x[2]).max():g}" in str(refusal.value)
    assert estimate_rows(SamplePath(batch.grid, x[:2], None, model, True))[0] is None


@pytest.mark.parametrize("mode, alpha", [
    ("naive_pathwise", None), ("oracle_divergence", 4.0), ("oracle_divergence", None),
])
def test_a_batch_checks_aliasing_once_and_inverts_once(monkeypatch, mode, alpha):
    """The grid is checked for aliasing once per call and the B inverses come
    from one broadcasting block_inverse, not one per path."""
    import perifou.estimator as estimator

    calls = []

    def spy(name, function):
        def counted(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return counted

    for name in ("refuse_aliasing", "block_inverse"):
        monkeypatch.setattr(estimator, name, spy(name, getattr(estimator, name)))
    results = estimate_rows(_p7_batch(8), mode=mode, alpha_for_correction=alpha)
    assert len(results) == 8 and None not in results
    assert sorted(calls) == ["block_inverse", "refuse_aliasing"]


def test_estimate_refuses_an_aliasing_grid_once_the_path_is_finite():
    """sin 2 pi 8 t vanishes on t = j/16: estimate and estimate_rows refuse
    the grid, as the CLI does before any path."""
    basis = BasisSet.from_specs([{"kind": "sin", "k": 8}, {"kind": "cos", "k": 1}])
    model = FouModel(hurst=0.65, alpha=1.0, mu=(1.0, 2.0), sigma=0.5, basis=basis)
    batch = simulate_paths(model, 4, 1 / 16, (1, 2), stationary_start=True)
    for call in (lambda: estimate(_row(batch, 0)), lambda: estimate_rows(batch)):
        with pytest.raises(InvalidInput, match="model.basis is not orthonormal on the grid"):
            call()


def test_naive_mode_refuses_a_given_alpha_before_any_path_sum(monkeypatch):
    """naive_pathwise applies no trace correction, so a given alpha would be
    dropped without a word: estimate and estimate_rows refuse it, naming
    both, before the path sums are taken; an unknown mode is refused first."""
    import perifou.estimator as estimator

    batch = _p7_batch(2)
    monkeypatch.setattr(estimator, "build_design", lambda path: pytest.fail("summed"))
    for call in (estimate, estimate_rows):
        path = _row(batch, 0) if call is estimate else batch
        with pytest.raises(InvalidInput, match="alpha_for_correction = 4.0 .*'naive_pathwise'"):
            call(path, mode="naive_pathwise", alpha_for_correction=4.0)
        with pytest.raises(InvalidInput, match="mode must be one of"):
            call(path, mode="bayes", alpha_for_correction=4.0)
