"""Limit matrices and the weakly singular pair integral."""

import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    gauss_jacobi,
    memory_quadratic_noise_variance,
    quadrature_noise_covariance,
    singular_pair_integral,
    steady_mean,
)
from perifou import BasisSet, FouModel, estimate, limit_summary, simulate_path
from perifou.asymptotics import (
    finite_horizon_covariance,
    finite_horizon_noise_cov,
    noise_covariance_limit,
    quadratic_noise_variance,
    stationary_variance,
)
from perifou.cli import main
from perifou.estimator import build_design
from perifou.fgn import fgn_autocovariance, fgn_covariance, substream_seed
from perifou.model import period_grid, steady_euler_orbit

SQRT2 = math.sqrt(2.0)


def one(t):
    return np.ones_like(np.asarray(t, dtype=float))


def sin1(t):
    return SQRT2 * np.sin(2 * np.pi * np.asarray(t, dtype=float))


def cos1(t):
    return SQRT2 * np.cos(2 * np.pi * np.asarray(t, dtype=float))


def brute_pair_integral(f, g, hurst, cells=2000):
    """Midpoint double Riemann sum with the kernel integrated exactly over
    each cell pair (the near-diagonal singularity handled analytically):
    the cell-pair kernel masses are exactly rho_H(|i-j|) h^{2H}."""
    h = 1.0 / cells
    mid = (np.arange(cells) + 0.5) * h
    rho = fgn_autocovariance(hurst, np.arange(cells)) * h ** (2 * hurst)
    fv = f(mid)
    gv = g(mid)
    return float(fv @ scipy.linalg.matmul_toeplitz((rho, rho), gv))


def sine_basis():
    return BasisSet.from_specs([{"kind": "sin", "k": 1}])


def const_basis():
    return BasisSet.from_specs([{"kind": "const"}])


def acceptance_model():
    basis = BasisSet.from_specs([{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}])
    return FouModel(hurst=0.65, alpha=1.0, mu=(1.0, 2.0), sigma=0.5, basis=basis)


# -------------------------------------------------------- pair integral


@pytest.mark.parametrize("hurst", [0.55, 0.6, 0.65, 0.7, 0.74])
def test_pair_integral_constant_anchor(hurst):
    # alpha_H * 2 / ((2H-1) 2H) = 1 = Var(B_1^H)
    assert abs(singular_pair_integral(one, one, hurst) - 1.0) <= 1e-8


def test_pair_integral_symmetric():
    a = singular_pair_integral(sin1, cos1, 0.6)
    b = singular_pair_integral(cos1, sin1, 0.6)
    assert abs(a - b) <= 1e-12


def test_pair_integral_one_sine_brute_force():
    ours = singular_pair_integral(one, sin1, 0.6)
    brute = brute_pair_integral(one, sin1, 0.6)
    assert abs(ours - brute) <= 1e-5


@pytest.mark.parametrize(
    "f,g",
    [(sin1, sin1), (cos1, cos1), (sin1, cos1), (one, sin1), (one, one)],
)
def test_pair_integral_brute_force_sine_cosine_family(f, g):
    for hurst in (0.6, 0.65, 0.7):
        ours = singular_pair_integral(f, g, hurst)
        brute = brute_pair_integral(f, g, hurst)
        assert abs(ours - brute) <= 1e-4


def test_pair_integral_gram_matrices_are_psd():
    rng = np.random.default_rng(5)
    pieces = [one, sin1, cos1, lambda t: SQRT2 * np.sin(6 * np.pi * np.asarray(t, float))]
    for trial in range(5):
        coeffs = rng.normal(size=(3, len(pieces)))
        family = [
            (lambda t, c=c: sum(ci * p(t) for ci, p in zip(c, pieces))) for c in coeffs
        ]
        gram = np.empty((3, 3))
        for i in range(3):
            for j in range(i, 3):
                gram[i, j] = gram[j, i] = singular_pair_integral(family[i], family[j], 0.65)
        assert np.linalg.eigvalsh(gram).min() >= -1e-10


def test_noise_covariance_is_the_pairwise_gram_of_basis_and_steady_mean():
    basis = BasisSet.from_specs(
        [{"kind": "const"}, {"kind": "sin", "k": 1}, {"kind": "cos", "k": 2}]
    )
    model = FouModel(hurst=0.65, alpha=1.3, mu=(1.0, 2.0, -0.5), sigma=0.5, basis=basis)
    sigma0 = noise_covariance_limit(model)
    assert np.array_equal(sigma0, sigma0.T)
    functions = list(basis.functions) + [lambda t: -steady_mean(model, t)]
    pairwise = [[singular_pair_integral(f, g, model.hurst) for g in functions] for f in functions]
    # closed form against quadrature: 1.6e-13 apart, on entries of order one
    np.testing.assert_allclose(sigma0, pairwise, rtol=0, atol=1e-12)


def _fine_long_memory_gram(model, jacobi_nodes=200, legendre_nodes=400):
    """Sigma_0 by the Gauss-Jacobi x Gauss-Legendre scheme of
    ``oracles.long_memory_gram``, on a 200 x 400 grid in place of 48 x 64."""
    hurst = model.hurst
    a = 2 * hurst - 2
    xj, wj = scipy.special.roots_jacobi(jacobi_nodes, 0.0, a)
    u = 0.5 * (xj + 1)
    xl, wl = np.polynomial.legendre.leggauss(legendre_nodes)
    length = (1 - u)[:, None]
    s = length * (0.5 * (xl + 1))[None, :]
    weights = hurst * (2 * hurst - 1) * 2.0 ** (-a - 1) * wj[:, None] * length * (0.5 * wl)

    def integrands(t):
        values = np.concatenate([model.basis.evaluate(t), -steady_mean(model, t)[None]])
        return values.reshape(-1, s.size)

    cross = (integrands(s) * weights.ravel()) @ integrands(s + u[:, None]).T
    return cross + cross.T


@pytest.mark.parametrize("hurst", [0.55, 0.65, 0.74, 0.95])
def test_gauss_jacobi_rule_is_exact_to_degree_95_and_matches_scipy_nodes(hurst):
    """The oracle's 48-point rule for (1+x)^{2H-2} integrates (1+x)^k exactly
    for k <= 2*48 - 1, whose exact integral over [-1, 1] is 2^{k+b+1}/(k+b+1)."""
    b = 2 * hurst - 2
    nodes, weights = gauss_jacobi(48, b)
    for k in range(96):
        exact = 2.0 ** (k + b + 1) / (k + b + 1)
        assert abs(np.dot(weights, (1 + nodes) ** k) - exact) <= 1e-12 * exact
    reference, _ = scipy.special.roots_jacobi(48, 0.0, b)
    assert np.abs(nodes - reference).max() <= 1e-14


@pytest.mark.parametrize("hurst", [0.55, 0.65, 0.74])
def test_noise_covariance_matches_quadrature_at_every_frequency(hurst):
    """The closed form against the oracle's 48 x 64-node quadrature where
    that resolves the frequency (k <= 15), and against a 200 x 400-node one
    beyond it: each gap within 1e-9 of the largest entry."""

    def model(k):
        specs = [{"kind": "const"}, {"kind": "sin", "k": k}, {"kind": "cos", "k": k}]
        basis = BasisSet.from_specs(specs)
        return FouModel(hurst=hurst, alpha=1.0, mu=(0.5, 1.0, 2.0), sigma=0.5, basis=basis)

    cases = [(k, quadrature_noise_covariance) for k in (1, 2, 7, 15)]
    for k, reference in cases + [(16, _fine_long_memory_gram), (40, _fine_long_memory_gram)]:
        expected = reference(model(k))
        gap = np.abs(noise_covariance_limit(model(k)) - expected).max()
        assert gap <= 1e-9 * np.abs(expected).max(), f"k={k}: gap {gap:.2e}"


@pytest.mark.parametrize("hurst", [0.55, 0.74, 0.95])
def test_noise_covariance_at_high_frequency_follows_the_spectral_law(hurst):
    """<sqrt2 sin k, sqrt2 sin k>_H -> Gamma(2H+1) sin(pi H) (2 pi k)^{1-2H}
    as k grows: the fGn spectral density near 0 against the sine's line at
    2 pi k.  At k = 10^6 the next term is about 1/(2 pi k) relative."""
    k = 10**6
    basis = BasisSet.from_specs([{"kind": "sin", "k": k}])
    model = FouModel(hurst=hurst, alpha=1.0, mu=(1.0,), sigma=0.5, basis=basis)
    law = math.gamma(2 * hurst + 1) * math.sin(math.pi * hurst)
    law *= (2 * math.pi * k) ** (1 - 2 * hurst)
    assert noise_covariance_limit(model)[0, 0] == pytest.approx(law, rel=1e-5, abs=0)


def _numbers(node):
    if isinstance(node, dict):
        return [v for item in node.values() for v in _numbers(item)]
    if isinstance(node, list):
        return [v for item in node for v in _numbers(item)]
    return [node] if isinstance(node, float) else []


_TERMS = st.one_of(
    st.just({"kind": "const"}),
    st.builds(
        lambda kind, k: {"kind": kind, "k": k},
        st.sampled_from(["sin", "cos"]),
        st.integers(1, 10**9),
    ),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    hurst=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    log_alpha=st.floats(-300.0, 300.0),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    basis=st.lists(_TERMS, min_size=1, max_size=7, unique_by=lambda t: (t["kind"], t.get("k"))),
    data=st.data(),
)
def test_limits_on_any_valid_model_is_finite_or_refused(hurst, log_alpha, sigma, basis, data):
    """limits either writes a limits.json whose every number is finite and
    whose Sigma_0 is symmetric, or exits 2 with one stderr line; at no
    basis frequency does it refuse for the frequency alone."""
    mu = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(basis), max_size=len(basis)))
    model = {"hurst": hurst, "alpha": 10.0**log_alpha, "mu": mu, "sigma": sigma, "basis": basis}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"model": model}))
        out = Path(tmp) / "o"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = main(["limits", "--config", str(config), "--out", str(out)])
        if status == 2:
            assert len(err.getvalue().strip().splitlines()) == 1
            assert not out.exists()
            return
        assert status == 0, err.getvalue()
        report = json.loads((out / "limits.json").read_text())
    assert all(math.isfinite(v) for v in _numbers(report))
    sigma0 = np.array(report["Sigma0"])
    assert np.array_equal(sigma0, sigma0.T)


def test_pair_integral_rejects_bad_hurst():
    with pytest.raises(ValueError):
        singular_pair_integral(one, one, 0.5)


# -------------------------------------------------------- loadings


def test_loadings_constant_basis():
    model = FouModel(hurst=0.6, alpha=0.8, mu=(1.3,), sigma=1.0, basis=const_basis())
    np.testing.assert_allclose(limit_summary(model).report["lambda"], [1.3 / 0.8], atol=1e-10)


def test_loadings_zero_for_zero_amplitudes():
    model = FouModel(hurst=0.6, alpha=1.0, mu=(0.0,), sigma=1.0, basis=sine_basis())
    assert limit_summary(model).report["lambda"] == [0.0]


def test_loadings_sine_closed_form():
    # mu * alpha / (alpha^2 + 4 pi^2); at mu = alpha = 1 this is
    # 1/(1 + 4 pi^2) = 0.0247045230...
    model = FouModel(hurst=0.6, alpha=1.0, mu=(1.0,), sigma=1.0, basis=sine_basis())
    value = limit_summary(model).report["lambda"][0]
    assert value == pytest.approx(1.0 / (1.0 + 4.0 * math.pi**2), abs=1e-10)
    assert value == pytest.approx(0.024704523031857640, abs=1e-12)


# -------------------------------------------------------- scalars


def test_stationary_variance_brownian_case():
    # H = 1/2 recovers sigma^2/(2 alpha)
    assert stationary_variance(1.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_stationary_variance_long_memory_value():
    assert stationary_variance(1.0, 1.0, 0.6) == pytest.approx(
        0.6 * math.gamma(1.2), abs=1e-14
    )


def test_stationary_variance_alpha_power_law():
    base = stationary_variance(1.0, 1.0, 0.7)
    assert stationary_variance(4.0, 1.0, 0.7) == pytest.approx(
        base * 4.0 ** (-1.4), rel=1e-12
    )


def test_precision_zero_mean_model():
    model = FouModel(hurst=0.6, alpha=1.0, mu=(0.0,), sigma=1.0, basis=sine_basis())
    expected = 1.0 / (0.6 * math.gamma(1.2))
    gamma = limit_summary(model).report["gamma"]
    assert gamma == pytest.approx(expected, rel=1e-10)
    assert gamma == pytest.approx(1.8152073684305605, rel=1e-10)


def test_precision_constant_basis_independent_of_amplitude():
    # steady mean lies in the basis span, so the projection removes it
    values = []
    for mu in (0.5, 2.0, 7.0):
        model = FouModel(hurst=0.6, alpha=0.8, mu=(mu,), sigma=1.0, basis=const_basis())
        values.append(limit_summary(model).report["gamma"])
    target = 1.0 / stationary_variance(0.8, 1.0, 0.6)
    np.testing.assert_allclose(values, target, rtol=1e-10)


def test_precision_positive_for_random_models():
    rng = np.random.default_rng(11)
    basis = BasisSet.from_specs(
        [{"kind": "const"}, {"kind": "sin", "k": 1}, {"kind": "cos", "k": 2}]
    )
    for trial in range(10):
        model = FouModel(
            hurst=float(rng.uniform(0.55, 0.74)),
            alpha=float(rng.uniform(0.3, 3.0)),
            mu=tuple(rng.normal(scale=2.0, size=3)),
            sigma=float(rng.uniform(0.1, 2.0)),
            basis=basis,
        )
        assert limit_summary(model).report["gamma"] > 0.0


def test_bessel_inequality():
    rng = np.random.default_rng(12)
    basis = BasisSet.from_specs([{"kind": "sin", "k": 1}, {"kind": "cos", "k": 2}])
    nodes, weights = np.polynomial.legendre.leggauss(128)
    nodes01 = 0.5 * (nodes + 1.0)
    weights01 = 0.5 * weights
    for trial in range(10):
        model = FouModel(
            hurst=0.65,
            alpha=float(rng.uniform(0.3, 3.0)),
            mu=tuple(rng.normal(scale=2.0, size=2)),
            sigma=1.0,
            basis=basis,
        )
        lam = np.array(limit_summary(model).report["lambda"])
        h_energy = float(np.dot(weights01, steady_mean(model, nodes01) ** 2))
        assert float(lam @ lam) <= h_energy + 1e-10


# -------------------------------------------------------- matrices


def test_zero_mean_model_degenerates():
    model = FouModel(hurst=0.6, alpha=1.0, mu=(0.0,), sigma=1.0, basis=sine_basis())
    summary = limit_summary(model)
    report = summary.report
    assert report["flags"] == {"clt_valid": True, "degenerate_limit": True}
    # C block-diagonal, Sigma0 = blockdiag(Gbar, 0), alpha entry of the
    # covariance vanishes
    np.testing.assert_allclose(summary.c_matrix, np.diag([1.0, report["gamma"]]), atol=1e-12)
    assert report["Sigma0"][1][1] == pytest.approx(0.0, abs=1e-12)
    assert summary.asym_cov[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_constant_basis_gram_structure():
    # Gbar = 1, abar = mu/alpha, bbar = (mu/alpha)^2: a rank-one Gram of
    # the linearly dependent pair (1, -h~), PSD with one zero eigenvalue
    model = FouModel(hurst=0.6, alpha=0.8, mu=(1.3,), sigma=1.0, basis=const_basis())
    sigma0 = noise_covariance_limit(model)
    level = 1.3 / 0.8
    np.testing.assert_allclose(
        sigma0, [[1.0, -level], [-level, level**2]], atol=1e-8
    )
    eigs = np.linalg.eigvalsh(sigma0)
    assert eigs.min() >= -1e-10
    assert eigs.min() == pytest.approx(0.0, abs=1e-8)


def test_acceptance_model_covariance_symmetric_psd():
    summary = limit_summary(acceptance_model())
    assert np.max(np.abs(summary.asym_cov - summary.asym_cov.T)) <= 1e-12
    assert np.linalg.eigvalsh(summary.asym_cov).min() >= -1e-10
    # h~ lies in the sin/cos span, so the alpha variance is a genuine zero
    variances = np.diag(summary.asym_cov)
    assert abs(variances[-1]) <= 1e-12 * variances.max()
    assert summary.report["flags"] == {"clt_valid": True, "degenerate_limit": True}


def test_sine_basis_limit_is_not_degenerate():
    # the steady mean's cosine part lies outside a sine-only span
    model = FouModel(hurst=0.65, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    summary = limit_summary(model)
    np.testing.assert_allclose(np.diag(summary.asym_cov), [0.161, 0.118], atol=1e-3)
    assert not summary.report["flags"]["degenerate_limit"]


@pytest.mark.parametrize("alpha", [1.0, 50.0, 200.0])
def test_degenerate_limit_is_decided_exactly(alpha):
    # The acceptance model's h~ lies in the sin/cos span at every alpha, so
    # its alpha variance is a true zero however rounding leaves it (about
    # 1e-12 of the largest variance at alpha = 50).  A sine-only span misses
    # the cosine part of h~.
    in_span = replace(acceptance_model(), alpha=alpha)
    sine_only = FouModel(hurst=0.65, alpha=alpha, mu=(1.0,), sigma=0.5, basis=sine_basis())
    assert limit_summary(in_span).report["flags"]["degenerate_limit"]
    assert not limit_summary(sine_only).report["flags"]["degenerate_limit"]


def test_c_matrix_block_structure():
    model = acceptance_model()
    summary = limit_summary(model)
    lam, g, c = np.array(summary.report["lambda"]), summary.report["gamma"], summary.c_matrix
    np.testing.assert_allclose(c[:2, :2], np.eye(2) + g * np.outer(lam, lam), atol=1e-12)
    np.testing.assert_allclose(c[:2, 2], g * lam, atol=1e-12)
    assert c[2, 2] == pytest.approx(g, rel=1e-12)


def test_clt_validity_flag_tracks_hurst():
    basis = sine_basis()
    near = FouModel(hurst=0.74, alpha=1.0, mu=(1.0,), sigma=1.0, basis=basis)
    beyond = FouModel(hurst=0.8, alpha=1.0, mu=(1.0,), sigma=1.0, basis=basis)
    assert limit_summary(near).report["flags"]["clt_valid"]
    assert not limit_summary(beyond).report["flags"]["clt_valid"]


def test_report_carries_c_inverse_diagnostic():
    summary = limit_summary(acceptance_model())
    report = summary.report
    assert report["sigma0_minus_c_inverse_frobenius"] > 0.0
    variances = np.diag(summary.asym_cov)
    assert abs(variances[-1]) <= 1e-12 * variances.max()
    assert report["flags"] == {"clt_valid": True, "degenerate_limit": True}
    assert len(report["C"]) == 3


def test_c_inverse_diagnostic_where_c_is_numerically_singular():
    """C^{-1} = [[I, -Lambda], [-Lambda^t, 1/gamma + |Lambda|^2]] in closed
    form matches inv(C) on the acceptance model.  At alpha = 1e9 and
    sigma = 0, Lambda = 1e-9 and gamma = 2.5e34, so 1 + gamma Lambda^2
    rounds away the 1 and inv(C) raised LinAlgError: a traceback from
    limits."""
    summary = limit_summary(acceptance_model())
    sigma0 = np.array(summary.report["Sigma0"])
    gap = math.hypot(*(sigma0 - np.linalg.inv(summary.c_matrix)).ravel())
    assert summary.report["sigma0_minus_c_inverse_frobenius"] == pytest.approx(gap, rel=1e-12)
    fast = FouModel(hurst=0.75, alpha=1e9, mu=(1.0,), sigma=0.0, basis=sine_basis())
    report = limit_summary(fast).report
    exact = np.array(report["Sigma0"]) - [[1.0, -1e-9], [-1e-9, 1e-18]]
    assert report["sigma0_minus_c_inverse_frobenius"] == pytest.approx(
        math.hypot(*exact.ravel()), rel=1e-12
    )


def test_scaled_wiener_sum_variance_exact_rates():
    # exact covariances of the discrete Wiener sums (Toeplitz quadratic
    # forms, no sampling): for a constant integrand the n^{-H} scaling has
    # unit variance at every n (fBm telescoping and the Gram anchor agree),
    # while mean-zero integrands decay like n^{1-2H}, i.e. they live on the
    # classical square-root scale and fall away from the Gram entry
    hurst, m = 0.65, 32
    h = 1.0 / m

    def exact_var(f, n):
        t = np.arange(n * m) * h
        rho = fgn_autocovariance(hurst, np.arange(n * m)) * h ** (2 * hurst)
        vec = f(t)
        return float(vec @ scipy.linalg.matmul_toeplitz((rho, rho), vec)) * n ** (-2 * hurst)

    for n in (25, 100, 400):
        assert exact_var(one, n) == pytest.approx(1.0, rel=1e-10)

    v25, v100, v400 = (exact_var(sin1, n) for n in (25, 100, 400))
    gram_entry = singular_pair_integral(sin1, sin1, hurst)
    rate = 4.0 ** (1.0 - 2.0 * hurst)
    assert v100 / v25 == pytest.approx(rate, abs=0.03)
    assert v400 / v100 == pytest.approx(rate, abs=0.02)
    assert v400 < 0.2 * gram_entry

    # a mixed integrand is dominated by its period mean: the scaled
    # variance descends toward fbar^2, not toward the Gram entry
    def mixed(t):
        return 1.0 + sin1(t)

    values = [exact_var(mixed, n) for n in (25, 100, 400, 1600)]
    mixed_gram = singular_pair_integral(mixed, mixed, hurst)
    assert mixed_gram == pytest.approx(1.0 + gram_entry, abs=1e-8)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=0.1)
    assert values[-1] < 0.7 * mixed_gram


def _steady_orbit_loadings(model, step):
    """Loadings of the noiseless stationary Euler orbit (the discrete-grid
    analogue of the Lambda limit)."""
    from dataclasses import replace

    quiet = replace(model, sigma=0.0)
    path = simulate_path(quiet, 1, step, seed=0, stationary_start=True)
    return build_design(path).loadings


def test_empirical_loadings_converge_to_limit():
    # ergodic bridge: on long stationary noisy paths the empirical loadings
    # average to the steady-orbit loadings of the simulated grid system
    # within Monte Carlo error ...
    model = acceptance_model()
    step, n, reps = 1 / 128, 500, 100
    grid_limit = _steady_orbit_loadings(model, step)
    samples = np.empty((reps, 2))
    for r in range(reps):
        path = simulate_path(model, n, step, substream_seed(404, n, r), stationary_start=True)
        samples[r] = build_design(path).loadings
    se = samples.std(axis=0, ddof=1) / math.sqrt(reps)
    gap = np.abs(samples.mean(axis=0) - grid_limit)
    assert np.all(gap <= 3 * se), f"gap {gap} vs 3SE {3 * se}"


def test_grid_loadings_approach_continuous_limit_with_step():
    # ... and the grid loadings carry only an O(step) discretization bias
    # relative to the analytic Lambda
    model = acceptance_model()
    lam = np.array(limit_summary(model).report["lambda"])
    gaps = []
    for step in (1 / 128, 1 / 256):
        gaps.append(np.max(np.abs(_steady_orbit_loadings(model, step) - lam)))
    assert gaps[0] <= 0.02
    assert gaps[1] <= 0.6 * gaps[0]


# -------------------------------------------------------- finite horizon


def _dense_quadratic_variance(hurst, step, alpha, n_steps, past=200):
    """Var(sum_k Z_k dB_k) from the dense joint covariance of the driver:
    Z = M dB over a truncated past of ``past`` increments (a^past is
    negligible), S = dB^T K dB with K symmetric, Var(S) = 2 tr(K G K G)."""
    a = 1.0 - alpha * step
    total = past + n_steps
    gram = fgn_covariance(hurst, total, step)
    lower = np.zeros((n_steps, total))
    select = np.zeros((n_steps, total))
    for k in range(n_steps):
        lags = np.arange(k + past)
        lower[k, k + past - 1 - lags] = a**lags
        select[k, k + past] = 1.0
    kernel = 0.5 * (lower.T @ select + select.T @ lower)
    return 2.0 * np.trace(kernel @ gram @ kernel @ gram)


@pytest.mark.parametrize(
    "hurst,step,alpha,n_steps", [(0.7, 0.25, 1.0, 1), (0.7, 0.25, 1.0, 12), (0.6, 0.1, 2.0, 9)]
)
def test_quadratic_noise_variance_matches_dense_isserlis(hurst, step, alpha, n_steps):
    ours = quadratic_noise_variance(hurst, step, alpha, n_steps)
    dense = _dense_quadratic_variance(hurst, step, alpha, n_steps)
    assert ours == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("alpha", [1.0, 0.1, 0.01])
@pytest.mark.parametrize("hurst, n_steps", [(0.55, 1), (0.65, 700), (0.74, 51200)])
def test_quadratic_noise_variance_matches_the_memory_recursion(hurst, n_steps, alpha):
    """Starting the backward c_ZB recursion at the horizon from the lag kernel
    agrees with starting it at zero ln(1e-17) / ln(a) lags beyond."""
    ours = quadratic_noise_variance(hurst, 1 / 256, alpha, n_steps)
    reference = memory_quadratic_noise_variance(hurst, 1 / 256, alpha, n_steps)
    assert ours == pytest.approx(reference, rel=1e-9)


def test_quadratic_noise_variance_memory_does_not_grow_as_alpha_falls():
    """O(N + 4096) at any alpha: the recursion from zero beyond the horizon
    peaked at 405 MB at alpha = 1e-3 (n = 200, m = 256)."""
    tracemalloc.start()
    try:
        quadratic_noise_variance(0.65, 1 / 256, 1e-3, 200 * 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


def test_steady_euler_orbit_is_the_noiseless_stationary_path():
    model = acceptance_model()
    step = 1 / 64
    quiet = simulate_path(replace(model, sigma=0.0), 1, step, seed=0, stationary_start=True)
    np.testing.assert_allclose(steady_euler_orbit(model, step), quiet.x[:-1], atol=1e-7)


def test_finite_horizon_constant_basis_reduces_to_limit():
    # a constant integrand telescopes: n^{-2H} Var(B_n) = 1 at every n, so
    # the mu entry is exactly sigma^2 = sigma^2 C Sigma0 C there
    basis = const_basis()
    flat = FouModel(hurst=0.65, alpha=1.0, mu=(0.0,), sigma=0.8, basis=basis)
    summary = limit_summary(flat)
    finite = finite_horizon_covariance(flat, 50, 1 / 64, summary.c_matrix)
    assert finite[0, 0] == pytest.approx(flat.sigma**2, rel=1e-10)
    assert finite[0, 0] == pytest.approx(summary.asym_cov[0, 0], rel=1e-10)
    # with a level the linear noise block is Sigma0 itself; only the alpha
    # entry gains the quadratic term sigma^2 Var(S), which drains with n
    level = FouModel(hurst=0.6, alpha=0.8, mu=(1.3,), sigma=1.0, basis=basis)
    sigma0 = noise_covariance_limit(level)
    extra = []
    for n in (20, 80):
        noise = finite_horizon_noise_cov(level, n, 1 / 32)
        np.testing.assert_allclose(noise[0], sigma0[0], atol=1e-8)
        extra.append(noise[1, 1] - sigma0[1, 1])
    assert 0.0 < extra[1] < extra[0]


def _tiled_noise_cov(model, n, step):
    """Cov(n^{-H} R_n) with one period of integrands tiled over all n*m grid
    points and multiplied by the full fGn Toeplitz matrix."""
    hurst = model.hurst
    n_steps = n * round(1.0 / step)
    period = np.vstack(
        [model.basis.evaluate(period_grid(step)), -steady_euler_orbit(model, step)]
    )
    integrands = np.tile(period, n).T
    column = step ** (2.0 * hurst) * fgn_autocovariance(hurst, np.arange(n_steps))
    cov = integrands.T @ scipy.linalg.matmul_toeplitz((column, column), integrands)
    cov[-1, -1] += model.sigma**2 * quadratic_noise_variance(hurst, step, model.alpha, n_steps)
    return n ** (-2.0 * hurst) * cov


_FOLD_SPECS = [{"kind": "const"}] + [
    {"kind": kind, "k": k} for k in (1, 2, 3) for kind in ("sin", "cos")
]


@pytest.mark.parametrize("hurst", [0.55, 0.65, 0.74])
@pytest.mark.parametrize("p", [1, 2, 7])
def test_folded_kernel_matches_tiled_toeplitz_form(p, hurst):
    specs = _FOLD_SPECS[1:3] if p == 2 else _FOLD_SPECS[:p]
    basis = BasisSet.from_specs(specs)
    model = FouModel(
        hurst=hurst, alpha=1.0, mu=tuple(np.linspace(0.5, 1.5, p)), sigma=0.5, basis=basis
    )
    for n in (1, 7, 50, 200):
        for m in (16, 256):
            folded = finite_horizon_noise_cov(model, n, 1 / m)
            tiled = _tiled_noise_cov(model, n, 1 / m)
            gap = np.max(np.abs(folded - tiled)) / np.max(np.abs(tiled))
            assert gap <= 1e-12, f"n={n}, m={m}: relative gap {gap:.2e}"


@pytest.mark.parametrize("n", [8, 32])
def test_finite_horizon_noise_cov_matches_monte_carlo(n):
    # exact Cov(n^{-H} R_n) against sampled noise vectors of the estimator,
    # entrywise within four standard errors of the sample covariance
    model = acceptance_model()
    step, reps = 1 / 32, 400
    exact = finite_horizon_noise_cov(model, n, step)
    noise = np.empty((reps, 3))
    for r in range(reps):
        path = simulate_path(model, n, step, substream_seed(808, n, r), stationary_start=True)
        result = estimate(path, mode="oracle_divergence", alpha_for_correction=model.alpha)
        noise[r] = n ** (-model.hurst) * result.noise_vector
    centred = noise - noise.mean(axis=0)
    for i in range(3):
        for j in range(i, 3):
            products = centred[:, i] * centred[:, j]
            se = products.std(ddof=1) / math.sqrt(reps)
            z = (products.sum() / (reps - 1) - exact[i, j]) / se
            assert abs(z) <= 4.0, f"entry ({i}, {j}): z = {z:.2f}"
