"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they appear.  Two criteria assert findings of the numerical experiments
(see the README's acceptance section).  Criterion 4: the noiseless
stationary sine/cosine path lies in the basis span, so the normal matrix is
singular and the estimator must report a degenerate design; noiseless
recovery is asserted on the same model with a fixed start.  Criterion 6:
only the period means of the integrands survive the n^{-H} scaling, so
mean-zero periodic integrands obey a square-root central limit theorem and
sigma^2 C Sigma_0 C is not the covariance the scaled errors have; the study
is judged against the exact finite-horizon covariance
sigma^2 C Cov(n^{-H} R_n) C at its own horizon, and the gap to
sigma^2 C Sigma_0 C is reported alongside.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import normal_matrix, singular_pair_integral
from perifou import (
    BasisSet,
    DegenerateDesign,
    FouModel,
    McConfig,
    estimate,
    run_clt,
    run_consistency,
    run_coupling,
    simulate_path,
    wiener_variance_study,
)
from perifou.estimator import DesignStats, normal_matrix_inverse
from perifou.experiments import report_to_dict, write_qq_csv, write_replicates_csv
from perifou.fgn import (
    FgnSpec,
    fgn_autocovariance,
    fgn_covariance,
    generate_fgn_circulant,
    substream_seed,
)

WORKERS = min(4, os.cpu_count() or 1)

SQRT2 = math.sqrt(2.0)


def acceptance_basis():
    return BasisSet.from_specs([{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}])


def acceptance_model():
    return FouModel(
        hurst=0.65, alpha=1.0, mu=(1.0, 2.0), sigma=0.5, basis=acceptance_basis()
    )


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f" | {detail}"
    print(line)


# ----------------------------------------------------------------- fixtures


def _write_json(payload, filename):
    with open(filename, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _noiseless_stationary_estimate_artifact(out_dir):
    """Criterion 4 pipeline; writes the estimate report artifact."""
    model = FouModel(
        hurst=0.65, alpha=0.8, mu=(1.0, 0.5), sigma=0.0, basis=acceptance_basis()
    )
    path = simulate_path(model, 50, 1 / 1024, seed=44, stationary_start=True)
    try:
        result = estimate(path)
        payload = result.to_report()
        error = None
    except DegenerateDesign as exc:
        payload = {"degenerate": True, "reason": str(exc), "theta_hat": None}
        error = exc
    _write_json(payload, out_dir / "estimate.json")
    return payload, error, model


def _run_consistency_study(out_dir, workers):
    config = McConfig(
        model=acceptance_model(),
        n_list=(25, 50, 100, 200),
        replicates=200,
        step=1 / 256,
        mode="oracle_divergence",
        master_seed=20240801,
        workers=workers,
    )
    report = run_consistency(config)
    write_replicates_csv(report, out_dir / "consistency_replicates.csv")
    _write_json(report_to_dict(report), out_dir / "consistency_report.json")
    return report


def _run_clt_study(out_dir, workers):
    config = McConfig(
        model=acceptance_model(),
        n_list=(200,),
        replicates=500,
        step=1 / 256,
        mode="oracle_divergence",
        master_seed=20240806,
        workers=workers,
    )
    report = run_clt(config)
    write_replicates_csv(report, out_dir / "clt_replicates.csv")
    _write_json(report_to_dict(report), out_dir / "clt_report.json")
    write_qq_csv(report, out_dir / "clt_qq.csv")
    return report


@pytest.fixture(scope="module")
def consistency_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("consistency")
    start = time.perf_counter()
    report = _run_consistency_study(out, WORKERS)
    elapsed = time.perf_counter() - start
    return report, out, elapsed


@pytest.fixture(scope="module")
def clt_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("clt")
    start = time.perf_counter()
    report = _run_clt_study(out, WORKERS)
    elapsed = time.perf_counter() - start
    return report, out, elapsed


# ----------------------------------------------------------------- criteria


def test_criterion_01_exact_covariance_sampling():
    start = time.perf_counter()
    factor_gap = 0.0
    for hurst in (0.6, 0.7):
        cov = fgn_covariance(hurst, 64)
        lower = np.linalg.cholesky(cov)
        factor_gap = max(factor_gap, float(np.max(np.abs(lower @ lower.T - cov))))

    hurst, count, reps = 0.7, 4096, 200
    draws = np.empty((reps, count))
    for r in range(reps):
        spec = FgnSpec(hurst, 1.0, count, substream_seed(42, 0, r))
        draws[r] = generate_fgn_circulant(spec)
    worst_z = 0.0
    for lag in range(6):
        per_draw = (draws[:, : count - lag] * draws[:, lag:]).mean(axis=1)
        se = per_draw.std(ddof=1) / math.sqrt(reps)
        z = abs(per_draw.mean() - fgn_autocovariance(hurst, lag)) / se
        worst_z = max(worst_z, z)
    elapsed = time.perf_counter() - start

    ok = factor_gap <= 1e-10 and worst_z <= 4.0 and elapsed <= 30.0
    detail = f"LL^T gap {factor_gap:.2e}, worst |z| {worst_z:.2f}, {elapsed:.1f}s"
    _verdict(1, "exact-covariance sampling", ok, detail)
    assert ok, detail


def test_criterion_02_quadrature_anchor():
    import scipy.linalg

    start = time.perf_counter()
    anchor_gap = max(
        abs(singular_pair_integral(lambda t: np.ones_like(t), lambda t: np.ones_like(t), h) - 1.0)
        for h in (0.55, 0.6, 0.65, 0.7, 0.74)
    )

    def brute(f, g, hurst, cells=2000):
        h = 1.0 / cells
        mid = (np.arange(cells) + 0.5) * h
        rho = fgn_autocovariance(hurst, np.arange(cells)) * h ** (2 * hurst)
        return float(f(mid) @ scipy.linalg.matmul_toeplitz((rho, rho), g(mid)))

    funcs = [
        lambda t: SQRT2 * np.sin(2 * np.pi * t),
        lambda t: SQRT2 * np.cos(2 * np.pi * t),
    ]
    brute_gap = 0.0
    for i in range(2):
        for j in range(i, 2):
            ours = singular_pair_integral(funcs[i], funcs[j], 0.65)
            ref = brute(funcs[i], funcs[j], 0.65)
            brute_gap = max(brute_gap, abs(ours - ref))
    elapsed = time.perf_counter() - start

    ok = anchor_gap <= 1e-8 and brute_gap <= 1e-4 and elapsed <= 10.0
    detail = f"anchor gap {anchor_gap:.2e}, brute gap {brute_gap:.2e}, {elapsed:.1f}s"
    _verdict(2, "quadrature anchor", ok, detail)
    assert ok, detail


def test_criterion_03_closed_form_inverse():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for trial in range(100):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(3, 500))
        loadings = rng.normal(scale=2.0, size=p)
        residual = float(rng.uniform(0.02, 5.0))
        stats = DesignStats(
            gram=n * np.eye(p), loadings=loadings, residual=residual, n_periods=n
        )
        q = normal_matrix(stats)
        inv = normal_matrix_inverse(stats)
        worst = max(worst, float(np.max(np.abs(q @ inv - np.eye(p + 1)))))
    ok = worst <= 1e-8
    detail = f"worst |Q Qinv - I| {worst:.2e} over 100 designs"
    _verdict(3, "closed-form normal-matrix inverse", ok, detail)
    assert ok, detail


def test_criterion_04_noiseless_recovery(tmp_path):
    # The stationary path is the steady orbit, which lies in the sine/cosine
    # span: every alpha' reproduces it, so the estimator must report a
    # degenerate design rather than an estimate.  The fixed-start twin
    # leaves the span during its transient and identifies theta.
    start = time.perf_counter()
    payload, error, model = _noiseless_stationary_estimate_artifact(tmp_path)
    written = json.loads((tmp_path / "estimate.json").read_text())
    degenerate_ok = (
        isinstance(error, DegenerateDesign)
        and written["degenerate"] is True
        and written["theta_hat"] is None
    )
    fixed = replace(model, xi0=0.0)
    path = simulate_path(fixed, 50, 1 / 1024, seed=44, stationary_start=False)
    gap = float(np.max(np.abs(estimate(path).theta_hat - fixed.theta)))
    elapsed = time.perf_counter() - start
    ok = degenerate_ok and gap <= 1e-2 and elapsed <= 5.0
    detail = (
        f"stationary start degenerate: {degenerate_ok}, "
        f"fixed start |theta_hat - theta|_inf {gap:.2e}, {elapsed:.1f}s"
    )
    _verdict(4, "noiseless recovery (sine/cosine, stationary and fixed start)", ok, detail)
    assert ok, detail


def test_criterion_05_consistency(consistency_study):
    report, _, elapsed = consistency_study
    rmse_first = np.asarray(report.aggregates[25]["rmse"])
    rmse_last = np.asarray(report.aggregates[200]["rmse"])
    halved = bool(np.all(rmse_last <= 0.5 * rmse_first))
    bias = np.asarray(report.aggregates[200]["bias"])
    se = np.asarray(report.aggregates[200]["se"])
    unbiased = bool(np.all(np.abs(bias) <= 3.0 * se))
    ok = halved and unbiased and elapsed <= 600.0
    detail = (
        f"RMSE ratio {np.array2string(rmse_last / rmse_first, precision=3)}, "
        f"|bias|/SE {np.array2string(np.abs(bias) / se, precision=2)}, "
        f"{elapsed:.0f}s on {WORKERS} workers"
    )
    _verdict(5, "consistency at growing horizons", ok, detail)
    assert ok, detail


def test_criterion_06_clt_covariance_and_moments(clt_study):
    report, _, elapsed = clt_study
    clt = report.clt
    frob = clt["finite_horizon_mu_rel_frobenius"]
    max_skew = max(abs(v) for v in clt["skewness"])
    max_kurt = max(abs(v) for v in clt["excess_kurtosis"])
    frob_ok = frob <= 0.25
    moments_ok = max_skew <= 0.3 and max_kurt <= 0.5
    ok = frob_ok and moments_ok and elapsed <= 1200.0

    def mu_diag(cov):
        return np.array2string(np.diag(cov)[:2], precision=3)

    detail = (
        f"mu-block rel Frobenius {frob:.3f} vs finite-horizon covariance (<= 0.25: {frob_ok}), "
        f"{clt['mu_block_rel_frobenius']:.3f} vs sigma^2 C Sigma0 C, "
        f"max |skew| {max_skew:.3f}, max |ex-kurt| {max_kurt:.3f}, "
        f"empirical mu-diag {mu_diag(clt['scaled_error_covariance'])} vs "
        f"finite-horizon {mu_diag(clt['finite_horizon_covariance'])} "
        f"and limit {mu_diag(clt['reference_covariance'])}, "
        f"{elapsed:.0f}s on {WORKERS} workers"
    )
    _verdict(6, "scaled-error law vs finite-horizon covariance", ok, detail)
    assert ok, detail


def test_criterion_07_l2_boundedness():
    result = wiener_variance_study(
        acceptance_basis(),
        hurst=0.65,
        n_list=(50, 200),
        replicates=500,
        step=1 / 256,
        master_seed=314,
    )
    bound = result["bound"]
    within = all(
        v <= bound for n in (50, 200) for v in result["per_n"][n]["variance"]
    )
    ok = within and result["trend_ok"]
    detail = (
        f"variances n=50 {np.array2string(np.asarray(result['per_n'][50]['variance']), precision=3)}, "
        f"n=200 {np.array2string(np.asarray(result['per_n'][200]['variance']), precision=3)}, "
        f"bound {bound:.1f}, upward trend: {not result['trend_ok']}"
    )
    _verdict(7, "scaled noise variance bounded", ok, detail)
    assert ok, detail


def test_criterion_08_stationary_variance():
    model = FouModel(
        hurst=0.7,
        alpha=1.0,
        mu=(0.0,),
        sigma=1.0,
        basis=BasisSet.from_specs([{"kind": "sin", "k": 1}]),
    )
    path = simulate_path(model, 2050, 1 / 64, seed=1)
    retained = path.x[50 * 64 :]
    sample_var = float(np.var(retained))
    target = 0.7 * math.gamma(1.4)
    rel = abs(sample_var - target) / target
    ok = rel <= 0.05
    detail = f"sample var {sample_var:.4f} vs {target:.4f} (rel {rel:.2%})"
    _verdict(8, "stationary variance constant", ok, detail)
    assert ok, detail


def test_criterion_09_coupling_decay():
    model = FouModel(
        hurst=0.7,
        alpha=1.0,
        mu=(1.0,),
        sigma=0.5,
        basis=BasisSet.from_specs([{"kind": "sin", "k": 1}]),
    )
    details = []
    ok = True
    for alpha in (0.5, 1.0, 2.0):
        report = run_coupling(
            replace(model, alpha=alpha), horizon=12, step=1 / 128, master_seed=3, gap0=1.0
        )
        rel = abs(report.slope + alpha) / alpha
        ok = ok and rel <= 0.10
        details.append(f"alpha {alpha:g}: slope {report.slope:.4f} (dev {rel:.2%})")
    detail = "; ".join(details)
    _verdict(9, "shared-noise coupling decay", ok, detail)
    assert ok, detail


def test_criterion_10_artifact_determinism(tmp_path, consistency_study, clt_study):
    _, consistency_dir, _ = consistency_study
    _, clt_dir, _ = clt_study
    other_workers = 1 if WORKERS > 1 else 2

    redo_c4a = tmp_path / "c4a"
    redo_c4b = tmp_path / "c4b"
    redo_c4a.mkdir()
    redo_c4b.mkdir()
    _noiseless_stationary_estimate_artifact(redo_c4a)
    _noiseless_stationary_estimate_artifact(redo_c4b)

    redo_c5 = tmp_path / "c5"
    redo_c5.mkdir()
    _run_consistency_study(redo_c5, other_workers)
    redo_c6 = tmp_path / "c6"
    redo_c6.mkdir()
    _run_clt_study(redo_c6, other_workers)

    pairs = [
        (redo_c4a / "estimate.json", redo_c4b / "estimate.json"),
        (consistency_dir / "consistency_replicates.csv", redo_c5 / "consistency_replicates.csv"),
        (consistency_dir / "consistency_report.json", redo_c5 / "consistency_report.json"),
        (clt_dir / "clt_replicates.csv", redo_c6 / "clt_replicates.csv"),
        (clt_dir / "clt_report.json", redo_c6 / "clt_report.json"),
        (clt_dir / "clt_qq.csv", redo_c6 / "clt_qq.csv"),
    ]
    mismatched = [a.name for a, b in pairs if a.read_bytes() != b.read_bytes()]
    ok = not mismatched
    detail = (
        f"workers {WORKERS} vs {other_workers}, {len(pairs)} artifacts compared"
        + (f", mismatched: {mismatched}" if mismatched else ", all byte-identical")
    )
    _verdict(10, "artifact determinism across worker counts", ok, detail)
    assert ok, detail
