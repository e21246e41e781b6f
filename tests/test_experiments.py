"""Monte Carlo harness: determinism, aggregation integrity, study behavior."""

import ctypes
import json
import math
import os
import threading
from dataclasses import fields
from dataclasses import replace as dc_replace

import mpmath
import numpy as np
import pytest

from perifou import (
    BasisSet,
    FouModel,
    McConfig,
    run_clt,
    run_consistency,
    run_coupling,
)
from oracles import fresh_interpreter_prints, read_replicates_csv, wiener_variance_study
from perifou import experiments
from perifou.experiments import (
    ExperimentReport,
    ReplicateResult,
    _normal_cdf,
    _skewness_and_excess_kurtosis,
    aggregate_rows,
    report_to_dict,
    write_coupling_csv,
    write_qq_csv,
    write_replicates_csv,
)
from perifou.cli import main as cli_main
from perifou.errors import DegenerateDesign, InvalidInput
from perifou.estimator import estimate, estimate_rows
from perifou.experiments import _run_batch
from perifou.fgn import embedding_size, substream_seed
from perifou.model import SamplePath, path_from_increments, simulate_path, simulate_paths


def sine_basis():
    return BasisSet.from_specs([{"kind": "sin", "k": 1}])


def sincos_basis():
    return BasisSet.from_specs([{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}])


def small_model(sigma=0.5):
    return FouModel(hurst=0.65, alpha=1.0, mu=(1.0, 2.0), sigma=sigma, basis=sincos_basis())


def small_config(**overrides):
    defaults = dict(
        model=small_model(),
        n_list=(4, 8),
        replicates=6,
        step=1 / 64,
        mode="oracle_divergence",
        master_seed=2024,
        workers=1,
    )
    defaults.update(overrides)
    return McConfig(**defaults)


# -------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replicates=1)
    with pytest.raises(ValueError):
        small_config(n_list=())
    with pytest.raises(ValueError):
        small_config(n_list=(8, 4))
    with pytest.raises(ValueError):
        small_config(mode="other")
    with pytest.raises(ValueError):
        small_config(workers=0)


# -------------------------------------------------------------- determinism


def test_consistency_report_is_deterministic():
    a = run_consistency(small_config())
    b = run_consistency(small_config())
    assert a.rows == b.rows
    assert a.aggregates == b.aggregates


def test_worker_count_does_not_change_results():
    serial = run_consistency(small_config(workers=1))
    parallel = run_consistency(small_config(workers=2))
    assert serial.rows == parallel.rows
    assert serial.aggregates == parallel.aggregates


def test_pool_gets_no_more_workers_than_jobs_left(monkeypatch, tmp_path):
    """The fork-context pool starts all ``max_workers`` processes up front,
    so two batches (two horizons of two replicates) at workers=6 must fork
    one process, not six, and one batch none."""
    import concurrent.futures

    sizes = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    run_consistency(small_config(n_list=(2,), replicates=2, workers=6))
    assert sizes == []
    serial = run_consistency(small_config(n_list=(2, 4), replicates=2, workers=1))
    pooled = run_consistency(small_config(n_list=(2, 4), replicates=2, workers=6))
    assert sizes == [1]
    write_replicates_csv(serial, tmp_path / "serial.csv")
    write_replicates_csv(pooled, tmp_path / "pooled.csv")
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()


def _on_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _threaded_config(**overrides):
    """p = 7 at alpha = 4: batches of 8 replicates at n = 10 and 4 at n = 25."""
    defaults = dict(model=_p_model(7), n_list=(10, 25), replicates=24, step=1 / 256)
    return small_config(**{**defaults, **overrides})


def test_threaded_study_equals_the_batch_loop_and_the_pool(monkeypatch, tmp_path):
    """workers=1 runs its batches on threads; the plain loop over the
    batches is the reference, and the pool's CSV is byte-equal."""
    _on_cpus(monkeypatch, 2)
    config = _threaded_config()
    batches = experiments._batches(config)
    assert len(batches) == 9
    threaded = run_consistency(config)
    assert threaded.ran_on == "2 threads"
    loop = [row for batch in batches for row in _run_batch(
        config.model, config.step, config.mode, config.master_seed, batch)]
    assert len(threaded.rows) == len(loop) == 48
    for row, reference in zip(threaded.rows, loop):
        assert [getattr(row, f.name) for f in fields(row)] == [
            getattr(reference, f.name) for f in fields(reference)]
    pooled = run_consistency(dc_replace(config, workers=2))
    assert pooled.ran_on == "2 processes"
    write_replicates_csv(threaded, tmp_path / "threaded.csv")
    write_replicates_csv(pooled, tmp_path / "pooled.csv")
    assert (tmp_path / "threaded.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()


@pytest.mark.parametrize(
    "cpus, replicates, helpers", [(1, 24, 0), (2, 8, 0), (2, 24, 1), (3, 32, 2), (4, 24, 1)]
)
def test_helper_threads_start_after_the_first_batch(monkeypatch, cpus, replicates, helpers):
    """min(usable CPUs, batches left) threads run the batches after the
    first, the calling thread among them; none starts before it returns."""
    events = []

    class SpyThread(threading.Thread):
        def start(self):
            events.append("thread")
            super().start()

    def spy_batch(*args):
        rows = _run_batch(*args)
        events.append("batch")
        return rows

    _on_cpus(monkeypatch, cpus)
    monkeypatch.setattr(threading, "Thread", SpyThread)
    monkeypatch.setattr(experiments, "_run_batch", spy_batch)
    report = run_consistency(_threaded_config(n_list=(10,), replicates=replicates))
    assert events.count("thread") == helpers
    assert events[0] == "batch" and events.count("batch") == math.ceil(replicates / 8)
    assert report.ran_on == (f"{helpers + 1} threads" if helpers else "serial")


def test_cpu_count_stands_in_where_there_is_no_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    config = _threaded_config(n_list=(10,))
    for count, ran_on in ((2, "2 threads"), (None, "serial"), (1, "serial")):
        monkeypatch.setattr(os, "cpu_count", lambda count=count: count)
        assert run_consistency(config).ran_on == ran_on


class BatchFailure(Exception):
    pass


def _failing_batches(monkeypatch, config, fail):
    """Spy on _run_batch: record each batch's index as it starts and call
    ``fail(index)`` before running it."""
    batches, started = experiments._batches(config), []

    def spy_batch(*args):
        index = batches.index(args[-1])
        started.append(index)
        fail(index)
        return _run_batch(*args)

    monkeypatch.setattr(experiments, "_run_batch", spy_batch)
    return batches, started


def test_threaded_study_raises_the_failing_batch_and_starts_no_more(monkeypatch):
    _on_cpus(monkeypatch, 2)
    config = _threaded_config(n_list=(10,), replicates=96)

    def fail(index):
        if index == 3:
            raise BatchFailure(index)

    batches, started = _failing_batches(monkeypatch, config, fail)
    assert len(batches) == 12
    with pytest.raises(BatchFailure, match="^3$"):
        run_consistency(config)
    # the other thread may already be running batch 4, but no more starts
    assert sorted(started)[:4] == [0, 1, 2, 3] and max(started) <= 4


def test_threaded_study_raises_the_first_failure_in_batch_order(monkeypatch):
    """Batch 4 fails while batch 3 is still running: batch 3's exception is
    raised, as in the serial loop, and neither thread starts batch 5."""
    _on_cpus(monkeypatch, 2)
    config = _threaded_config(n_list=(10,), replicates=96)
    fourth_failed = threading.Event()

    def fail(index):
        if index == 3:
            assert fourth_failed.wait(timeout=30)
            raise BatchFailure(index)
        if index == 4:
            fourth_failed.set()
            raise BatchFailure(index)

    _, started = _failing_batches(monkeypatch, config, fail)
    with pytest.raises(BatchFailure, match="^3$"):
        run_consistency(config)
    assert sorted(started) == [0, 1, 2, 3, 4]


def test_replicate_seeds_depend_only_on_master_n_r():
    report = run_consistency(small_config())
    other = run_consistency(small_config(n_list=(8, 16)))
    seeds_a = {(r.n, r.replicate): r.seed for r in report.rows if r.n == 8}
    seeds_b = {(r.n, r.replicate): r.seed for r in other.rows if r.n == 8}
    assert seeds_a == seeds_b


# -------------------------------------------------------------- batches

P7_SPECS = [{"kind": "const"}] + [
    {"kind": kind, "k": k} for k in (1, 2, 3) for kind in ("sin", "cos")
]


def _p_model(p, sigma=0.5):
    """alpha = 4 as in the benchmark's p = 7 workload: a short burn-in."""
    specs = P7_SPECS if p == 7 else [{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}]
    mu = (0.5, -1.0, 1.2, 0.3, -0.7, 1.9, 0.1)[:p]
    return FouModel(hurst=0.65, alpha=4.0, mu=mu, sigma=sigma, basis=BasisSet.from_specs(specs))


def _single(model, step, mode, master, n, r):
    """The replicate (n, r) as one path through simulate_path and estimate."""
    seed = substream_seed(master, n, r)
    path = simulate_path(model, n, step, seed, stationary_start=True)
    alpha_ref = model.alpha if mode == "oracle_divergence" else None
    return estimate(path, mode=mode, sigma=model.sigma, alpha_for_correction=alpha_ref)


@pytest.mark.parametrize("mode", ["oracle_divergence", "naive_pathwise"])
@pytest.mark.parametrize("p", [2, 7])
@pytest.mark.parametrize("n", [2, 10, 25])
def test_batched_replicates_equal_single_paths_bit_for_bit(n, p, mode):
    model, step, master = _p_model(p), 1 / 256, 17
    for size in (1, 2, 3, 8):
        replicates = tuple(range(10, 10 + size))
        rows = _run_batch(model, step, mode, master, (n, replicates))
        assert [(row.n, row.replicate) for row in rows] == [(n, r) for r in replicates]
        for row in rows:
            single = _single(model, step, mode, master, n, row.replicate)
            assert row.seed == substream_seed(master, n, row.replicate)
            assert row.theta_hat == tuple(single.theta_hat.tolist())
            assert row.noise_vector == tuple(single.noise_vector.tolist())


def test_degenerate_row_gives_none_and_leaves_its_neighbours():
    """A constant path against the constant basis has no residual variance."""
    model = FouModel(hurst=0.65, alpha=4.0, mu=(1.0,), sigma=0.5,
                     basis=BasisSet.from_specs([{"kind": "const"}]))
    batch = simulate_paths(model, 3, 1 / 64, (1, 2, 3), stationary_start=True)
    x = batch.x.copy()
    x[1] = 0.7
    batch = SamplePath(batch.grid, x, batch.driver_increments, model, True)
    results = estimate_rows(batch, mode="oracle_divergence", sigma=0.5, alpha_for_correction=4.0)
    assert results[1] is None
    with pytest.raises(DegenerateDesign):
        estimate(SamplePath(batch.grid, x[1], batch.driver_increments[1], model, True))
    for row in (0, 2):
        single = SamplePath(batch.grid, x[row], batch.driver_increments[row], model, True)
        alone = estimate(single, mode="oracle_divergence", sigma=0.5, alpha_for_correction=4.0)
        assert results[row].theta_hat.tobytes() == alone.theta_hat.tobytes()
        assert results[row].noise_vector.tobytes() == alone.noise_vector.tobytes()


def test_overflowing_row_raises_what_the_serial_loop_raises_at_the_same_job():
    """sigma is set so that the sum of x^2 overflows on some replicates of a
    batch of eight but not on the first: the batch raises at the first job
    whose normal equations overflow, with that path's message."""
    model, step, master, n = _p_model(2, sigma=1.0), 1 / 256, 3, 10
    energy = [float(np.sum(simulate_path(_p_model(2, sigma=1.0), n, step,
                                         substream_seed(master, n, r), True).x[:-1] ** 2))
              for r in range(8)]
    assert max(energy) > energy[0]
    threshold = (energy[0] + max(energy)) / 2  # sigma^2 * energy overflows above it
    model = dc_replace(model, sigma=math.sqrt(np.finfo(float).max / threshold), mu=(0.0, 0.0))
    config = McConfig(model, (n,), 8, step, "naive_pathwise", master)
    assert [len(replicates) for _, replicates in experiments._batches(config)] == [8]
    serial = None
    for r in range(8):
        try:
            _single(model, step, "naive_pathwise", master, n, r)
        except InvalidInput as exc:
            serial = r, str(exc)
            break
    assert serial is not None and serial[0] > 0
    with pytest.raises(InvalidInput) as batched:
        experiments._map_jobs(config)
    assert str(batched.value) == serial[1] and "overflow" in serial[1]


@pytest.mark.parametrize(
    "alpha, step, n_list",
    [(1.0, 1 / 256, (200,)), (4.0, 1 / 256, (2, 10, 25)), (1.0, 1 / 64, (1, 4, 8)),
     (0.5, 1 / 16, (1, 3)), (4.0, 1 / 4, (1, 2, 50))],
)
def test_batches_keep_job_order_and_the_point_budget(alpha, step, n_list):
    """Batches hold consecutive jobs of one horizon, in job order, and B*M
    stays within BATCH_POINTS unless B = 1; at n = 200, m = 256 and alpha =
    1 (M = 2^17) every batch is one replicate, as the acceptance mc-clt runs."""
    model = FouModel(hurst=0.65, alpha=alpha, mu=(1.0, 2.0), sigma=0.5, basis=sincos_basis())
    config = McConfig(model, n_list, 20, step, "oracle_divergence", 1)
    jobs = [(n, r) for n in n_list for r in range(20)]
    batches = experiments._batches(config)
    assert [(n, r) for n, replicates in batches for r in replicates] == jobs
    m = round(1 / step)
    for n, replicates in batches:
        count = (n + math.ceil(math.log(1e8) / alpha)) * m
        points = len(replicates) * embedding_size(count)
        assert points <= experiments.BATCH_POINTS or len(replicates) == 1
    sizes = [len(replicates) for _, replicates in batches]
    if n_list == (200,):
        assert sizes == [1] * 20
    if n_list == (2, 10, 25):
        assert sizes == [16, 4, 8, 8, 4, 4, 4, 4, 4, 4]


def test_batched_study_artifacts_identical_across_worker_counts(tmp_path):
    """mc-consistency in batches of up to 16 replicates (n = 2 and 4, m =
    64): one batch before the fork and three on the pool write the serial
    bytes."""
    config = {
        "model": {"hurst": 0.65, "alpha": 1.0, "mu": [1.0, 2.0], "sigma": 0.5,
                  "basis": [{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}],
                  "step_denominator": 64},
        "consistency": {"n_list": [2, 4], "replicates": 20, "master_seed": 2024},
    }
    study = small_config(n_list=(2, 4), replicates=20)
    assert [len(r) for _, r in experiments._batches(study)] == [16, 4, 16, 4]
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = ["mc-consistency", "--config", str(tmp_path / "config.json")]
    statuses = [cli_main(argv + ["--out", str(tmp_path / w), "--workers", w]) for w in "12"]
    assert statuses[0] == statuses[1] in (0, 1)  # 1: the short study's verdict is FAIL
    for name in ("consistency_replicates.csv", "consistency_report.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


# -------------------------------------------------------------- aggregation


def test_aggregates_recomputable_from_csv(tmp_path):
    report = run_consistency(small_config())
    target = tmp_path / "reps.csv"
    write_replicates_csv(report, target)
    rows = read_replicates_csv(target)
    recomputed = aggregate_rows(report.config.model.theta, rows)
    assert recomputed == report.aggregates


def test_exclusion_accounting():
    theta = np.array([1.0, 0.5])
    rows = [
        ReplicateResult(4, 0, 10, (1.1, 0.6)),
        ReplicateResult(4, 1, 11, None),
        ReplicateResult(4, 2, 12, (0.9, 0.4)),
    ]
    agg = aggregate_rows(theta, rows)
    assert agg[4]["included"] == 2
    assert agg[4]["excluded"] == 1
    assert agg[4]["included"] + agg[4]["excluded"] == len(rows)


def test_one_included_replicate_has_no_standard_error():
    """A standard error needs two replicates: with one kept and one
    degenerate, se is None and no RuntimeWarning is raised."""
    theta = np.array([1.0, 0.5])
    rows = [ReplicateResult(2, 0, 0, (1.1, 0.6)), ReplicateResult(2, 1, 1, None)]
    agg = aggregate_rows(theta, rows)[2]
    assert (agg["included"], agg["excluded"], agg["se"]) == (1, 1, None)
    assert agg["bias"] == pytest.approx([0.1, 0.1], abs=1e-15)
    assert agg["rmse"] == pytest.approx([0.1, 0.1], abs=1e-15)


def test_aggregate_values_match_manual_computation():
    theta = np.array([1.0])
    rows = [
        ReplicateResult(2, 0, 0, (1.2,)),
        ReplicateResult(2, 1, 1, (0.9,)),
    ]
    agg = aggregate_rows(theta, rows)[2]
    errors = np.array([0.2, -0.1])
    assert agg["bias"][0] == pytest.approx(errors.mean(), abs=1e-15)
    assert agg["rmse"][0] == pytest.approx(np.sqrt((errors**2).mean()), abs=1e-15)
    assert agg["se"][0] == pytest.approx(errors.std(ddof=1) / math.sqrt(2), abs=1e-15)


def test_replicate_result_shape():
    """A degenerate replicate is the one with no theta_hat."""
    names = [field.name for field in fields(ReplicateResult)]
    assert names == ["n", "replicate", "seed", "theta_hat", "noise_vector"]


# -------------------------------------------------------------- studies


def test_noiseless_replicates_are_identical_with_tiny_rmse():
    model = FouModel(hurst=0.65, alpha=0.8, mu=(1.0,), sigma=0.0, basis=sine_basis())
    config = McConfig(
        model=model,
        n_list=(4, 8),
        replicates=3,
        step=1 / 64,
        mode="oracle_divergence",
        master_seed=5,
    )
    report = run_consistency(config)
    for n in (4, 8):
        block = [r.theta_hat for r in report.rows if r.n == n]
        assert all(b == block[0] for b in block)
        assert max(report.aggregates[n]["rmse"]) <= 1e-2


def test_clt_requires_single_horizon():
    with pytest.raises(ValueError):
        run_clt(small_config(n_list=(4, 8)))


def test_clt_report_fields_and_qq(tmp_path):
    config = small_config(n_list=(6,), replicates=40)
    report = run_clt(config)
    clt = report.clt
    scaled_cov = np.asarray(clt["scaled_error_covariance"])
    assert scaled_cov.shape == (3, 3)
    assert np.max(np.abs(scaled_cov - scaled_cov.T)) == 0.0
    assert np.linalg.eigvalsh(scaled_cov).min() >= -1e-10
    assert np.shape(clt["reference_covariance"]) == (3, 3)
    assert clt["mu_block_rel_frobenius"] >= 0.0
    assert np.shape(clt["finite_horizon_covariance"]) == (3, 3)
    assert np.all(np.diag(clt["finite_horizon_covariance"]) > 0.0)
    assert clt["finite_horizon_mu_rel_frobenius"] >= 0.0
    payload = report_to_dict(report)
    assert list(payload) == [
        "kind", "theta", "hurst", "n_list", "replicates", "step", "mode", "master_seed",
        "aggregates", "passed",
        "scaled_error_covariance", "reference_covariance", "mu_block_rel_frobenius",
        "full_rel_frobenius", "finite_horizon_covariance", "finite_horizon_mu_rel_frobenius",
        "skewness", "excess_kurtosis", "ecdf_distance", "noise_scaled_variance",
        "degenerate_limit",
    ]
    assert payload["kind"] == "clt" and payload["n_list"] == [6]
    assert all(payload[key] == value for key, value in clt.items())
    assert len(clt["skewness"]) == 3
    assert len(clt["excess_kurtosis"]) == 3
    assert len(clt["ecdf_distance"]) == 3
    assert all(0.0 <= d <= 1.0 for d in clt["ecdf_distance"])
    assert clt["noise_scaled_variance"] is not None
    target = tmp_path / "qq.csv"
    write_qq_csv(report, target)
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "component,quantile,empirical,theoretical"
    assert len(lines) == 1 + 3 * 40
    cells = [float(cell) for line in lines[1:] for cell in line.split(",")]
    assert all(math.isfinite(cell) for cell in cells)


NORMAL_GRID = np.linspace(-8.0, 8.0, 1601)


def _qq_columns(tmp_path, replicates):
    """The quantile and theoretical columns of ``write_qq_csv`` for a report
    whose finite-horizon standard deviations are 1, so that the theoretical
    column is the standard normal quantile at each plotting position."""
    model = FouModel(hurst=0.65, alpha=1.0, mu=(0.0,), sigma=0.5, basis=sine_basis())
    config = small_config(model=model, n_list=(4,), replicates=replicates)
    rows = [ReplicateResult(4, r, r, (0.01 * r, 1.0)) for r in range(replicates)]
    clt = {"finite_horizon_covariance": np.eye(2).tolist()}
    target = tmp_path / "qq.csv"
    write_qq_csv(ExperimentReport(config, rows, {}, True, clt=clt), target)
    cells = [line.split(",") for line in target.read_text().splitlines()[1:]]
    first = [cell for cell in cells if cell[0] == "1"]
    return np.array([float(c[1]) for c in first]), np.array([float(c[3]) for c in first])


def test_normal_cdf_matches_mpmath_to_1e_14_relative():
    """The CDF behind ecdf_distance is 0.5 erfc(-z / sqrt 2): no cancellation
    in either tail.  Rounding z / sqrt 2 costs about z^2 ulps relative, which
    sets the 1e-14 at |z| = 8."""
    with mpmath.workdps(40):
        reference = np.array([float(mpmath.ncdf(mpmath.mpf(z))) for z in NORMAL_GRID.tolist()])
    rel = np.abs(_normal_cdf(NORMAL_GRID) - reference) / reference
    assert rel.max() <= 1e-14


@pytest.mark.parametrize("replicates", [2, 3, 200, 500])
def test_qq_theoretical_quantiles_match_mpmath(tmp_path, replicates):
    """statistics.NormalDist's quantile (Wichura's AS 241) at the plotting
    positions (i - 1/2) / R is exact to double precision; an odd R puts one
    position at exactly 1/2, whose quantile is 0."""
    quantiles, theoretical = _qq_columns(tmp_path, replicates)
    assert np.array_equal(quantiles, (np.arange(1, replicates + 1) - 0.5) / replicates)
    with mpmath.workdps(40):
        reference = np.array([
            float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(q) - 1)) for q in quantiles.tolist()
        ])
    assert np.all(np.abs(theoretical - reference) <= 1e-15 * np.maximum(1.0, np.abs(reference)))
    if replicates % 2:
        assert theoretical[replicates // 2] == 0.0


def test_normal_cdf_and_quantile_moved_little_from_scipy_special(tmp_path):
    """The CDF and the quantile were scipy.special's ndtr and ndtri; math.erfc
    and statistics.NormalDist moved them by less than 2e-14 (relative for the
    CDF, times max(1, |x|) for the quantile)."""
    from scipy.special import ndtr, ndtri

    old = ndtr(NORMAL_GRID)
    assert np.max(np.abs(_normal_cdf(NORMAL_GRID) - old) / old) <= 2e-14
    quantiles, theoretical = _qq_columns(tmp_path, 500)
    old = ndtri(quantiles)
    assert np.all(np.abs(theoretical - old) <= 2e-14 * np.maximum(1.0, np.abs(old)))


def test_clt_constant_basis_mu_variance_matches_reference():
    # with the constant basis (nonzero period mean) the scaled mu error
    # variance approaches sigma^2, the telescoping fBm case
    model = FouModel(
        hurst=0.65, alpha=1.0, mu=(0.0,), sigma=0.8, basis=BasisSet.from_specs([{"kind": "const"}])
    )
    config = McConfig(
        model=model, n_list=(200,), replicates=250, step=1 / 64,
        mode="oracle_divergence", master_seed=31,
    )
    clt = run_clt(config).clt
    emp = clt["scaled_error_covariance"][0][0]
    ref = clt["reference_covariance"][0][0]
    assert ref == pytest.approx(model.sigma**2, rel=1e-6)
    assert abs(emp / ref - 1.0) <= 0.3


def test_clt_sine_basis_mu_variance_decays_below_reference():
    # mean-zero basis functions: the n^{1-H}-scaled error variance decays
    # with n instead of approaching the sigma^2 Gbar reference entry
    model = FouModel(hurst=0.65, alpha=1.0, mu=(0.0,), sigma=0.8, basis=sine_basis())
    config = McConfig(
        model=model, n_list=(100,), replicates=150, step=1 / 64,
        mode="oracle_divergence", master_seed=77,
    )
    clt = run_clt(config).clt
    assert clt["scaled_error_covariance"][0][0] <= 0.5 * clt["reference_covariance"][0][0]


def test_report_dict_excludes_wall_clock():
    report = run_consistency(small_config())
    payload = report_to_dict(report)
    assert "wall_clock" not in json.dumps(payload)
    assert [field.name for field in fields(report)] == [
        "config", "rows", "aggregates", "passed", "clt", "wall_clock", "ran_on"
    ]
    assert report.clt is None
    assert list(payload) == [
        "kind", "theta", "hurst", "n_list", "replicates", "step", "mode", "master_seed",
        "aggregates", "passed",
    ]
    assert payload["kind"] == "consistency"
    assert set(payload["aggregates"]) == {"4", "8"}


# -------------------------------------------------------------- coupling


def coupling_config(alpha, horizon=10, step=1 / 128):
    model = FouModel(hurst=0.7, alpha=alpha, mu=(1.0,), sigma=0.5, basis=sine_basis())
    return {"model": model, "horizon": horizon, "step": step, "master_seed": 9}


def test_coupling_identical_starts_reported_exact():
    report = run_coupling(**coupling_config(1.0), gap0=0.0)
    assert report.exact_match
    assert report.passed
    assert np.max(report.gaps) == 0.0


def test_coupling_zero_offset_is_exact_only_when_every_gap_is_zero(monkeypatch):
    """exact_match used to be gap0 == 0, so a replay one ulp off the path
    was reported exact and PASS."""
    def nudged(*args):
        path = path_from_increments(*args)
        path.x[5] = np.nextafter(path.x[5], np.inf)
        return path

    monkeypatch.setattr(experiments, "path_from_increments", nudged)
    report = run_coupling(**coupling_config(1.0), gap0=0.0)
    assert not report.exact_match and not report.passed and report.slope is None


def test_coupling_slope_matches_mean_reversion():
    report = run_coupling(**coupling_config(1.0), gap0=1.0)
    assert report.slope is not None
    assert abs(report.slope + 1.0) <= 0.1
    assert report.passed
    # unit gap decays below 1e-4 by t = 10 with Euler slack
    assert report.gaps[9] <= 1e-4 * 1.1


def test_coupling_slope_scales_with_alpha():
    slow = run_coupling(**coupling_config(0.5, horizon=14), gap0=1.0)
    fast = run_coupling(**coupling_config(1.0, horizon=14), gap0=1.0)
    assert abs(fast.slope / slow.slope - 2.0) <= 0.3


def test_coupling_csv(tmp_path):
    reports = [run_coupling(**coupling_config(a), gap0=1.0) for a in (0.5, 1.0)]
    target = tmp_path / "decay.csv"
    write_coupling_csv(reports, target)
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "alpha,t,gap"
    assert len(lines) == 1 + sum(r.times.size for r in reports)


# -------------------------------------------------------------- boundedness


def test_wiener_variance_study_bounded_and_trend_free():
    basis = sincos_basis()
    result = wiener_variance_study(
        basis, hurst=0.65, n_list=(10, 40), replicates=200, step=1 / 64, master_seed=3
    )
    assert result["bound"] == pytest.approx(2.0)
    for n in (10, 40):
        assert all(v <= result["bound"] for v in result["per_n"][n]["variance"])
    assert result["trend_ok"]
    assert result["passed"]
    # mean-zero basis: scaled variance decreases with n
    v10 = result["per_n"][10]["variance"]
    v40 = result["per_n"][40]["variance"]
    assert all(b < a for a, b in zip(v10, v40))


def test_moments_match_scipy_stats():
    from scipy.stats import kurtosis, skew

    rng = np.random.default_rng(20240806)
    samples = (
        rng.standard_normal((500, 3)),
        rng.exponential(size=(200, 2)),
        3.0 + 0.01 * rng.gamma(0.5, size=(40, 4)),
    )
    for sample in samples:
        skew_values, excess_values = _skewness_and_excess_kurtosis(sample)
        np.testing.assert_allclose(skew_values, skew(sample, axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(excess_values, kurtosis(sample, axis=0), rtol=1e-12, atol=0)
    assert np.all(_skewness_and_excess_kurtosis(samples[1])[0] > 1.0)


# ------------------------------------------------------------ warm heap


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


needs_mallopt = pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")

# Run in a fresh interpreter (fresh_interpreter_prints): a large transient
# freed earlier in the same process raises glibc's dynamic thresholds and
# would hide a trimmed heap.
_FAULTS_PREAMBLE = """
import resource
from functools import partial
from perifou import BasisSet, FouModel, McConfig, run_clt
from perifou.experiments import _run_batch
basis = BasisSet.from_specs([{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}])
model = FouModel(hurst=0.65, alpha=1.0, mu=(1.0, 2.0), sigma=0.5, basis=basis)
def faults(who):
    return resource.getrusage(who).ru_minflt
"""


@needs_mallopt
def test_warm_replicates_fault_no_heap_back_in():
    """At n = 200 the draw's embedding is M = 2^17; with glibc trimming its
    heap after every draw each replicate faulted ~480 pages back in."""
    code = """
run = partial(_run_batch, model, 1 / 256, "oracle_divergence", 5)
for r in range(3):
    run((200, (r,)))
before = faults(resource.RUSAGE_SELF)
for r in range(3, 23):
    run((200, (r,)))
print(faults(resource.RUSAGE_SELF) - before)
"""
    assert fresh_interpreter_prints(_FAULTS_PREAMBLE + code)[-1] <= 5 * 20


@needs_mallopt
def test_warm_threaded_study_faults_no_heap_back_in():
    """The heap settings hold for the helper thread of a one-process study
    too.  A second 200-replicate p = 7 study on two threads faulted 9-94
    pages in (about 12 000 with glibc trimming its heap), a serial one 5."""
    code = """
import os
from dataclasses import replace
from perifou import run_consistency
os.sched_getaffinity = lambda pid: {0, 1}
specs = [{"kind": "const"}] + [{"kind": k, "k": j} for j in (1, 2, 3) for k in ("sin", "cos")]
model = FouModel(hurst=0.65, alpha=4.0, mu=(0.5, -1.0, 1.2, 0.3, -0.7, 1.9, 0.1), sigma=0.5,
                 basis=BasisSet.from_specs(specs))
config = McConfig(model=model, n_list=(10, 25), replicates=200, step=1 / 256,
                  mode="oracle_divergence", master_seed=5)
run_consistency(config)
before = faults(resource.RUSAGE_SELF)
assert run_consistency(replace(config, master_seed=6)).ran_on == "2 threads"
print(faults(resource.RUSAGE_SELF) - before)
"""
    assert fresh_interpreter_prints(_FAULTS_PREAMBLE + code)[-1] <= 2 * 200


@needs_mallopt
def test_pool_workers_inherit_the_warm_heap():
    """The workers of an mc-clt study fork after the parent's first replicate
    and inherit its heap settings.  Forty more replicates add a few faults in
    the workers, not the ~480 apiece of a trimmed heap; the difference of two
    studies cancels what forking and starting the pool cost."""
    code = """
def child_faults(replicates):
    config = McConfig(model=model, n_list=(200,), replicates=replicates, step=1 / 256,
                      mode="oracle_divergence", master_seed=2024, workers=2)
    before = faults(resource.RUSAGE_CHILDREN)
    run_clt(config)
    return faults(resource.RUSAGE_CHILDREN) - before
print(child_faults(60) - child_faults(20))
"""
    assert fresh_interpreter_prints(_FAULTS_PREAMBLE + code)[-1] <= 50 * 40
