"""Seeded Monte Carlo studies of the estimator's limit behavior.

Replicates are independent work units; the sub-seed of replicate r at
horizon n derives from (master_seed, n, r) alone, so reports are pure
functions of the configuration regardless of worker count or scheduling.
Aggregation runs single-threaded over results ordered by (n, r).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from perifou.asymptotics import finite_horizon_covariance, limit_summary
from perifou.errors import DegenerateDesign, InvalidInput
from perifou.estimator import MODES, estimate_rows
from perifou.fgn import embedding_size, substream_seed
from perifou.model import (
    FouModel,
    burn_in_periods,
    path_from_increments,
    simulate_path,
    simulate_paths,
)

# Default PASS thresholds for the normality study.
CLT_FROBENIUS_TOL = 0.25
CLT_SKEWNESS_TOL = 0.3
CLT_KURTOSIS_TOL = 0.5

# Relative slack allowed between the fitted log-gap slope and -alpha.
COUPLING_SLOPE_TOL = 0.10

# Gaps at or below this are rounding noise; the slope fit needs 3 above it.
COUPLING_GAP_FLOOR = 1e-9

# Replicates of one horizon run in batches of B = max(1, BATCH_POINTS // M),
# M the circulant embedding size: B = 8 at n = 10 and 4 at n = 25 with
# m = 256 and alpha = 4, 1 at n = 200 with alpha = 1.  A batch holds B*M-point
# blocks while it runs; at B*M = 2^17 the peak resident size over 200
# replicates grew twice as much as at 2^16.
BATCH_POINTS = 1 << 16


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo study configuration."""

    model: FouModel
    n_list: tuple
    replicates: int
    step: float
    mode: str
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if self.replicates < 2:
            raise InvalidInput(f"replicates must be >= 2, got {self.replicates}")
        if not self.n_list:
            raise InvalidInput("n_list must be nonempty")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise InvalidInput(f"n_list must be strictly increasing, got {self.n_list}")
        if self.mode not in MODES:
            raise InvalidInput(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.workers < 1:
            raise InvalidInput(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ReplicateResult:
    n: int
    replicate: int
    seed: int
    theta_hat: tuple | None  # None for a degenerate design
    noise_vector: tuple | None = None


@dataclass
class ExperimentReport:
    """Per-replicate estimates plus deterministic aggregates of one study.

    ``clt`` holds :func:`run_clt`'s statistics, JSON-ready under their
    ``clt_report.json`` keys and in file order, and is None for consistency.
    ``wall_clock`` is never serialized, so artifacts are byte-identical
    across repeated runs."""

    config: McConfig
    rows: list
    aggregates: dict
    passed: bool
    clt: dict | None = None
    wall_clock: float = 0.0


def _run_batch(model: FouModel, step: float, mode: str, master_seed: int, batch) -> list:
    """One ReplicateResult per replicate of ``batch``, (n, replicates): each
    replicate draws from its own sub-seed, and the batch shares one
    transform, one Euler recursion and one set of path sums."""
    n, replicates = batch
    seeds = [substream_seed(master_seed, n, r) for r in replicates]
    paths = simulate_paths(model, n, step, seeds, stationary_start=True)
    alpha_ref = model.alpha if mode == "oracle_divergence" else None
    results = estimate_rows(paths, mode=mode, sigma=model.sigma, alpha_for_correction=alpha_ref)
    # a simulated path carries its driver, so every result has a noise vector
    return [
        ReplicateResult(n, r, seed, None) if result is None
        else ReplicateResult(
            n, r, seed, tuple(result.theta_hat.tolist()), tuple(result.noise_vector.tolist())
        )
        for r, seed, result in zip(replicates, seeds, results)
    ]


def _batches(config: McConfig, jobs) -> list:
    """The (n, r) jobs as (n, replicates) batches, in job order: consecutive
    jobs at one horizon, at most max(1, BATCH_POINTS // M) of them, M the
    circulant embedding size of that horizon's draw."""
    m = round(1.0 / config.step)
    batches = []
    for n, r in jobs:
        count = (n + burn_in_periods(config.model.alpha, n, m, True)) * m
        size = max(1, BATCH_POINTS // embedding_size(count))
        if batches and batches[-1][0] == n and len(batches[-1][1]) < size:
            batches[-1][1].append(r)
        else:
            batches.append((n, [r]))
    return [(n, tuple(replicates)) for n, replicates in batches]


def _map_jobs(config: McConfig, jobs) -> list:
    """One ReplicateResult per (n, r) job, in job order, batch by batch
    (:func:`_batches`), serially or on a pool."""
    run = partial(_run_batch, config.model, config.step, config.mode, config.master_seed)
    batches = _batches(config, jobs)
    if config.workers == 1:
        return [row for batch in batches for row in run(batch)]
    # Imported here: concurrent.futures loads multiprocessing, about 18 ms
    # that only a pool needs.
    from concurrent.futures import ProcessPoolExecutor

    # The first batch runs before the fork, so the workers inherit what it
    # sets up (the sampler's cached weights, glibc's heap thresholds and a
    # warm heap, the cached period values of the basis) instead of each
    # doing it again.  The pool forks all of its workers up front, so it
    # gets no more of them than there are batches left.
    first, rest = run(batches[0]), batches[1:]
    if not rest:
        return first
    workers = min(config.workers, len(rest))
    chunk = max(1, len(rest) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return first + [row for rows in pool.map(run, rest, chunksize=chunk) for row in rows]


def aggregate_rows(theta: np.ndarray, rows) -> dict:
    """Per-n summary of the estimation errors.

    Pure function of the replicate table, so aggregates recomputed from the
    emitted CSV reproduce the report bit for bit.  ``se`` is None unless
    two replicates are included, and every statistic is None if none is.
    """
    theta = np.asarray(theta, dtype=float)
    per_n: dict = {}
    for n in sorted({row.n for row in rows}):
        block = sorted(
            (row for row in rows if row.n == n), key=lambda row: row.replicate
        )
        kept = [row.theta_hat for row in block if row.theta_hat is not None]
        excluded = len(block) - len(kept)
        if not kept:
            per_n[n] = {
                "included": 0,
                "excluded": excluded,
                "mean": None,
                "bias": None,
                "rmse": None,
                "se": None,
            }
            continue
        estimates = np.array(kept)
        errors = estimates - theta
        count = errors.shape[0]
        mean = errors.mean(axis=0) + theta
        bias = errors.mean(axis=0)
        rmse = np.sqrt((errors**2).mean(axis=0))
        se = errors.std(axis=0, ddof=1) / math.sqrt(count) if count > 1 else None
        per_n[n] = {
            "included": count,
            "excluded": excluded,
            "mean": [float(v) for v in mean],
            "bias": [float(v) for v in bias],
            "rmse": [float(v) for v in rmse],
            "se": None if se is None else [float(v) for v in se],
        }
    return per_n


def _consistency_passed(aggregates: dict, n_list) -> bool:
    """RMSE nonincreasing up to one inversion, and halved from the smallest
    to the largest horizon, componentwise."""
    if any(aggregates[n]["rmse"] is None for n in n_list):
        return False
    rmse = {n: np.asarray(aggregates[n]["rmse"]) for n in n_list}
    for comp in range(rmse[n_list[0]].size):
        series = [rmse[n][comp] for n in n_list]
        inversions = sum(1 for a, b in zip(series, series[1:]) if b > a)
        if inversions > 1:
            return False
        if series[-1] > 0.5 * series[0]:
            return False
    return True


def run_consistency(config: McConfig) -> ExperimentReport:
    """Estimate on independent stationary-start paths for each n in
    n_list and summarize bias and RMSE per component."""
    start = time.perf_counter()
    jobs = [(n, r) for n in config.n_list for r in range(config.replicates)]
    rows = _map_jobs(config, jobs)
    aggregates = aggregate_rows(config.model.theta, rows)
    passed = _consistency_passed(aggregates, config.n_list)
    return ExperimentReport(
        config=config,
        rows=rows,
        aggregates=aggregates,
        passed=passed,
        wall_clock=time.perf_counter() - start,
    )


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF 0.5 math.erfc(-z / sqrt 2), within 1e-14 relative over |z| <= 8."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])


def _ecdf_distance(z: np.ndarray) -> float:
    """Sup distance between the empirical CDF of z and the standard normal CDF, which
    :func:`_normal_cdf` takes from ``math.erfc`` (within 1e-14 relative)."""
    cdf = _normal_cdf(np.sort(z))
    ranks = np.arange(z.size + 1) / z.size
    return float(max(np.max(ranks[1:] - cdf), np.max(cdf - ranks[:-1])))


def _skewness_and_excess_kurtosis(samples: np.ndarray):
    """Per-column population skewness m3 / m2^{3/2} and excess kurtosis
    m4 / m2^2 - 3 from central moments m_k, the defaults of
    scipy.stats.skew and scipy.stats.kurtosis."""
    centred = samples - samples.mean(axis=0)
    m2 = (centred**2).mean(axis=0)
    return (centred**3).mean(axis=0) / m2**1.5, (centred**4).mean(axis=0) / m2**2 - 3.0


def run_clt(config: McConfig) -> ExperimentReport:
    """Scaled-error study at a single horizon n.

    Computes e_r = n^{1-H} (theta_hat_r - theta) and compares its empirical covariance with the
    exact finite-horizon covariance sigma^2 C Cov(n^{-H} R_n) C of
    :func:`finite_horizon_covariance`; the mu-block gap to it and the moment bounds decide PASS.
    The gap to the limit reference sigma^2 C Sigma_0 C is reported as well: only the period
    means survive the n^{-H} scaling, so for mean-zero basis functions that reference is not
    what the study measures.  Also reports moment and ECDF diagnostics per component and the
    empirical variance of the scaled noise vector n^{-H} R_n (bounded in L^2).  Raises
    InvalidInput when sigma is 0, before the limit objects or any replicate: every replicate is
    then the same path, so the scaled errors have no spread to compare.  Raises DegenerateDesign
    when fewer than two replicates have an identifiable design.  A basis frequency the grid
    aliases is refused (InvalidInput) by ``model.refuse_aliasing`` once, as the first batch is
    estimated; ``perifou mc-clt`` and ``mc-consistency`` refuse it before any study work.
    """
    if len(config.n_list) != 1:
        raise ValueError("run_clt expects a single horizon in n_list")
    start = time.perf_counter()
    n = config.n_list[0]
    if config.model.sigma == 0.0:
        raise InvalidInput(
            "model.sigma = 0 makes every replicate the same path; "
            "the scaled-error study needs sigma > 0"
        )
    summary = limit_summary(config.model)
    degenerate_limit = summary.report["flags"]["degenerate_limit"]
    rows = _map_jobs(config, [(n, r) for r in range(config.replicates)])
    kept = [row for row in rows if row.theta_hat is not None]
    if len(kept) < 2:
        raise DegenerateDesign(
            f"only {len(kept)} of {config.replicates} replicates have an identifiable "
            "design; the scaled-error covariance needs at least 2"
        )
    theta = config.model.theta
    aggregates = aggregate_rows(theta, rows)

    estimates = np.array([row.theta_hat for row in kept])
    hurst = config.model.hurst
    scaled = n ** (1.0 - hurst) * (estimates - theta)
    scaled_cov = np.cov(scaled, rowvar=False, ddof=1)

    reference = summary.asym_cov
    finite = finite_horizon_covariance(config.model, n, config.step, summary.c_matrix)
    p = config.model.p

    def mu_block_gap(target):
        mu_target = target[:p, :p]
        gap = np.linalg.norm(scaled_cov[:p, :p] - mu_target) / np.linalg.norm(mu_target)
        return float(gap)

    finite_frob = mu_block_gap(finite)
    full_frob = None
    if not degenerate_limit:
        full_frob = float(np.linalg.norm(scaled_cov - reference) / np.linalg.norm(reference))

    skew_values, excess_values = _skewness_and_excess_kurtosis(scaled)
    skew = [float(v) for v in skew_values]
    excess = [float(v) for v in excess_values]
    standardized = (scaled - scaled.mean(axis=0)) / scaled.std(axis=0, ddof=1)

    noise = np.array([row.noise_vector for row in kept])
    noise_var = [float(v) for v in (n ** (-hurst) * noise).var(axis=0, ddof=1)]

    clt = {
        "scaled_error_covariance": scaled_cov.tolist(),
        "reference_covariance": summary.report["asymptotic_covariance"],
        "mu_block_rel_frobenius": mu_block_gap(reference),
        "full_rel_frobenius": full_frob,
        "finite_horizon_covariance": finite.tolist(),
        "finite_horizon_mu_rel_frobenius": finite_frob,
        "skewness": skew,
        "excess_kurtosis": excess,
        "ecdf_distance": [_ecdf_distance(column) for column in standardized.T],
        "noise_scaled_variance": noise_var,
        "degenerate_limit": degenerate_limit,
    }
    passed = (
        finite_frob <= CLT_FROBENIUS_TOL
        and max(abs(v) for v in skew) <= CLT_SKEWNESS_TOL
        and max(abs(v) for v in excess) <= CLT_KURTOSIS_TOL
    )
    return ExperimentReport(
        config=config,
        rows=rows,
        aggregates=aggregates,
        passed=passed,
        clt=clt,
        wall_clock=time.perf_counter() - start,
    )


@dataclass
class CouplingReport:
    """Shared-noise gap between two starts of the same recursion."""

    alpha: float
    times: np.ndarray
    gaps: np.ndarray
    slope: float | None
    exact_match: bool
    passed: bool


def run_coupling(
    model: FouModel, horizon: int, step: float, master_seed: int, gap0: float = 1.0
) -> CouplingReport:
    """Decay of |X_t - X~_t| when both recursions share one noise path.

    Simulates a stationary-start path over ``horizon`` periods from the
    sub-seed (master_seed, horizon, 0), replays the recursion from a start
    offset by ``gap0`` with the same increments, and fits the slope of
    log gap against time at whole periods.  PASS when the fitted slope is
    within COUPLING_SLOPE_TOL of -alpha (relatively), or when every gap on the
    grid is exactly 0 (``exact_match``: the replay is the path).
    """
    seed = substream_seed(master_seed, horizon, 0)
    stationary = simulate_path(model, horizon, step, seed, stationary_start=True)
    shifted = path_from_increments(
        model, stationary.driver_increments, float(stationary.x[0]) + gap0, step
    )
    gaps_full = np.abs(shifted.x - stationary.x)
    m = round(1.0 / step)
    times = np.arange(1, horizon + 1, dtype=float)
    gaps = gaps_full[(np.arange(1, horizon + 1) * m)]

    exact_match = not gaps_full.any()
    usable = gaps > COUPLING_GAP_FLOOR
    slope, passed = None, exact_match
    if not exact_match and usable.sum() >= 3:
        slope = float(np.polyfit(times[usable], np.log(gaps[usable]), 1)[0])
        passed = abs(slope + model.alpha) <= COUPLING_SLOPE_TOL * model.alpha
    return CouplingReport(
        alpha=model.alpha,
        times=times,
        gaps=gaps,
        slope=slope,
        exact_match=exact_match,
        passed=passed,
    )


def write_replicates_csv(report: ExperimentReport, filename) -> None:
    """Per-replicate table: n,replicate,seed,mu_hat_1..mu_hat_p,alpha_hat,degenerate."""
    p = report.config.model.p
    mu_cols = ",".join(f"mu_hat_{i + 1}" for i in range(p))
    with open(filename, "w", encoding="utf-8") as handle:
        handle.write(f"n,replicate,seed,{mu_cols},alpha_hat,degenerate\n")
        for row in report.rows:
            if row.theta_hat is None:
                fields = [""] * (p + 1)
                flag = "1"
            else:
                fields = [f"{v:.17g}" for v in row.theta_hat]
                flag = "0"
            handle.write(
                f"{row.n},{row.replicate},{row.seed}," + ",".join(fields) + f",{flag}\n"
            )


def report_to_dict(report: ExperimentReport) -> dict:
    """JSON-ready aggregate report; volatile fields (wall clock) excluded."""
    config = report.config
    out = {
        "kind": "consistency" if report.clt is None else "clt",
        "theta": [float(v) for v in config.model.theta],
        "hurst": config.model.hurst,
        "n_list": list(config.n_list),
        "replicates": config.replicates,
        "step": config.step,
        "mode": config.mode,
        "master_seed": config.master_seed,
        "aggregates": {str(n): agg for n, agg in report.aggregates.items()},
        "passed": bool(report.passed),
    }
    return out if report.clt is None else {**out, **report.clt}


def write_qq_csv(report: ExperimentReport, filename) -> None:
    """QQ data for external plotting: component,quantile,empirical,theoretical.

    Theoretical quantiles come from the zero-mean normal with the finite-horizon standard
    deviation of each component (the diagonal of :func:`finite_horizon_covariance`, the
    study's reference), times ``statistics.NormalDist().inv_cdf`` (Wichura's AS 241, within
    6e-16 relative).  The limit reference sigma^2 C Sigma_0 C is not used: its alpha variance
    is a genuine zero for a trigonometric basis whose steady mean lies in the span.
    """
    from statistics import NormalDist  # with fractions and decimal, 4 ms no other command needs

    if report.clt is None:
        raise ValueError("QQ data is produced by the clt study")
    model = report.config.model
    n = report.config.n_list[0]
    kept = [row for row in report.rows if row.theta_hat is not None]
    estimates = np.array([row.theta_hat for row in kept])
    scaled = n ** (1.0 - model.hurst) * (estimates - model.theta)
    sds = np.sqrt(np.diag(report.clt["finite_horizon_covariance"]))
    count = scaled.shape[0]
    quantiles = (np.arange(1, count + 1) - 0.5) / count
    normal_q = np.array([NormalDist().inv_cdf(q) for q in quantiles.tolist()])
    with open(filename, "w", encoding="utf-8") as handle:
        handle.write("component,quantile,empirical,theoretical\n")
        for comp in range(scaled.shape[1]):
            empirical = np.sort(scaled[:, comp])
            theoretical = sds[comp] * normal_q
            for q, e, t in zip(quantiles, empirical, theoretical):
                handle.write(f"{comp + 1},{q:.17g},{e:.17g},{t:.17g}\n")


def write_coupling_csv(reports, filename) -> None:
    """Decay table for one or more coupling runs: alpha,t,gap."""
    with open(filename, "w", encoding="utf-8") as handle:
        handle.write("alpha,t,gap\n")
        for rep in reports:
            for t, gap in zip(rep.times, rep.gaps):
                handle.write(f"{rep.alpha:.17g},{t:.17g},{gap:.17g}\n")
