"""Reference implementations that only the tests call.

Each one recomputes a quantity the package computes another way (or reads
back a file the package writes), so the tests can cross-check the two.
``wiener_variance_study`` is the one study that only a test runs
(acceptance criterion 07), and ``fresh_interpreter_prints`` runs the
memory and page-fault measurements in a process of their own.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import gammainc

import perifou
from perifou.estimator import DesignStats
from perifou.experiments import ReplicateResult
from perifou.fgn import FgnSpec, fgn_autocovariance, generate_fgn_circulant, substream_seed
from perifou.model import (
    FouModel,
    SamplePath,
    first_order_recursion,
    fold_periods,
    period_basis,
    steady_mean_terms,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_UNIT_NODES = 0.5 * (_GL_NODES + 1.0)
_UNIT_WEIGHTS = 0.5 * _GL_WEIGHTS


def gauss_jacobi(count: int, beta: float) -> tuple:
    """Nodes (ascending) and weights of the count-point Gauss rule on [-1, 1]
    for the weight (1 + x)^beta, -1 < beta < 0: the Jacobi weight with
    exponents (0, beta).

    Golub-Welsch (Golub & Welsch, Math. Comp. 23, 1969): the nodes are the
    eigenvalues of the symmetric tridiagonal Jacobi matrix of the
    orthonormal polynomials p_0..p_{count-1}, whose recurrence is
    x p_j = b_j p_{j-1} + a_j p_j + b_{j+1} p_{j+1}.  The weight of node x is
    its Christoffel number 1 / sum_j p_j(x)^2, from the same recurrence.
    """
    j = np.arange(count, dtype=float)
    s = 2.0 * j + beta
    a = beta * beta / (s * (s + 2.0))
    b = np.zeros(count)
    b[1:] = 2.0 * j[1:] * (j[1:] + beta) / (s[1:] * np.sqrt((s[1:] + 1.0) * (s[1:] - 1.0)))
    # eigvalsh reads only the lower triangle
    nodes = np.linalg.eigvalsh(np.diag(a) + np.diag(b[1:], -1))
    previous = np.zeros(count)
    current = np.full(count, math.sqrt((beta + 1.0) / 2.0 ** (beta + 1.0)))
    total = current * current
    for i in range(count - 1):
        previous, current = current, ((nodes - a[i]) * current - b[i] * previous) / b[i + 1]
        total += current * current
    return nodes, 1.0 / total


def long_memory_gram(evaluate, hurst: float) -> np.ndarray:
    """Gram matrix of integrands f_1..f_K under the long-memory inner product
    <f, g>_H = H(2H-1) * int_0^1 int_0^1 f(s) g(t) |t-s|^{2H-2} ds dt, by
    quadrature: the reference for ``asymptotics.noise_covariance_limit``.

    ``evaluate(t)`` returns the stacked values (f_1(t), ..., f_K(t)), of
    shape (K,) + shape(t); the integrands must be bounded on [0, 1].
    Splitting the square along the diagonal and substituting u = t - s
    reduces each entry to int_0^1 u^{2H-2} F(u) du with the smooth
    symmetrized correlation

        F(u) = int_0^{1-u} ( f(s) g(s+u) + g(s) f(s+u) ) ds.

    The u integral is the 48-point Golub-Welsch Gauss-Jacobi rule of
    :func:`gauss_jacobi` with weight exponent 2H-2 (exact for the singular
    factor); F is Gauss-Legendre on the shrinking interval.  Every entry
    shares these nodes, so each integrand is evaluated once at s and once at
    s + u, and with M_ij = sum w f_i(s) f_j(s+u) the Gram matrix is M + M^t.
    Against a 200 x 400-node evaluation (H in {0.55, 0.65, 0.74}) its
    relative error is <= 1.1e-9 for sin/cos frequencies k <= 15,
    1.4-2.0e-7 at k = 16 and 0.15-0.31 at k = 20.
    """
    if not 0.5 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst}")
    a = 2.0 * hurst - 2.0
    xj, wj = gauss_jacobi(48, a)
    u = 0.5 * (xj + 1.0)
    length = (1.0 - u)[:, None]
    s = length * _UNIT_NODES[None, :]
    weights = (hurst * (2.0 * hurst - 1.0) * 2.0 ** (-a - 1.0)) * (
        wj[:, None] * length * _UNIT_WEIGHTS[None, :]
    )
    at_s = evaluate(s).reshape(-1, s.size)
    at_shifted = evaluate(s + u[:, None]).reshape(-1, s.size)
    cross = (at_s * weights.ravel()) @ at_shifted.T
    return cross + cross.T


def singular_pair_integral(f, g, hurst: float) -> float:
    """<f, g>_H for two vectorized callables, the off-diagonal entry of
    :func:`long_memory_gram` on the pair."""
    return float(long_memory_gram(lambda t: np.stack([f(t), g(t)]), hurst)[0, 1])


def mean_function(model: FouModel, t):
    """Periodic mean L(t) = sum_i mu_i phi_i(t); a float for scalar t.
    Summed term by term as ``model._period_mean`` sums the cached basis
    values, so the two agree bit for bit on the period grid."""
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for f, mu in zip(model.basis.functions, model.mu):
        if mu != 0.0:
            total = total + mu * f(t)
    return float(total) if t.ndim == 0 else total


def steady_mean(model: FouModel, t):
    """The steady mean h~(t), the 1-periodic solution of h' = L - alpha h,
    summed from ``model.steady_mean_terms``; a float for scalar t."""
    t = np.asarray(t, dtype=float)
    total = sum(c * f(t) for f, c in steady_mean_terms(model).items())
    return float(total) if t.ndim == 0 else total


def quadrature_noise_covariance(model: FouModel) -> np.ndarray:
    """Sigma_0 by :func:`long_memory_gram` over (phi_1, ..., phi_p, -h~)."""

    def integrands(t):
        return np.concatenate([model.basis.evaluate(t), -steady_mean(model, t)[None]])

    return long_memory_gram(integrands, model.hurst)


def normal_matrix(design: DesignStats) -> np.ndarray:
    """Assemble Q = [[G, -a], [-a^t, b]] with a = n * loadings and
    b = n * (residual + |loadings|^2)."""
    n, lam = design.n_periods, design.loadings
    p = lam.size
    q = np.empty((p + 1, p + 1))
    q[:p, :p] = design.gram
    q[:p, p] = -n * lam
    q[p, :p] = -n * lam
    q[p, p] = n * (design.residual + float(lam @ lam))
    return q


def response(path: SamplePath, sigma: float = 0.0, correction: float = 0.0) -> np.ndarray:
    """The response P of the normal equations, summed over the whole grid:
    sum_k phi_i(t_k) dX_k for each basis function, then -sum_k X_k dX_k
    shifted by sigma^2 * correction (the oracle_divergence convention)."""
    phi = path.model.basis.evaluate(path.grid[:-1])
    x_left, dx = path.x[:-1], np.diff(path.x)
    return np.append(phi @ dx, -float(np.einsum("i,i", x_left, dx)) + sigma**2 * correction)


def skorokhod_correction(alpha: float, hurst: float, horizon: float) -> float:
    """Trace term converting the pathwise integral of X against the driver
    into the zero-mean divergence integral.

    Equals H(2H-1) * int_0^T int_0^t e^{-alpha u} u^{2H-2} du dt.  The inner
    integral is alpha^{1-2H} * gamma_lower(2H-1, alpha t); integrating by
    parts gives the closed form below.  The caller multiplies by sigma (for
    the noise vector) or sigma^2 (for the response vector).
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.5 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst}")
    if horizon < 0.0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if horizon == 0.0:
        return 0.0
    a = 2.0 * hurst - 1.0
    z = alpha * horizon
    lower_a = math.gamma(a) * gammainc(a, z)
    lower_a1 = math.gamma(a + 1.0) * gammainc(a + 1.0, z)
    alpha_h = hurst * a
    return alpha_h * alpha ** (-a) * (horizon * lower_a - lower_a1 / alpha)


def zero_start_mean(model: FouModel, t):
    """Deterministic mean response from rest:
    h(t) = exp(-alpha t) * integral_0^t exp(alpha s) L(s) ds for t >= 0.

    Whole periods contribute a geometric series of one fixed unit-interval
    integral; the trailing partial period is quadrature on [0, t - floor(t)].
    Both use a 64-node Gauss-Legendre rule of their own, so this stays a
    reference independent of the package's closed-form steady mean.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("zero_start_mean is defined for t >= 0")
    flat = t.ravel()
    alpha = model.alpha
    whole = np.floor(flat)
    frac = flat - whole
    nodes, weights = np.polynomial.legendre.leggauss(64)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights

    # A = integral_0^1 e^{-alpha (1 - v)} L(v) dv
    decay = np.exp(-alpha * (1.0 - nodes))
    unit_integral = float(
        np.sum(weights * decay * mean_function(model, nodes))
    )
    series = unit_integral * np.exp(-alpha * frac) * -np.expm1(-alpha * whole) / -np.expm1(-alpha)

    # partial period: integral_0^frac e^{-alpha u} L(t - u) du
    u = frac[None, :] * nodes[:, None]
    w = frac[None, :] * weights[:, None]
    partial = np.sum(w * np.exp(-alpha * u) * mean_function(model, flat[None, :] - u), axis=0)

    result = (series + partial).reshape(t.shape)
    if t.ndim == 0:
        return float(result)
    return result


def read_replicates_csv(filename) -> list:
    """Parse a per-replicate table back into ReplicateResult rows."""
    rows = []
    with open(filename, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        p = sum(1 for name in header if name.startswith("mu_hat_"))
        for line in handle:
            parts = line.strip().split(",")
            if len(parts) < p + 5:
                continue
            theta = None
            if parts[-1] != "1":
                theta = tuple(float(v) for v in parts[3 : 3 + p + 1])
            rows.append(
                ReplicateResult(
                    n=int(parts[0]),
                    replicate=int(parts[1]),
                    seed=int(parts[2]),
                    theta_hat=theta,
                )
            )
    return rows


def fresh_interpreter_prints(code: str) -> list:
    """Run ``code`` in a new Python process with this package on its path;
    return the numbers on the last line it prints.

    Memory and page-fault counts need a fresh interpreter: a large transient
    freed earlier in the test process moves glibc's dynamic thresholds and
    leaves caches behind.
    """
    src = str(Path(perifou.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return [float(v) for v in proc.stdout.splitlines()[-1].split()]


def write_sample_path_csv_rows(path, filename) -> None:
    """The path-file writer as one f-string per row: the byte format that
    ``model.write_sample_path_csv`` must reproduce."""
    has_driver = path.driver_increments is not None
    with open(filename, "w", encoding="utf-8") as handle:
        handle.write("t,x,db\n" if has_driver else "t,x\n")
        last = path.x.size - 1
        for k, (t, x) in enumerate(zip(path.grid, path.x)):
            if has_driver:
                db = f"{path.driver_increments[k]:.17g}" if k < last else ""
                handle.write(f"{t:.17g},{x:.17g},{db}\n")
            else:
                handle.write(f"{t:.17g},{x:.17g}\n")


def series_fgn_autocovariance(hurst: float, lags) -> np.ndarray:
    """rho_H(k) without the cancellation of its second difference: for k >= 8
    the binomial series k^{2H} sum_{i>=1} C(2H, 2i) k^{-2i}, summed until the
    next term is below 1e-17 relative at the smallest such lag, and the
    second difference below 8."""
    k = np.asarray(lags, dtype=float)
    large = np.maximum(k, 8.0)
    count = math.ceil(17.0 * math.log(10.0) / (2.0 * math.log(large.min(initial=8.0))))
    coefficients, c = [], 1.0
    for r in range(2 * count + 1):  # C(2H, r), kept at even r >= 2
        if r >= 2 and r % 2 == 0:
            coefficients.append(c)
        c *= (2.0 * hurst - r) / (r + 1)
    inverse_square = 1.0 / (large * large)
    total = np.zeros_like(large)
    for c in reversed(coefficients):
        total = (total + c) * inverse_square
    rho = large ** (2.0 * hurst) * total
    rho[k < 8.0] = fgn_autocovariance(hurst, k[k < 8.0])
    return rho


def brute_lag_sums(alpha: float, hurst: float, step: float, starts=(0,)) -> list:
    """sum_{j>=1} a^{j-1} step^{2H} rho_H(d + j) for each d in ``starts``, with
    a = 1 - alpha*step, term by term until a^j < e^{-46}: the reference for
    ``estimator.euler_lag_sum``.  One pass over the lags k serves every d, 2^20
    lags to a chunk, numpy's pairwise sum within a chunk and math.fsum across;
    rho_H is :func:`series_fgn_autocovariance`."""
    lam = -math.log1p(-alpha * step)
    stop = math.ceil(46.0 / lam)
    end = stop + max(starts) + 1
    chunks = {d: [] for d in starts}
    for first in range(1, end, 1 << 20):
        k = np.arange(first, min(first + (1 << 20), end), dtype=float)
        rho = series_fgn_autocovariance(hurst, k)
        for d in starts:
            keep = (k > d) & (k <= d + stop)
            decay = np.exp(-lam * (k[keep] - d - 1.0))
            chunks[d].append(float(np.sum(decay * rho[keep])))
    return [step ** (2.0 * hurst) * math.fsum(chunks[d]) for d in starts]


def every_lag_trace_correction(alpha: float, hurst: float, step: float, n_steps: int) -> float:
    """The fixed-start ``estimator.discrete_trace_correction`` summed over every lag
    1 .. N-1, sum_j (N - j) a^{j-1} c_BB(j), with the package's arithmetic lag by lag:
    the reference for the lag cut at a^{j-1} < 1e-18.  Its arrays are N long."""
    lags = np.arange(1, n_steps)
    terms = (1.0 - alpha * step) ** (lags - 1.0) * fgn_autocovariance(hurst, lags)
    return float(np.einsum("i,i", n_steps - lags, terms * step ** (2.0 * hurst)))


def memory_quadratic_noise_variance(hurst: float, step: float, alpha: float, n_steps: int) -> float:
    """``asymptotics.quadratic_noise_variance`` with c_ZB(d) = c_BB(d+1) + a c_ZB(d+1)
    run backwards from zero, ln(1e-17) / ln(a) lags beyond the horizon, instead of
    from ``euler_lag_sum`` at the horizon.  Its memory grows as 1/(alpha step):
    405 MB at alpha = 1e-3, n_steps = 51200 and step 1/256."""
    a = 1.0 - alpha * step
    last = int(n_steps) - 1
    memory = math.ceil(math.log(1e-17) / math.log1p(-alpha * step))
    weight = step ** (2.0 * hurst)
    # c_BB(d+1) for d = -last .. last + memory
    c_bb_next = weight * fgn_autocovariance(hurst, np.abs(np.arange(1 - last, last + memory + 2)))
    c_zb = first_order_recursion(c_bb_next[::-1], a)[::-1][: 2 * last + 1]
    c_bb = weight * fgn_autocovariance(hurst, np.arange(last + 1))
    var_z = (c_bb[0] + 2.0 * a * c_zb[last]) / (1.0 - a * a)
    c_zz = np.empty(last + 1)
    c_zz[0] = var_z
    if last:
        c_zz[1:] = first_order_recursion(c_zb[last:-1], a, var_z)
    lags = np.arange(last + 1)
    multiplicity = np.where(lags == 0, 1.0, 2.0) * (last + 1 - lags)
    terms = c_zz * c_bb + c_zb[last:] * c_zb[last::-1]
    return float(np.dot(multiplicity, terms))


def basis_bound(basis) -> float:
    """Uniform bound on |phi_i| over a basis: 1 for the constant alone,
    sqrt2 otherwise."""
    return max(1.0 if f.kind == "const" else math.sqrt(2.0) for f in basis.functions)


def wiener_variance_study(
    basis, hurst: float, n_list, replicates: int, step: float, master_seed: int
) -> dict:
    """Empirical variance of n^{-H} * sum_k phi_i(t_k) dB_k per component.

    The isometry estimate bounds each variance by the squared uniform bound
    of the basis; the study also checks that the variance shows no
    significant upward trend in n.
    """
    phi = period_basis(basis, step)
    m = phi.shape[1]
    bound = basis_bound(basis) ** 2
    per_n = {}
    for n in n_list:
        draws = np.empty((replicates, basis.p))
        for r in range(replicates):
            seed = substream_seed(master_seed, n, r)
            db = generate_fgn_circulant(FgnSpec(hurst, step, n * m, seed))
            draws[r] = phi @ fold_periods(db, m)
        scaled = n ** (-hurst) * draws
        variance = scaled.var(axis=0, ddof=1)
        se = variance * math.sqrt(2.0 / (replicates - 1))
        per_n[int(n)] = {
            "variance": [float(v) for v in variance],
            "se": [float(v) for v in se],
        }
    ns = sorted(per_n)
    trend_ok = True
    for a, b in zip(ns, ns[1:]):
        va = np.asarray(per_n[a]["variance"])
        vb = np.asarray(per_n[b]["variance"])
        sa = np.asarray(per_n[a]["se"])
        sb = np.asarray(per_n[b]["se"])
        if np.any(vb - va > 2.0 * np.sqrt(sa**2 + sb**2)):
            trend_ok = False
    within_bound = all(
        v <= bound for n in ns for v in per_n[n]["variance"]
    )
    return {
        "bound": float(bound),
        "per_n": per_n,
        "trend_ok": trend_ok,
        "passed": bool(within_bound and trend_ok),
    }
