"""Reference implementations that only the tests call.

Each one recomputes a quantity the package computes another way (or reads
back a file the package writes), so the tests can cross-check the two.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

from perifou.estimator import DesignStats
from perifou.experiments import ReplicateResult
from perifou.model import FouModel, mean_function, steady_mean_terms

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
    """Assemble Q = [[G, -a], [-a^t, b]]."""
    p = design.cross.size
    q = np.empty((p + 1, p + 1))
    q[:p, :p] = design.gram
    q[:p, p] = -design.cross
    q[p, :p] = -design.cross
    q[p, p] = design.energy
    return q


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
            degenerate = parts[-1] == "1"
            theta = None
            if not degenerate:
                theta = tuple(float(v) for v in parts[3 : 3 + p + 1])
            rows.append(
                ReplicateResult(
                    n=int(parts[0]),
                    replicate=int(parts[1]),
                    seed=int(parts[2]),
                    theta_hat=theta,
                    degenerate=degenerate,
                )
            )
    return rows


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
