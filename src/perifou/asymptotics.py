"""Limit objects of the scaled estimation error, and its exact covariance
at a finite horizon.

As the number of observed periods grows, n * Q_n^{-1} converges to a
matrix C built from the loadings of the steady periodic mean on the basis
and the stationary variance of the noise part.  Sigma_0 is the Gram matrix
of (phi_1, ..., phi_p, -h~) under the long-memory inner product

    <f, g>_H = H(2H-1) int_0^1 int_0^1 f(s) g(t) |t-s|^{2H-2} ds dt,

and sigma^2 C Sigma_0 C is reported as the limit reference.  It is not the
limit covariance of n^{1-H}(theta_hat - theta) for a general basis: under
the n^{-H} scaling only the period means of the integrands survive
(substituting t = n u sends n^{-2H} int int f g |t-s|^{2H-2} to fbar gbar,
not to the one-period Gram entry).  A 1-periodic integrand with zero
period mean obeys a square-root central limit theorem, so the variance of
its n^{-H}-scaled sum decays like n^{1-2H}.  Sigma_0 is the limit only when
every integrand is constant.

The Monte Carlo CLT study is therefore judged against
:func:`finite_horizon_covariance`: sigma^2 C Cov(n^{-H} R_n) C with the
covariance of the noise vector R_n computed exactly, without sampling,
for the stationary Euler chain at the study's own horizon and step.  Its
integrands repeat every period, so the N x N fGn covariance of the n*m
grid points enters only folded onto one period: an m x m Toeplitz kernel
whose lag function sums the fGn covariance over the n periods.

Everything here is deterministic.  h~ enters through its exact
trigonometric coefficients, and the weak |t-s|^{2H-2} singularity of the
limit integrals is absorbed exactly with Gauss-Jacobi weights, built here
from numpy alone by the Golub-Welsch construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from perifou.errors import InvalidInput
from perifou.estimator import block_inverse
from perifou.fgn import fgn_autocovariance
from perifou.model import (
    FouModel,
    first_order_recursion,
    period_basis,
    steady_euler_orbit,
    steady_mean,
    steady_mean_terms,
)

# H below 3/4 is where the slow central limit theorem applies; the
# matrices remain computable for H up to 1.
CLT_HURST_UPPER = 0.75

# Highest sin/cos frequency k at which Sigma_0's 48 x 64-node Gauss-Jacobi x
# Gauss-Legendre quadrature holds: against a 200 x 400-node evaluation of the
# same integrals (H in {0.55, 0.65, 0.74}) its relative error is <= 1.1e-9 for
# k <= 15, 1.4-2.0e-7 at k = 16 and 0.15-0.31 at k = 20.
MAX_LIMIT_FREQUENCY = 15

# The geometric memory a^j of the Euler noise is cut where it drops below this.
_EULER_MEMORY_FORGETTING = 1e-17

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_UNIT_NODES = 0.5 * (_GL_NODES + 1.0)
_UNIT_WEIGHTS = 0.5 * _GL_WEIGHTS


@dataclass(frozen=True)
class LimitSummary:
    """C, Sigma_0 and the limit reference sigma^2 C Sigma_0 C with their
    ingredients; ``c_inverse_gap`` is the Frobenius norm of Sigma_0 - C^{-1}."""

    loadings: np.ndarray
    precision: float
    stationary_var: float
    c_matrix: np.ndarray
    noise_cov: np.ndarray
    asym_cov: np.ndarray
    alpha_h: float
    clt_valid: bool
    degenerate_limit: bool
    c_inverse_gap: float

    def to_report(self) -> dict:
        return {
            "lambda": [float(v) for v in self.loadings],
            "gamma": float(self.precision),
            "stationary_variance": float(self.stationary_var),
            "alpha_h": float(self.alpha_h),
            "C": self.c_matrix.tolist(),
            "Sigma0": self.noise_cov.tolist(),
            "asymptotic_covariance": self.asym_cov.tolist(),
            "flags": {
                "clt_valid": bool(self.clt_valid),
                "degenerate_limit": bool(self.degenerate_limit),
            },
            "sigma0_minus_c_inverse_frobenius": self.c_inverse_gap,
        }


def _gauss_jacobi(count: int, beta: float) -> tuple:
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


def _long_memory_gram(evaluate, hurst: float) -> np.ndarray:
    """Gram matrix of integrands f_1..f_K under the long-memory inner product
    <f, g>_H = H(2H-1) * int_0^1 int_0^1 f(s) g(t) |t-s|^{2H-2} ds dt.

    ``evaluate(t)`` returns the stacked values (f_1(t), ..., f_K(t)), of
    shape (K,) + shape(t); the integrands must be bounded on [0, 1].
    Splitting the square along the diagonal and substituting u = t - s
    reduces each entry to int_0^1 u^{2H-2} F(u) du with the smooth
    symmetrized correlation

        F(u) = int_0^{1-u} ( f(s) g(s+u) + g(s) f(s+u) ) ds.

    The u integral is the 48-point Golub-Welsch Gauss-Jacobi rule of
    :func:`_gauss_jacobi` with weight exponent 2H-2 (exact for the singular
    factor); F is Gauss-Legendre on the shrinking interval.  Every entry
    shares these nodes, so each integrand is evaluated once at s and once at
    s + u, and with M_ij = sum w f_i(s) f_j(s+u) the Gram matrix is M + M^t.
    """
    if not 0.5 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst}")
    a = 2.0 * hurst - 2.0
    xj, wj = _gauss_jacobi(48, a)
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


def _steady_projection(model: FouModel, var: float) -> tuple:
    """Loadings Lambda, residual variance 1/gamma and out-of-span energy
    ||h~_perp||^2, read from the coefficients of h~ (:func:`steady_mean_terms`)
    given the stationary variance ``var``.  The basis is orthonormal, so
    Lambda_i is the coefficient of phi_i and the residual is var plus the
    squared coefficients outside the basis: exact, with no cancellation.
    Raises InvalidInput when it is 0 (sigma = 0 and h~ in the basis span)."""
    terms = steady_mean_terms(model)
    lam = np.array([terms.get(f, 0.0) for f in model.basis.functions])
    outside = sum(c * c for f, c in terms.items() if f not in model.basis.functions)
    residual = var + outside
    _require_finite(model, lam, residual)
    if residual == 0.0:
        raise InvalidInput(
            f"limit residual variance is 0: with model.sigma = {model.sigma} the "
            "steady mean lies in the span of model.basis, so gamma and C do not exist"
        )
    return lam, residual, outside


def _require_finite(model: FouModel, *values) -> None:
    """Raise InvalidInput unless every entry of ``values`` is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise InvalidInput(
            "the limit objects overflow double precision at "
            f"model.alpha = {model.alpha:g}, model.sigma = {model.sigma:g} and "
            f"max |model.mu| = {max(map(abs, model.mu)):g}"
        )


def stationary_variance(alpha: float, sigma: float, hurst: float) -> float:
    """Variance of the stationary zero-mean process:
    sigma^2 * alpha^{-2H} * H * Gamma(2H)."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return sigma**2 * alpha ** (-2.0 * hurst) * hurst * math.gamma(2.0 * hurst)


def noise_covariance_limit(model: FouModel) -> np.ndarray:
    """Sigma_0: Gram matrix of (phi_1, ..., phi_p, -h~) under the long-memory
    inner product, from one pass of :func:`_long_memory_gram`.

    This is the limit covariance of the scaled noise vector n^{-H} R_n only
    when every integrand is constant; in general only the period means
    survive the n^{-H} scaling (see the module docstring), and
    :func:`finite_horizon_noise_cov` gives the exact covariance at a
    finite horizon.  Raises InvalidInput for a basis frequency above
    MAX_LIMIT_FREQUENCY, where the quadrature no longer resolves it.
    """
    top = max(f.k for f in model.basis.functions)
    if top > MAX_LIMIT_FREQUENCY:
        raise InvalidInput(
            f"model.basis frequency k = {top} exceeds {MAX_LIMIT_FREQUENCY}, "
            "the largest the limit quadrature resolves"
        )

    def integrands(t):
        return np.concatenate([model.basis.evaluate(t), -steady_mean(model, t)[None]])

    return _long_memory_gram(integrands, model.hurst)


def quadratic_noise_variance(hurst: float, step: float, alpha: float, n_steps: int) -> float:
    """Var(sum_{k<N} Z_k dB_k) for the stationary Euler noise
    Z_{k+1} = a Z_k + dB_k (a = 1 - alpha*step) and its fGn driver dB.

    By Isserlis' theorem the variance is the lag sum

        sum_{|d|<N} (N - |d|) [c_ZZ(d) c_BB(d) + c_ZB(d) c_ZB(-d)]

    of c_BB(d) = Cov(dB_k, dB_{k+d}), c_ZB(d) = Cov(Z_k, dB_{k+d}) and
    c_ZZ(d) = Cov(Z_k, Z_{k+d}).  The lag functions follow from two exact
    linear recursions: c_ZB(d) = c_BB(d+1) + a c_ZB(d+1), run backwards
    from far enough beyond the horizon that the dropped memory is below
    _EULER_MEMORY_FORGETTING, and c_ZZ(d) = c_ZB(d-1) + a c_ZZ(d-1), run
    forwards from Var(Z) = (c_BB(0) + 2a c_ZB(0)) / (1 - a^2).
    """
    a = 1.0 - alpha * step
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha*step must lie in (0, 1), got {alpha * step}")
    last = int(n_steps) - 1
    memory = math.ceil(math.log(_EULER_MEMORY_FORGETTING) / math.log1p(-alpha * step))
    weight = step ** (2.0 * hurst)
    # c_BB(d+1) for d = -last .. last + memory
    c_bb_next = weight * fgn_autocovariance(
        hurst, np.abs(np.arange(1 - last, last + memory + 2))
    )
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


def finite_horizon_noise_cov(model: FouModel, n_periods: int, step: float) -> np.ndarray:
    """Exact Cov(n^{-H} R_n) for the stationary Euler chain, without sampling.

    On the grid X_k = h_k + sigma Z_k, with h the steady Euler orbit
    (:func:`steady_euler_orbit`) and Z the Euler noise of
    :func:`quadratic_noise_variance`, so the noise vector of
    ``oracle_divergence`` is

        R_n = (sum_k phi_i(t_k) dB_k, -sum_k h_k dB_k - sigma (S - E S)),
        S = sum_k Z_k dB_k.

    The linear part gives the quadratic forms f^T T g over the integrands
    (phi_1, ..., phi_p, -h), with T[k, l] = c_BB(k - l) the fGn covariance
    of the N = n m grid points.  Each integrand is one period F repeated n
    times, so summing T over its n x n blocks of periods folds the form
    onto one period: f^T T g = F K G^T with the m x m Toeplitz kernel
    K[i, j] = kappa(|i - j|),

        kappa(e) = sum_{|q|<n} (n - |q|) c_BB(|q m + e|),   |e| < m,

    gathered from the N lags of c_BB; kappa is even, and nothing of length
    N is built but those lags.  The centred quadratic part has no
    covariance with the linear part (odd Gaussian moments vanish) and adds
    sigma^2 Var(S) to the alpha entry.
    """
    hurst = model.hurst
    m = round(1.0 / step)
    n_steps = n_periods * m
    period = np.vstack(
        [period_basis(model.basis, step), -steady_euler_orbit(model, step)]
    )
    c_bb = step ** (2.0 * hurst) * fgn_autocovariance(hurst, np.arange(n_steps))
    q = np.arange(1 - n_periods, n_periods)
    lags = np.arange(m)
    kappa = (n_periods - np.abs(q)) @ c_bb[np.abs(q[:, None] * m + lags)]
    cov = period @ kappa[np.abs(lags[:, None] - lags)] @ period.T
    cov[-1, -1] += model.sigma**2 * quadratic_noise_variance(hurst, step, model.alpha, n_steps)
    return n_periods ** (-2.0 * hurst) * cov


def finite_horizon_covariance(
    model: FouModel, n_periods: int, step: float, c_matrix: np.ndarray
) -> np.ndarray:
    """sigma^2 C Cov(n^{-H} R_n) C: the covariance of the scaled error
    n^{1-H} (theta_hat - theta) at the given horizon and step.

    Exact for the stationary Euler chain up to one approximation: the
    random n Q_n^{-1} is replaced by its limit ``c_matrix``
    (``limit_summary(model).c_matrix``).  This is the reference of the CLT study.
    """
    noise = finite_horizon_noise_cov(model, n_periods, step)
    return model.sigma**2 * (c_matrix @ noise @ c_matrix)


def limit_summary(model: FouModel) -> LimitSummary:
    """Assemble all limit objects once, with validity flags.

    ``degenerate_limit`` is set when the limit reference sigma^2 C Sigma_0 C
    is singular: when sigma = 0, or when h~ lies in the span of the basis.
    The alpha variance is sigma^2 gamma^2 ||h~_perp||_H^2, with h~_perp the
    part of h~ outside the span, so the flag is decided exactly from the
    out-of-span coefficients of h~, not from a rounded variance.

    Raises InvalidInput when an object is not finite in double precision,
    as when a tiny alpha, a huge sigma or a huge mu overflows the stationary
    variance, the steady mean or C.
    """
    # Overflow surfaces as InvalidInput from _require_finite, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            var = stationary_variance(model.alpha, model.sigma, model.hurst)
        except OverflowError:
            var = math.inf
        lam, residual, outside = _steady_projection(model, var)
        g = 1.0 / residual
        c = block_inverse(lam, g)
        sigma0 = noise_covariance_limit(model)
        asym = model.sigma**2 * (c @ sigma0 @ c)
        _require_finite(model, c, sigma0, asym)  # inv raises LinAlgError on NaN
        gap = math.hypot(*(sigma0 - np.linalg.inv(c)).ravel())  # norm() would square 1/gamma
        _require_finite(model, gap)
    return LimitSummary(
        loadings=lam,
        precision=g,
        stationary_var=var,
        c_matrix=c,
        noise_cov=sigma0,
        asym_cov=asym,
        alpha_h=model.hurst * (2.0 * model.hurst - 1.0),
        clt_valid=model.hurst < CLT_HURST_UPPER,
        degenerate_limit=model.sigma == 0.0 or outside == 0.0,
        c_inverse_gap=gap,
    )
