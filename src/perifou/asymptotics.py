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
for the stationary Euler chain at the study's own horizon and step.

Everything here is deterministic; the weak |t-s|^{2H-2} singularity of the
limit integrals is absorbed exactly with Gauss-Jacobi weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import matmul_toeplitz
from scipy.special import roots_jacobi

from perifou.estimator import block_inverse
from perifou.fgn import fgn_autocovariance
from perifou.model import (
    _UNIT_NODES,
    _UNIT_WEIGHTS,
    FouModel,
    first_order_recursion,
    period_grid,
    steady_euler_orbit,
    steady_mean,
)

# H below 3/4 is where the slow central limit theorem applies; the
# matrices remain computable for H up to 1.
CLT_HURST_UPPER = 0.75

DEGENERATE_LIMIT_THRESHOLD = 1e-12

# The geometric memory a^j of the Euler noise is cut where it drops below this.
_EULER_MEMORY_FORGETTING = 1e-17

_GL_NODES_FINE, _GL_WEIGHTS_FINE = np.polynomial.legendre.leggauss(128)
_UNIT_NODES_FINE = 0.5 * (_GL_NODES_FINE + 1.0)
_UNIT_WEIGHTS_FINE = 0.5 * _GL_WEIGHTS_FINE


@dataclass(frozen=True)
class LimitSummary:
    """C, Sigma_0 and the limit reference sigma^2 C Sigma_0 C with their
    ingredients."""

    loadings: np.ndarray
    precision: float
    stationary_var: float
    c_matrix: np.ndarray
    noise_cov: np.ndarray
    asym_cov: np.ndarray
    alpha_h: float
    clt_valid: bool
    degenerate_limit: bool

    def to_report(self) -> dict:
        c_inv = np.linalg.inv(self.c_matrix)
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
            "sigma0_minus_c_inverse_frobenius": float(
                np.linalg.norm(self.noise_cov - c_inv)
            ),
        }


def _long_memory_gram(evaluate, hurst: float, n_jacobi: int = 48) -> np.ndarray:
    """Gram matrix of integrands f_1..f_K under the long-memory inner product
    <f, g>_H = H(2H-1) * int_0^1 int_0^1 f(s) g(t) |t-s|^{2H-2} ds dt.

    ``evaluate(t)`` returns the stacked values (f_1(t), ..., f_K(t)), of
    shape (K,) + shape(t); the integrands must be bounded on [0, 1].
    Splitting the square along the diagonal and substituting u = t - s
    reduces each entry to int_0^1 u^{2H-2} F(u) du with the smooth
    symmetrized correlation

        F(u) = int_0^{1-u} ( f(s) g(s+u) + g(s) f(s+u) ) ds.

    The u integral is Gauss-Jacobi with weight exponent 2H-2 (exact for the
    singular factor); F is Gauss-Legendre on the shrinking interval.  Every
    entry shares these nodes, so each integrand is evaluated once at s and
    once at s + u, and with M_ij = sum w f_i(s) f_j(s+u) the Gram matrix is
    M + M^t.
    """
    if not 0.5 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst}")
    a = 2.0 * hurst - 2.0
    xj, wj = roots_jacobi(n_jacobi, 0.0, a)
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
    :func:`_long_memory_gram` on the pair."""
    return float(_long_memory_gram(lambda t: np.stack([f(t), g(t)]), hurst)[0, 1])


def _steady_projection(model: FouModel) -> tuple:
    """Loadings Lambda and residual variance 1/gamma from one evaluation of h~."""
    h_vals = steady_mean(model, _UNIT_NODES_FINE)
    phi = model.basis.evaluate(_UNIT_NODES_FINE)
    lam = phi @ (_UNIT_WEIGHTS_FINE * h_vals)
    h_energy = float(np.dot(_UNIT_WEIGHTS_FINE, h_vals**2))
    var = stationary_variance(model.alpha, model.sigma, model.hurst)
    return lam, h_energy + var - float(np.dot(lam, lam))


def loadings_limit(model: FouModel) -> np.ndarray:
    """Projection of the steady periodic mean on the basis:
    Lambda_i = int_0^1 phi_i(t) h~(t) dt."""
    return _steady_projection(model)[0]


def stationary_variance(alpha: float, sigma: float, hurst: float) -> float:
    """Variance of the stationary zero-mean process:
    sigma^2 * alpha^{-2H} * H * Gamma(2H)."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return sigma**2 * alpha ** (-2.0 * hurst) * hurst * math.gamma(2.0 * hurst)


def precision_limit(model: FouModel) -> float:
    """Limit of the reciprocal residual variance:
    gamma = 1 / (int_0^1 h~^2 dt + stationary variance - |Lambda|^2).

    Finite and positive: the Bessel inequality bounds |Lambda|^2 by the
    h~ energy and the stationary variance is strictly positive for
    sigma > 0.
    """
    return 1.0 / _steady_projection(model)[1]


def normal_inverse_limit(model: FouModel) -> np.ndarray:
    """Limit C of n Q_n^{-1}: [[I_p + g L L^t, g L], [g L^t, g]].

    The off-diagonal blocks are positive (Schur inversion of the limiting
    [[I, -L], [-L^t, .]] normal matrix cancels the two minus signs), which
    is also what the empirical covariance of scaled estimation errors
    reproduces.
    """
    lam, residual = _steady_projection(model)
    return block_inverse(lam, 1.0 / residual)


def noise_covariance_limit(model: FouModel) -> np.ndarray:
    """Sigma_0: Gram matrix of (phi_1, ..., phi_p, -h~) under the long-memory
    inner product, from one pass of :func:`_long_memory_gram`.

    This is the limit covariance of the scaled noise vector n^{-H} R_n only
    when every integrand is constant; in general only the period means
    survive the n^{-H} scaling (see the module docstring), and
    :func:`finite_horizon_noise_cov` gives the exact covariance at a
    finite horizon.
    """

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

    The linear part gives the Toeplitz quadratic forms step^{2H} f^T T g
    over (phi_1, ..., phi_p, -h); the centred quadratic part has no
    covariance with it (odd Gaussian moments vanish) and adds
    sigma^2 Var(S) to the alpha entry.
    """
    hurst = model.hurst
    m = round(1.0 / step)
    n_steps = n_periods * m
    period = np.vstack(
        [model.basis.evaluate(period_grid(step)), -steady_euler_orbit(model, step)]
    )
    integrands = np.tile(period, n_periods).T
    column = step ** (2.0 * hurst) * fgn_autocovariance(hurst, np.arange(n_steps))
    cov = integrands.T @ matmul_toeplitz((column, column), integrands)
    cov[-1, -1] += model.sigma**2 * quadratic_noise_variance(
        hurst, step, model.alpha, n_steps
    )
    return n_periods ** (-2.0 * hurst) * cov


def finite_horizon_covariance(
    model: FouModel, n_periods: int, step: float, c_matrix: np.ndarray
) -> np.ndarray:
    """sigma^2 C Cov(n^{-H} R_n) C: the covariance of the scaled error
    n^{1-H} (theta_hat - theta) at the given horizon and step.

    Exact for the stationary Euler chain up to one approximation: the
    random n Q_n^{-1} is replaced by its limit ``c_matrix``
    (:func:`normal_inverse_limit`).  This is the reference of the CLT study.
    """
    noise = finite_horizon_noise_cov(model, n_periods, step)
    return model.sigma**2 * (c_matrix @ noise @ c_matrix)


def limit_summary(model: FouModel) -> LimitSummary:
    """Assemble all limit objects once, with validity flags.

    ``degenerate_limit`` is set when the smallest variance on the diagonal
    of sigma^2 C Sigma_0 C is at most DEGENERATE_LIMIT_THRESHOLD times the
    largest, so the limit reference is singular in that component (e.g.
    the alpha entry when h~ lies in the span of the basis).
    """
    lam, residual = _steady_projection(model)
    g = 1.0 / residual
    c = block_inverse(lam, g)
    sigma0 = noise_covariance_limit(model)
    asym = model.sigma**2 * (c @ sigma0 @ c)
    variances = np.diag(asym)
    return LimitSummary(
        loadings=lam,
        precision=g,
        stationary_var=stationary_variance(model.alpha, model.sigma, model.hurst),
        c_matrix=c,
        noise_cov=sigma0,
        asym_cov=asym,
        alpha_h=model.hurst * (2.0 * model.hurst - 1.0),
        clt_valid=model.hurst < CLT_HURST_UPPER,
        degenerate_limit=bool(
            variances.min() <= DEGENERATE_LIMIT_THRESHOLD * variances.max()
        ),
    )
