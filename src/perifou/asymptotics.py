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

Everything here is deterministic and exact: no quadrature.  The basis
and h~ are sums of const/sin/cos terms with known coefficients, hence of
exponentials e^{2 pi i k t}, and the long-memory integral of two
exponentials reduces to incomplete gamma functions at an imaginary
argument.  Sigma_0 therefore costs the same at every frequency k.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from perifou.errors import InvalidInput
from perifou.estimator import block_inverse, euler_lag_sum, scaled_upper_gamma
from perifou.fgn import fgn_autocovariance
from perifou.model import (
    FouModel,
    first_order_recursion,
    period_basis,
    steady_euler_orbit,
    steady_mean_terms,
)

# H below 3/4 is where the slow central limit theorem applies; the
# matrices remain computable for H up to 1.
CLT_HURST_UPPER = 0.75


@dataclass(frozen=True)
class LimitSummary:
    """C and the limit reference sigma^2 C Sigma_0 C, the two arrays later
    code computes with, and ``report``: every limit object, JSON-ready under
    its ``limits.json`` key and in file order."""

    c_matrix: np.ndarray
    asym_cov: np.ndarray
    report: dict


def _steady_projection(model: FouModel, var: float) -> tuple:
    """Loadings Lambda, residual variance 1/gamma and out-of-span energy
    ||h~_perp||^2, read from the coefficients of h~ (:func:`steady_mean_terms`)
    given the stationary variance ``var``.  The basis is orthonormal, so
    Lambda_i is the coefficient of phi_i and the residual is var plus the
    squared coefficients outside the basis: exact, with no cancellation.
    Raises InvalidInput when it is 0: sigma = 0 and h~ in the basis span, or
    a stationary variance that underflows."""
    terms = steady_mean_terms(model)
    lam = np.array([terms.get(f, 0.0) for f in model.basis.functions])
    outside = sum(c * c for f, c in terms.items() if f not in model.basis.functions)
    residual = var + outside
    _require_finite(model, lam, residual)
    if residual == 0.0 and model.sigma > 0.0:
        raise InvalidInput(
            "limit residual variance is 0: the stationary variance "
            f"sigma^2 alpha^(-2H) H Gamma(2H) underflows at model.alpha = {model.alpha:g} "
            f"and model.sigma = {model.sigma:g}, so gamma would overflow"
        )
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


def _unit_moment(a: float, k: int) -> complex:
    """J_a(2 pi k) = int_0^1 u^{a-1} e^{2 pi i k u} du for a > 0, k >= 0.

    With z = -2 pi i k, J_a = z^{-a} (Gamma(a) - Gamma(a, z)), and as
    e^{-z} = 1, z^{-a} Gamma(a, z) is :func:`scaled_upper_gamma`."""
    if k == 0:
        return complex(1.0 / a)
    theta = 2.0 * math.pi * k
    fraction = scaled_upper_gamma(a, complex(0.0, -theta))
    return cmath.rect(math.gamma(a) * theta**-a, 0.5 * math.pi * a) - fraction


def _exponentials(terms) -> dict:
    """{j: c_j} with sum_j c_j e^{2 pi i j t} = sum_f w_f f(t) over the
    (BasisFunction f, weight w_f) pairs of ``terms``:
    sqrt2 sin x = (-i e^{ix} + i e^{-ix}) / sqrt2, sqrt2 cos x = (e^{ix} + e^{-ix}) / sqrt2."""
    out = {}
    for f, w in terms:
        c = w if f.kind == "const" else w * math.sqrt(0.5) * (-1j if f.kind == "sin" else 1.0)
        out[f.k] = out.get(f.k, 0.0) + c
        if f.k:
            out[-f.k] = out.get(-f.k, 0.0) + c.conjugate()
    return out


def noise_covariance_limit(model: FouModel) -> np.ndarray:
    """Sigma_0: Gram matrix of (phi_1, ..., phi_p, -h~) under the long-memory
    inner product, in closed form.

    The basis and h~ (:func:`steady_mean_terms`) are const/sin/cos sums, so
    with A their coefficients on the distinct exponentials e_j(t) =
    e^{2 pi i j t} present (at most 2p + 1, whatever the frequencies),
    Sigma_0 = A G A^T for the bilinear pair integrals G_jl = <e_j, e_l>_H.
    Splitting the square along the diagonal and substituting u = |t - s|
    leaves the moments J_a of :func:`_unit_moment`: with beta = 2H - 1,
    angular frequencies omega, nu in 2 pi Z and e^{i(omega + nu)} = 1,

        G / (H beta) = -2 (Im J_beta(omega) + Im J_beta(nu)) / (omega + nu),
                       or 2 Re(J_beta(omega) - J_{beta+1}(omega)) if omega + nu = 0.

    J is evaluated once per distinct |j| and exponent, and
    <1, 1>_H = Var(B^H_1) is set to exactly 1.  Only for constant integrands
    is this the limit of Cov(n^{-H} R_n) (see the module docstring).
    """
    hurst, beta = model.hurst, 2.0 * model.hurst - 1.0
    if not 0.5 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst}")
    rows = [_exponentials([(f, 1.0)]) for f in model.basis.functions]
    rows.append(_exponentials((f, -w) for f, w in steady_mean_terms(model).items()))
    freqs = sorted(set().union(*rows))
    size = [abs(j) for j in freqs]
    moments = {k: (_unit_moment(beta, k), _unit_moment(beta + 1.0, k)) for k in set(size)}
    imag = np.sign(freqs) * np.array([moments[k][0].imag for k in size])
    opposite = np.array([2.0 * (moments[k][0] - moments[k][1]).real for k in size])
    total = np.add.outer(freqs, freqs)
    same = total == 0
    pair = hurst * beta * np.where(
        same, opposite, -(imag[:, None] + imag) / (math.pi * np.where(same, 1, total))
    )
    if 0 in freqs:
        pair[freqs.index(0), freqs.index(0)] = 1.0
    coefficients = np.array([[row.get(j, 0.0) for j in freqs] for row in rows])
    gram = (coefficients @ pair @ coefficients.T).real
    return 0.5 * (gram + gram.T)  # the triple product rounds the two triangles apart


def quadratic_noise_variance(hurst: float, step: float, alpha: float, n_steps: int) -> float:
    """Var(sum_{k<N} Z_k dB_k) for the stationary Euler noise
    Z_{k+1} = a Z_k + dB_k (a = 1 - alpha*step) and its fGn driver dB.

    By Isserlis' theorem the variance is the lag sum

        sum_{|d|<N} (N - |d|) [c_ZZ(d) c_BB(d) + c_ZB(d) c_ZB(-d)]

    of c_BB(d) = Cov(dB_k, dB_{k+d}), c_ZB(d) = Cov(Z_k, dB_{k+d}) and
    c_ZZ(d) = Cov(Z_k, Z_{k+d}).  The lag functions follow from two exact
    linear recursions: c_ZB(d) = c_BB(d+1) + a c_ZB(d+1), run backwards
    from c_ZB(N-1) = :func:`euler_lag_sum` at the horizon, and
    c_ZZ(d) = c_ZB(d-1) + a c_ZZ(d-1), run forwards from
    Var(Z) = (c_BB(0) + 2a c_ZB(0)) / (1 - a^2).
    """
    a = 1.0 - alpha * step
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha*step must lie in (0, 1), got {alpha * step}")
    last = int(n_steps) - 1
    c_bb = step ** (2.0 * hurst) * fgn_autocovariance(hurst, np.arange(last + 1))
    horizon = euler_lag_sum(alpha, hurst, step, last)  # c_ZB(last); back from there to c_ZB(-last)
    drive = c_bb[np.abs(np.arange(last, -last, -1))]
    c_zb = np.append(first_order_recursion(drive, a, horizon)[::-1], horizon)
    var_z = (c_bb[0] + 2.0 * a * c_zb[last]) / (1.0 - a * a)
    c_zz = np.append(var_z, first_order_recursion(c_zb[last:-1], a, var_z))
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
    """Assemble all limit objects once, with validity flags, into the
    ``limits.json`` report; ``sigma0_minus_c_inverse_frobenius`` is the
    Frobenius norm of Sigma_0 - C^{-1}.

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
        _require_finite(model, c, sigma0, asym)
        # C^{-1} = [[I, -Lambda], [-Lambda^t, 1/gamma + |Lambda|^2]], which block_inverse
        # inverts: exact, where inv(C) found C singular once gamma Lambda^2 swamped 1
        c_inverse = np.eye(lam.size + 1)
        c_inverse[:-1, -1] = c_inverse[-1, :-1] = -lam
        c_inverse[-1, -1] = residual + float(np.dot(lam, lam))
        gap = math.hypot(*(sigma0 - c_inverse).ravel())  # norm() would square 1/gamma
        _require_finite(model, gap)
    report = {
        "lambda": [float(v) for v in lam],
        "gamma": g,
        "stationary_variance": var,
        "alpha_h": model.hurst * (2.0 * model.hurst - 1.0),
        "C": c.tolist(),
        "Sigma0": sigma0.tolist(),
        "asymptotic_covariance": asym.tolist(),
        "flags": {
            "clt_valid": bool(model.hurst < CLT_HURST_UPPER),
            "degenerate_limit": bool(model.sigma == 0.0 or outside == 0.0),
        },
        "sigma0_minus_c_inverse_frobenius": gap,
    }
    return LimitSummary(c_matrix=c, asym_cov=asym, report=report)
