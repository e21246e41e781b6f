"""Least-squares drift estimation from a sample path.

The estimator solves the normal equations Q theta_hat = P assembled from
left-endpoint Riemann(-Stieltjes) sums on the simulation grid.  Q has a
closed-form inverse because the basis block is n * I_p up to discretization
error.  Two integral conventions are supported for the quadratic term
integral X dX:

* ``naive_pathwise``  - forward sums of observed increments only; for
  long-memory noise this estimator of alpha is biased low because the
  pathwise integral of X against the driver has positive mean.
* ``oracle_divergence`` - subtracts the analytic Skorokhod trace term
  sigma^2 * correction from the pathwise integral X dX (equivalently adds
  it to the last component of P, which carries -integral X dX), recovering
  the zero-mean divergence-integral convention under which the estimator
  is consistent.  Exact in simulation where sigma is known; with an
  unknown mean-reversion rate a two-pass plug-in uses the naive alpha_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from perifou.errors import DegenerateDesign, InvalidInput
from perifou.fgn import fgn_autocovariance
from perifou.model import SamplePath, fold_periods, period_basis

MODES = ("naive_pathwise", "oracle_divergence")

# Below this share of the path's mean square the residual variance is
# rounding, and the data carry no information about alpha.  The share is
# scale-free, as alpha_hat is; noiseless paths in the basis span reach
# 2.5e-12 at 60 000 increments, so 1e-10 leaves margin up to the 2^24 cap.
DEGENERACY_THRESHOLD = 1e-10

# Largest entry of gram/n - I a basis may show on its grid; valid bases sit
# at rounding level (<= 1.4e-15), an aliased frequency at order one.
ALIASING_TOLERANCE = 1e-9

# Floor for the plug-in mean-reversion rate in the two-pass correction;
# the naive alpha_hat can dip below zero when the trace term dominates.
_PLUG_IN_FLOOR = 1e-6

_EXPLICIT_LAGS = 4096  # K of euler_lag_sum: lags added one by one; beyond them, a closed form


@dataclass(frozen=True)
class DesignStats:
    """Path functionals entering the normal equations.

    gram      (p, p)  integral phi_i phi_j dt over [0, n]
    loadings  (p,)    (1/n) integral phi_i X dt
    residual  float   (1/n) integral X^2 dt - |loadings|^2, the residual
                      variance of X after projecting on the basis
    n_periods int
    """

    gram: np.ndarray
    loadings: np.ndarray
    residual: float
    n_periods: int


@dataclass(frozen=True)
class EstimateResult:
    theta_hat: np.ndarray
    design: DesignStats
    mode: str
    noise_vector: np.ndarray | None
    correction: float
    correction_alpha: float | None = None  # None in naive_pathwise mode
    correction_alpha_source: str | None = None

    @property
    def alpha_hat(self) -> float:
        return float(self.theta_hat[-1])

    def to_report(self) -> dict:
        return {
            "mode": self.mode,
            "theta_hat": [float(v) for v in self.theta_hat],
            "mu_hat": [float(v) for v in self.theta_hat[:-1]],
            "alpha_hat": self.alpha_hat,
            "lambda_n": [float(v) for v in self.design.loadings],
            "gamma_n": 1.0 / self.design.residual,
            "degenerate": False,
            "n_periods": self.design.n_periods,
            "correction": float(self.correction),
            "correction_alpha": self.correction_alpha,
            "correction_alpha_source": self.correction_alpha_source,
        }


def build_design(path: SamplePath) -> DesignStats:
    """Left-endpoint Riemann sums of the basis/path functionals.

    The basis is periodic, so each sum pairs one period of basis values
    with the path folded over periods.  The basis Gram block is computed
    from the samples rather than assumed to be n * I_p, so its deviation
    from the identity is a genuine discretization diagnostic.  A path whose
    residual variance after projection on the basis is numerically zero
    (e.g. a constant path against the constant basis) is rejected by
    :func:`normal_matrix_inverse`, not here.
    """
    n = path.n_periods
    step = path.step
    x_left = path.x[:-1]
    phi = period_basis(path.model.basis, path.step)
    gram = (n * step) * (phi @ phi.T)
    loadings = step * (phi @ fold_periods(x_left, path.steps_per_period)) / n
    # Over the N = n*m grid points np.dot is a BLAS ddot, which OpenBLAS
    # spreads over every core; in a process pool those threads contend with
    # the other workers, so the N-length reductions of this module use
    # einsum's single-threaded loop.
    energy = step * float(np.einsum("i,i", x_left, x_left))
    residual = energy / n - float(np.dot(loadings, loadings))
    return DesignStats(gram=gram, loadings=loadings, residual=residual, n_periods=n)


def normal_matrix_inverse(design: DesignStats) -> np.ndarray:
    """Closed-form inverse of the normal matrix.

    Q^{-1} = (1/n) [[I_p + g L L^t, g L], [g L^t, g]] with loadings L and
    g = 1/residual, by block (Schur) inversion of [[I, -L], [-L^t, b/n]];
    valid because the basis Gram block equals n * I_p up to discretization
    error.  Note the positive off-diagonal blocks: the two minus signs of
    Q cancel there.  Raises InvalidInput when the Gram block departs from
    n * I_p by more than ALIASING_TOLERANCE (a frequency the grid cannot
    carry, e.g. sin 2 pi 8 t on t = j/16), and DegenerateDesign when the
    residual variance is at most DEGENERACY_THRESHOLD times the path's
    mean square b/n = residual + |L|^2.
    """
    aliasing = np.abs(design.gram / design.n_periods - np.eye(design.gram.shape[0])).max()
    if aliasing > ALIASING_TOLERANCE:
        raise InvalidInput(
            f"model.basis is not orthonormal on the grid of model.step_denominator: "
            f"max |gram/n - I| = {aliasing:.3g} > {ALIASING_TOLERANCE:.0e}; "
            "a basis frequency aliases on this grid"
        )
    mean_square = design.residual + float(np.dot(design.loadings, design.loadings))
    if design.residual <= DEGENERACY_THRESHOLD * mean_square:
        raise DegenerateDesign(
            f"residual variance {design.residual:.3e} <= {DEGENERACY_THRESHOLD:.0e} x "
            f"the mean square {mean_square:.3e}; mean reversion is unidentifiable"
        )
    return block_inverse(design.loadings, 1.0 / design.residual) / design.n_periods


def block_inverse(lam: np.ndarray, g: float) -> np.ndarray:
    """[[I_p + g L L^t, g L], [g L^t, g]], the inverse of
    [[I_p, -L], [-L^t, 1/g + |L|^2]] by block (Schur) inversion."""
    p = lam.size
    inv = np.empty((p + 1, p + 1))
    inv[:p, :p] = np.eye(p) + g * np.outer(lam, lam)
    inv[:p, p] = g * lam
    inv[p, :p] = g * lam
    inv[p, p] = g
    return inv


def scaled_upper_gamma(a: float, z):
    """e^z z^{-a} Gamma(a, z) for real a not in {0, -1, ...} and real z > 0 or complex z:
    Gamma(a) e^z z^{-a} minus the lower-gamma series below |z| = 2 (the cancellation costs
    <= 1e-13 there), else Lentz's continued fraction (Numerical Recipes' ``gcf``)."""
    if abs(z) < 2.0:
        term = total = 1.0 / a
        for n in range(1, 40):
            term *= z / (a + n)
            total += term
        return math.gamma(a) * math.exp(z) * z**-a - total
    b = 1.0 - a + z
    c, d = 1e300, 1.0 / b
    fraction = d
    for i in range(1, 100):  # within 60 terms at real z >= 2, 40 at |z| >= 2 pi
        b += 2.0
        d = 1.0 / (i * (a - i) * d + b)
        c = b + i * (a - i) / c
        fraction *= c * d
        if abs(c * d - 1.0) <= 1e-16:
            break
    return fraction


def _last_lag(lam: float) -> int:
    """The lag J where both lag sums stop: past it the decay a^{j-1} = e^{-lam (j-1)} is
    below 1e-18, and a sum in double precision no longer moves."""
    return math.ceil(math.log(1e18) / lam)


def euler_lag_sum(alpha: float, hurst: float, step: float, start: int = 0) -> float:
    """T(d) = sum_{j>=1} a^{j-1} c_BB(d + j) = Cov(Z_k, dB_{k+d}) at d = ``start``, for the
    stationary Euler noise Z_{k+1} = a Z_k + dB_k, a = 1 - alpha*step = e^{-lam}, and fGn of
    covariance c_BB(k) = step^{2H} rho_H(k).  The first min(K, :func:`_last_lag`) terms are
    summed as they stand; the rest by the midpoint Euler-Maclaurin rule int_{K+1/2}^inf f
    + f'(K+1/2)/24 on rho_H(k) = H b k^{b-1} (1 + (b-1)(b-2) / (12 k^2)), b = 2H - 1, whose
    integrals are a^{K-1/2} u^s e^x x^{-s} Gamma(s, x) at u = K + 1/2 + d, x = lam u, s = b and
    b - 2 (:func:`scaled_upper_gamma`; scaled, so no factor e^{lam d} overflows or cancels)."""
    lam, a = -math.log1p(-alpha * step), 1.0 - alpha * step
    lags = np.arange(1, min(_EXPLICIT_LAGS, _last_lag(lam)) + 1)
    total = float(np.sum(a ** (lags - 1.0) * fgn_autocovariance(hurst, lags + start)))
    if lags.size == _EXPLICIT_LAGS:
        b, u = 2.0 * hurst - 1.0, _EXPLICIT_LAGS + 0.5 + start
        first, second = (u**s * scaled_upper_gamma(s, lam * u) for s in (b, b - 2.0))
        integral = first + (b - 1.0) * (b - 2.0) / 12.0 * second
        slope = u ** (b - 1.0) * ((b - 1.0) / u - lam) / 24.0
        total += hurst * b * math.exp(-lam * (_EXPLICIT_LAGS - 0.5)) * (integral + slope)
    return step ** (2.0 * hurst) * total


@lru_cache(maxsize=128)
def discrete_trace_correction(
    alpha: float, hurst: float, step: float, n_steps: int, stationary: bool = True
) -> float:
    """Exact mean of the forward sum of X against its driver, per unit sigma.

    For the Euler chain with decay factor a = 1 - alpha*step, E[sum_k X_k dB_k] =
    sigma * sum_k sum_{m>=1} a^{m-1} rho_H(m) step^{2H} with the inner sum running over the
    available history of row k: the whole past for stationary starts (N :func:`euler_lag_sum`),
    lags m <= k for fixed starts, that is sum_{m<N} (N - m) a^{m-1} c_BB(m) over
    m <= min(N - 1, J), J of :func:`_last_lag` as in the kernel: O(1/(alpha step)) time and
    memory, not O(N).  Subtracting this makes the discretized quadratic response mean-zero,
    matching the divergence-integral convention on the grid exactly; the continuous-time trace
    term (``skorokhod_correction`` in the tests' ``oracles.py``) overshoots it by the same-cell
    kernel mass T*step^{2H-1}/2, which vanishes only slowly.  Cached, because every oracle
    replicate of a study asks for the same value.
    """
    if not 0.5 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    a = 1.0 - alpha * step
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha*step must lie in (0, 1), got {alpha * step}")
    if stationary:
        return n_steps * euler_lag_sum(alpha, hurst, step)
    lags = np.arange(1, min(n_steps, _last_lag(-math.log1p(-alpha * step)) + 1))
    terms = a ** (lags - 1.0) * fgn_autocovariance(hurst, lags) * step ** (2.0 * hurst)
    return float(np.einsum("i,i", n_steps - lags, terms))  # not np.dot: see build_design


def _require_finite(path: SamplePath, sigma: float, *values) -> None:
    """Raise InvalidInput unless every entry of ``values``, functionals of
    ``path`` in the normal equations, is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise InvalidInput(
            "the normal equations overflow double precision on this path: "
            f"max |x| = {np.abs(path.x).max():g} at model.sigma = {sigma:g}"
        )


def estimate(
    path: SamplePath,
    mode: str = "naive_pathwise",
    sigma: float | None = None,
    alpha_for_correction: float | None = None,
) -> EstimateResult:
    """Least-squares estimate theta_hat = Q^{-1} P from one sample path.

    In ``oracle_divergence`` mode the quadratic response entry is shifted
    by sigma^2 times the Skorokhod trace term, evaluated at
    ``alpha_for_correction`` when given (verification runs with known
    truth) and otherwise at the naive alpha_hat from a first pass ("given"
    or "plug-in", as the result records); either must give a decay
    0 < 1 - alpha*step < 1 in double precision, or InvalidInput is raised.
    theta_hat needs no driver, so either mode runs on an observed path alone.  The
    noise vector R with P = Q theta + sigma R is returned whenever driver
    increments are available (None otherwise), assembled under the same
    integral convention as the mode, which makes
    theta_hat - theta = sigma Q^{-1} R an exact identity of the
    discretized system.
    """
    if mode not in MODES:
        raise InvalidInput(f"mode must be one of {MODES}, got {mode!r}")
    model = path.model
    if sigma is None:
        sigma = model.sigma
    m = path.steps_per_period
    phi = period_basis(model.basis, path.step)
    x_left = path.x[:-1]
    # Overflow is refused by _require_finite below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        design = build_design(path)
        # The response P is the functional of dx that the noise vector R is
        # of db.  einsum, not np.dot: see build_design
        response, noise_vector = (
            None if dz is None
            else np.append(phi @ fold_periods(dz, m), -float(np.einsum("i,i", x_left, dz)))
            for dz in (np.diff(path.x), path.driver_increments)
        )
    _require_finite(path, sigma, design.loadings, design.residual, response)
    inverse = normal_matrix_inverse(design)

    correction, source = 0.0, None
    if mode == "oracle_divergence":
        source = "given" if alpha_for_correction is not None else "plug-in"
        if alpha_for_correction is None:
            alpha_for_correction = max(float((inverse @ response)[-1]), _PLUG_IN_FLOOR)
        if not 0.0 < 1.0 - alpha_for_correction * path.step < 1.0:  # as rounded
            raise InvalidInput(
                f"{source} alpha_for_correction {alpha_for_correction!r} breaks "
                "0 < 1 - alpha*step < 1; set estimate.alpha_for_correction to override"
            )
        correction = discrete_trace_correction(
            alpha_for_correction,
            model.hurst,
            path.step,
            path.x.size - 1,
            stationary=path.stationary_start,
        )
        try:
            response[-1] += sigma**2 * correction
        except OverflowError:  # sigma**2 beyond double precision
            response[-1] = math.inf
        _require_finite(path, sigma, response)

    theta_hat = inverse @ response

    if noise_vector is not None and mode == "oracle_divergence":
        noise_vector[-1] += sigma * correction

    return EstimateResult(
        theta_hat=theta_hat,
        design=design,
        mode=mode,
        noise_vector=noise_vector,
        correction=correction,
        correction_alpha=float(alpha_for_correction) if source else None,
        correction_alpha_source=source,
    )
