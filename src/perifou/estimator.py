"""Least-squares drift estimation from a sample path or a batch of them.

The estimator solves the normal equations Q theta_hat = P assembled from
left-endpoint Riemann(-Stieltjes) sums on the simulation grid.  Q has a
closed-form inverse because the basis block is n * I_p up to rounding on a
grid that ``model.refuse_aliasing`` admits; that check runs once per grid.
The equations of a batch of paths are solved in one vectorized pass, and
one path is a batch of one.  Two integral conventions are supported for the
quadratic term integral X dX:

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
from perifou.model import SamplePath, fold_periods, period_basis, refuse_aliasing

MODES = ("naive_pathwise", "oracle_divergence")

# Below this share of the path's mean square the residual variance is
# rounding, and the data carry no information about alpha.  The share is
# scale-free, as alpha_hat is; noiseless paths in the basis span reach
# 2.5e-12 at 60 000 increments, so 1e-10 leaves margin up to the 2^24 cap.
DEGENERACY_THRESHOLD = 1e-10

# Floor for the plug-in mean-reversion rate in the two-pass correction;
# the naive alpha_hat can dip below zero when the trace term dominates.
_PLUG_IN_FLOOR = 1e-6

_EXPLICIT_LAGS = 4096  # K of euler_lag_sum: lags added one by one; beyond them, a closed form


@dataclass(frozen=True)
class DesignStats:
    """Path functionals entering the normal equations.

    loadings  (p,)    (1/n) integral phi_i X dt
    residual  float   (1/n) integral X^2 dt - |loadings|^2, the residual
                      variance of X after projecting on the basis
    n_periods int

    The basis block integral phi_i phi_j dt over [0, n] is n * I_p on a grid
    that :func:`perifou.model.refuse_aliasing` admits."""

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


def _project(phi: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """phi @ fold_periods(row, m) for each row of ``values``, shape (B, p).

    ``matmul`` over the stacked (m, 1) columns runs one matrix-vector
    product per row, so a row's sums are those of the row alone; ``F @
    phi.T`` or an einsum would sum in another order."""
    return np.matmul(phi, fold_periods(values, m)[..., None])[..., 0]


def build_design(path: SamplePath) -> DesignStats:
    """Left-endpoint Riemann sums of the basis/path functionals.

    The basis is periodic, so each sum pairs one period of basis values
    with the path folded over periods.  A path whose residual variance
    after projection on the basis is numerically zero (e.g. a constant path
    against the constant basis) is rejected by :func:`normal_matrix_inverse`
    and :func:`estimate`, not here.  For a batch of B paths
    (:class:`SamplePath` with 2-D x) the loadings are (B, p) and the
    residual has one entry per path, each that path's own bit for bit.
    """
    n = path.n_periods
    step = path.step
    x_left = path.x.reshape(-1, path.x.shape[-1])[:, :-1]
    phi = period_basis(path.model.basis, path.step)
    loadings = step * _project(phi, x_left, path.steps_per_period) / n
    # Over the N = n*m grid points np.dot is a BLAS ddot, which OpenBLAS
    # spreads over every core; in a process pool those threads contend with
    # the other workers, so the N-length reductions of this module use
    # einsum's single-threaded loop.
    energy = step * np.einsum("bi,bi->b", x_left, x_left)
    residual = energy / n - _squares(loadings)
    if path.x.ndim == 1:
        return DesignStats(loadings=loadings[0], residual=float(residual[0]), n_periods=n)
    return DesignStats(loadings=loadings, residual=residual, n_periods=n)


def _squares(loadings: np.ndarray) -> np.ndarray:
    """|L|^2 of each row of ``loadings``: one np.dot per row, since an einsum
    over the batch moves its last digit."""
    return np.array([np.dot(row, row) for row in np.atleast_2d(loadings)])


def _degenerate(design: DesignStats) -> tuple:
    """The mask of the paths of ``design`` whose residual variance is at most DEGENERACY_THRESHOLD
    times their mean square b/n = residual + |L|^2, and the DegenerateDesign of a path."""
    residual = np.atleast_1d(design.residual)
    mean_square = residual + _squares(design.loadings)
    return residual <= DEGENERACY_THRESHOLD * mean_square, lambda row: DegenerateDesign(
        f"residual variance {residual[row]:.3e} <= {DEGENERACY_THRESHOLD:.0e} x "
        f"the mean square {mean_square[row]:.3e}; mean reversion is unidentifiable"
    )


def normal_matrix_inverse(design: DesignStats) -> np.ndarray:
    """Closed-form inverse of the normal matrix of one path.

    Q^{-1} = (1/n) [[I_p + g L L^t, g L], [g L^t, g]] with loadings L and
    g = 1/residual, by block (Schur) inversion of [[I, -L], [-L^t, b/n]];
    valid because the basis Gram block equals n * I_p on a grid that
    :func:`perifou.model.refuse_aliasing` admits.  Note the positive
    off-diagonal blocks: the two minus signs of Q cancel there.  Raises
    DegenerateDesign when the residual variance is at most
    DEGENERACY_THRESHOLD times the path's mean square b/n = residual + |L|^2.
    """
    degenerate, refusal = _degenerate(design)
    if degenerate[0]:
        raise refusal(0)
    return block_inverse(design.loadings, 1.0 / design.residual) / design.n_periods


def block_inverse(lam: np.ndarray, g) -> np.ndarray:
    """[[I_p + g L L^t, g L], [g L^t, g]], the inverse of
    [[I_p, -L], [-L^t, 1/g + |L|^2]] by block (Schur) inversion; L of shape
    (..., p) and g of shape (...) give one inverse per leading index."""
    g = np.expand_dims(g, -1)
    p = lam.shape[-1]
    inv = np.empty(lam.shape[:-1] + (p + 1, p + 1))
    inv[..., :p, :p] = np.eye(p) + g[..., None] * (lam[..., :, None] * lam[..., None, :])
    inv[..., :p, p] = inv[..., p, :p] = g * lam
    inv[..., p, p] = g[..., 0]
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
    discretized system.  This is :func:`estimate_rows` for one path, except
    that a degenerate design raises DegenerateDesign.
    """
    if path.x.ndim != 1:
        raise InvalidInput("estimate takes one path; estimate_rows takes a batch")
    (result,) = _solve(path, mode, sigma, alpha_for_correction)
    if isinstance(result, DegenerateDesign):
        raise result
    return result


def estimate_rows(
    path: SamplePath,
    mode: str = "naive_pathwise",
    sigma: float | None = None,
    alpha_for_correction: float | None = None,
) -> list:
    """:func:`estimate` for each path of a batch (:class:`SamplePath` with
    2-D x), in row order: None where a path's design is degenerate.

    The normal equations of the batch are solved in one pass, each result
    is that path's :func:`estimate` bit for bit, and the refusal raised is
    the first that solving path by path would raise.
    """
    results = _solve(path, mode, sigma, alpha_for_correction)
    return [None if isinstance(result, DegenerateDesign) else result for result in results]


def _solve(path: SamplePath, mode: str, sigma: float | None, alpha_for_correction) -> list:
    """The normal equations of every path of ``path``, one path or the rows
    of a batch, in one pass: an EstimateResult per path in row order, or the
    DegenerateDesign of a path whose design is degenerate."""
    if mode not in MODES:
        raise InvalidInput(f"mode must be one of {MODES}, got {mode!r}")
    if sigma is None:
        sigma = path.model.sigma
    m, n = path.steps_per_period, path.n_periods
    phi = period_basis(path.model.basis, path.step)
    x = path.x.reshape(-1, path.x.shape[-1])
    x_left = x[:, :-1]
    driver = path.driver_increments
    # Every non-finite value is refused below, not warned about; a
    # degenerate row's inverse divides by its zero residual and is dropped.
    with np.errstate(all="ignore"):
        design = build_design(path)
        loadings, residual = np.atleast_2d(design.loadings), np.atleast_1d(design.residual)
        # The response P is the functional of dx that the noise vector R is
        # of db.  einsum, not np.dot: see build_design
        response, noise = (
            None if dz is None
            else np.column_stack([_project(phi, dz, m), -np.einsum("bi,bi->b", x_left, dz)])
            for dz in (np.diff(x), None if driver is None else driver.reshape(x_left.shape))
        )
        failing = ~(  # overflow
            np.isfinite(loadings).all(-1) & np.isfinite(residual) & np.isfinite(response).all(-1)
        )
        if not failing[0]:  # path by path, the first path's overflow is refused first
            refuse_aliasing(path.model.basis, path.step)
        degenerate, refusal = _degenerate(design)
        inverse = block_inverse(loadings, 1.0 / residual) / n

        corrections, alphas, source = np.zeros(len(x)), [None] * len(x), None
        broken = np.zeros(len(x), dtype=bool)
        if mode == "oracle_divergence":
            source = "given" if alpha_for_correction is not None else "plug-in"
            alphas = [alpha_for_correction] * len(x)
            if alpha_for_correction is None:
                theta = np.matmul(inverse, response[..., None])[..., 0]
                alphas = np.maximum(theta[:, -1], _PLUG_IN_FLOOR).tolist()
            decay = 1.0 - np.array(alphas, dtype=float) * path.step  # as rounded
            live = ~failing & ~degenerate
            broken = live & ~((0.0 < decay) & (decay < 1.0))
            live &= ~broken
            # one cached value for a given alpha, one per path for the plug-in
            corrections[live] = [
                discrete_trace_correction(alphas[row], path.model.hurst, path.step, n * m,
                                          stationary=path.stationary_start)
                for row in np.flatnonzero(live)
            ]
            try:
                response[:, -1] += sigma**2 * corrections
            except OverflowError:  # sigma**2 beyond double precision
                response[:, -1] = math.inf
            failing |= broken | live & ~np.isfinite(response).all(-1)
            if noise is not None:
                noise[:, -1] += sigma * corrections
        if failing.any():
            row = int(np.argmax(failing))
            if broken[row]:
                raise InvalidInput(
                    f"{source} alpha_for_correction {alphas[row]!r} breaks "
                    "0 < 1 - alpha*step < 1; set estimate.alpha_for_correction to override"
                )
            raise InvalidInput(
                "the normal equations overflow double precision on this path: "
                f"max |x| = {np.abs(x[row]).max():g} at model.sigma = {sigma:g}"
            )
        theta = np.matmul(inverse, response[..., None])[..., 0]

    return [
        refusal(row) if degenerate[row] else EstimateResult(
            theta_hat=theta[row],
            design=DesignStats(loadings[row], float(residual[row]), n),
            mode=mode,
            noise_vector=None if noise is None else noise[row],
            correction=float(corrections[row]),
            correction_alpha=None if source is None else float(alphas[row]),
            correction_alpha_source=source,
        )
        for row in range(len(x))
    ]
