"""Reference implementations that only the tests call.

Each one recomputes a quantity the package computes another way (or reads
back a file the package writes), so the tests can cross-check the two.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

from perifou.asymptotics import _long_memory_gram
from perifou.estimator import DesignStats
from perifou.experiments import ReplicateResult
from perifou.model import _UNIT_NODES, _UNIT_WEIGHTS, FouModel, mean_function


def singular_pair_integral(f, g, hurst: float) -> float:
    """<f, g>_H for two vectorized callables, the off-diagonal entry of
    ``asymptotics._long_memory_gram`` on the pair."""
    return float(_long_memory_gram(lambda t: np.stack([f(t), g(t)]), hurst)[0, 1])


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
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("zero_start_mean is defined for t >= 0")
    flat = t.ravel()
    alpha = model.alpha
    whole = np.floor(flat)
    frac = flat - whole

    # A = integral_0^1 e^{-alpha (1 - v)} L(v) dv
    decay = np.exp(-alpha * (1.0 - _UNIT_NODES))
    unit_integral = float(
        np.sum(_UNIT_WEIGHTS * decay * mean_function(model, _UNIT_NODES))
    )
    series = unit_integral * np.exp(-alpha * frac) * -np.expm1(-alpha * whole) / -np.expm1(-alpha)

    # partial period: integral_0^frac e^{-alpha u} L(t - u) du
    u = frac[None, :] * _UNIT_NODES[:, None]
    w = frac[None, :] * _UNIT_WEIGHTS[:, None]
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
