"""Mean-reverting model with a 1-periodic mean and fractional noise.

dX_t = (L(t) - alpha * X_t) dt + sigma dB^H_t,   L(t) = sum_i mu_i phi_i(t)

The basis functions phi_i are 1-periodic, bounded and orthonormal in
L^2[0, 1].  Paths are simulated by explicit Euler on a grid with step 1/m;
the sigma-free driver increments are retained so estimators can be checked
against the exact discrete algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from perifou.errors import GridMismatch, InvalidInput, InvalidStep, PartialPeriod
from perifou.fgn import FgnSpec, generate_fgn_circulant

_SQRT2 = math.sqrt(2.0)

# Burn-in length for stationary starts: e^{-alpha * periods} < this.
BURN_IN_FORGETTING = 1e-8

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_UNIT_NODES = 0.5 * (_GL_NODES + 1.0)
_UNIT_WEIGHTS = 0.5 * _GL_WEIGHTS


@dataclass(frozen=True)
class BasisFunction:
    """One element of the periodic basis: 1, sqrt2*sin(2 pi k t) or
    sqrt2*cos(2 pi k t).  Picklable, so models can cross process
    boundaries in parallel Monte Carlo runs."""

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("const", "sin", "cos"):
            raise InvalidInput(f"unknown basis kind {self.kind!r}")
        if self.kind == "const" and self.k != 0:
            raise InvalidInput("constant basis function takes no frequency")
        if self.kind in ("sin", "cos") and self.k < 1:
            raise InvalidInput(f"{self.kind} basis function needs k >= 1")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return np.ones_like(t)
        angle = 2.0 * math.pi * self.k * t
        if self.kind == "sin":
            return _SQRT2 * np.sin(angle)
        return _SQRT2 * np.cos(angle)


@dataclass(frozen=True)
class BasisSet:
    """Distinct :class:`BasisFunction` terms, which are 1-periodic and
    orthonormal in L^2[0,1] by construction."""

    functions: tuple

    def __post_init__(self):
        if not all(isinstance(f, BasisFunction) for f in self.functions):
            raise InvalidInput("basis terms must be const, sin or cos BasisFunctions")
        if len(set(self.functions)) != len(self.functions):
            raise InvalidInput("duplicate basis functions break orthonormality")

    @property
    def p(self) -> int:
        return len(self.functions)

    @property
    def bound(self) -> float:
        """Uniform bound on |phi_i|: 1 for the constant alone, sqrt2 otherwise."""
        return max(1.0 if f.kind == "const" else _SQRT2 for f in self.functions)

    @classmethod
    def from_specs(cls, specs) -> "BasisSet":
        """Build from dicts like {"kind": "sin", "k": 2} or {"kind": "const"}."""
        return cls(tuple(BasisFunction(s["kind"], s.get("k", 0)) for s in specs))

    def evaluate(self, t) -> np.ndarray:
        """Stack phi_i(t) into an array of shape (p,) + shape(t)."""
        t = np.asarray(t, dtype=float)
        return np.stack([f(t) for f in self.functions])


@dataclass(frozen=True)
class FouModel:
    """Full parameterization of the periodic-mean model.

    theta = (mu_1, ..., mu_p, alpha) is the drift parameter vector; sigma
    and hurst are treated as known.
    """

    hurst: float
    alpha: float
    mu: tuple
    sigma: float
    basis: BasisSet
    xi0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        if not 0.5 < self.hurst < 1.0:
            raise InvalidInput(f"hurst must lie in (1/2, 1), got {self.hurst}")
        if not self.alpha > 0.0:
            raise InvalidInput(f"alpha must be positive, got {self.alpha}")
        if not self.sigma >= 0.0:
            raise InvalidInput(f"sigma must be nonnegative, got {self.sigma}")
        if len(self.mu) != self.basis.p:
            raise InvalidInput(
                f"mu has {len(self.mu)} entries for {self.basis.p} basis functions"
            )

    @property
    def p(self) -> int:
        return self.basis.p

    @property
    def theta(self) -> np.ndarray:
        return np.append(np.asarray(self.mu, dtype=float), self.alpha)


@dataclass(frozen=True)
class SamplePath:
    """Uniform-grid realization of X over whole periods.

    The grid is t_k = k/m for k = 0..n*m: it starts at 0, has step 1/m and
    spans n whole periods, so every periodic integrand can be evaluated on
    one period and summed with :func:`fold_periods`.  The constructor
    enforces this (up to 1e-9 relative in t_k) together with one finite x
    per grid point and, when given, one driver increment per step.

    ``driver_increments`` are the sigma-free fBm increments that drove the
    simulation (None for externally observed data).  ``stationary_start``
    records whether x[0] sits on the (burned-in) stationary orbit, which
    determines how much driver history the quadratic response has seen.
    """

    grid: np.ndarray
    x: np.ndarray
    driver_increments: np.ndarray | None
    model: FouModel
    stationary_start: bool = False

    def __post_init__(self):
        grid = self.grid
        if grid.size < 2:
            raise PartialPeriod(f"path grid has {grid.size} points, needs a whole period")
        if not np.all(np.isfinite(grid)):
            raise GridMismatch("path grid has non-finite times")
        m = _check_step(self.step)
        expected = np.arange(grid.size) / m
        if np.any(np.abs(grid - expected) > 1e-9 * np.maximum(expected, 1.0)):
            raise GridMismatch(f"path grid is not t_k = k/{m} starting at t = 0")
        if (grid.size - 1) % m:
            raise PartialPeriod(f"path spans {(grid.size - 1) / m} periods, not a whole number")
        if self.x.shape != grid.shape or not np.all(np.isfinite(self.x)):
            raise GridMismatch(f"path needs one finite x per grid point ({grid.size})")
        driver = self.driver_increments
        if driver is not None and driver.shape != (grid.size - 1,):
            raise GridMismatch(f"driver has {driver.size} increments for {grid.size - 1} steps")

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def steps_per_period(self) -> int:
        return round(1.0 / self.step)

    @property
    def n_periods(self) -> int:
        return (self.grid.size - 1) // self.steps_per_period


def fold_periods(values: np.ndarray, m: int) -> np.ndarray:
    """Sum over whole periods along the last axis: values of shape (..., n*m)
    become (..., m).

    For a 1-periodic integrand f sampled on the grid,
    sum_k f(t_k) y_k = f(period_grid(step)) . fold_periods(y, m).
    """
    return values.reshape(values.shape[:-1] + (-1, m)).sum(axis=-2)


def mean_function(model: FouModel, t):
    """Periodic mean L(t) = sum_i mu_i phi_i(t)."""
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for coeff, f in zip(model.mu, model.basis.functions):
        if coeff != 0.0:
            total = total + coeff * f(t)
    if t.ndim == 0:
        return float(total)
    return total


def _check_step(step: float) -> int:
    if step <= 0.0:
        raise InvalidStep(f"step must be positive, got {step}")
    m = round(1.0 / step)
    if m < 1 or abs(1.0 / step - m) > 1e-9 * m:
        raise InvalidStep(f"step must equal 1/m for integer m, got {step}")
    return m


def period_grid(step: float) -> np.ndarray:
    """Left grid points 0, step, ..., 1 - step of one period."""
    return np.arange(_check_step(step)) * step


def first_order_recursion(drive: np.ndarray, a: float, y0: float = 0.0) -> np.ndarray:
    """y_k = a * y_{k-1} + drive_k for k = 0..len(drive)-1, with y_{-1} = y0.

    Evaluated in C by ``scipy.signal.lfilter``, the package's only use of
    that module.  It is imported here rather than at module level because
    loading it (with the ``scipy.stats`` it pulls in) costs most of the
    package's import time, and commands that run no recursion should not
    pay it.
    """
    from scipy.signal import lfilter

    return lfilter([1.0], [1.0, -a], drive, zi=[a * y0])[0]


def _euler(model: FouModel, increments: np.ndarray, x0: float, step: float) -> np.ndarray:
    """Run x_{k+1} = x_k + (L(t_k) - alpha x_k) step + sigma dB_k.

    The grid phase starts at 0 mod 1, which covers burn-in segments as well
    because they span whole periods.  Evaluated as a linear recursion in C.
    The recursion is stable only for alpha * step < 1.
    """
    a = 1.0 - model.alpha * step
    if not a > 0.0:
        raise InvalidStep(f"Euler recursion needs alpha*step < 1, got {model.alpha * step}")
    n_steps = increments.size
    period_values = mean_function(model, period_grid(step))
    forcing = np.tile(period_values, n_steps // period_values.size + 1)[:n_steps]
    drive = forcing * step + model.sigma * increments
    return np.concatenate(([x0], first_order_recursion(drive, a, x0)))


def simulate_path(
    model: FouModel,
    n_periods: int,
    step: float,
    seed: int,
    stationary_start: bool = False,
) -> SamplePath:
    """Euler path over ``n_periods`` whole periods with grid spacing ``step``.

    With ``stationary_start`` the recursion first runs over enough extra
    periods that the initial transient is forgotten to below
    ``BURN_IN_FORGETTING``; the burn-in segment is discarded and x[0] is its
    terminal value.  The burn-in noise is drawn jointly with the retained
    noise, so the long-range dependence of the driver is preserved.
    """
    if n_periods < 1:
        raise InvalidInput(f"n_periods must be >= 1, got {n_periods}")
    m = _check_step(step)
    burn_periods = 0
    if stationary_start:
        burn_periods = math.ceil(math.log(1.0 / BURN_IN_FORGETTING) / model.alpha)
    n_keep = n_periods * m
    n_burn = burn_periods * m
    spec = FgnSpec(model.hurst, step, n_keep + n_burn, seed)
    increments = generate_fgn_circulant(spec)
    x_full = _euler(model, increments, model.xi0, step)
    grid = np.arange(n_keep + 1) * step
    return SamplePath(
        grid=grid,
        x=x_full[n_burn:],
        driver_increments=increments[n_burn:],
        model=model,
        stationary_start=stationary_start,
    )


def path_from_increments(
    model: FouModel, increments: np.ndarray, x0: float, step: float
) -> SamplePath:
    """Replay the Euler recursion from ``x0`` with given driver increments.

    Used for coupling studies where two starts share one noise realization.
    """
    increments = np.asarray(increments, dtype=float)
    x = _euler(model, increments, x0, step)
    grid = np.arange(increments.size + 1) * step
    return SamplePath(grid=grid, x=x, driver_increments=increments, model=model)


def steady_mean(model: FouModel, t):
    """1-periodic steady solution of h' = L - alpha h.

    Evaluates exp(-alpha t) * integral_{-inf}^t exp(alpha s) L(s) ds by
    reducing the half-infinite integral over periods to a geometric series:
    (1 - e^{-alpha})^{-1} * integral_0^1 e^{-alpha u} L(t - u) du, with the
    unit-interval integral by 64-node Gauss-Legendre quadrature.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    u = _UNIT_NODES[:, None]
    w = (_UNIT_WEIGHTS * np.exp(-model.alpha * _UNIT_NODES))[:, None]
    values = mean_function(model, flat[None, :] - u)
    integral = (w * values).sum(axis=0) / -np.expm1(-model.alpha)
    integral = integral.reshape(t.shape)
    if t.ndim == 0:
        return float(integral)
    return integral


def steady_euler_orbit(model: FouModel, step: float) -> np.ndarray:
    """One period x_0..x_{m-1} of the noiseless Euler chain's periodic orbit,
    the grid analogue of :func:`steady_mean`.

    From rest the chain reaches x_m = sum_j a^{m-1-j} L(t_j) step after one
    period (a = 1 - alpha*step); the periodic orbit starts at
    x_m / (1 - a^m).
    """
    m = _check_step(step)
    a = 1.0 - model.alpha * step
    forcing = mean_function(model, period_grid(step)) * step
    x0 = first_order_recursion(forcing, a)[-1] / (1.0 - a**m)
    return _euler(model, np.zeros(m), x0, step)[:-1]


def coupling_gap(path_from_xi0: SamplePath, path_stationary: SamplePath) -> np.ndarray:
    """|X_t - X~_t| per grid point for two recursions sharing the driver."""
    a, b = path_from_xi0, path_stationary
    if a.grid.shape != b.grid.shape or not np.array_equal(a.grid, b.grid):
        raise GridMismatch("paths are defined on different grids")
    if a.driver_increments is None or b.driver_increments is None:
        raise GridMismatch("both paths must carry driver increments")
    if not np.array_equal(a.driver_increments, b.driver_increments):
        raise GridMismatch("paths were not driven by the same increments")
    return np.abs(a.x - b.x)


def write_sample_path_csv(path: SamplePath, filename) -> None:
    """Write ``t,x[,db]`` rows at full double precision.

    The ``db`` column holds the driver increment over [t_k, t_{k+1}] on row
    k and is empty on the last row.
    """
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


def read_sample_path_csv(
    filename, model: FouModel, stationary_start: bool = False
) -> SamplePath:
    """Read a path written by :func:`write_sample_path_csv`.

    The rows must satisfy the :class:`SamplePath` grid contract.  Floats
    round-trip exactly, so estimating from the file reproduces the
    in-memory pipeline bit for bit.  ``stationary_start`` must restate how
    the path was generated; the file format does not carry it.  A header,
    row or cell that does not parse raises InvalidInput naming the line.
    """
    t_vals, x_vals, db_vals = [], [], []
    lineno = 1
    try:
        with open(filename, "r", encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            if header not in (["t", "x"], ["t", "x", "db"]):
                raise InvalidInput(f"header {header} is neither t,x nor t,x,db")
            for lineno, line in enumerate(handle, start=2):
                parts = line.strip().split(",")
                if parts == [""]:
                    continue
                if len(parts) != len(header):
                    raise InvalidInput(f"{len(parts)} fields under a {len(header)}-column header")
                t_vals.append(float(parts[0]))
                x_vals.append(float(parts[1]))
                if len(parts) == 3 and parts[2] != "":
                    db_vals.append(float(parts[2]))
    except ValueError as exc:  # float(), UTF-8 decoding, and InvalidInput above
        raise InvalidInput(f"path CSV {filename}, line {lineno}: {exc}") from None
    return SamplePath(
        grid=np.asarray(t_vals),
        x=np.asarray(x_vals),
        driver_increments=np.asarray(db_vals) if len(header) == 3 else None,
        model=model,
        stationary_start=stationary_start,
    )
