"""Mean-reverting model with a 1-periodic mean and fractional noise.

dX_t = (L(t) - alpha * X_t) dt + sigma dB^H_t,   L(t) = sum_i mu_i phi_i(t)

The basis functions phi_i are 1-periodic, bounded and orthonormal in
L^2[0, 1].  Paths are simulated by explicit Euler on a grid with step 1/m;
the sigma-free driver increments are retained so estimators can be checked
against the exact discrete algebra.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from perifou.errors import InvalidInput
from perifou.fgn import FgnSpec, generate_fgn_circulant

_SQRT2 = math.sqrt(2.0)

# Beyond 2^53 a double no longer holds every integer k, so sin 2 pi k t is noise.
_MAX_FREQUENCY = 1 << 53

# Burn-in length for stationary starts: e^{-alpha * periods} < this.
BURN_IN_FORGETTING = 1e-8

# Most fGn increments one path may draw, burn-in included.  At the cap
# (M = 2^25) a path peaks near 1.2 GB, four times the 290 MB measured at
# 2^22 increments, and keeps 134 MB of cached sampler weights afterwards;
# a stationary start at alpha = 1e-9 would ask for about 280 000 times as
# many increments.
MAX_PATH_INCREMENTS = 1 << 24


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
        if self.kind in ("sin", "cos") and not 1 <= self.k <= _MAX_FREQUENCY:
            raise InvalidInput(f"{self.kind} basis function needs 1 <= k <= 2^53, got {self.k}")

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
            raise InvalidInput(f"path grid has {grid.size} points, needs a whole period")
        if not np.all(np.isfinite(grid)):
            raise InvalidInput("path grid has non-finite times")
        m = _check_step(self.step)
        expected = np.arange(grid.size, dtype=float)
        expected /= m
        tolerance = np.maximum(expected, 1.0)
        tolerance *= 1e-9
        expected -= grid
        if np.any(np.abs(expected, out=expected) > tolerance):
            raise InvalidInput(f"path grid is not t_k = k/{m} starting at t = 0")
        if (grid.size - 1) % m:
            raise InvalidInput(f"path spans {(grid.size - 1) / m} periods, not a whole number")
        if self.x.shape != grid.shape or not np.all(np.isfinite(self.x)):
            raise InvalidInput(f"path needs one finite x per grid point ({grid.size})")
        driver = self.driver_increments
        if driver is not None and driver.shape != (grid.size - 1,):
            raise InvalidInput(f"driver has {driver.size} increments for {grid.size - 1} steps")

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


def _check_step(step: float) -> int:
    if step <= 0.0:
        raise InvalidInput(f"step must be positive, got {step}")
    m = round(1.0 / step)
    if m < 1 or abs(1.0 / step - m) > 1e-9 * m:
        raise InvalidInput(f"step must equal 1/m for integer m, got {step}")
    return m


def period_grid(step: float) -> np.ndarray:
    """Left grid points 0, step, ..., 1 - step of one period."""
    return np.arange(_check_step(step)) * step


@lru_cache(maxsize=16)
def period_basis(basis: BasisSet, step: float) -> np.ndarray:
    """``basis.evaluate(period_grid(step))``, shape (p, m), evaluated once
    per (basis, step) and returned read-only.

    The Euler forcing, the design and the response of every replicate of a
    study read these values; evaluating the basis afresh cost each replicate
    about 0.2 ms at p = 7.  A lookup hashes the basis, about 1.5 us at p = 7.
    """
    values = basis.evaluate(period_grid(step))
    values.setflags(write=False)
    return values


def _period_mean(model: FouModel, step: float) -> np.ndarray:
    """The periodic mean L = sum_i mu_i phi_i on period_grid(step), from
    :func:`period_basis`, summed term by term in basis order."""
    phi = period_basis(model.basis, step)
    total = np.zeros(phi.shape[1])
    for values, mu in zip(phi, model.mu):
        if mu != 0.0:
            total = total + mu * values
    return total


def first_order_recursion(drive: np.ndarray, a: float, y0: float = 0.0) -> np.ndarray:
    """y_k = a * y_{k-1} + drive_k for k = 0..len(drive)-1, with y_{-1} = y0.

    Evaluated in C by ``scipy.signal.lfilter``, the package's only use of
    that module.  It is imported here rather than at module level because
    loading it (with the ``scipy.special`` and ``scipy.stats`` it pulls in)
    takes about four times as long as importing the whole package on numpy,
    and commands that run no recursion should not pay it.
    """
    from scipy.signal import lfilter

    return lfilter([1.0], [1.0, -a], drive, zi=[a * y0])[0]


def euler_decay(alpha: float, step: float, alpha_key: str = "model.alpha") -> float:
    """The Euler recursion's decay a = 1 - alpha*step; InvalidInput naming
    ``alpha_key`` and model.step_denominator unless a > 0."""
    a = 1.0 - alpha * step
    if not a > 0.0:
        raise InvalidInput(
            f"Euler recursion needs alpha*step < 1, got {alpha_key} = {alpha:g} "
            f"at step 1/{round(1.0 / step)} (model.step_denominator)"
        )
    return a


def _euler(model: FouModel, increments: np.ndarray, x0: float, step: float) -> np.ndarray:
    """Run x_{k+1} = x_k + (L(t_k) - alpha x_k) step + sigma dB_k.

    The grid phase starts at 0 mod 1, which covers burn-in segments as well
    because they span whole periods.  Evaluated as a linear recursion in C.
    The recursion is stable only for alpha * step < 1.
    """
    a = euler_decay(model.alpha, step)
    x = np.empty(increments.size + 1)
    x[0] = x0
    drive = np.multiply(model.sigma, increments, out=x[1:])
    forcing = _period_mean(model, step) * step
    periods = drive[: drive.size - drive.size % forcing.size].reshape(-1, forcing.size)
    periods += forcing  # whole periods, by broadcasting; then the part period
    drive[periods.size :] += forcing[: drive.size - periods.size]
    x[1:] = first_order_recursion(drive, a, x0)
    return x


def burn_in_periods(
    alpha: float,
    n_periods: int,
    m: int,
    stationary_start: bool,
    keys: tuple = ("model.n_periods", "model.alpha"),
) -> int:
    """Burn-in periods ahead of a path of ``n_periods`` periods of ``m``
    steps: none from a fixed start; from a stationary start enough that the
    start is forgotten to below ``BURN_IN_FORGETTING``, about 18.4/alpha.
    InvalidInput naming the config ``keys`` of the horizon and of alpha when
    the draw, burn-in included, would pass ``MAX_PATH_INCREMENTS``."""
    burn = 0
    if stationary_start:
        burn = math.log(1.0 / BURN_IN_FORGETTING) / alpha
        burn = math.ceil(burn) if burn < math.inf else burn  # a subnormal alpha overflows
    count = (n_periods + burn) * m
    if count > MAX_PATH_INCREMENTS:
        raise InvalidInput(
            f"the path needs {count:.4g} fGn increments, above the cap of {MAX_PATH_INCREMENTS}: "
            f"{n_periods} periods ({keys[0]}) and {burn:.4g} "
            f"burn-in periods ({keys[1]} = {alpha:g}) of {m} steps "
            "(model.step_denominator)"
        )
    return burn


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
    noise, so the long-range dependence of the driver is preserved.  A draw
    of more than ``MAX_PATH_INCREMENTS`` increments (a small alpha burns in
    ~18.4/alpha periods) raises InvalidInput before anything is allocated.
    """
    if n_periods < 1:
        raise InvalidInput(f"n_periods must be >= 1, got {n_periods}")
    m = _check_step(step)
    burn_periods = burn_in_periods(model.alpha, n_periods, m, stationary_start)
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


def steady_mean_terms(model: FouModel) -> dict:
    """The steady mean h~, the 1-periodic solution of h' = L - alpha h, as
    {BasisFunction: coefficient}.  With omega = 2 pi k and d = alpha^2 +
    omega^2, a term mu of L gives mu/alpha on the constant; mu on sin k gives
    alpha mu/d on sin k and -omega mu/d on cos k; mu on cos k gives
    alpha mu/d on cos k and +omega mu/d on sin k, in the basis or not."""
    alpha, terms = model.alpha, {}
    for f, mu in zip(model.basis.functions, model.mu):
        if f.kind == "const":
            terms[f] = mu / alpha
            continue
        omega = 2.0 * math.pi * f.k
        r = math.hypot(alpha, omega)  # d = r^2, which no alpha overflows
        sign, partner = (-1.0, "cos") if f.kind == "sin" else (1.0, "sin")
        own, cross = alpha / r * (mu / r), sign * omega / r * (mu / r)
        for g, c in ((f, own), (BasisFunction(partner, f.k), cross)):
            terms[g] = terms.get(g, 0.0) + c
    return terms


def steady_euler_orbit(model: FouModel, step: float) -> np.ndarray:
    """One period x_0..x_{m-1} of the noiseless Euler chain's periodic orbit,
    the grid analogue of the steady mean h~ (:func:`steady_mean_terms`).

    From rest the chain reaches x_m = sum_j a^{m-1-j} L(t_j) step after one
    period (a = 1 - alpha*step); the periodic orbit starts at
    x_0 = x_m / (1 - a^m), and x_1..x_{m-1} follow by the same recursion.
    """
    m = _check_step(step)
    a = euler_decay(model.alpha, step)
    forcing = _period_mean(model, step) * step
    x0 = first_order_recursion(forcing, a)[-1] / (1.0 - a**m)
    return np.append(x0, first_order_recursion(forcing, a, x0)[:-1])


_CSV_BLOCK_ROWS = 4096  # rows per %-format in write_sample_path_csv, about 0.3 MB of text
_CSV_READ_CHARS = 1 << 20  # characters per read in read_sample_path_csv


def write_sample_path_csv(path: SamplePath, filename) -> None:
    """Write ``t,x[,db]`` rows at full double precision, a block of rows at a time.

    The ``db`` column holds the driver increment over [t_k, t_{k+1}] on row
    k and is empty on the last row.
    """
    has_driver = path.driver_increments is not None
    table = np.column_stack([path.grid[:-1], path.x[:-1]] + [path.driver_increments] * has_driver)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(filename, "w", encoding="utf-8") as handle:
        handle.write("t,x,db\n" if has_driver else "t,x\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            handle.write(row * len(block) % tuple(block.ravel().tolist()))
        handle.write(f"{path.grid[-1]:.17g},{path.x[-1]:.17g}{',' if has_driver else ''}\n")


def _parse_row(line: str, width: int) -> list:
    """One ``t,x[,db]`` row as floats; an empty ``db`` is left out."""
    parts = line.strip().split(",")
    if len(parts) != width:
        raise InvalidInput(f"{len(parts)} fields under a {width}-column header")
    return [float(p) for p in (parts[:2] if parts[2:] == [""] else parts)]


def _rows_but_last(handle, held: list):
    """Yield the non-blank lines left in ``handle``, read a chunk at a time,
    all but the last one, which ``held`` receives as [line number, line];
    ``handle`` is past line 1."""
    number, tail = 1, ""
    while True:
        chunk = handle.read(_CSV_READ_CHARS)
        lines = (tail + chunk).split("\n")
        tail = lines.pop() if chunk else ""  # a line the next chunk may go on with
        end = len(lines)
        while end and not lines[end - 1].strip():
            end -= 1
        if end:
            yield from held[1:]
            yield from filter(str.strip, lines[: end - 1])
            held[:] = number + end, lines[end - 1]
        number += len(lines)
        if not chunk:
            return


def read_sample_path_csv(
    filename, model: FouModel, stationary_start: bool = False
) -> SamplePath:
    """Read a path written by :func:`write_sample_path_csv`.

    The rows must satisfy the :class:`SamplePath` grid contract.  Floats
    round-trip exactly, so estimating from the file reproduces the
    in-memory pipeline bit for bit.  ``stationary_start`` must restate how
    the path was generated; the file format does not carry it.  A header,
    row or cell that does not parse, or an empty ``db`` before the last
    row, raises InvalidInput naming the line.  The rows are parsed as they
    are read, so the text is never held whole unless a row fails.
    """
    where, held = "line 1", []
    try:
        with open(filename, "r", encoding="utf-8") as stream:
            # a pipe is read whole, so that a failure can read it again
            handle = stream if stream.seekable() else io.StringIO(stream.read())
            header = handle.readline().strip().split(",")
            if header not in (["t", "x"], ["t", "x", "db"]):
                raise InvalidInput(f"header {header} is neither t,x nor t,x,db")
            width, body = len(header), _rows_but_last(handle, held)
            try:
                first = next(body, None)  # loadtxt warns on an empty body
                rows = np.empty((0, width)) if first is None else np.loadtxt(
                    chain([first], body), delimiter=",", comments=None, ndmin=2
                )
                if rows.shape[1] != width:
                    raise ValueError(f"{rows.shape[1]} fields under a {width}-column header")
            except ValueError:  # on failure only: read it all, name the first line at fault
                handle.seek(0)
                lines = handle.read().rstrip().split("\n")  # trailing blank lines dropped
                for k, line in enumerate(lines[1:-1], start=2):
                    where = f"line {k}"
                    if line.strip() and len(_parse_row(line, width)) < width:
                        raise InvalidInput("db is empty")  # the handler below names the line
                where = f"lines 2-{len(lines) - 1}"  # float() takes a cell loadtxt refused
                raise
        where = f"line {held[0] if held else 1}"
        last = _parse_row(held[1], width) if held else []
    except ValueError as exc:  # UTF-8 decoding, loadtxt, float() and InvalidInput above
        raise InvalidInput(f"path CSV {filename}, {where}: {exc}") from None
    return SamplePath(
        grid=np.append(rows[:, 0], last[:1]),
        x=np.append(rows[:, 1], last[1:2]),
        driver_increments=np.append(rows[:, 2], last[2:]) if width == 3 else None,
        model=model,
        stationary_start=stationary_start,
    )
