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
from functools import lru_cache

import numpy as np

from perifou.errors import InvalidInput
from perifou.fgn import FgnSpec, generate_fgn_batch

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

# A block of first_order_recursion spans at most this / |log a| steps, so a^{-j} < 2^64.
_BLOCK_SCALE = 64.0 * math.log(2.0)

# Largest entry of gram/n - I a basis may show on its grid; valid bases sit
# at rounding level (<= 1.4e-15), an aliased frequency at order one.
ALIASING_TOLERANCE = 1e-9


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
    per grid point and, when given, one driver increment per step.  ``x``
    of shape (B, N + 1), with a (B, N) driver, holds a batch of B paths on
    the one grid (:func:`simulate_paths`); the path CSV holds one path.

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
        if self.x.shape[-1:] != grid.shape or self.x.ndim > 2 or not np.all(np.isfinite(self.x)):
            raise InvalidInput(f"path needs one finite x per grid point ({grid.size})")
        driver = self.driver_increments
        if driver is not None and driver.shape != self.x.shape[:-1] + (grid.size - 1,):
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


@lru_cache(maxsize=16)
def refuse_aliasing(
    basis: BasisSet, step: float, grid: str = "the grid of model.step_denominator"
) -> np.ndarray:
    """The basis Gram block step * phi phi^T of one period of the grid, read-only; InvalidInput
    naming the basis and ``grid`` when it departs from I_p by more than ALIASING_TOLERANCE, as
    when the grid cannot carry a basis frequency (sin 2 pi 8 t on t = j/16).  Cached, so a grid
    is checked once; :func:`period_basis` does not check, as a path may be simulated on it."""
    phi = period_basis(basis, step)
    gram = step * (phi @ phi.T)
    aliasing = np.abs(gram - np.eye(basis.p)).max()
    if aliasing > ALIASING_TOLERANCE:
        raise InvalidInput(
            f"model.basis is not orthonormal on {grid}: "
            f"max |gram/n - I| = {aliasing:.3g} > {ALIASING_TOLERANCE:.0e}; "
            "a basis frequency aliases on this grid"
        )
    gram.setflags(write=False)
    return gram


def _period_mean(model: FouModel, step: float) -> np.ndarray:
    """The periodic mean L = sum_i mu_i phi_i on period_grid(step), from
    :func:`period_basis`, summed term by term in basis order."""
    phi = period_basis(model.basis, step)
    total = np.zeros(phi.shape[1])
    for values, mu in zip(phi, model.mu):
        if mu != 0.0:
            total = total + mu * values
    return total


def first_order_recursion(
    drive: np.ndarray, a: float, y0=0.0, period: int | None = None
) -> np.ndarray:
    """y_k = a * y_{k-1} + drive_k for k = 0..len(drive)-1, with y_{-1} = y0
    and a > 0, along the last axis; a 2-D ``drive`` is a batch of rows, each
    recurred alone from its own ``y0`` (a float, or one per row).

    Evaluated block by block in numpy.  A block starts at every multiple
    of ``period`` (default: the whole drive), and within a period every
    ``_BLOCK_SCALE`` / |log a| steps, so that a^{-j} stays below 2^64 in
    it.  Entered from c, block entry j is y_j = a^j (sum_{i<=j} a^{-i}
    drive_i + c a): a scaled ``cumsum`` and two whole-array passes over
    every row at once, with each block's last value carried into the next
    by a loop over blocks in the same float operations.  So a recursion
    restarted at a multiple of ``period`` from the value it held there
    repeats the rest bit for bit, and a row of a batch is the recursion of
    that row alone.  The error is of the order of the plain loop's, a few
    eps * max|y| unless a is within about 1e-6 of 1, and a row within
    2^{-64} of overflowing is scaled by a power of two first, which
    changes no bit of its result; a row that needs no scaling is left as
    it is, since scaling could push its smallest entries into subnormals.
    """
    drive = np.asarray(drive, dtype=float)
    if drive.shape[-1] == 0:
        return np.empty(drive.shape)
    rows = drive.reshape(-1, drive.shape[-1])
    batch, n = rows.shape
    period = n if period is None else period
    lam = abs(math.log(a))
    width = max(1, min(period, int(_BLOCK_SCALE / lam) if lam else period))
    per_period = -(-period // width)  # blocks in one period; the last may be short
    span = per_period * width
    periods = -(-n // period)
    starts = np.broadcast_to(np.asarray(y0, dtype=float), (batch,))
    # a block's scaled sums reach 2^64 width max|drive, y0|: in a row where that could
    # pass 2^1023, recur on the row scaled by a power of two, which is exact
    top = np.maximum(np.maximum(rows.max(axis=1), -rows.min(axis=1)), np.abs(starts))
    excess = np.maximum(np.frexp(top)[1] + width.bit_length() - 957, 0)
    if excess.any():
        scaled = first_order_recursion(
            np.ldexp(rows, -excess[:, None]), a, np.ldexp(starts, -excess), period
        )
        return np.ldexp(scaled, excess[:, None]).reshape(drive.shape)
    powers = a ** np.arange(width, dtype=float)
    # zeros after each period's end and the drive's end, which no kept entry sees
    padded = np.zeros((batch, periods, span))
    whole = n // period
    padded[:, :whole, :period] = rows[:, : whole * period].reshape(batch, whole, period)
    padded[:, whole:, : n - whole * period] = rows[:, None, whole * period :]
    y = padded.reshape(-1, width)
    y /= powers
    np.cumsum(y, axis=1, out=y)
    ends = np.full(per_period, width - 1)
    ends[-1] = period - 1 - (per_period - 1) * width
    sums = y.reshape(batch, periods, per_period, width)[:, :, np.arange(per_period), ends]
    entries, block_powers = [], powers[ends].tolist() * periods
    for row_sums, carry in zip(sums.reshape(batch, -1).tolist(), (starts * a).tolist()):
        for total, power in zip(row_sums, block_powers):  # entries[b] = c a for block b
            entries.append(carry)
            carry = (total + carry) * power * a
    y += np.array(entries)[:, None]
    y *= powers
    return y.reshape(batch, periods, span)[:, :, :period].reshape(batch, -1)[:, :n].reshape(
        drive.shape
    )


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
    """Run x_{k+1} = x_k + (L(t_k) - alpha x_k) step + sigma dB_k along the
    last axis of ``increments``, every row of a batch from the same x0.

    The grid phase starts at 0 mod 1, which covers burn-in segments as well
    because they span whole periods.  Evaluated by
    :func:`first_order_recursion` in blocks that restart at every period,
    so a replay from a period's first x with the same increments is the
    same path bit for bit.  The recursion is stable only for alpha * step < 1.
    """
    a = euler_decay(model.alpha, step)
    count = increments.shape[-1]
    x = np.empty(increments.shape[:-1] + (count + 1,))
    x[..., 0] = x0
    drive = np.multiply(model.sigma, increments, out=x[..., 1:])
    forcing = _period_mean(model, step) * step
    whole = count - count % forcing.size
    periods = drive[..., :whole].reshape(drive.shape[:-1] + (-1, forcing.size))
    periods += forcing  # whole periods, by broadcasting; then the part period
    drive[..., whole:] += forcing[: count - whole]
    x[..., 1:] = first_order_recursion(drive, a, x0, forcing.size)
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


def simulate_paths(
    model: FouModel,
    n_periods: int,
    step: float,
    seeds,
    stationary_start: bool = False,
) -> SamplePath:
    """Euler paths over ``n_periods`` whole periods with grid spacing ``step``,
    one row of x and of the driver per seed, on one grid.

    With ``stationary_start`` the recursion first runs over enough extra
    periods that the initial transient is forgotten to below
    ``BURN_IN_FORGETTING``; the burn-in segment is discarded and x[:, 0] is
    its terminal value.  The burn-in noise is drawn jointly with the
    retained noise, so the long-range dependence of the driver is preserved.
    A draw of more than ``MAX_PATH_INCREMENTS`` increments (a small alpha
    burns in ~18.4/alpha periods) raises InvalidInput before anything is
    allocated.  Each row draws from its own seed alone
    (:func:`~perifou.fgn.generate_fgn_batch`) and recurs alone
    (:func:`first_order_recursion`), so it is the path :func:`simulate_path`
    gives for its seed, bit for bit; the transform, the recursion and the
    grid's checks run once per batch.
    """
    grid, x, driver = _simulate(model, n_periods, step, seeds, stationary_start)
    return SamplePath(grid, x, driver, model, stationary_start)


def simulate_path(
    model: FouModel,
    n_periods: int,
    step: float,
    seed: int,
    stationary_start: bool = False,
) -> SamplePath:
    """The path of :func:`simulate_paths` for one seed."""
    grid, x, driver = _simulate(model, n_periods, step, (seed,), stationary_start)
    return SamplePath(grid, x[0], driver[0], model, stationary_start)


def _simulate(model: FouModel, n_periods: int, step: float, seeds, stationary_start: bool):
    """The grid and the (B, N + 1) x and (B, N) driver rows of :func:`simulate_paths`."""
    if n_periods < 1:
        raise InvalidInput(f"n_periods must be >= 1, got {n_periods}")
    m = _check_step(step)
    burn_periods = burn_in_periods(model.alpha, n_periods, m, stationary_start)
    n_keep = n_periods * m
    n_burn = burn_periods * m
    increments = generate_fgn_batch([FgnSpec(model.hurst, step, n_keep + n_burn, s) for s in seeds])
    x_full = _euler(model, increments, model.xi0, step)
    return np.arange(n_keep + 1) * step, x_full[:, n_burn:], increments[:, n_burn:]


def path_from_increments(
    model: FouModel, increments: np.ndarray, x0: float, step: float
) -> SamplePath:
    """Replay the Euler recursion from ``x0`` with given driver increments,
    one path, or a batch of rows on one grid.

    Used for coupling studies where two starts share one noise realization.
    """
    increments = np.asarray(increments, dtype=float)
    x = _euler(model, increments, x0, step)
    grid = np.arange(increments.shape[-1] + 1) * step
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


def _parse_rows(lines: list, first: int, width: int) -> np.ndarray:
    """The non-blank ``lines``, numbered from ``first``, as a (rows, width)
    array, by one ``loadtxt`` call; if it refuses them, each line is parsed
    alone, and the first one refused raises InvalidInput naming it."""
    body = [line for line in lines if line.strip()]
    if not body:  # loadtxt warns on no rows
        return np.empty((0, width))
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if table.shape[1] != width:
            raise ValueError(f"{table.shape[1]} fields, not {width}")
        return table
    except ValueError as exc:
        if len(lines) == 1:
            raise InvalidInput(f"line {first}: {str(exc).replace('row 0, ', '')}") from None
        for number, line in enumerate(lines, start=first):
            _parse_rows([line], number, width)
        raise


def read_sample_path_csv(
    filename, model: FouModel, stationary_start: bool = False
) -> SamplePath:
    """Read a path written by :func:`write_sample_path_csv`.

    The rows must satisfy the :class:`SamplePath` grid contract.  Floats
    round-trip exactly, so estimating from the file reproduces the
    in-memory pipeline bit for bit.  ``stationary_start`` must restate how
    the path was generated; the file format does not carry it.  A header,
    row or cell that does not parse, or an empty ``db`` before the last
    row, raises InvalidInput naming the line; a byte that is not UTF-8
    names the first line of the chunk it came in.  The text is read once,
    a chunk at a time, and each chunk is parsed as it comes: at n = 2000
    the read peaks at twice the arrays it returns.
    """
    number, held, parts = 1, (1, ""), []  # held: the last non-blank line so far, numbered
    try:
        with open(filename, "r", encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            if header not in (["t", "x"], ["t", "x", "db"]):
                raise InvalidInput(f"line 1: header {header} is neither t,x nor t,x,db")
            width, number, tail, chunk = len(header), 2, "", None
            while chunk != "":  # the lines of tail + chunk are numbered from number
                chunk = handle.read(_CSV_READ_CHARS)
                lines = (tail + chunk).split("\n")
                tail = lines.pop() if chunk else ""  # a line the next chunk may go on with
                end = len(lines)
                while end and not lines[end - 1].strip():
                    end -= 1
                if end:  # the last non-blank line is held back: it may be the last row
                    parts.append(_parse_rows([held[1]], held[0], width))
                    parts.append(_parse_rows(lines[: end - 1], number, width))
                    held = number + end - 1, lines[end - 1]
                number += len(lines)
                del lines  # before the next read: one chunk's lines at a time
        text = held[1].rstrip()
        short = width == 3 and text.endswith(",")
        last = _parse_rows([text[:-1] if short else text], held[0], width - short).ravel()
    except InvalidInput as exc:
        raise InvalidInput(f"path CSV {filename}, {exc}") from None
    except UnicodeDecodeError as exc:  # its position is in the text layer's buffer, not the file
        where, byte = f"at or after line {number}", exc.object[exc.start]
        raise InvalidInput(f"path CSV {filename}, {where}: byte {byte:#04x} is not UTF-8") from None
    grid, x, *db = (
        np.concatenate([part[:, j] for part in parts] + [last[j : j + 1]]) for j in range(width)
    )
    del parts  # before the grid contract's checks allocate
    return SamplePath(grid, x, db[0] if db else None, model, stationary_start)
