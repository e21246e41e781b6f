"""Model construction, simulation, and deterministic mean functions."""

import json
import math
import warnings

import numpy as np
import pytest

from oracles import (
    basis_bound,
    mean_function,
    steady_mean,
    write_sample_path_csv_rows,
    zero_start_mean,
)
from perifou import BasisSet, FouModel, InvalidInput, simulate_path
from perifou import model as model_module
from perifou.cli import main
from perifou.model import (
    _CSV_BLOCK_ROWS,
    BasisFunction,
    SamplePath,
    _euler,
    first_order_recursion,
    path_from_increments,
    period_basis,
    period_grid,
    read_sample_path_csv,
    write_sample_path_csv,
)

SQRT2 = math.sqrt(2.0)


def sine_basis():
    return BasisSet.from_specs([{"kind": "sin", "k": 1}])


def sincos_basis():
    return BasisSet.from_specs([{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}])


def _model_section():
    return {
        "hurst": 0.7,
        "alpha": 1.0,
        "mu": [1.0],
        "sigma": 0.5,
        "basis": [{"kind": "sin", "k": 1}],
        "step_denominator": 4,
        "n_periods": 2,
    }


# ---------------------------------------------------------------- basis


def test_basis_function_validation():
    with pytest.raises(ValueError):
        BasisFunction("tanh", 1)
    with pytest.raises(ValueError):
        BasisFunction("sin", 0)
    with pytest.raises(ValueError):
        BasisFunction("const", 2)


def test_basis_duplicates_rejected():
    with pytest.raises(ValueError):
        BasisSet.from_specs([{"kind": "sin", "k": 1}, {"kind": "sin", "k": 1}])
    with pytest.raises(ValueError, match="duplicate"):
        BasisSet((BasisFunction("cos", 3), BasisFunction("const"), BasisFunction("cos", 3)))


def test_basis_rejects_unscaled_sine_callable():
    with pytest.raises(ValueError, match="BasisFunction"):
        BasisSet((lambda t: np.sin(2 * np.pi * np.asarray(t, float)),))


def test_basis_rejects_nonperiodic_callable():
    with pytest.raises(ValueError, match="BasisFunction"):
        BasisSet((BasisFunction("sin", 1), lambda t: np.asarray(t, float)))


def test_standard_basis_validates():
    basis = BasisSet.from_specs(
        [{"kind": "const"}, {"kind": "sin", "k": 1}, {"kind": "cos", "k": 2}]
    )
    assert basis.p == 3
    assert basis_bound(basis) == pytest.approx(SQRT2)
    assert basis_bound(BasisSet.from_specs([{"kind": "const"}])) == 1.0


# ---------------------------------------------------------------- model


def test_model_validation():
    basis = sine_basis()
    with pytest.raises(ValueError):
        FouModel(hurst=0.4, alpha=1.0, mu=(1.0,), sigma=1.0, basis=basis)
    with pytest.raises(ValueError):
        FouModel(hurst=0.7, alpha=0.0, mu=(1.0,), sigma=1.0, basis=basis)
    with pytest.raises(ValueError):
        FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=-0.1, basis=basis)
    with pytest.raises(ValueError):
        FouModel(hurst=0.7, alpha=1.0, mu=(1.0, 2.0), sigma=1.0, basis=basis)


def test_theta_vector_layout():
    model = FouModel(hurst=0.7, alpha=0.9, mu=(1.0, -2.0), sigma=0.3, basis=sincos_basis())
    np.testing.assert_array_equal(model.theta, [1.0, -2.0, 0.9])


# ---------------------------------------------------------------- drift


def test_mean_function_zero_for_zero_amplitudes():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(0.0, 0.0), sigma=1.0, basis=sincos_basis())
    t = np.linspace(0, 3, 50)
    np.testing.assert_array_equal(mean_function(model, t), np.zeros(50))


def test_mean_function_sine_quarter_period():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=1.0, basis=sine_basis())
    assert mean_function(model, 0.25) == pytest.approx(SQRT2, abs=1e-12)


def test_mean_function_periodic():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(0.7, -0.9), sigma=1.0, basis=sincos_basis())
    t = np.linspace(0, 1, 101)
    gap = np.max(np.abs(mean_function(model, t + 1.0) - mean_function(model, t)))
    assert gap <= 1e-12


# ---------------------------------------------------------------- simulation


def test_simulation_tracks_exponential_decay():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(0.0,), sigma=0.0, basis=sine_basis(), xi0=1.0)
    path = simulate_path(model, 5, 1 / 256, seed=1)
    err = np.max(np.abs(path.x - np.exp(-path.grid)))
    assert err <= 2 / 256


def test_simulation_relaxes_to_constant_level():
    basis = BasisSet.from_specs([{"kind": "const"}])
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.0, basis=basis, xi0=0.0)
    path = simulate_path(model, 20, 1 / 128, seed=1)
    assert np.all(np.diff(path.x) >= 0.0)
    assert abs(path.x[-1] - 1.0) <= 1e-6 + 2 / 128


def test_simulation_deterministic():
    model = FouModel(hurst=0.65, alpha=1.2, mu=(0.4, 0.2), sigma=0.7, basis=sincos_basis())
    a = simulate_path(model, 4, 1 / 64, seed=42, stationary_start=True)
    b = simulate_path(model, 4, 1 / 64, seed=42, stationary_start=True)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.driver_increments, b.driver_increments)


def test_simulation_rejects_bad_step():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=1.0, basis=sine_basis())
    with pytest.raises(InvalidInput, match="step must equal 1/m"):
        simulate_path(model, 2, 0.3, seed=0)


def test_initial_value_fixed_vs_burned_in():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis(), xi0=3.0)
    fixed = simulate_path(model, 2, 1 / 64, seed=9)
    assert fixed.x[0] == 3.0
    assert not fixed.stationary_start
    burned = simulate_path(model, 2, 1 / 64, seed=9, stationary_start=True)
    assert burned.stationary_start
    assert abs(burned.x[0] - 3.0) > 0.01  # transient forgotten


def test_tiny_alpha_stationary_start_is_refused_before_drawing():
    """alpha = 1e-9 burns in 1.8e10 periods; the draw was a 64 TiB request."""
    model = FouModel(hurst=0.7, alpha=1e-9, mu=(1.0,), sigma=0.5, basis=sine_basis())
    with pytest.raises(InvalidInput) as caught:
        simulate_path(model, 2, 1 / 256, seed=0, stationary_start=True)
    message = str(caught.value)
    for name in ("model.alpha", "model.n_periods", "model.step_denominator", "4.716e+12"):
        assert name in message


def test_path_increment_cap_counts_burn_in(monkeypatch):
    """The cap holds the kept and the burn-in increments together."""
    monkeypatch.setattr(model_module, "MAX_PATH_INCREMENTS", 64 * 24)
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    assert simulate_path(model, 24, 1 / 64, seed=0).n_periods == 24
    assert simulate_path(model, 5, 1 / 64, seed=0, stationary_start=True).n_periods == 5
    with pytest.raises(InvalidInput, match="fGn increments"):
        simulate_path(model, 25, 1 / 64, seed=0)
    with pytest.raises(InvalidInput, match="19 burn-in periods"):
        simulate_path(model, 6, 1 / 64, seed=0, stationary_start=True)


def p7_model():
    """Constant plus sin/cos at k = 1, 2, 3; one zero amplitude."""
    specs = [{"kind": "const"}] + [
        {"kind": kind, "k": k} for k in (1, 2, 3) for kind in ("sin", "cos")
    ]
    mu = (1.0, -0.5, 2.0, 0.0, 0.25, -1.5, 0.75)
    return FouModel(hurst=0.65, alpha=1.0, mu=mu, sigma=0.5, basis=BasisSet.from_specs(specs))


def test_period_basis_is_cached_and_read_only():
    model = p7_model()
    values = period_basis(model.basis, 1 / 16)
    assert period_basis(p7_model().basis, 1 / 16) is values
    np.testing.assert_array_equal(values, model.basis.evaluate(period_grid(1 / 16)))
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0] = 1.0


@pytest.mark.parametrize("m", [16, 256])
def test_euler_forcing_from_cached_basis_is_bit_identical(m):
    """The forcing sums the cached basis rows in mean_function's order."""
    model, step = p7_model(), 1.0 / m
    increments = np.random.default_rng(m).standard_normal(5 * m + 3)
    period_mean = mean_function(model, period_grid(step))
    np.testing.assert_array_equal(model_module._period_mean(model, step), period_mean)
    forcing = np.tile(period_mean, 6)[: increments.size]
    drive = forcing * step + model.sigma * increments
    expected = np.concatenate(([0.3], first_order_recursion(drive, 1.0 - step, 0.3)))
    np.testing.assert_array_equal(_euler(model, increments, 0.3, step), expected)


def test_euler_error_halves_with_step():
    # deterministic run: global error is O(step)
    model = FouModel(hurst=0.7, alpha=1.3, mu=(0.8,), sigma=0.0, basis=sine_basis(), xi0=0.5)
    errors = []
    for m in (128, 256):
        path = simulate_path(model, 3, 1 / m, seed=0)
        exact = zero_start_mean(model, path.grid) + 0.5 * np.exp(-1.3 * path.grid)
        errors.append(np.max(np.abs(path.x - exact)))
    ratio = errors[1] / errors[0]
    assert abs(ratio - 0.5) <= 0.1


def test_noise_response_is_linear_in_sigma():
    from dataclasses import replace

    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=1.0, basis=sine_basis())
    path1 = simulate_path(model, 5, 1 / 128, seed=77)
    path2 = simulate_path(replace(model, sigma=2.0), 5, 1 / 128, seed=77)
    path0 = simulate_path(replace(model, sigma=0.0), 5, 1 / 128, seed=77)
    gap = np.max(np.abs((path2.x - path1.x) - (path1.x - path0.x)))
    assert gap <= 1e-12


def test_simulation_propagates_embedding_failure(monkeypatch, tmp_path):
    import perifou.model as model_module
    from perifou.errors import NonnegativeEmbeddingFailure

    def refuse(spec):
        raise NonnegativeEmbeddingFailure("forced")

    monkeypatch.setattr(model_module, "generate_fgn_circulant", refuse)
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    with pytest.raises(NonnegativeEmbeddingFailure):
        simulate_path(model, 2, 1 / 32, seed=6)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": _model_section()}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


def test_path_from_increments_replays_simulation():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis(), xi0=0.2)
    path = simulate_path(model, 3, 1 / 64, seed=5)
    replay = path_from_increments(model, path.driver_increments, 0.2, 1 / 64)
    np.testing.assert_array_equal(replay.x, path.x)


# ---------------------------------------------------------------- steady mean


def test_steady_mean_zero_for_zero_amplitudes():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(0.0,), sigma=1.0, basis=sine_basis())
    assert steady_mean(model, 0.3) == 0.0


def test_steady_mean_constant_basis():
    basis = BasisSet.from_specs([{"kind": "const"}])
    model = FouModel(hurst=0.7, alpha=0.8, mu=(1.3,), sigma=1.0, basis=basis)
    for t in (0.0, 0.37, 2.5):
        assert steady_mean(model, t) == pytest.approx(1.3 / 0.8, abs=1e-12)


def test_steady_mean_sine_closed_form():
    alpha, mu = 1.1, 0.9
    model = FouModel(hurst=0.7, alpha=alpha, mu=(mu,), sigma=1.0, basis=sine_basis())
    t = np.linspace(0, 2, 41)
    w = 2 * np.pi
    expected = mu * SQRT2 * (alpha * np.sin(w * t) - w * np.cos(w * t)) / (alpha**2 + w**2)
    np.testing.assert_allclose(steady_mean(model, t), expected, atol=1e-12)


def seven_term_model(alpha):
    """const and sin/cos k = 1..3, every amplitude nonzero."""
    specs = [{"kind": "const"}] + [
        {"kind": kind, "k": k} for k in (1, 2, 3) for kind in ("sin", "cos")
    ]
    mu = (0.7, 1.0, -0.5, 0.4, 0.3, -0.2, 0.25)
    return FouModel(hurst=0.7, alpha=alpha, mu=mu, sigma=1.0, basis=BasisSet.from_specs(specs))


@pytest.mark.parametrize("alpha", [0.05, 1.0, 200.0])
def test_steady_mean_solves_the_ode(alpha):
    # central difference of h~ equals L - alpha h~ up to O(delta^2)
    model = seven_term_model(alpha)
    t = np.linspace(0.01, 0.99, 100)
    delta = 1e-4
    lhs = (steady_mean(model, t + delta) - steady_mean(model, t - delta)) / (2 * delta)
    rhs = mean_function(model, t) - model.alpha * steady_mean(model, t)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_steady_mean_periodic():
    model = FouModel(hurst=0.7, alpha=1.7, mu=(0.3, 0.8), sigma=1.0, basis=sincos_basis())
    t = np.linspace(0, 1, 53)
    assert np.max(np.abs(steady_mean(model, t + 1.0) - steady_mean(model, t))) <= 1e-10


def test_zero_start_mean_at_zero_and_zero_amplitudes():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(0.0,), sigma=1.0, basis=sine_basis())
    assert zero_start_mean(model, 0.0) == 0.0
    assert zero_start_mean(model, 4.7) == 0.0
    model2 = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=1.0, basis=sine_basis())
    assert zero_start_mean(model2, 0.0) == 0.0


@pytest.mark.parametrize("alpha", [0.05, 1.0, 200.0])
def test_zero_start_mean_matches_steady_identity(alpha):
    # h(t) = h~(t) - exp(-alpha t) h~(0)
    model = seven_term_model(alpha)
    t = np.linspace(0.0, 6.3, 64)
    identity = steady_mean(model, t) - np.exp(-model.alpha * t) * steady_mean(model, 0.0)
    assert np.max(np.abs(zero_start_mean(model, t) - identity)) <= 1e-10


# ---------------------------------------------------------------- coupling


def test_coupling_gap_zero_for_identical_starts():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    path = simulate_path(model, 3, 1 / 64, seed=2)
    twin = path_from_increments(model, path.driver_increments, float(path.x[0]), 1 / 64)
    assert np.max(np.abs(twin.x - path.x)) == 0.0


def test_coupling_gap_decays_exponentially():
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    step = 1 / 128
    path = simulate_path(model, 8, step, seed=3, stationary_start=True)
    shifted = path_from_increments(model, path.driver_increments, float(path.x[0]) + 1.0, step)
    gap = np.abs(shifted.x - path.x)
    bound = np.exp(-model.alpha * path.grid) * (1.0 + 10 * step)
    assert np.all(gap <= bound + 1e-15)
    assert np.all(np.diff(gap) <= 1e-15)


# ---------------------------------------------------------------- files


def test_sample_path_csv_roundtrip_bit_exact(tmp_path):
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    path = simulate_path(model, 2, 1 / 64, seed=11, stationary_start=True)
    target = tmp_path / "path.csv"
    write_sample_path_csv(path, target)
    back = read_sample_path_csv(target, model, stationary_start=True)
    assert np.array_equal(back.grid, path.grid)
    assert np.array_equal(back.x, path.x)
    assert np.array_equal(back.driver_increments, path.driver_increments)
    assert back.stationary_start


def test_sample_path_csv_without_driver(tmp_path):
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    path = simulate_path(model, 2, 1 / 64, seed=11)
    stripped = type(path)(
        grid=path.grid, x=path.x, driver_increments=None, model=model
    )
    target = tmp_path / "path.csv"
    write_sample_path_csv(stripped, target)
    assert target.read_text().splitlines()[0] == "t,x"
    back = read_sample_path_csv(target, model)
    assert back.driver_increments is None
    assert np.array_equal(back.x, path.x)


def _hand_path(model, m, n, driver=True, seed=0):
    """A path of n periods at step 1/m with standard-normal x and driver."""
    rng = np.random.default_rng(seed)
    size = n * m + 1
    return SamplePath(
        grid=np.arange(size) / m,
        x=rng.standard_normal(size),
        driver_increments=rng.standard_normal(size - 1) if driver else None,
        model=model,
    )


@pytest.mark.parametrize("case", ["driver", "no_driver", "blocks_plus_one", "extremes"])
def test_csv_writer_matches_the_row_by_row_oracle(case, tmp_path):
    """The block writer's bytes equal one f-string per row, across block
    boundaries and for -0.0, the smallest subnormal and +-DBL_MAX."""
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    if case == "blocks_plus_one":  # 2 blocks of rows, then the last row
        path = _hand_path(model, 256, 2 * _CSV_BLOCK_ROWS // 256)
        assert path.x.size == 2 * _CSV_BLOCK_ROWS + 1
    elif case == "extremes":
        x = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1])
        driver = np.array([-0.0, -5e-324, 1.7976931348623157e308, 1 / 3])
        path = SamplePath(grid=np.arange(5) / 4, x=x, driver_increments=driver, model=model)
    else:
        path = _hand_path(model, 64, 3, driver=case == "driver")
    write_sample_path_csv(path, tmp_path / "bulk.csv")
    write_sample_path_csv_rows(path, tmp_path / "rows.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    back = read_sample_path_csv(tmp_path / "bulk.csv", model)
    assert np.array_equal(back.x, path.x) and np.array_equal(np.signbit(back.x), np.signbit(path.x))


def _edited_path_csv(tmp_path, edit):
    """A written 8193-row path file whose lines (line 1 is the header)
    ``edit`` changes in place."""
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    path = _hand_path(model, 256, 32)
    target = tmp_path / "edited.csv"
    write_sample_path_csv(path, target)
    lines = target.read_text().split("\n")
    edit(lines)
    target.write_text("\n".join(lines))
    return target, model, path


def _set_cell(lineno, column, value):
    def edit(lines):
        cells = lines[lineno - 1].split(",")
        cells[column] = value
        lines[lineno - 1] = ",".join(cells)

    return edit


@pytest.mark.parametrize(
    "edit,error,where",
    [
        (_set_cell(4000, 1, "abc"), InvalidInput, "line 4000:"),
        (_set_cell(8194, 1, "abc"), InvalidInput, "line 8194:"),
        (_set_cell(8194, 2, "0.5,0.5"), InvalidInput, "line 8194:"),
        (lambda lines: lines.insert(2, "# a comment"), InvalidInput, "line 3:"),
        (_set_cell(5, 2, ""), InvalidInput, "line 5:"),
        (_set_cell(6000, 2, "1_0"), InvalidInput, "lines 2-8193:"),
    ],
    ids=["bad_cell_mid", "bad_cell_last", "extra_field_last", "comment", "empty_db_mid", "float_only"],
)
def test_path_csv_bulk_read_names_the_line_at_fault(edit, error, where, tmp_path):
    """A row the bulk parse refuses is found again line by line, and named
    once.  A cell float() takes but loadtxt refuses (an underscore) names
    the row range."""
    target, model, _ = _edited_path_csv(tmp_path, edit)
    with pytest.raises(error, match=rf"^path CSV \S*edited\.csv, {where}") as caught:
        read_sample_path_csv(target, model)
    assert str(caught.value).count("path CSV") == 1


def test_path_csv_reads_crlf_and_blank_lines_bit_exact(tmp_path):
    def edit(lines):
        lines.insert(100, "")
        lines.insert(3, "   ")
        lines.append("")

    target, model, path = _edited_path_csv(tmp_path, edit)
    target.write_bytes(target.read_bytes().replace(b"\n", b"\r\n"))
    assert target.read_bytes().endswith(b",\r\n\r\n")
    back = read_sample_path_csv(target, model)
    assert np.array_equal(back.grid, path.grid)
    assert np.array_equal(back.x, path.x)
    assert np.array_equal(back.driver_increments, path.driver_increments)


@pytest.mark.parametrize("text", ["t,x,db\n", "t,x\n\n", "t,x,db\n\n\n0,0,\n"])
def test_path_csv_without_a_whole_period_is_partial_and_silent(text, tmp_path):
    """loadtxt warns on empty input; a header-only or one-row file must
    reach the grid contract without a warning."""
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    target = tmp_path / "short.csv"
    target.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="needs a whole period"):
            read_sample_path_csv(target, model)


def _broken_grid(case):
    """A two-period, four-step path with one defect of the grid contract."""
    grid = np.arange(9) / 4
    x = np.linspace(0.0, 1.0, 9)
    driver = np.full(8, 0.1)
    if case == "shifted_period":
        grid = grid + 1.0
    elif case == "nan_time":
        grid[3] = np.nan
    elif case == "non_uniform":
        grid[3] += 0.01
    elif case == "partial_period":
        grid, x, driver = grid[:-1], x[:-1], driver[:-1]
    elif case == "driver_length":
        driver = driver[:-1]
    return grid, x, driver


_GRID_DEFECTS = {
    "shifted_period": "not t_k = k/4 starting at t = 0",
    "nan_time": "non-finite times",
    "non_uniform": "not t_k = k/4 starting at t = 0",
    "partial_period": "spans 1.75 periods, not a whole number",
    "driver_length": "7 increments for 8 steps",
}


@pytest.mark.parametrize("case", _GRID_DEFECTS)
def test_grid_contract_rejects_broken_paths(case, tmp_path):
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    grid, x, driver = _broken_grid(case)
    with pytest.raises(InvalidInput, match=_GRID_DEFECTS[case]):
        SamplePath(grid=grid, x=x, driver_increments=driver, model=model)
    target = tmp_path / "path.csv"
    rows = [f"{t:.17g},{v:.17g},{d:.17g}" for t, v, d in zip(grid, x, driver)]
    rows += [f"{t:.17g},{v:.17g}," for t, v in zip(grid[driver.size :], x[driver.size :])]
    target.write_text("t,x,db\n" + "\n".join(rows) + "\n")
    with pytest.raises(InvalidInput):
        read_sample_path_csv(target, model)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"model": _model_section(), "estimate": {"path_csv": str(target)}})
    )
    assert main(["estimate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "text,line",
    [
        ("t,x,db\n0,abc,0.1\n", 2),
        ("a,b\n0,1\n", 1),
        ("t,x,db\n0,0,0.1\n0.25\n", 3),
        ("t,x\n0,1,2\n", 2),
    ],
)
def test_path_csv_parse_errors_name_file_and_line(text, line, tmp_path):
    model = FouModel(hurst=0.7, alpha=1.0, mu=(1.0,), sigma=0.5, basis=sine_basis())
    target = tmp_path / "bad.csv"
    target.write_text(text)
    with pytest.raises(InvalidInput, match=rf"bad\.csv, line {line}:"):
        read_sample_path_csv(target, model)


@pytest.mark.parametrize("count", [1, 2, 257, 3840])
@pytest.mark.parametrize("a", [0.5, 1.0 - 1.0 / 256.0])
@pytest.mark.parametrize("y0", [0.0, 0.3])
def test_first_order_recursion_matches_python_loop(count, a, y0):
    drive = np.random.default_rng(count).standard_normal(count)
    expected = []
    y = y0
    for value in drive:
        y = a * y + value
        expected.append(y)
    assert np.array_equal(first_order_recursion(drive, a, y0), np.array(expected))
