"""Command-line driver: config handling, artifacts, round trips."""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perifou
from perifou import cli, experiments
from perifou.cli import _COMMANDS, _REQUIRED, _SCHEMA, load_config, main
from perifou.errors import InvalidInput


def base_config():
    return {
        "model": {
            "hurst": 0.65,
            "alpha": 1.0,
            "mu": [1.0, 2.0],
            "sigma": 0.5,
            "basis": [{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}],
            "xi0": 0.0,
            "step_denominator": 64,
            "n_periods": 5,
            "seed": 42,
            "stationary_start": True,
        },
        "estimate": {"mode": "oracle_divergence"},
        "consistency": {
            "n_list": [4, 32],
            "replicates": 24,
            "mode": "oracle_divergence",
            "master_seed": 7,
            "workers": 1,
        },
        "clt": {
            "n": 12,
            "replicates": 40,
            "mode": "oracle_divergence",
            "master_seed": 11,
            "workers": 1,
        },
        "coupling": {
            "alphas": [0.5, 1.0],
            "n_periods": 10,
            "gap0": 1.0,
            "master_seed": 3,
        },
    }


@pytest.fixture
def config_file(tmp_path):
    def write(config, name="config.json"):
        target = tmp_path / name
        target.write_text(json.dumps(config, indent=1))
        return str(target)

    return write


def _refusal(capsys, command, kind="InvalidInput"):
    """The one stderr line of a refused command, checked for its prefix."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"perifou {command}: {kind}: "), lines
    return lines[0]


def test_simulate_row_count(config_file, tmp_path):
    cfg = config_file(base_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "path.csv").read_text().strip().splitlines()
    # header + 64 * 5 + 1 grid points
    assert len(lines) == 1 + 64 * 5 + 1
    assert lines[0] == "t,x,db"


def test_limits_degenerate_flag_for_zero_amplitudes(config_file, tmp_path):
    config = base_config()
    config["model"]["mu"] = [0.0, 0.0]
    cfg = config_file(config)
    out = tmp_path / "out"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "limits.json").read_text())
    assert report["flags"]["degenerate_limit"] is True


def test_estimate_roundtrip_bit_identical(config_file, tmp_path):
    cfg = config_file(base_config())
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["estimate", "--config", cfg, "--out", str(out1)]) == 0
    assert (
        main(
            [
                "estimate",
                "--config",
                cfg,
                "--out",
                str(out2),
                "--set",
                f"estimate.path_csv={out1 / 'path.csv'}",
            ]
        )
        == 0
    )
    first = json.loads((out1 / "estimate.json").read_text())
    second = json.loads((out2 / "estimate.json").read_text())
    assert first["theta_hat"] == second["theta_hat"]
    assert first["gamma_n"] == second["gamma_n"]


def test_override_equals_edited_config(config_file, tmp_path):
    edited = base_config()
    edited["model"]["hurst"] = 0.7
    cfg_edited = config_file(edited, "edited.json")
    cfg_plain = config_file(base_config(), "plain.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["limits", "--config", cfg_edited, "--out", str(out1)]) == 0
    assert (
        main(
            ["limits", "--config", cfg_plain, "--out", str(out2), "--set", "model.hurst=0.7"]
        )
        == 0
    )
    assert (out1 / "limits.json").read_bytes() == (out2 / "limits.json").read_bytes()


def test_unknown_key_rejected(config_file, tmp_path):
    config = base_config()
    config["model"]["hurstt"] = 0.7
    cfg = config_file(config)
    assert main(["limits", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_section_rejected(config_file, tmp_path):
    config = base_config()
    config["extras"] = {}
    cfg = config_file(config)
    assert main(["limits", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_inadmissible_hurst_rejected(config_file, tmp_path):
    cfg = config_file(base_config())
    out = str(tmp_path / "o")
    assert main(["limits", "--config", cfg, "--out", out, "--set", "model.hurst=1.7"]) == 2
    assert main(["mc-clt", "--config", cfg, "--out", out, "--set", "model.hurst=0.8"]) == 2


def test_duplicate_basis_rejected(config_file, tmp_path):
    config = base_config()
    config["model"]["basis"] = [{"kind": "sin", "k": 1}, {"kind": "sin", "k": 1}]
    config["model"]["mu"] = [1.0, 2.0]
    cfg = config_file(config)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", "o"]) == 2


def test_malformed_json(config_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_config_not_utf8_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_mc_consistency_passes_and_writes_artifacts(config_file, tmp_path):
    cfg = config_file(base_config())
    out = tmp_path / "mc"
    assert main(["mc-consistency", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "consistency_replicates.csv").exists()
    report = json.loads((out / "consistency_report.json").read_text())
    assert report["passed"] is True
    rows = (out / "consistency_replicates.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 24


def test_mc_clt_writes_artifacts(config_file, tmp_path):
    cfg = config_file(base_config())
    out = tmp_path / "clt"
    code = main(["mc-clt", "--config", cfg, "--out", str(out)])
    assert code in (0, 1)
    for artifact in ("clt_replicates.csv", "clt_report.json", "clt_qq.csv"):
        assert (out / artifact).exists()


def test_mc_clt_with_too_few_identifiable_replicates_exits_2(config_file, tmp_path, capsys):
    """At sigma = 1e-9 a stationary path stays within about 1e-9 of the
    steady mean, which lies in the sin/cos span, so every design is
    degenerate."""
    config = base_config()
    config["model"]["sigma"] = 1e-9
    config["clt"].update(n=5, replicates=4)
    out = tmp_path / "clt"
    assert main(["mc-clt", "--config", config_file(config), "--out", str(out)]) == 2
    assert "only 0 of 4" in _refusal(capsys, "mc-clt", "DegenerateDesign")
    assert not out.exists()


def test_mc_clt_with_zero_sigma_exits_2_before_writing(tmp_path, capsys):
    """With sigma = 0 and an identifiable design every replicate is the same
    path, so the scaled errors have no spread and every gap would be NaN."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    out = tmp_path / "clt"
    overrides = [
        "model.sigma=0",
        'model.basis=[{"kind":"sin","k":1}]',
        "model.mu=[1.0]",
        "clt.n=5",
        "clt.replicates=4",
        "model.step_denominator=32",
    ]
    argv = ["mc-clt", "--config", str(config), "--out", str(out)]
    assert main(argv + [arg for item in overrides for arg in ("--set", item)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "model.sigma" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [[], ['model.basis=[{"kind":"sin","k":1}]', "model.mu=[1.0]"]],
    ids=["unidentifiable", "identifiable"],
)
def test_mc_clt_at_zero_sigma_refuses_before_any_replicate(
    config_file, tmp_path, capsys, monkeypatch, overrides
):
    """Every replicate is the same path at sigma = 0, whether or not its
    design is identifiable, so the study refuses before the limit objects
    and before any replicate runs."""
    calls = []

    def spy(name):
        return lambda *args: calls.append(name)

    for name in ("_run_batch", "_map_jobs", "limit_summary"):
        monkeypatch.setattr(experiments, name, spy(name))
    cfg = config_file(base_config())
    out = tmp_path / "clt"
    settings = ["model.sigma=0", "clt.workers=4", *overrides]
    argv = ["mc-clt", "--config", cfg, "--out", str(out)]
    assert main(argv + [arg for item in settings for arg in ("--set", item)]) == 2
    assert "model.sigma = 0" in _refusal(capsys, "mc-clt")
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["mc-clt", "mc-consistency"])
def test_aliased_basis_refuses_a_study_before_any_work(
    config_file, tmp_path, capsys, monkeypatch, command
):
    """sin 2 pi 8 t vanishes on t = j/16, so no replicate could estimate
    mu_1: the study refuses before the limit objects, the pool and any
    replicate."""
    calls = []

    def spy(name):
        return lambda *args: calls.append(name)

    for name in ("_run_batch", "_map_jobs", "limit_summary"):
        monkeypatch.setattr(experiments, name, spy(name))
    cfg = config_file(base_config())
    out = tmp_path / "study"
    settings = [
        'model.basis=[{"kind":"sin","k":8},{"kind":"cos","k":1}]',
        "model.step_denominator=16",
        "clt.workers=4",
        "consistency.workers=4",
    ]
    argv = [command, "--config", cfg, "--out", str(out)]
    assert main(argv + [arg for item in settings for arg in ("--set", item)]) == 2
    refusal = _refusal(capsys, command)
    assert "model.basis" in refusal and "model.step_denominator" in refusal
    assert calls == []
    assert not out.exists()


def test_aliased_basis_refuses_a_simulated_estimate_before_the_path(
    tmp_path, capsys, monkeypatch
):
    """sin 2 pi 128 t vanishes on t = j/256: one period's Gram block refuses
    the basis before the path is simulated.  A path CSV holds its grid only
    in the file, so an estimate from one refuses once the file is read."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()

    def no_path(*args, **kwargs):
        raise AssertionError("simulate_path ran")

    monkeypatch.setattr(cli, "simulate_path", no_path)
    out = tmp_path / "est"
    argv = ["estimate", "--config", str(config), "--out", str(out), "--set"]
    argv.append('model.basis=[{"kind":"sin","k":128},{"kind":"cos","k":1}]')
    assert main(argv) == 2
    assert "model.basis" in _refusal(capsys, "estimate")
    assert not out.exists()
    assert main(argv + ["--set", f"estimate.path_csv={tmp_path / 'path.csv'}"]) == 2
    assert "model.basis" in _refusal(capsys, "estimate")
    assert not (out / "estimate.json").exists()


def test_aliased_basis_on_a_path_csv_names_the_file_grid(tmp_path, capsys):
    """The acceptance basis sin/cos 2 pi t aliases on t = k/2, the file's
    grid; model.step_denominator (256) is valid and is not blamed."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    target = tmp_path / "half.csv"
    target.write_text("t,x\n" + "".join(f"{k / 2!r},{(-0.5) ** k}\n" for k in range(9)))
    out = tmp_path / "est"
    argv = ["estimate", "--config", str(config), "--out", str(out)]
    assert main(argv + ["--set", f"estimate.path_csv={target}"]) == 2
    err = _refusal(capsys, "estimate")
    assert "model.basis is not orthonormal on the grid of estimate.path_csv (step 1/2)" in err
    assert "model.step_denominator" not in err
    assert not out.exists()


def test_aliased_basis_estimate_exits_2_without_writing(tmp_path, capsys):
    """sin 2 pi 8 t vanishes on t = j/16, so the grid cannot carry mu_1."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    out = tmp_path / "est"
    overrides = [
        'model.basis=[{"kind":"sin","k":8},{"kind":"cos","k":1}]',
        "model.step_denominator=16",
        "estimate.alpha_for_correction=1",
    ]
    argv = ["estimate", "--config", str(config), "--out", str(out)]
    assert main(argv + [arg for item in overrides for arg in ("--set", item)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "model.basis" in err and "model.step_denominator" in err
    assert not (out / "estimate.json").exists()


@pytest.mark.parametrize("csv", [False, True])
def test_a_given_alpha_in_naive_mode_is_refused_before_the_path(tmp_path, capsys, monkeypatch, csv):
    """naive_pathwise applies no trace correction, so a given
    estimate.alpha_for_correction would be ignored: the estimate exits 2
    naming both keys before it simulates or reads a path, and writes nothing."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"

    def no_path(*args, **kwargs):
        raise AssertionError("a path was simulated or read")

    monkeypatch.setattr(cli, "simulate_path", no_path)
    monkeypatch.setattr(cli, "read_sample_path_csv", no_path)
    out = tmp_path / "est"
    settings = ["estimate.mode=naive_pathwise", "estimate.alpha_for_correction=3.0"]
    if csv:
        settings.append(f"estimate.path_csv={tmp_path / 'path.csv'}")
    argv = ["estimate", "--config", str(config), "--out", str(out)]
    assert main(argv + [arg for item in settings for arg in ("--set", item)]) == 2
    refusal = _refusal(capsys, "estimate")
    assert "estimate.alpha_for_correction" in refusal and "estimate.mode" in refusal
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        ["model.xi0=1e308", "model.stationary_start=false", "estimate.alpha_for_correction=1"],
        ["model.mu=[1e307,1]", "estimate.alpha_for_correction=1"],
        ["model.xi0=1e308", "model.stationary_start=false"],
    ],
    ids=["huge_start", "huge_mean", "huge_start_plug_in"],
)
def test_estimate_on_an_overflowing_path_exits_2_without_writing(overrides, tmp_path, capsys):
    """The path is finite but x^2 is not, so the design and response sums
    overflow; NaN was written, or the NaN plug-in alpha was blamed."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    out = tmp_path / "est"
    argv = ["estimate", "--config", str(config), "--out", str(out)]
    assert main(argv + [arg for item in overrides for arg in ("--set", item)]) == 2
    line = _refusal(capsys, "estimate")
    assert "overflow double precision" in line and "alpha_for_correction" not in line
    assert not (out / "estimate.json").exists()


@pytest.mark.parametrize("from_csv", [False, True], ids=["simulated", "path_csv"])
def test_estimate_whose_sigma_squared_overflows_exits_2(from_csv, tmp_path, capsys):
    """sigma = 1e200 overflows the simulated path's sums; on a path read
    from a file it overflows sigma^2 in the trace correction, which raised
    OverflowError."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    overrides = ["model.sigma=1e200", "estimate.alpha_for_correction=1"]
    if from_csv:
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        overrides.append(f"estimate.path_csv={tmp_path / 'path.csv'}")
    out = tmp_path / "est"
    argv = ["estimate", "--config", str(config), "--out", str(out)]
    assert main(argv + [arg for item in overrides for arg in ("--set", item)]) == 2
    assert "model.sigma = 1e+200" in _refusal(capsys, "estimate")
    assert not (out / "estimate.json").exists()


def test_limits_at_zero_sigma_with_steady_mean_in_span_exits_2(tmp_path, capsys):
    """The limit residual variance is then exactly 0, and gamma and C would
    be its reciprocal (about -4.5e15 when rounding noise was refused late)."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    out = tmp_path / "lim"
    overrides = ["model.sigma=0", 'model.basis=[{"kind":"const"}]', "model.mu=[1.0]"]
    argv = ["limits", "--config", str(config), "--out", str(out)]
    assert main(argv + [arg for item in overrides for arg in ("--set", item)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "model.sigma" in err and "model.basis" in err
    assert "steady mean lies in the span of model.basis" in err and "underflow" not in err
    assert not out.exists()


def test_limits_whose_stationary_variance_underflows_exit_2(tmp_path, capsys):
    """At alpha = 1e300 sigma^2 alpha^(-2H) H Gamma(2H) underflows to 0 with
    sigma = 0.5, so the residual is 0 although sigma is not (1e200 exits 0)."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    out = tmp_path / "lim"
    argv = ["limits", "--config", str(config), "--out", str(out), "--set"]
    assert main(argv + ["model.alpha=1e300"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "stationary variance" in err and "underflows" in err
    assert "model.alpha = 1e+300" in err and "model.sigma = 0.5" in err
    assert "span" not in err
    assert not out.exists()
    assert main(argv + ["model.alpha=1e200"]) == 0


@pytest.mark.parametrize(
    "override",
    ["model.alpha=1e-300", "model.sigma=1e200", "model.mu=[1e200,1e200]"],
)
def test_limits_that_overflow_exit_2(tmp_path, capsys, override):
    """A tiny alpha, a huge sigma or a huge mu overflows the stationary
    variance, the steady mean or C; limits.json used to take NaN/Infinity
    cells, or the run ended in an OverflowError traceback.  The message
    names all three keys, since any of them can be the cause."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    out = tmp_path / "lim"
    argv = ["limits", "--config", str(config), "--out", str(out), "--set", override]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "model.alpha" in err and "model.sigma" in err and "model.mu" in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["1e-15", "1e-100", "1e-200"])
def test_limits_at_tiny_alpha_reach_the_zero_alpha_loadings(tmp_path, alpha):
    """As alpha -> 0 the steady mean of mu = (1, 2) on {sin, cos} tends to
    (2 sin - cos) / (2 pi), so Lambda = (2, -1) / (2 pi).  A quadrature of h~
    divided by 1 - e^{-alpha} reported [-1.115, -3.144] at alpha = 1e-15.
    At alpha = 1e-200 the entry 1/gamma of C^-1 is about 1.46e259: the
    Sigma_0 - C^-1 gap fits in a double although its squared entries do not."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    out = tmp_path / "lim"
    argv = ["limits", "--config", str(config), "--out", str(out)]
    assert main(argv + ["--set", f"model.alpha={alpha}"]) == 0
    report = json.loads((out / "limits.json").read_text())
    assert report["lambda"] == pytest.approx([1 / math.pi, -0.5 / math.pi], rel=1e-12, abs=0)
    assert math.isfinite(report["sigma0_minus_c_inverse_frobenius"])


def _pair_at(k):
    return json.dumps([{"kind": "sin", "k": k}, {"kind": "cos", "k": k}])


@pytest.mark.parametrize("k", [16, 40])
@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_high_frequency_basis_simulates_and_estimates(config_file, tmp_path, command, k):
    cfg = config_file(base_config())
    out = tmp_path / "o"
    overrides = ["--set", f"model.basis={_pair_at(k)}", "--set", "model.step_denominator=256"]
    assert main([command, "--config", cfg, "--out", str(out)] + overrides) == 0
    if command == "estimate":
        report = json.loads((out / "estimate.json").read_text())
        assert all(math.isfinite(v) for v in report["theta_hat"])


@pytest.mark.parametrize("k", [16, 40])
@pytest.mark.parametrize("command", ["limits", "mc-clt"])
def test_limit_objects_take_frequencies_above_15(config_file, tmp_path, command, k):
    """Sigma_0 is in closed form, so the limit objects exist at any basis
    frequency; a quadrature used to refuse every k >= 16."""
    config = base_config()
    config["model"].update(basis=json.loads(_pair_at(k)), step_denominator=256)
    config["clt"].update(n=4, replicates=12)
    out = tmp_path / "o"
    assert main([command, "--config", config_file(config), "--out", str(out)]) in (0, 1)
    name = "limits.json" if command == "limits" else "clt_report.json"
    assert (out / name).exists()


def test_coupling_command(config_file, tmp_path):
    cfg = config_file(base_config())
    out = tmp_path / "cpl"
    assert main(["coupling", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "coupling_report.json").read_text())
    assert len(report["runs"]) == 2
    assert all(run["passed"] for run in report["runs"])
    assert (out / "coupling_decay.csv").exists()


def test_coupling_without_a_slope_fails_without_claiming_exact(config_file, tmp_path, capsys):
    """At alpha = 40 every gap is below the floor after one period, so no
    slope can be fitted; that run is not an exact match either."""
    cfg = config_file(base_config())
    out = tmp_path / "cpl"
    argv = ["coupling", "--config", cfg, "--out", str(out), "--set", "coupling.alphas=[40]"]
    assert main(argv) == 1
    line = capsys.readouterr().out.strip()
    assert line.startswith("coupling: FAIL") and "no slope" in line
    assert "exact" not in line
    run = json.loads((out / "coupling_report.json").read_text())["runs"][0]
    assert run["exact_match"] is False and run["slope"] is None


_FIRST_ARTIFACT = {
    "simulate": "path.csv",
    "estimate": "estimate.json",
    "limits": "limits.json",
    "mc-consistency": "consistency_replicates.csv",
    "mc-clt": "clt_replicates.csv",
    "coupling": "coupling_decay.csv",
}


@pytest.mark.parametrize("command", list(_FIRST_ARTIFACT))
def test_out_that_is_not_a_directory_exits_2_naming_it(
    config_file, tmp_path, capsys, monkeypatch, command
):
    """An --out that is a file, or lies under one, is refused before any
    path, limit object or replicate, and nothing is created; an artifact
    that cannot be written (here a directory in its place) names --out too."""
    settings = ["consistency.n_list=[2,4]", "consistency.replicates=2", "clt.replicates=4"]
    argv = [command, "--config", config_file(base_config())]
    argv += [arg for item in settings for arg in ("--set", item)]
    calls = []

    def spy(name):
        return lambda *args, **kwargs: calls.append(name)

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_map_jobs", spy("_map_jobs"))
        for name in ("simulate_path", "limit_summary", "run_coupling"):
            patch.setattr(cli, name, spy(name))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        for out in (blocker, blocker / "out"):
            assert main(argv + ["--out", str(out)]) == 2
            refusal = _refusal(capsys, command)
            assert f"--out: {blocker} exists and is not a directory" in refusal
        assert blocker.read_text() == "" and calls == []
    out = tmp_path / "out"
    (out / _FIRST_ARTIFACT[command]).mkdir(parents=True)
    assert main(argv + ["--out", str(out)]) == 2
    assert "--out: [Errno 21] Is a directory" in _refusal(capsys, command)


def test_workers_flag_overrides_config(config_file, tmp_path):
    cfg = config_file(base_config())
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["mc-consistency", "--config", cfg, "--out", str(out1)]) == 0
    assert (
        main(["mc-consistency", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
    )
    a = (out1 / "consistency_replicates.csv").read_bytes()
    b = (out2 / "consistency_replicates.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("command", ["mc-consistency", "mc-clt"])
@pytest.mark.parametrize(
    "cpus, workers, ran_on", [(1, "1", "serial"), (2, "1", "2 threads"), (2, "2", "2 processes")]
)
def test_study_summary_names_how_the_batches_ran(
    config_file, tmp_path, capsys, monkeypatch, command, cpus, workers, ran_on
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    cfg = config_file(base_config())
    main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--workers", workers])
    assert f", {ran_on}, " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "estimate", "limits", "coupling"])
def test_workers_flag_only_on_study_commands(config_file, tmp_path, capsys, command):
    cfg = config_file(base_config())
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [[], ["nosuch", "--config", "cfg.json"], ["limits", "--out", "o"]],
    ids=["empty", "unknown-command", "no-config"],
)
def test_parser_refusals_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: perifou" in capsys.readouterr().err


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert all(name in text for name in _COMMANDS) and len(_COMMANDS) == 6


def test_one_main_call_builds_one_parser(config_file, tmp_path, monkeypatch):
    """A subparser per command cost each call about 1 ms in building seven
    ArgumentParsers; the flat parser is one, built per call, not at import."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    argv = ["limits", "--config", config_file(base_config()), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert built == ["perifou"]


def test_estimate_degenerate_path_reported(config_file, tmp_path):
    config = base_config()
    config["model"]["mu"] = [0.0, 0.0]
    config["model"]["sigma"] = 0.0
    config["model"]["stationary_start"] = False
    cfg = config_file(config)
    out = tmp_path / "deg"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "estimate.json").read_text())
    assert report["degenerate"] is True
    assert report["theta_hat"] is None


@pytest.mark.parametrize(
    "command,override",
    [
        ("simulate", "model.alpha=1000"),
        ("estimate", "estimate.alpha_for_correction=1000"),
        ("estimate", "estimate.alpha_for_correction=0"),
        ("estimate", "estimate.alpha_for_correction=NaN"),
    ],
)
def test_unstable_alpha_step_exits_2(config_file, tmp_path, capsys, command, override):
    cfg = config_file(base_config())
    out = str(tmp_path / "o")
    assert main([command, "--config", cfg, "--out", out, "--set", override]) == 2
    _refusal(capsys, command)


@pytest.mark.parametrize(
    "command, override, alpha_key",
    [
        ("estimate", "model.step_denominator=1", "model.alpha = 1 "),
        ("coupling", "coupling.alphas=[0.5,300]", "coupling.alphas[1] = 300 "),
    ],
)
def test_euler_step_refusal_names_its_keys(
    config_file, tmp_path, capsys, command, override, alpha_key
):
    out = tmp_path / "o"
    argv = [command, "--config", config_file(base_config()), "--out", str(out), "--set", override]
    assert main(argv) == 2
    err = _refusal(capsys, command)
    assert alpha_key in err and "model.step_denominator" in err
    assert command == "estimate" or "model.alpha" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["mc-clt", "--set", "clt.replicates=1"], "clt.replicates"),
        (["mc-clt", "--set", "clt.mode=foo"], "clt.mode"),
        (["mc-clt", "--set", "clt.workers=0"], "clt.workers"),
        (["mc-consistency", "--set", "consistency.n_list=[10,5]"], "consistency.n_list"),
        (["mc-clt", "--workers", "-3"], "--workers"),
        (["coupling", "--set", "coupling.alphas=[1,-2]"], "coupling.alphas[1]"),
        (["coupling", "--set", "coupling.alphas=[0]"], "coupling.alphas[0]"),
    ],
    ids=["replicates", "mode", "workers", "n_list", "workers-flag", "alpha-neg", "alpha-0"],
)
def test_range_refusal_names_its_key(config_file, tmp_path, capsys, argv, key):
    """McConfig names only its field, and FouModel only alpha: the config
    key is named by the schema, at load.  A negative --workers is refused
    by the parser, after its usage lines."""
    out = tmp_path / "o"
    argv = argv + ["--config", config_file(base_config()), "--out", str(out)]
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    assert status == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
    assert len(errors) == 1 and f"{key} must be" in errors[0]
    assert key == "--workers" or errors[0].startswith(f"perifou {argv[0]}: InvalidInput: ")
    assert not out.exists()


_MODES = "('naive_pathwise', 'oracle_divergence')"


@pytest.mark.parametrize(
    "override, message",
    [
        ("model.step_denominator=0", "model.step_denominator must be >= 1, got 0"),
        ("model.n_periods=0", "model.n_periods must be >= 1, got 0"),
        ("model.seed=-1", "model.seed must be >= 0, got -1"),
        ("estimate.mode=bayes", f"estimate.mode must be one of {_MODES}, got 'bayes'"),
        ("estimate.path_csv=", "estimate.path_csv must be nonempty (null simulates a path), got ''"),
        ("clt.n=0", "clt.n must be >= 1, got 0"),
        ("clt.replicates=1", "clt.replicates must be >= 2, got 1"),
        ("clt.mode=foo", f"clt.mode must be one of {_MODES}, got 'foo'"),
        ("clt.workers=0", "clt.workers must be >= 1, got 0"),
        ("consistency.n_list=[0,5]", "consistency.n_list[0] must be >= 1, got 0"),
        ("consistency.n_list=[10,5]", "consistency.n_list must be strictly increasing, got [10, 5]"),
        ("coupling.n_periods=0", "coupling.n_periods must be >= 1, got 0"),
        ("coupling.alphas=[0]", "coupling.alphas[0] must be positive, got 0"),
    ],
)
def test_every_single_key_range_is_refused_at_load(
    config_file, tmp_path, capsys, monkeypatch, override, message
):
    """limits reads none of these keys and still refuses each, as it
    refuses a mistyped key: a range is checked where the config is loaded,
    not by the command that reads the key."""
    monkeypatch.setattr("perifou.cli.limit_summary", lambda *args: pytest.fail("ran"))
    out = tmp_path / "o"
    argv = ["limits", "--config", config_file(base_config()), "--out", str(out)]
    assert main(argv + ["--set", override]) == 2
    assert _refusal(capsys, "limits") == f"perifou limits: InvalidInput: {message}"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, override, key",
    [
        ("simulate", "model.hurst=0.3", "model.hurst must lie in (1/2, 1)"),
        ("limits", "model.sigma=-1", "model.sigma must be nonnegative"),
        ("estimate", "model.mu=[1]", "model.mu has 1 entries"),
        ("simulate", "model.seed=-1", "model.seed must be >= 0"),
        ("estimate", "estimate.mode=bayes", "estimate.mode must be one of"),
        ("mc-consistency", "model.hurst=0.8", "requires model.hurst < 0.75"),
        (
            "limits",
            'model.basis=[{"kind":"tan","k":1},{"kind":"cos","k":1}]',
            "model.basis[0]: unknown basis kind 'tan'",
        ),
        (
            "limits",
            'model.basis=[{"kind":"cos","k":1},{"kind":"sin","k":0}]',
            "model.basis[1]: sin basis function needs 1 <= k <= 2^53, got 0",
        ),
        (
            "limits",
            'model.basis=[{"kind":"sin","k":1},{"kind":"sin","k":1}]',
            "model.basis: duplicate basis functions break orthonormality",
        ),
    ],
    ids=[
        "hurst", "sigma", "mu", "seed", "estimate-mode", "study-hurst",
        "basis-kind", "basis-k", "basis-duplicate",
    ],
)
def test_model_range_refusal_names_its_key_before_any_work(
    config_file, tmp_path, capsys, monkeypatch, command, override, key
):
    """FouModel and FgnSpec name only their field, BasisFunction and
    BasisSet none, and estimate() its argument: the CLI names the config
    key, before a path is simulated, a limit object computed or an out dir
    made."""
    monkeypatch.setattr("perifou.cli.simulate_path", lambda *args, **kw: pytest.fail("ran"))
    monkeypatch.setattr("perifou.cli.limit_summary", lambda *args: pytest.fail("ran"))
    monkeypatch.setattr(experiments, "_map_jobs", lambda *args: pytest.fail("ran"))
    out = tmp_path / "o"
    argv = [command, "--config", config_file(base_config()), "--out", str(out)]
    assert main(argv + ["--set", override]) == 2
    assert key in _refusal(capsys, command)
    assert not out.exists()


@pytest.mark.parametrize("command", ["mc-clt", "mc-consistency"])
def test_study_euler_step_refusal_before_any_work(
    config_file, tmp_path, capsys, monkeypatch, command
):
    """alpha * step >= 1 is refused before limit_summary and before any
    replicate; mc-clt used to compute the limit objects first and fail in
    its first replicate."""
    calls = []

    def spy(name):
        return lambda *args: calls.append(name)

    for name in ("_run_batch", "_map_jobs", "limit_summary"):
        monkeypatch.setattr(experiments, name, spy(name))
    out = tmp_path / "o"
    argv = [command, "--config", config_file(base_config()), "--out", str(out)]
    assert main(argv + ["--set", "model.alpha=300"]) == 2
    err = _refusal(capsys, command)
    assert "model.alpha = 300 " in err and "model.step_denominator" in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("alpha", ["1e-17", "1e-300"])
def test_correction_alpha_that_rounds_the_decay_to_1_exits_2(tmp_path, capsys, alpha):
    """Below about 5.6e-17 / step, a = 1 - alpha*step rounds to 1 although
    0 < alpha*step < 1 holds; the trace correction used to end in a
    ValueError traceback with exit 1."""
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    out = tmp_path / "o"
    argv = ["estimate", "--config", str(config), "--out", str(out)]
    assert main(argv + ["--set", f"estimate.alpha_for_correction={alpha}"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "InvalidInput" in err and "alpha_for_correction" in err
    assert not (out / "estimate.json").exists()


@pytest.mark.parametrize(
    "mode, override, alpha, source",
    [
        ("oracle_divergence", "estimate.alpha_for_correction=1.5", 1.5, "given"),
        ("oracle_divergence", None, None, "plug-in"),
        ("naive_pathwise", None, None, None),
    ],
)
def test_estimate_records_the_correction_alpha_and_its_source(
    config_file, tmp_path, mode, override, alpha, source
):
    config = base_config()
    config["estimate"]["mode"] = mode
    argv = ["estimate", "--config", config_file(config), "--out", str(tmp_path)]
    assert main(argv + (["--set", override] if override else [])) == 0
    report = json.loads((tmp_path / "estimate.json").read_text())
    assert report["correction_alpha_source"] == source
    if source == "plug-in":
        assert report["correction_alpha"] > 0.0 and report["correction"] > 0.0
    else:
        assert report["correction_alpha"] == alpha


# Path files that do not parse: a cell, the header, a row with one field.
_BAD_PATH_FILES = {
    "bad_cell": "t,x,db\n0,abc,0.1\n",
    "bad_header": "a,b\n0,1\n",
    "one_field": "t,x,db\n0\n",
}


@pytest.mark.parametrize(
    "command,override",
    [
        ("simulate", "model.n_periods=abc"),
        ("simulate", "model.seed=abc"),
        ("simulate", "model.step_denominator=abc"),
        ("simulate", "model.step_denominator=0"),
        ("simulate", "model.n_periods=0"),
        ("coupling", "coupling.alphas=[0]"),
        ("coupling", "coupling.alphas=5"),
        ("coupling", "coupling.gap0=abc"),
        ("mc-clt", "clt.n=abc"),
        ("mc-clt", "clt.workers=abc"),
        ("mc-consistency", "consistency.n_list=5"),
        ("simulate", "model.seed=-1"),
        ("simulate", "model.seed=1.9"),
        ("simulate", 'model.basis=[{"kind": "sin", "k": 1.7}, {"kind": "cos", "k": 1}]'),
        ("limits", 'model.basis=[{"kind": "sin", "k": 9007199254740993}, {"kind": "cos", "k": 1}]'),
        pytest.param(
            "limits",
            'model.basis=[{"kind": "cos", "k": 1' + "0" * 400 + '}, {"kind": "sin", "k": 1}]',
            id="limits-k-beyond-double",
        ),
        ("simulate", 'model.stationary_start="no"'),
        ("estimate", "estimate.alpha_for_correction=true"),
        ("estimate", "estimate.path_csv=5"),
        ("estimate", "bad_cell"),
        ("estimate", "bad_header"),
        ("estimate", "one_field"),
        pytest.param("limits", "model.alpha=1" + "0" * 400, id="limits-alpha-beyond-double"),
    ],
)
def test_bad_input_exits_2_with_one_line(config_file, tmp_path, capsys, command, override):
    if override in _BAD_PATH_FILES:
        target = tmp_path / f"{override}.csv"
        target.write_text(_BAD_PATH_FILES[override])
        override = f"estimate.path_csv={target}"
    cfg = config_file(base_config())
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--set", override]) == 2
    _refusal(capsys, command)


@pytest.mark.parametrize(
    "command", ["simulate", "estimate", "mc-consistency", "mc-clt", "coupling"]
)
def test_tiny_alpha_stationary_start_exits_2_before_drawing(
    config_file, tmp_path, capsys, command
):
    """At alpha = 1e-9 the burn-in is 1.8e10 periods; the draw used to end in
    a numpy MemoryError traceback for a 64 TiB request."""
    config = base_config()
    config["model"].update(alpha=1e-9, n_periods=2)
    config["coupling"]["alphas"] = [1e-9]
    out = tmp_path / "o"
    assert main([command, "--config", config_file(config), "--out", str(out)]) == 2
    err = _refusal(capsys, command)
    assert "fGn increments" in err
    alpha_key = "coupling.alphas[0]" if command == "coupling" else "model.alpha"
    assert f"{alpha_key} = 1e-09" in err
    horizon_key = {
        "coupling": "(coupling.n_periods)",
        "mc-consistency": "(consistency.n_list[0])",
        "mc-clt": "(clt.n)",
    }.get(command, "(model.n_periods)")
    assert horizon_key in err and "model.step_denominator" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, horizon",
    [("mc-clt", "12 periods (clt.n)"), ("mc-consistency", "4 periods (consistency.n_list[0])")],
)
def test_study_increment_cap_names_its_horizon_before_any_work(
    config_file, tmp_path, capsys, monkeypatch, command, horizon
):
    """At m = 256, alpha = 1e-4 burns in 1.8e5 periods, past the 2^24
    increment cap.  A study is refused under its own horizon key before
    limit_summary and before any replicate; mc-clt used to reach the cap in
    its first replicate, after limit_summary, and name model.n_periods."""
    calls = []

    def spy(name):
        return lambda *args: calls.append(name)

    for name in ("_run_batch", "_map_jobs", "limit_summary"):
        monkeypatch.setattr(experiments, name, spy(name))
    out = tmp_path / "o"
    settings = ["model.alpha=1e-4", "model.step_denominator=256"]
    argv = [command, "--config", config_file(base_config()), "--out", str(out)]
    assert main(argv + [arg for item in settings for arg in ("--set", item)]) == 2
    err = _refusal(capsys, command)
    assert "fGn increments" in err and horizon in err and "model.alpha = 0.0001" in err
    assert "model.n_periods" not in err
    assert calls == [] and not out.exists()


def test_coupling_increment_cap_without_alphas_names_the_coupling_horizon(
    config_file, tmp_path, capsys, monkeypatch
):
    """With coupling.alphas null the run takes model.alpha, and is checked
    against the cap before it starts, under coupling.n_periods."""
    runs = []
    monkeypatch.setattr("perifou.cli.run_coupling", lambda *args: runs.append(args))
    out = tmp_path / "o"
    settings = ["coupling.alphas=null", "model.alpha=1e-4", "model.step_denominator=256"]
    argv = ["coupling", "--config", config_file(base_config()), "--out", str(out)]
    assert main(argv + [arg for item in settings for arg in ("--set", item)]) == 2
    err = _refusal(capsys, "coupling")
    assert "10 periods (coupling.n_periods)" in err and "model.alpha = 0.0001" in err
    assert "model.n_periods" not in err
    assert runs == [] and not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("simulate", "model.n_periods", "0"),
        ("coupling", "coupling.n_periods", "0"),
        ("mc-clt", "clt.n", "0"),
        ("mc-consistency", "consistency.n_list", "[0,5]"),
    ],
)
def test_horizon_below_1_names_its_key(
    config_file, tmp_path, capsys, monkeypatch, command, key, value
):
    """Each horizon is refused under its own key when the config is
    loaded: mc-clt refuses before the limit objects."""
    monkeypatch.setattr(experiments, "limit_summary", lambda *args: pytest.fail("ran"))
    out = tmp_path / "o"
    argv = [command, "--config", config_file(base_config()), "--out", str(out)]
    assert main(argv + ["--set", f"{key}={value}"]) == 2
    err = _refusal(capsys, command)
    assert key in err and "must be >= 1, got 0" in err
    assert not out.exists()


def test_empty_path_csv_exits_2_without_simulating(config_file, tmp_path, capsys, monkeypatch):
    """Only null means "simulate a path"; an empty string used to estimate
    a simulated path and exit 0."""
    monkeypatch.setattr("perifou.cli.simulate_path", lambda *args, **kw: pytest.fail("simulated"))
    out = tmp_path / "o"
    argv = ["estimate", "--config", config_file(base_config()), "--out", str(out)]
    assert main(argv + ["--set", "estimate.path_csv="]) == 2
    assert "estimate.path_csv" in _refusal(capsys, "estimate")
    assert not out.exists()


@pytest.mark.parametrize("target", ["directory", "missing.csv"])
def test_unreadable_path_csv_names_its_key(config_file, tmp_path, capsys, target):
    """A directory or a missing file used to exit 2 as a bare
    IsADirectoryError or FileNotFoundError, with the path but not the key."""
    target = tmp_path / target
    if target.suffix == "":
        target.mkdir()
    out = tmp_path / "o"
    argv = ["estimate", "--config", config_file(base_config()), "--out", str(out)]
    assert main(argv + ["--set", f"estimate.path_csv={target}"]) == 2
    err = _refusal(capsys, "estimate")
    assert err.startswith("perifou estimate: InvalidInput: estimate.path_csv: [Errno ")
    assert str(target) in err
    assert not (out / "estimate.json").exists()


def test_coupling_increment_cap_names_its_alphas_entry_before_any_run(
    config_file, tmp_path, capsys, monkeypatch
):
    """At m = 256, alpha = 1e-4 burns in 1.8e5 periods, past the 2^24
    increment cap.  The entry is refused under its own key before the
    alpha = 1 run starts; the cap used to name model.alpha after that run.
    The horizon is coupling.n_periods (10 here), not model.n_periods (5)."""
    runs = []
    monkeypatch.setattr("perifou.cli.run_coupling", lambda *args: runs.append(args))
    out = tmp_path / "o"
    argv = ["coupling", "--config", config_file(base_config()), "--out", str(out),
            "--set", "model.step_denominator=256", "--set", "coupling.alphas=[1,1e-4]"]
    assert main(argv) == 2
    err = _refusal(capsys, "coupling")
    assert "fGn increments" in err and "coupling.alphas[1] = 0.0001" in err
    assert "10 periods (coupling.n_periods)" in err
    assert "model.alpha" not in err and "model.n_periods" not in err
    assert runs == [] and not out.exists()


def _alternating_path_csv(target):
    """m = 4, n = 2, x_k = (-1)^k, db = 0.1: the naive alpha_hat is 8, so
    the plug-in alpha_hat * step is 2."""
    rows = [f"{k / 4!r},{(-1) ** k},{0.1 if k < 8 else ''}" for k in range(9)]
    target.write_text("t,x,db\n" + "\n".join(rows) + "\n")


def test_plug_in_alpha_beyond_step_exits_2(config_file, tmp_path, capsys):
    target = tmp_path / "path.csv"
    _alternating_path_csv(target)
    cfg = config_file(base_config())
    out = str(tmp_path / "o")
    argv = ["estimate", "--config", cfg, "--out", out, "--set", f"estimate.path_csv={target}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "plug-in" in err and "estimate.alpha_for_correction" in err
    assert main(argv + ["--set", "estimate.alpha_for_correction=1"]) == 0


def test_load_config_fills_defaults_and_converts_floats(config_file):
    config = base_config()
    del config["coupling"], config["clt"]
    config["model"]["alpha"] = 1
    config["coupling"] = {"alphas": [1, 2]}
    typed = load_config(config_file(config))
    assert typed["model"]["alpha"] == 1.0 and type(typed["model"]["alpha"]) is float
    coupling = {"alphas": [1.0, 2.0], "n_periods": 12, "gap0": 1.0, "master_seed": 0}
    assert typed["coupling"] == coupling
    assert typed["estimate"]["path_csv"] is None
    assert typed["clt"] is None


def _schema_entries():
    """(path into base_config(), type, default) for every section, key and
    basis-entry key of the schema; a key's range is left out."""
    entries = []
    for section, (keys, default) in _SCHEMA.items():
        entries.append(((section,), keys, default))
        for key, (kind, key_default, *_range) in keys.items():
            entries.append(((section, key), kind, key_default))
    basis_keys = _SCHEMA["model"][0]["basis"][0][0]
    for key, (kind, default) in basis_keys.items():
        entries.append((("model", "basis", 0, key), kind, default))
    return entries


def _wrong_values(kind, default):
    """Values of a JSON type that ``kind`` does not take."""
    numbers = st.one_of(st.integers(-5, 5), st.floats(-5, 5))
    pool = [st.just(math.nan), st.just(math.inf)]
    if not isinstance(kind, dict):
        pool.append(st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
    if kind is not str:
        pool.append(st.text(max_size=5))
    if kind is not bool:
        pool.append(st.booleans())
    if not isinstance(kind, list):
        pool.append(st.lists(st.integers(), max_size=2))
    else:
        pool.append(st.lists(st.text(max_size=3), max_size=2))  # empty, or wrong elements
    if kind is int:
        pool.append(st.floats(-5, 5))
    elif kind is not float:
        pool.append(numbers)
    if default is not None:
        pool.append(st.none())
    return st.one_of(pool)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_schema_rejects_every_wrong_json_type(data):
    where, kind, default = data.draw(st.sampled_from(_schema_entries()))
    value = data.draw(_wrong_values(kind, default))
    config = base_config()
    node = config
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "config.json"
        target.write_text(json.dumps(config))
        with pytest.raises(InvalidInput):
            load_config(target)


def test_every_exported_name_resolves():
    missing = [name for name in perifou.__all__ if not hasattr(perifou, name)]
    assert not missing


def test_five_exception_classes_all_exported():
    """Every refusal is an InvalidInput; the other classes are caught by name."""
    from perifou import errors

    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    expected = {
        "PerifouError",
        "InvalidInput",
        "DegenerateDesign",
        "NonnegativeEmbeddingFailure",
        "FactorizationFailure",
    }
    assert classes == expected
    assert expected <= set(perifou.__all__)


def _modules_loaded_by(code: str, prefix: str) -> str:
    """The sorted modules under ``prefix`` that a fresh interpreter holds
    after running ``code``."""
    code += f"\nprint(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    src = str(Path(perifou.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "command, overrides, status",
    [
        (None, [], 0),
        ("limits", [], 0),
        ("estimate", [], 0),
        ("estimate", ["estimate.alpha_for_correction=1"], 0),
        ("estimate", ["estimate.alpha_for_correction=1e-4"], 0),
        ("simulate", [], 0),
        ("estimate", ["estimate.path_csv=null"], 0),
        ("coupling", [], 0),
        ("mc-consistency", ["consistency.workers=1"], 0),
        # the study FAILs at n = 12 (exit 1), after it has written all three reports
        ("mc-clt", ["clt.workers=1"], 1),
    ],
    ids=[
        "import", "limits", "csv-estimate-plug-in", "csv-estimate-alpha-1",
        "csv-estimate-alpha-1e-4", "simulate", "simulated-estimate", "coupling",
        "mc-consistency", "mc-clt",
    ],
)
def test_cli_import_limits_and_csv_estimate_load_no_scipy(
    config_file, tmp_path, command, overrides, status
):
    """No command imports scipy: the Euler recursion and the trace
    correction are numpy alone, at every alpha (an incomplete-gamma tail once
    loaded scipy.special below alpha * step = 2e-5, and scipy.signal's lfilter
    once ran the recursion), and the CLT report's normal CDF and quantile
    come from math.erfc and statistics.NormalDist.  Loading scipy costs most
    of a fresh process's start-up."""
    code = "import sys, perifou.cli"
    if command is not None:
        argv = _cli_argv(config_file, tmp_path, command, overrides)
        code += f"\nassert perifou.cli.main({argv!r}) == {status}"
    assert _modules_loaded_by(code, "scipy") == "[]"


def test_mc_clt_runs_where_scipy_cannot_be_imported(config_file, tmp_path):
    """numpy is the only runtime dependency: with every ``import scipy``
    refused, ``mc-clt`` on a two-worker pool exits as it does with scipy
    installed and writes byte-identical reports."""
    argv = _cli_argv(config_file, tmp_path, "mc-clt", []) + ["--workers", "2"]
    src = str(Path(perifou.__file__).resolve().parents[1])
    code = (
        "import sys\nsys.modules['scipy'] = None\nimport perifou.cli\n"
        f"sys.exit(perifou.cli.main({argv!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr  # the study FAILs at n = 12
    assert "Traceback" not in proc.stderr
    assert main(argv + ["--out", str(tmp_path / "normal")]) == 1
    for name in ["clt_replicates.csv", "clt_report.json", "clt_qq.csv"]:
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes()


def _cli_argv(config_file, tmp_path, command, overrides) -> list:
    """argv of ``command`` on the base config; an estimate reads a CSV
    simulated here unless an override says otherwise."""
    config = base_config()
    if command == "estimate":
        assert main(["simulate", "--config", config_file(config), "--out", str(tmp_path)]) == 0
        config["estimate"]["path_csv"] = str(tmp_path / "path.csv")
    argv = [command, "--config", config_file(config), "--out", str(tmp_path / "o")]
    return argv + [arg for item in overrides for arg in ("--set", item)]


@pytest.mark.parametrize("command", [None, "limits"], ids=["import", "limits"])
def test_cli_import_and_limits_load_no_numpy_polynomial(config_file, tmp_path, command):
    """Sigma_0 is in closed form, so nothing builds a Gauss-Legendre table:
    numpy.polynomial and a 64-node leggauss took about half of the import
    of perifou.asymptotics."""
    code = "import sys, perifou.cli"
    if command is not None:
        argv = [command, "--config", config_file(base_config()), "--out", str(tmp_path / "o")]
        code += f"\nassert perifou.cli.main({argv!r}) == 0"
    assert _modules_loaded_by(code, "numpy.polynomial") == "[]"


def test_module_entry_point_prints_help():
    """``python -m perifou.cli`` runs the console entry point."""
    src = str(Path(perifou.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "perifou.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert all(name in proc.stdout for name in _COMMANDS)


def test_cli_import_loads_no_multiprocessing():
    """Only a study's process pool needs concurrent.futures and with it
    multiprocessing, about 18 ms of a fresh import."""
    assert _modules_loaded_by("import sys, perifou.cli", "multiprocessing") == "[]"
