"""Command-line driver: config handling, artifacts, round trips."""

import json

import pytest

import perifou
from perifou.cli import main


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


def test_coupling_command(config_file, tmp_path):
    cfg = config_file(base_config())
    out = tmp_path / "cpl"
    assert main(["coupling", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "coupling_report.json").read_text())
    assert len(report["runs"]) == 2
    assert all(run["passed"] for run in report["runs"])
    assert (out / "coupling_decay.csv").exists()


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
    assert "Traceback" not in capsys.readouterr().err


def test_every_exported_name_resolves():
    missing = [name for name in perifou.__all__ if not hasattr(perifou, name)]
    assert not missing
