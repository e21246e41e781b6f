"""Command-line driver: config handling, artifacts, round trips."""

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
from perifou.cli import _REQUIRED, _SCHEMA, load_config, main
from perifou.errors import ConfigError


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
    """sigma = 0 makes every stationary sin/cos design degenerate."""
    config = base_config()
    config["model"]["sigma"] = 0.0
    config["clt"].update(n=5, replicates=4)
    out = tmp_path / "clt"
    assert main(["mc-clt", "--config", config_file(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "DegenerateDesign" in err and "only 0 of 4" in err
    assert not out.exists()


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
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


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
    basis-entry key of the schema."""
    entries = []
    for section, (keys, default) in _SCHEMA.items():
        entries.append(((section,), keys, default))
        for key, (kind, key_default) in keys.items():
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
        with pytest.raises(ConfigError):
            load_config(target)


def test_every_exported_name_resolves():
    missing = [name for name in perifou.__all__ if not hasattr(perifou, name)]
    assert not missing


def test_cli_import_loads_neither_scipy_signal_nor_stats():
    """Loading those modules costs most of a fresh process's start-up, and
    the commands that run no recursion never use them."""
    code = (
        "import sys, perifou.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.signal', 'scipy.stats'))))"
    )
    src = str(Path(perifou.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.strip() == "[]"
