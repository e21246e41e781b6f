"""What code outside the package relies on: the README quick start, the
README's account of the JSON artifacts and config keys, the names the benchmark harness in
perfbench/ imports and traces, and its bit-for-bit replay check."""

import importlib
import importlib.util
import json
import random
import re
import sys
from pathlib import Path

import pytest

from perifou import BasisSet, FouModel, McConfig, limit_summary, run_clt
from perifou.cli import _SCHEMA, main

ROOT = Path(__file__).resolve().parents[1]


def _load_file(monkeypatch, name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_perfbench_workloads_imports_resolve(monkeypatch):
    _load_file(monkeypatch, "perfbench_workloads", ROOT / "perfbench" / "workloads.py")


@pytest.mark.parametrize("name", ["ConsistencyWorkload", "PathCsvWorkload", "CltWorkload"])
def test_perfbench_replay_check_passes(monkeypatch, tmp_path, name):
    """The benchmark replays what the CLI computed through estimate,
    SamplePath, simulate_path and path_from_increments, and counts any
    difference as an incorrect run.  One tiny instance per workload, with a
    tracer so that every unit is replayed."""
    workloads = _load_file(monkeypatch, "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    spans = _load_file(monkeypatch, "perfbench_spans", ROOT / "perfbench" / "spans.py")
    workload = getattr(workloads, name)(tmp_path, random.Random(5), tiny=True)
    inst = workload.instance()
    workloads.run_instance(inst)
    tally = workloads.Tally()
    workload.check(inst, tally, spans.Tracer())
    assert tally.attempted > 0
    assert tally.failed == 0 and tally.correct, dict(tally.reasons)


def test_perfbench_traced_targets_resolve(monkeypatch):
    """The harness skips a target that no longer resolves, so a deleted
    name would silently drop its span.  singular_pair_integral now lives
    with the test oracles; its pair-integral counter read 0 on every
    workload."""
    run = _load_file(monkeypatch, "perfbench_run", ROOT / "perfbench" / "run.py")
    missing = [
        label
        for module, attr, label in run.CLI_TARGETS + run.REPLAY_TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == ["asymptotics.singular_pair_integral"]


def test_readme_documents_every_clt_report_key():
    """clt_report.json gains keys as the study grows; each must be named
    in README.md, in backticks, where the artifacts are described."""
    basis = BasisSet.from_specs([{"kind": "sin", "k": 1}])
    model = FouModel(hurst=0.65, alpha=1.0, mu=(1.0,), sigma=0.5, basis=basis)
    config = McConfig(
        model=model, n_list=(2,), replicates=4, step=1 / 16,
        mode="oracle_divergence", master_seed=1,
    )
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [key for key in run_clt(config).clt if f"`{key}`" not in readme]
    assert missing == []


def test_readme_documents_every_limits_key():
    """limits.json gains keys as the limit theory grows; each key and each
    flag must be named in README.md, in backticks."""
    basis = BasisSet.from_specs([{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}])
    model = FouModel(hurst=0.65, alpha=1.0, mu=(1.0, 2.0), sigma=0.5, basis=basis)
    report = limit_summary(model).report
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [key for key in [*report, *report["flags"]] if f"`{key}`" not in readme]
    assert missing == []


def test_readme_documents_every_config_key():
    """Each _SCHEMA key must have a row in README.md's key table that
    names it in backticks and carries the text of its range, and of its
    entries' range for a list, in backticks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    missing = []
    for section, (keys, _default) in _SCHEMA.items():
        for key, (kind, _key_default, *bound) in keys.items():
            name = f"{section}.{key}"
            ranges = bound + (kind[1:] if isinstance(kind, list) else [])
            texts = [f"`{name}`"] + [f"`{text.removeprefix('be ')}`" for _, text in ranges]
            if not any(all(text in row for text in texts) for row in rows):
                missing.append(name)
    assert missing == []


_SMALL_CONFIG = {
    "model": {
        "hurst": 0.65, "alpha": 1.0, "mu": [1.0, 2.0], "sigma": 0.5,
        "basis": [{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}],
        "step_denominator": 16, "n_periods": 4, "seed": 1, "stationary_start": True,
    },
    "consistency": {"n_list": [2, 4], "replicates": 4, "master_seed": 1},
    "coupling": {"alphas": [1.0], "n_periods": 4},
}


def _artifact(tmp_path, command: str, name: str, overrides=()) -> dict:
    """The JSON file ``name`` that ``perifou command`` writes on _SMALL_CONFIG."""
    config, out = tmp_path / "config.json", tmp_path / command
    config.write_text(json.dumps(_SMALL_CONFIG))
    argv = [command, "--config", str(config), "--out", str(out)]
    assert main(argv + [arg for item in overrides for arg in ("--set", item)]) in (0, 1)
    return json.loads((out / name).read_text())


def _undocumented(keys) -> list:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [key for key in keys if f"`{key}`" not in readme]


def test_readme_documents_every_estimate_key(tmp_path):
    """estimate.json, both the report and the degenerate one (a constant
    path against the constant basis), names each key in README.md."""
    report = _artifact(tmp_path, "estimate", "estimate.json")
    constant = tmp_path / "constant.csv"
    constant.write_text("t,x\n" + "".join(f"{k / 16!r},1\n" for k in range(17)))
    degenerate = _artifact(
        tmp_path, "estimate", "estimate.json",
        ['model.basis=[{"kind": "const"}]', "model.mu=[1]", f"estimate.path_csv={constant}"],
    )
    assert degenerate["degenerate"] is True and "step" in report and "reason" in degenerate
    assert _undocumented([*report, *degenerate]) == []


def test_readme_documents_every_consistency_report_key(tmp_path):
    report = _artifact(tmp_path, "mc-consistency", "consistency_report.json")
    assert _undocumented([*report, *report["aggregates"]["2"]]) == []


def test_readme_documents_every_coupling_report_key(tmp_path):
    report = _artifact(tmp_path, "coupling", "coupling_report.json")
    assert _undocumented([*report, *report["runs"][0]]) == []


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_numpy_is_the_only_runtime_dependency():
    """No command loads scipy, so installing the package needs numpy alone;
    the tests keep scipy as an oracle, in the ``test`` extra."""
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]
