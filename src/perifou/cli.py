"""Command-line driver: simulate paths, estimate from path files, compute
limit matrices, and run Monte Carlo studies.

One JSON configuration file is shared by all subcommands, with a mandatory
``model`` section and optional per-subcommand sections.  Unknown keys are
rejected rather than ignored, because a silently misspelled ``hurst`` or
``alpha`` would invalidate a whole study.  ``--set section.key=value``
overrides behave exactly as if the file had been edited.

Exit status: 0 on success, 1 when a study reports FAIL, 2 on configuration
or I/O errors.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

from perifou.asymptotics import limit_summary
from perifou.errors import ConfigError, DegenerateDesign, MissingDriver, PerifouError
from perifou.estimator import MODES, estimate
from perifou.experiments import (
    McConfig,
    report_to_dict,
    run_clt,
    run_consistency,
    run_coupling,
    write_coupling_csv,
    write_qq_csv,
    write_replicates_csv,
)
from perifou.model import (
    BasisSet,
    FouModel,
    read_sample_path_csv,
    simulate_path,
    write_sample_path_csv,
)

_MODEL_KEYS = {
    "hurst",
    "alpha",
    "mu",
    "sigma",
    "basis",
    "xi0",
    "step_denominator",
    "n_periods",
    "seed",
    "stationary_start",
}
_MODEL_REQUIRED = {"hurst", "alpha", "mu", "sigma", "basis"}
_ESTIMATE_KEYS = {"mode", "path_csv", "alpha_for_correction"}
_CONSISTENCY_KEYS = {"n_list", "replicates", "mode", "master_seed", "workers"}
_CLT_KEYS = {"n", "replicates", "mode", "master_seed", "workers"}
_COUPLING_KEYS = {"alphas", "n_periods", "gap0", "master_seed"}
_TOP_KEYS = {"model", "estimate", "consistency", "clt", "coupling"}
_BASIS_KEYS = {"kind", "k"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _require(section: dict, keys: set, where: str) -> None:
    missing = keys - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def load_config(path, overrides=()) -> dict:
    """Read, override and structurally validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    config = copy.deepcopy(config)
    for item in overrides:
        _apply_override(config, item)
    _check_keys(config, _TOP_KEYS, "config")
    if "model" not in config:
        raise ConfigError("config needs a 'model' section")
    _check_keys(config["model"], _MODEL_KEYS, "model")
    _require(config["model"], _MODEL_REQUIRED, "model")
    for name, keys in (
        ("estimate", _ESTIMATE_KEYS),
        ("consistency", _CONSISTENCY_KEYS),
        ("clt", _CLT_KEYS),
        ("coupling", _COUPLING_KEYS),
    ):
        if name in config:
            if not isinstance(config[name], dict):
                raise ConfigError(f"section {name} must be an object")
            _check_keys(config[name], keys, name)
    return config


def _apply_override(config: dict, item: str) -> None:
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key=value")
    dotted, raw = item.split("=", 1)
    keys = dotted.split(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {dotted!r} descends into a non-object")
    node[keys[-1]] = value


def build_model(section: dict) -> FouModel:
    """Construct and validate the model from its config section."""
    basis_specs = section["basis"]
    if not isinstance(basis_specs, list) or not basis_specs:
        raise ConfigError("model.basis must be a nonempty list")
    for entry in basis_specs:
        if not isinstance(entry, dict):
            raise ConfigError("model.basis entries must be objects")
        _check_keys(entry, _BASIS_KEYS, "model.basis entry")
        if "kind" not in entry:
            raise ConfigError("model.basis entries need a 'kind'")
    try:
        basis = BasisSet.from_specs(basis_specs)
        basis.validate()
        model = FouModel(
            hurst=float(section["hurst"]),
            alpha=float(section["alpha"]),
            mu=tuple(float(v) for v in section["mu"]),
            sigma=float(section["sigma"]),
            basis=basis,
            xi0=float(section.get("xi0", 0.0)),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return model


def _model_step(section: dict) -> float:
    denom = int(section.get("step_denominator", 256))
    if denom < 1:
        raise ConfigError(f"step_denominator must be >= 1, got {denom}")
    return 1.0 / denom


def _require_clt_range(model: FouModel, where: str) -> None:
    if not model.hurst < 0.75:
        raise ConfigError(
            f"{where} requires hurst in (1/2, 3/4), got {model.hurst}"
        )


def _mode_from(section: dict, default: str = "oracle_divergence") -> str:
    mode = section.get("mode", default)
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(payload: dict, filename: Path) -> None:
    with open(filename, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _simulate(model: FouModel, section: dict):
    return simulate_path(
        model,
        n_periods=int(section.get("n_periods", 10)),
        step=_model_step(section),
        seed=int(section.get("seed", 0)),
        stationary_start=bool(section.get("stationary_start", False)),
    )


def _cmd_simulate(config: dict, args) -> int:
    path = _simulate(build_model(config["model"]), config["model"])
    out = _out_dir(args) / "path.csv"
    write_sample_path_csv(path, out)
    print(f"simulate: wrote {out} ({path.x.size} rows)")
    return 0


def _cmd_estimate(config: dict, args) -> int:
    model = build_model(config["model"])
    section = config.get("estimate", {})
    mode = _mode_from(section)
    model_section = config["model"]
    if section.get("path_csv"):
        path = read_sample_path_csv(
            section["path_csv"],
            model,
            stationary_start=bool(model_section.get("stationary_start", False)),
        )
    else:
        path = _simulate(model, model_section)
    alpha_corr = section.get("alpha_for_correction")
    if alpha_corr is not None and not (
        isinstance(alpha_corr, (int, float)) and 0.0 < alpha_corr * path.step < 1.0
    ):
        raise ConfigError(
            f"estimate.alpha_for_correction={alpha_corr!r} breaks 0 < alpha*step < 1 "
            f"(step {path.step})"
        )
    out = _out_dir(args) / "estimate.json"
    try:
        result = estimate(
            path, mode=mode, sigma=model.sigma, alpha_for_correction=alpha_corr
        )
    except DegenerateDesign as exc:
        _write_json(
            {"mode": mode, "degenerate": True, "reason": str(exc), "theta_hat": None},
            out,
        )
        print(f"estimate: degenerate design ({exc})")
        return 0
    except MissingDriver as exc:
        raise ConfigError(str(exc)) from exc
    report = result.to_report()
    report["step"] = path.step
    _write_json(report, out)
    print(
        "estimate: theta_hat = ["
        + ", ".join(f"{v:.6g}" for v in result.theta_hat)
        + f"] (mode={mode})"
    )
    return 0


def _cmd_limits(config: dict, args) -> int:
    model = build_model(config["model"])
    summary = limit_summary(model)
    out = _out_dir(args) / "limits.json"
    _write_json(summary.to_report(), out)
    flags = []
    if not summary.clt_valid:
        flags.append("clt_invalid")
    if summary.degenerate_limit:
        flags.append("degenerate_limit")
    print(f"limits: wrote {out}" + (f" [{', '.join(flags)}]" if flags else ""))
    return 0


def _mc_config(config: dict, args, section_name: str) -> McConfig:
    model = build_model(config["model"])
    _require_clt_range(model, section_name)
    section = config.get(section_name)
    if section is None:
        raise ConfigError(f"config needs a '{section_name}' section")
    if section_name == "clt":
        _require(section, {"n", "replicates", "master_seed"}, section_name)
        n_list = (int(section["n"]),)
    else:
        _require(section, {"n_list", "replicates", "master_seed"}, section_name)
        n_list = tuple(int(n) for n in section["n_list"])
    workers = args.workers if args.workers else int(section.get("workers", 1))
    try:
        return McConfig(
            model=model,
            n_list=n_list,
            replicates=int(section["replicates"]),
            step=_model_step(config["model"]),
            mode=_mode_from(section),
            master_seed=int(section["master_seed"]),
            workers=workers,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_mc_consistency(config: dict, args) -> int:
    mc = _mc_config(config, args, "consistency")
    report = run_consistency(mc)
    out = _out_dir(args)
    write_replicates_csv(report, out / "consistency_replicates.csv")
    _write_json(report_to_dict(report), out / "consistency_report.json")
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"mc-consistency: {verdict} "
        f"(n={list(mc.n_list)}, R={mc.replicates}, {report.wall_clock:.1f}s)"
    )
    return 0 if report.passed else 1


def _cmd_mc_clt(config: dict, args) -> int:
    mc = _mc_config(config, args, "clt")
    report = run_clt(mc)
    out = _out_dir(args)
    write_replicates_csv(report, out / "clt_replicates.csv")
    _write_json(report_to_dict(report), out / "clt_report.json")
    write_qq_csv(report, out / "clt_qq.csv")
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"mc-clt: {verdict} (n={mc.n_list[0]}, R={mc.replicates}, "
        f"mu-block rel Frobenius finite-horizon={report.finite_horizon_mu_rel_frobenius:.3f}, "
        f"limit={report.mu_block_rel_frobenius:.3f}, "
        f"{report.wall_clock:.1f}s)"
    )
    return 0 if report.passed else 1


def _cmd_coupling(config: dict, args) -> int:
    model = build_model(config["model"])
    section = config.get("coupling", {})
    alphas = section.get("alphas", [model.alpha])
    horizon = int(section.get("n_periods", 12))
    gap0 = float(section.get("gap0", 1.0))
    master_seed = int(section.get("master_seed", 0))
    step = _model_step(config["model"])
    reports = [
        run_coupling(dc_replace(model, alpha=float(alpha)), horizon, step, master_seed, gap0)
        for alpha in alphas
    ]
    out = _out_dir(args)
    write_coupling_csv(reports, out / "coupling_decay.csv")
    payload = {
        "gap0": gap0,
        "runs": [
            {
                "alpha": rep.alpha,
                "slope": rep.slope,
                "exact_match": rep.exact_match,
                "passed": rep.passed,
            }
            for rep in reports
        ],
    }
    _write_json(payload, out / "coupling_report.json")
    passed = all(rep.passed for rep in reports)
    verdict = "PASS" if passed else "FAIL"
    slopes = ", ".join(
        f"alpha={rep.alpha:g}: slope={rep.slope:.4f}" if rep.slope is not None
        else f"alpha={rep.alpha:g}: exact"
        for rep in reports
    )
    print(f"coupling: {verdict} ({slopes})")
    return 0 if passed else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "limits": _cmd_limits,
    "mc-consistency": _cmd_mc_consistency,
    "mc-clt": _cmd_mc_clt,
    "coupling": _cmd_coupling,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perifou",
        description="Simulation and drift estimation for the periodic-mean "
        "fractional Ornstein-Uhlenbeck model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON configuration file")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (dotted path, repeatable)",
        )
        cmd.add_argument(
            "--workers",
            type=int,
            default=0,
            help="worker processes for Monte Carlo studies (0: use config value)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except PerifouError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
