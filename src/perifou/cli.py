"""Command-line driver: simulate paths, estimate from path files, compute
limit matrices, and run Monte Carlo studies.

One JSON configuration file is shared by all subcommands, with a mandatory
``model`` section and optional per-subcommand sections.  ``_SCHEMA`` gives
every key its JSON type, default and range; unknown, missing, mistyped and
out-of-range keys are rejected at load rather than ignored or coerced,
because a misspelled ``hurst`` or a seed of 1.9 run as 1 would invalidate a
whole study.  ``--set section.key=value`` overrides behave exactly as if the
file had been edited.

Exit status: 0 on success, 1 when a study reports FAIL, 2 on configuration,
input or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

from perifou.asymptotics import CLT_HURST_UPPER, limit_summary
from perifou.errors import DegenerateDesign, InvalidInput, PerifouError
from perifou.estimator import MODES, estimate
from perifou.experiments import (
    COUPLING_GAP_FLOOR,
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
    BasisFunction,
    BasisSet,
    FouModel,
    burn_in_periods,
    euler_decay,
    read_sample_path_csv,
    refuse_aliasing,
    simulate_path,
    write_sample_path_csv,
)

_REQUIRED = object()

# Every key as (type, default) or (type, default, range).  float takes any
# finite JSON number, int and bool only their own JSON type; [t] or
# [t, range] is a nonempty array of t and a dict is a nested object.  A key
# whose default is None also takes null.  A range is (predicate, text),
# refused as "<key> must <text>, got <value>" once the type is right.
_AT_LEAST_1 = (lambda v: v >= 1, "be >= 1")
_MODE = (MODES.__contains__, f"be one of {MODES}")
_INCREASING = (lambda v: all(a < b for a, b in zip(v, v[1:])), "be strictly increasing")
_MC_KEYS = {
    "replicates": (int, _REQUIRED, (lambda v: v >= 2, "be >= 2")),
    "mode": (str, "oracle_divergence", _MODE),
    "master_seed": (int, _REQUIRED),
    "workers": (int, 1, _AT_LEAST_1),
}
_SCHEMA = {
    "model": (
        {
            "hurst": (float, _REQUIRED),
            "alpha": (float, _REQUIRED),
            "mu": ([float], _REQUIRED),
            "sigma": (float, _REQUIRED),
            "basis": ([{"kind": (str, _REQUIRED), "k": (int, 0)}], _REQUIRED),
            "xi0": (float, 0.0),
            "step_denominator": (int, 256, _AT_LEAST_1),
            "n_periods": (int, 10, _AT_LEAST_1),
            "seed": (int, 0, (lambda v: v >= 0, "be >= 0")),
            "stationary_start": (bool, False),
        },
        _REQUIRED,
    ),
    "estimate": (
        {
            "mode": (str, "oracle_divergence", _MODE),
            "path_csv": (str, None, (bool, "be nonempty (null simulates a path)")),
            "alpha_for_correction": (float, None),
        },
        {},
    ),
    "consistency": ({"n_list": ([int, _AT_LEAST_1], _REQUIRED, _INCREASING), **_MC_KEYS}, None),
    "clt": ({"n": (int, _REQUIRED, _AT_LEAST_1), **_MC_KEYS}, None),
    "coupling": (
        {
            "alphas": ([float, (lambda v: v > 0.0, "be positive")], None),
            "n_periods": (int, 12, _AT_LEAST_1),
            "gap0": (float, 1.0),
            "master_seed": (int, 0),
        },
        {},
    ),
}


def _typed(value, kind, where: str, bound=None):
    """``value`` checked against the schema entry ``kind`` and its range
    ``bound``, with numbers of float keys converted to float and defaults
    filled in."""
    if isinstance(kind, dict):
        if type(value) is not dict:
            raise InvalidInput(f"{where} must be a JSON object, got {value!r}")
        unknown = sorted(set(value) - set(kind))
        if unknown:
            raise InvalidInput(f"unknown key(s) in {where or 'config'}: {unknown}")
        typed = {}
        for key, (sub, default, *bound) in kind.items():
            name = f"{where}.{key}".lstrip(".")
            if key not in value and default is _REQUIRED:
                raise InvalidInput(f"missing key {name}")
            item = value.get(key, default)
            null = item is None and default is None
            typed[key] = None if null else _typed(item, sub, name, *bound)
        return typed
    if isinstance(kind, list):
        if type(value) is not list or not value:
            raise InvalidInput(f"{where} must be a nonempty list, got {value!r}")
        typed = [_typed(item, kind[0], f"{where}[{i}]", *kind[1:]) for i, item in enumerate(value)]
    elif kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        typed = float(value)
    elif kind is not float and type(value) is kind:
        typed = value
    else:
        raise InvalidInput(f"{where} must be {kind.__name__}, got {value!r}")
    if bound is not None and not bound[0](typed):
        raise InvalidInput(f"{where} must {bound[1]}, got {value!r}")
    return typed


def load_config(path, overrides=()) -> dict:
    """Read a configuration file, apply overrides, and check it against
    ``_SCHEMA``.  Sections come back typed with defaults filled in; an
    absent ``consistency`` or ``clt`` section is None."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise InvalidInput(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise InvalidInput(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise InvalidInput("config root must be a JSON object")
    for item in overrides:
        _apply_override(config, item)
    return _typed(config, _SCHEMA, "")


def _apply_override(config: dict, item: str) -> None:
    if "=" not in item:
        raise InvalidInput(f"override {item!r} is not of the form key=value")
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
            raise InvalidInput(f"override {dotted!r} descends into a non-object")
    node[keys[-1]] = value


def _keyed(prefix: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; an InvalidInput or OSError becomes an InvalidInput with
    ``prefix`` before its message."""
    try:
        return make(*args, **kwargs)
    except (InvalidInput, OSError) as exc:
        raise InvalidInput(f"{prefix}{exc}") from exc


def build_model(section: dict) -> FouModel:
    """Construct the model from its config section."""
    functions = [
        _keyed(f"model.basis[{i}]: ", BasisFunction, spec["kind"], spec.get("k", 0))
        for i, spec in enumerate(section["basis"])
    ]
    return _keyed(  # FouModel's messages start with the field name
        "model.",
        FouModel,
        hurst=section["hurst"],
        alpha=section["alpha"],
        mu=section["mu"],
        sigma=section["sigma"],
        basis=_keyed("model.basis: ", BasisSet, tuple(functions)),
        xi0=section["xi0"],
    )


def _refuse_out(out: Path) -> None:
    """Refuse an --out that is, or lies under, something other than a
    directory, before any work; nothing is created."""
    for place in (out, *out.parents):
        if place.exists():
            if not place.is_dir():
                raise InvalidInput(f"{place} exists and is not a directory")
            return


def _out_dir(args) -> Path:
    out = Path(args.out)
    _keyed("--out: ", out.mkdir, parents=True, exist_ok=True)
    return out


def _write(writer, *args) -> None:
    """``writer(*args)``, an artifact write under --out, whose OSError names --out."""
    _keyed("--out: ", writer, *args)


def _write_json(payload: dict, filename: Path) -> None:
    with open(filename, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _refuse_before_any_path(model: FouModel, m: int) -> None:
    """The Euler decay and refuse_aliasing on one period of the grid of step
    1/m, checked before limit objects, replicates or any path."""
    euler_decay(model.alpha, 1.0 / m)
    refuse_aliasing(model.basis, 1.0 / m)


def _simulate(model: FouModel, section: dict):
    return simulate_path(
        model,
        n_periods=section["n_periods"],
        step=1.0 / section["step_denominator"],
        seed=section["seed"],
        stationary_start=section["stationary_start"],
    )


def _cmd_simulate(config: dict, args) -> int:
    path = _simulate(build_model(config["model"]), config["model"])
    out = _out_dir(args) / "path.csv"
    _write(write_sample_path_csv, path, out)
    print(f"simulate: wrote {out} ({path.x.size} rows)")
    return 0


def _cmd_estimate(config: dict, args) -> int:
    model = build_model(config["model"])
    section = config["estimate"]
    mode = section["mode"]
    if mode == "naive_pathwise" and section["alpha_for_correction"] is not None:
        raise InvalidInput(
            f"estimate.alpha_for_correction = {section['alpha_for_correction']!r} has no use in "
            "estimate.mode = 'naive_pathwise', which applies no trace correction; set it to null"
        )
    model_section = config["model"]
    csv, start = section["path_csv"], model_section["stationary_start"]
    if csv is not None:  # the grid is in the file
        path = _keyed("estimate.path_csv: ", read_sample_path_csv, csv, model, start)
        m = path.steps_per_period
        refuse_aliasing(model.basis, path.step, f"the grid of estimate.path_csv (step 1/{m})")
    else:
        _refuse_before_any_path(model, model_section["step_denominator"])
        path = _simulate(model, model_section)
    out = _out_dir(args) / "estimate.json"
    try:
        result = estimate(
            path, mode=mode, sigma=model.sigma, alpha_for_correction=section["alpha_for_correction"]
        )
    except DegenerateDesign as exc:
        _write(
            _write_json,
            {"mode": mode, "degenerate": True, "reason": str(exc), "theta_hat": None},
            out,
        )
        print(f"estimate: degenerate design ({exc})")
        return 0
    report = result.to_report()
    report["step"] = path.step
    _write(_write_json, report, out)
    print(
        "estimate: theta_hat = ["
        + ", ".join(f"{v:.6g}" for v in result.theta_hat)
        + f"] (mode={mode})"
    )
    return 0


def _cmd_limits(config: dict, args) -> int:
    model = build_model(config["model"])
    report = limit_summary(model).report
    out = _out_dir(args) / "limits.json"
    _write(_write_json, report, out)
    flags = [] if report["flags"]["clt_valid"] else ["clt_invalid"]
    if report["flags"]["degenerate_limit"]:
        flags.append("degenerate_limit")
    print(f"limits: wrote {out}" + (f" [{', '.join(flags)}]" if flags else ""))
    return 0


def _mc_config(config: dict, args, section_name: str) -> McConfig:
    model = build_model(config["model"])
    if not model.hurst < CLT_HURST_UPPER:
        raise InvalidInput(
            f"{section_name} requires model.hurst < {CLT_HURST_UPPER}, got {model.hurst}"
        )
    section = config[section_name]
    if section is None:
        raise InvalidInput(f"config needs a '{section_name}' section")
    if section_name == "consistency":
        n_list = section["n_list"]
        keys = [f"consistency.n_list[{i}]" for i in range(len(n_list))]
    else:
        n_list, keys = [section["n"]], ["clt.n"]
    m = config["model"]["step_denominator"]
    _refuse_before_any_path(model, m)
    for n, key in zip(n_list, keys):  # every replicate starts stationary; refuse before any runs
        burn_in_periods(model.alpha, n, m, True, (key, "model.alpha"))
    return McConfig(
        model=model,
        n_list=n_list,
        replicates=section["replicates"],
        step=1.0 / m,
        mode=section["mode"],
        master_seed=section["master_seed"],
        workers=args.workers or section["workers"],
    )


def _cmd_mc_consistency(config: dict, args) -> int:
    mc = _mc_config(config, args, "consistency")
    report = run_consistency(mc)
    out = _out_dir(args)
    _write(write_replicates_csv, report, out / "consistency_replicates.csv")
    _write(_write_json, report_to_dict(report), out / "consistency_report.json")
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"mc-consistency: {verdict} "
        f"(n={list(mc.n_list)}, R={mc.replicates}, {report.ran_on}, {report.wall_clock:.1f}s)"
    )
    return 0 if report.passed else 1


def _cmd_mc_clt(config: dict, args) -> int:
    mc = _mc_config(config, args, "clt")
    report = run_clt(mc)
    out = _out_dir(args)
    _write(write_replicates_csv, report, out / "clt_replicates.csv")
    _write(_write_json, report_to_dict(report), out / "clt_report.json")
    _write(write_qq_csv, report, out / "clt_qq.csv")
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"mc-clt: {verdict} (n={mc.n_list[0]}, R={mc.replicates}, "
        "mu-block rel Frobenius "
        f"finite-horizon={report.clt['finite_horizon_mu_rel_frobenius']:.3f}, "
        f"limit={report.clt['mu_block_rel_frobenius']:.3f}, "
        f"{report.ran_on}, {report.wall_clock:.1f}s)"
    )
    return 0 if report.passed else 1


def _cmd_coupling(config: dict, args) -> int:
    model = build_model(config["model"])
    section = config["coupling"]
    horizon = section["n_periods"]
    gap0 = section["gap0"]
    master_seed = section["master_seed"]
    m = config["model"]["step_denominator"]
    step = 1.0 / m
    alphas = section["alphas"] or [model.alpha]
    for i, alpha in enumerate(alphas):  # refuse before any run
        key = f"coupling.alphas[{i}]" if section["alphas"] else "model.alpha"
        euler_decay(alpha, step, key)
        burn_in_periods(alpha, horizon, m, True, ("coupling.n_periods", key))
    reports = [
        run_coupling(dc_replace(model, alpha=alpha), horizon, step, master_seed, gap0)
        for alpha in alphas
    ]
    out = _out_dir(args)
    _write(write_coupling_csv, reports, out / "coupling_decay.csv")
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
    _write(_write_json, payload, out / "coupling_report.json")
    passed = all(rep.passed for rep in reports)
    verdict = "PASS" if passed else "FAIL"

    def outcome(rep) -> str:
        if rep.slope is not None:
            return f"slope={rep.slope:.4f}"
        if rep.exact_match:
            return "exact"
        return f"no slope (fewer than 3 gaps above {COUPLING_GAP_FLOOR:g})"

    slopes = ", ".join(f"alpha={rep.alpha:g}: {outcome(rep)}" for rep in reports)
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


def main(argv=None) -> int:
    # Built afresh on each call: one flat parser costs about 0.2 ms, a
    # subparser tree per command about 1.1 ms.
    parser = argparse.ArgumentParser(
        prog="perifou",
        description="Simulation and drift estimation for the periodic-mean "
        "fractional Ornstein-Uhlenbeck model.",
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to run")
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry (dotted path, repeatable)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        help="worker processes for mc-consistency and mc-clt (0: use config value)",
    )
    args = parser.parse_args(argv)
    if args.workers is not None and not args.command.startswith("mc-"):
        parser.error(f"--workers applies to mc-consistency and mc-clt only, not {args.command}")
    if args.workers is not None and args.workers < 0:
        parser.error(f"--workers must be >= 0 (0: the config value), got {args.workers}")
    try:
        config = load_config(args.config, args.overrides)
        _keyed("--out: ", _refuse_out, Path(args.out))
        return _COMMANDS[args.command](config, args)
    except (PerifouError, OSError) as exc:
        print(f"perifou {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
