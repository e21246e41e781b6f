"""perifou benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload clt-n200-w2 --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src.  With
``--trace 0`` the workload's CLI calls run untraced, back to back, for
``--seconds`` and the end-to-end metrics are printed.  With ``--trace 1``
each instance runs untraced, then again with spans around the package's
public functions, and every unit is replayed serially with spans; the
per-layer metrics are printed.  The last line of standard output is the
result object; the lines before it are a readable summary and the run
record (machine, versions, thread env, seed, checks).  Spans and the
record are also written under .perfbench/.

``--tiny`` shrinks every workload to seconds, for the self-tests.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

PER_LAYER = {
    "fgn.draw_ms.p50": "ms",
    "fgn.draw_ms.p90": "ms",
    "fgn.draws": "count",
    "fgn.ns_per_increment": "ns",
    "fgn.cholesky_fallbacks": "count",
    "fgn.self_ms": "ms",
    "model.euler_ms": "ms",
    "model.burn_in_share": "ratio",
    "model.csv_write_ms": "ms",
    "model.csv_read_ms": "ms",
    "model.csv_bytes": "bytes",
    "model.self_ms": "ms",
    "estimator.design_ms": "ms",
    "estimator.trace_ms": "ms",
    "estimator.estimate_ms": "ms",
    "estimator.degenerate": "count",
    "estimator.self_ms": "ms",
    "asymptotics.limit_summary_ms": "ms",
    "asymptotics.noise_cov_ms": "ms",
    "asymptotics.pair_integrals": "count",
    "asymptotics.self_ms": "ms",
    "experiments.replicate_ms.p50": "ms",
    "experiments.replicate_ms.p90": "ms",
    "experiments.parallel_efficiency": "ratio",
    "experiments.aggregate_ms": "ms",
    "experiments.write_ms": "ms",
    "experiments.nonfinite_cells": "count",
    "experiments.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.config_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}

# Public functions the CLI process calls, traced during the traced CLI call.
# Unit-level work (sampler, Euler, estimate) is traced by the replay instead,
# because with workers > 1 it runs in pool processes.
CLI_TARGETS = (
    ("perifou.cli", "load_config", "cli.load_config"),
    ("perifou.cli", "build_model", "cli.build_model"),
    ("perifou.cli", "run_clt", "experiments.run_clt"),
    ("perifou.cli", "run_consistency", "experiments.run_consistency"),
    ("perifou.cli", "limit_summary", "asymptotics.limit_summary"),
    ("perifou.experiments", "limit_summary", "asymptotics.limit_summary"),
    ("perifou.asymptotics", "noise_covariance_limit", "asymptotics.noise_covariance_limit"),
    ("perifou.asymptotics", "singular_pair_integral", "asymptotics.singular_pair_integral"),
    ("perifou.experiments", "aggregate_rows", "experiments.aggregate_rows"),
    ("perifou.cli", "write_replicates_csv", "experiments.write_replicates_csv"),
    ("perifou.cli", "write_qq_csv", "experiments.write_qq_csv"),
    ("perifou.cli", "report_to_dict", "experiments.report_to_dict"),
    ("perifou.cli", "write_sample_path_csv", "model.write_sample_path_csv"),
    ("perifou.cli", "read_sample_path_csv", "model.read_sample_path_csv"),
)
# Functions that ``estimate`` calls, traced while units are replayed.
REPLAY_TARGETS = (
    ("perifou.estimator", "build_design", "estimator.build_design"),
    ("perifou.estimator", "discrete_trace_correction", "estimator.discrete_trace_correction"),
)
WRITERS = (
    "experiments.write_replicates_csv",
    "experiments.write_qq_csv",
    "experiments.report_to_dict",
)

SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
import perifou.cli as cli
imported = time.perf_counter()
cli.build_model(cli.load_config(sys.argv[1])["model"])
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "config_s": done - imported}))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload")
    return parser.parse_args(argv)


def clear_caches() -> None:
    """Empty the package's in-process caches, so every instance pays what a
    fresh CLI process pays."""
    for name, module in list(sys.modules.items()):
        if name.startswith("perifou"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(config_file: str, repeats: int) -> list:
    """Fresh-interpreter ``import perifou.cli`` plus load_config/build_model."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, config_file],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for source in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(source.relative_to(ROOT)).encode())
        digest.update(source.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _has_attr(module_name: str, attr: str) -> bool:
    return hasattr(importlib.import_module(module_name), attr)


def same_tree(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a
    )


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _upper_quartile(values) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(tracer, tally, count, walls, overheads, setups, workers) -> dict:
    ms = tracer.durations_ms
    draws = ms("fgn.generate_fgn_circulant") + ms("fgn.generate_fgn_cholesky")
    own = tracer.self_ns()
    self_ms = {}
    for (name, *_), ns in zip(tracer.spans, own):
        layer = name.split(".")[0]
        self_ms[layer] = self_ms.get(layer, 0.0) + ns / 1e6
    replicates = ms("experiments.replicate")
    writes = sum(sum(ms(name)) for name in WRITERS)
    return {
        "fgn.draw_ms.p50": _median(draws),
        "fgn.draw_ms.p90": _p90(draws),
        "fgn.draws": len(draws) / count,
        "fgn.ns_per_increment": sum(draws) * 1e6 / tally.increments if draws else 0.0,
        "fgn.cholesky_fallbacks": len(ms("fgn.generate_fgn_cholesky")) / count,
        "model.euler_ms": _mean(ms("model.path_from_increments")),
        "model.burn_in_share": tally.burn_steps / tally.total_steps if tally.total_steps else 0.0,
        "model.csv_write_ms": _mean(ms("model.write_sample_path_csv")),
        "model.csv_read_ms": _mean(ms("model.read_sample_path_csv")),
        "model.csv_bytes": _mean(tally.csv_bytes),
        "estimator.design_ms": _mean(ms("estimator.build_design")),
        "estimator.trace_ms": _mean(ms("estimator.discrete_trace_correction")),
        "estimator.estimate_ms": _mean(ms("estimator.estimate")),
        "estimator.degenerate": tally.degenerate / count,
        "asymptotics.limit_summary_ms": _mean(ms("asymptotics.limit_summary")),
        "asymptotics.noise_cov_ms": _mean(ms("asymptotics.noise_covariance_limit")),
        "asymptotics.pair_integrals": len(ms("asymptotics.singular_pair_integral")) / count,
        "experiments.replicate_ms.p50": _median(replicates),
        "experiments.replicate_ms.p90": _p90(replicates),
        "experiments.parallel_efficiency": (
            sum(replicates) / (workers * 1e3 * sum(walls)) if replicates else 0.0
        ),
        "experiments.aggregate_ms": _mean(ms("experiments.aggregate_rows")),
        "experiments.write_ms": writes / count,
        "experiments.nonfinite_cells": sum(tally.nonfinite_cells.values()) / count,
        "cli.import_ms": 1e3 * _median([s["import_s"] for s in setups]),
        "cli.config_ms": 1e3 * _median([s["config_s"] for s in setups]),
        "trace.overhead_ms": 1e3 * _median(overheads),
        "trace.spans": len(tracer.spans) / count,
        **{f"{layer}.self_ms": self_ms.get(layer, 0.0) / count for layer in
           ("fgn", "model", "estimator", "asymptotics", "experiments", "cli")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "perifou" / "__init__.py").is_file():
        print(f"benchmark: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pinned before numpy loads; pool workers and setup runs inherit it.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    workloads.remove(work)
    work.mkdir(parents=True)
    rng = random.Random(args.seed)
    workload = workloads.WORKLOADS[args.workload](work, rng, args.tiny)
    tally = workloads.Tally()
    tracer = spans.Tracer()
    # A target a later version of the package no longer has is skipped and
    # listed in the record.
    cli_targets = [t for t in CLI_TARGETS if _has_attr(*t[:2])]
    replay_targets = [t for t in REPLAY_TARGETS if _has_attr(*t[:2])]

    warm = workload.warmup()
    workloads.run_instance(warm)
    workloads.remove(warm.out)

    instances, walls, overheads = [], [], []
    start = time.perf_counter()
    while not instances or time.perf_counter() - start < args.seconds:
        inst = workload.instance()
        clear_caches()
        walls.append(workloads.run_instance(inst))
        instances.append(inst)
        if args.trace:
            traced_out = inst.out.with_name(inst.out.name + "-traced")
            traced = workloads.Instance(
                inst.index, traced_out,
                [[a.replace(str(inst.out), str(traced_out)) for a in argv] for argv in inst.calls],
                inst.units,
            )
            clear_caches()
            with tracer.patched(cli_targets):
                overheads.append(workloads.run_instance(traced, tracer) - walls[-1])
            tally.op(same_tree(inst.out, traced_out), "traced_cli_output_differs")
            with tracer.patched(replay_targets):
                workload.check(inst, tally, tracer)
            workloads.remove(traced_out)
        else:
            workload.check(inst, tally)
        workloads.remove(inst.out)
    measured = time.perf_counter() - start
    rss = peak_rss_mb()
    setups = measure_setup(workload.setup_config(), 1 if args.tiny else SETUP_REPEATS)

    units = instances[0].units
    # The upper quartile, not the median: this machine alternates between CPU
    # regimes about 1.5x apart, and the upper quartile reads the common slow
    # regime whenever a quarter of the run is in it (see README.md).
    wall = _upper_quartile(walls)
    if args.trace:
        metrics = layer_metrics(
            tracer, tally, len(instances), walls, overheads, setups, workload.workers
        )
        units_table = PER_LAYER
    else:
        metrics = {
            "setup_s": _median([s["import_s"] + s["config_s"] for s in setups]),
            "wall_s": wall,
            "throughput_per_s": units / wall,
            "peak_rss_mb": rss,
            "success_ratio": 1.0 - tally.failed / tally.attempted,
        }
        units_table = END_TO_END

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "measured_s": measured,
        "trace": args.trace,
        "tiny": args.tiny,
        "instances": len(instances),
        "units_per_instance": units,
        "units": workload.units_label,
        "workers": workload.workers,
        "instance_walls_s": walls,
        "setup_runs": setups,
        "machine": machine_record(),
        "checks": {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failed_ratio": tally.failed / tally.attempted,
            "failures": dict(tally.reasons),
            "nonfinite_cells": dict(tally.nonfinite_cells),
        },
    }
    if args.trace:
        record["untraced_targets"] = [t[2] for t in CLI_TARGETS + REPLAY_TARGETS
                                      if t not in cli_targets + replay_targets]
        tracer.dump(work / "spans.jsonl")
    (work / "record.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    print(f"workload {args.workload}: {len(instances)} instance(s) of {units} "
          f"{workload.units_label}, seed {args.seed}, {measured:.1f} s measured")
    print(f"  instance wall: median {_median(walls):.6g} s, "
          f"upper quartile {_upper_quartile(walls):.6g} s, n={len(walls)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units_table[name]}")
    print(f"  failed_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    for reason, count in sorted(tally.reasons.items()):
        print(f"    failed: {reason} x{count}")
    for name, cells in sorted(tally.nonfinite_cells.items()):
        if cells:
            print(f"    non-finite cells in {name}: {cells}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units_table[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
