"""The four benchmark workloads: configs, CLI calls, output checks, replay.

Each workload turns the benchmark seed into config files and a stream of
*instances*.  An instance is the CLI call (or calls) that make one timed
measurement; its *units* are the replicates, models or paths it computes.
README.md in this directory says why each workload exists.

Operations counted by the checks: every unit and every artifact file.  A
unit fails on exit status 2 or an exception, a degenerate or non-finite
theta_hat, a replay theta_hat that differs bit for bit from the artifact,
or (path workload) a CSV theta_hat that differs from the in-memory one.
An artifact fails when it is missing or holds a non-finite cell.  A study
verdict of FAIL (exit status 1) is a research result, not a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perifou import cli
from perifou.errors import DegenerateDesign, NonnegativeEmbeddingFailure
from perifou.estimator import estimate
from perifou.fgn import FgnSpec, generate_fgn_cholesky, generate_fgn_circulant, substream_seed
from perifou.model import BURN_IN_FORGETTING, SamplePath, path_from_increments, simulate_path

WORKERS = 2

SIN_COS = [{"kind": "sin", "k": 1}, {"kind": "cos", "k": 1}]
P7_BASIS = [{"kind": "const"}] + [
    {"kind": kind, "k": k} for k in (1, 2, 3) for kind in ("sin", "cos")
]

# The model of configs/acceptance.json, restated so that editing that
# example file does not change the benchmark.
ACCEPTANCE_MODEL = {
    "hurst": 0.65,
    "alpha": 1.0,
    "mu": [1.0, 2.0],
    "sigma": 0.5,
    "basis": SIN_COS,
    "xi0": 0.0,
    "step_denominator": 256,
    "n_periods": 200,
    "seed": 0,
    "stationary_start": True,
}

# How Python formats non-finite floats in a CSV cell.
NONFINITE_TOKENS = {"nan", "inf", "-inf"}

# Failure kinds that leave every computed theta_hat verified; everything
# else also makes the run incorrect.
ARTIFACT_FAILURE = "nonfinite_artifact"


@dataclass
class Instance:
    index: int
    out: Path
    calls: list
    units: int
    seeds: dict = field(default_factory=dict)
    statuses: list = field(default_factory=list)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    nonfinite_cells: Counter = field(default_factory=Counter)
    degenerate: int = 0
    burn_steps: int = 0
    total_steps: int = 0
    increments: int = 0
    csv_bytes: list = field(default_factory=list)

    def op(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] += 1

    @property
    def correct(self) -> bool:
        return all(reason.startswith(ARTIFACT_FAILURE) for reason in self.reasons)


def _span(tracer, name, unit=None):
    return tracer.span(name, unit) if tracer is not None else contextlib.nullcontext()


def call_cli(argv) -> int:
    """One in-process CLI call; its console output is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except Exception:  # noqa: BLE001 - a traceback is a failed operation
            return -1


def run_instance(instance: Instance, tracer=None) -> float:
    """Run the instance's CLI calls in order; return their total wall time."""
    instance.statuses = []
    start = time.perf_counter()
    for argv in instance.calls:
        with _span(tracer, "cli.main", f"{instance.index}"):
            instance.statuses.append(call_cli(argv))
    return time.perf_counter() - start


def count_nonfinite(filename: Path) -> int:
    text = filename.read_text(encoding="utf-8")
    if filename.suffix == ".json":
        def walk(node):
            if isinstance(node, float):
                return 0 if math.isfinite(node) else 1
            if isinstance(node, dict):
                return sum(walk(v) for v in node.values())
            if isinstance(node, list):
                return sum(walk(v) for v in node)
            return 0

        return walk(json.loads(text))
    cells = text.replace("\n", ",").split(",")
    return sum(1 for cell in cells if cell.strip().lower() in NONFINITE_TOKENS)


def check_artifacts(out: Path, names, tally: Tally) -> None:
    for name in names:
        filename = out / name
        if not filename.is_file():
            tally.op(False, f"missing_artifact:{name}")
            continue
        bad = count_nonfinite(filename)
        tally.nonfinite_cells[name] += bad
        tally.op(bad == 0, f"{ARTIFACT_FAILURE}:{name}")


def replay_path(model, n_periods: int, step: float, seed: int, tracer, tally: Tally):
    """Stationary-start path of ``simulate_path``, with sampler and Euler split.

    Restates simulate_path's burn-in rule; if that rule changes, the replay
    stops matching the CLI and the check reports it.
    """
    m = round(1.0 / step)
    n_burn = math.ceil(math.log(1.0 / BURN_IN_FORGETTING) / model.alpha) * m
    n_keep = n_periods * m
    spec = FgnSpec(model.hurst, step, n_keep + n_burn, seed)
    try:
        with _span(tracer, "fgn.generate_fgn_circulant"):
            increments = generate_fgn_circulant(spec)
    except NonnegativeEmbeddingFailure:
        with _span(tracer, "fgn.generate_fgn_cholesky"):
            increments = generate_fgn_cholesky(spec)
    with _span(tracer, "model.path_from_increments"):
        full = path_from_increments(model, increments, model.xi0, step)
    tally.burn_steps += n_burn
    tally.total_steps += n_keep + n_burn
    tally.increments += spec.count
    return SamplePath(
        grid=np.arange(n_keep + 1) * step,
        x=full.x[n_burn:],
        driver_increments=increments[n_burn:],
        model=model,
        stationary_start=True,
    )


def replay_estimate(path, mode, tracer, tally: Tally, alpha_for_correction=None):
    try:
        with _span(tracer, "estimator.estimate"):
            result = estimate(
                path,
                mode=mode,
                sigma=path.model.sigma,
                alpha_for_correction=alpha_for_correction,
            )
    except DegenerateDesign:
        tally.degenerate += 1
        return None
    return tuple(float(v) for v in result.theta_hat)


def _theta_ok(theta) -> bool:
    return theta is not None and all(math.isfinite(v) for v in theta)


def _write_config(filename: Path, config: dict) -> str:
    filename.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return str(filename)


def _mu(rng, p: int) -> list:
    return [round(rng.uniform(-2.0, 2.0), 3) for _ in range(p)]


class Workload:
    name = ""
    units_label = ""

    def __init__(self, work: Path, rng, tiny: bool):
        self.work = work
        self.rng = rng
        self.tiny = tiny
        self.count = 0

    workers = 1

    def out_dir(self, tag: str) -> Path:
        self.count += 1
        return self.work / f"{tag}{self.count}"

    def setup_config(self) -> str:
        """Config file whose load and model build ``setup_s`` times."""
        raise NotImplementedError

    def warmup(self) -> Instance:
        return self.instance()

    def instance(self) -> Instance:
        raise NotImplementedError

    def check(self, inst: Instance, tally: Tally, tracer=None) -> None:
        raise NotImplementedError


class _McWorkload(Workload):
    """Shared by the two Monte Carlo study workloads."""

    command = ""
    section = ""
    artifacts = ()
    units_label = "replicates"

    def __init__(self, work, rng, tiny):
        super().__init__(work, rng, tiny)
        self.config = self._config()
        self.config_file = _write_config(work / "config.json", self.config)
        self.model = cli.build_model(self.config["model"])
        self.step = 1.0 / self.config["model"]["step_denominator"]
        section = self.config[self.section]
        self.mode = section["mode"]
        self.n_list = section["n_list"] if "n_list" in section else [section["n"]]
        self.replicates = section["replicates"]

    def _config(self) -> dict:
        raise NotImplementedError

    def setup_config(self) -> str:
        return self.config_file

    def warmup(self) -> Instance:
        inst = self.instance()
        inst.calls[0] += ["--set", f"{self.section}.replicates=4"]
        return inst

    def instance(self) -> Instance:
        out = self.out_dir("mc")
        master = self.rng.randrange(1 << 31)
        argv = [
            self.command, "--config", self.config_file, "--out", str(out),
            "--workers", str(self.workers),
            "--set", f"{self.section}.master_seed={master}",
        ]
        units = self.replicates * len(self.n_list)
        return Instance(self.count, out, [argv], units, {"master_seed": master})

    def check(self, inst, tally, tracer=None):
        """All rows are checked; one sampled replicate is replayed, or every
        replicate when tracing."""
        master = inst.seeds["master_seed"]
        rows = {}
        table = inst.out / self.artifacts[0]
        if inst.statuses[0] in (0, 1) and table.is_file():
            for line in table.read_text(encoding="utf-8").splitlines()[1:]:
                parts = line.split(",")
                theta = None
                if parts[-1] == "0":
                    theta = tuple(float(v) for v in parts[3:-1])
                rows[(int(parts[0]), int(parts[1]))] = (int(parts[2]), theta)
        jobs = [(n, r) for n in self.n_list for r in range(self.replicates)]
        if tracer is None:
            replayed = {jobs[self.rng.randrange(len(jobs))]}
        else:
            replayed = set(jobs)
        for job in jobs:
            if job not in rows:
                tally.op(False, f"exit_{inst.statuses[0]}")
                continue
            seed, theta = rows[job]
            n, r = job
            if seed != substream_seed(master, n, r):
                tally.op(False, "seed_mismatch")
            elif not _theta_ok(theta):
                tally.op(False, "degenerate_or_nonfinite_theta")
            elif job in replayed and self.replay(job, seed, tracer, tally) != theta:
                tally.op(False, "replay_mismatch")
            else:
                tally.op(True)
        check_artifacts(inst.out, self.artifacts, tally)

    def replay(self, job, seed, tracer, tally):
        n, r = job
        with _span(tracer, "experiments.replicate", f"{n}/{r}"):
            path = replay_path(self.model, n, self.step, seed, tracer, tally)
            alpha_ref = self.model.alpha if self.mode == "oracle_divergence" else None
            return replay_estimate(path, self.mode, tracer, tally, alpha_ref)


class CltWorkload(_McWorkload):
    """mc-clt on the acceptance model at n=200 over two pool workers."""

    name = "clt-n200-w2"
    command = "mc-clt"
    section = "clt"
    artifacts = ("clt_replicates.csv", "clt_report.json", "clt_qq.csv")
    workers = WORKERS

    def _config(self):
        model = dict(ACCEPTANCE_MODEL)
        n, replicates = (4, 4) if self.tiny else (200, 200)
        clt = {
            "n": n,
            "replicates": replicates,
            "mode": "oracle_divergence",
            "master_seed": 0,
            "workers": WORKERS,
        }
        return {"model": model, "clt": clt}


class ConsistencyWorkload(_McWorkload):
    """Serial mc-consistency, short horizons, 7-function basis, alpha=4."""

    name = "consistency-p7-short"
    command = "mc-consistency"
    section = "consistency"
    artifacts = ("consistency_replicates.csv", "consistency_report.json")

    def _config(self):
        model = dict(ACCEPTANCE_MODEL, alpha=4.0, basis=P7_BASIS, mu=_mu(self.rng, 7))
        n_list, replicates = ([2, 3], 3) if self.tiny else ([10, 25], 100)
        consistency = {
            "n_list": n_list,
            "replicates": replicates,
            "mode": "oracle_divergence",
            "master_seed": 0,
            "workers": 1,
        }
        return {"model": model, "consistency": consistency}


class LimitsWorkload(Workload):
    """limits over H x alpha x basis.  An instance is one (H, alpha) point at
    both bases; instances walk the grid in a seeded order."""

    name = "limits-grid"
    units_label = "models"
    HURSTS = (0.55, 0.6, 0.65, 0.7)
    ALPHAS = (0.5, 1.0, 2.0)

    def __init__(self, work, rng, tiny):
        super().__init__(work, rng, tiny)
        self.configs = {}
        for p, basis in ((2, SIN_COS), (7, P7_BASIS)):
            model = dict(
                ACCEPTANCE_MODEL,
                basis=basis,
                mu=_mu(rng, p),
                sigma=round(rng.uniform(0.25, 1.0), 3),
            )
            self.configs[p] = _write_config(work / f"config_p{p}.json", {"model": model})
        self.points = [(h, a) for h in self.HURSTS for a in self.ALPHAS]
        rng.shuffle(self.points)
        if tiny:
            self.points = self.points[:1]

    def setup_config(self) -> str:
        return self.configs[7]

    def instance(self) -> Instance:
        out = self.out_dir("limits")
        h, a = self.points[(self.count - 1) % len(self.points)]
        calls = [
            [
                "limits", "--config", self.configs[p], "--out", str(out / f"p{p}"),
                "--set", f"model.hurst={h}", "--set", f"model.alpha={a}",
            ]
            for p in sorted(self.configs)
        ]
        return Instance(self.count, out, calls, len(calls))

    def check(self, inst, tally, tracer=None):
        for argv, status in zip(inst.calls, inst.statuses):
            tally.op(status == 0, f"exit_{status}")
            check_artifacts(Path(argv[argv.index("--out") + 1]), ("limits.json",), tally)


class PathCsvWorkload(Workload):
    """simulate a stationary path at n=200, then estimate it from path.csv."""

    name = "path-csv-roundtrip"
    units_label = "paths"

    def __init__(self, work, rng, tiny):
        super().__init__(work, rng, tiny)
        n = 2 if tiny else 200
        self.n_periods = n
        self.config = {
            "model": dict(ACCEPTANCE_MODEL, n_periods=n),
            "estimate": {
                "mode": "oracle_divergence",
                "path_csv": None,
                "alpha_for_correction": None,
            },
        }
        self.config_file = _write_config(work / "config.json", self.config)
        self.model = cli.build_model(self.config["model"])
        self.step = 1.0 / self.config["model"]["step_denominator"]

    def setup_config(self) -> str:
        return self.config_file

    def instance(self) -> Instance:
        out = self.out_dir("path")
        seed = self.rng.randrange(1 << 31)
        common = ["--config", self.config_file, "--out", str(out), "--set", f"model.seed={seed}"]
        calls = [
            ["simulate"] + common,
            ["estimate"] + common + ["--set", f"estimate.path_csv={out / 'path.csv'}"],
        ]
        return Instance(self.count, out, calls, 1, {"seed": seed})

    def check(self, inst, tally, tracer=None):
        """The CLI estimate reads path.csv; it must equal the estimate of the
        in-memory path (replayed with sampler and Euler split when tracing)."""
        check_artifacts(inst.out, ("path.csv", "estimate.json"), tally)
        if (inst.out / "path.csv").is_file():
            tally.csv_bytes.append((inst.out / "path.csv").stat().st_size)
        report_file = inst.out / "estimate.json"
        theta = None
        if all(s == 0 for s in inst.statuses) and report_file.is_file():
            theta = json.loads(report_file.read_text(encoding="utf-8"))["theta_hat"]
            theta = None if theta is None else tuple(theta)
        if not _theta_ok(theta):
            failed = [s for s in inst.statuses if s != 0]
            tally.op(False, f"exit_{failed[0]}" if failed else "degenerate_or_nonfinite_theta")
            return
        seed = inst.seeds["seed"]
        with _span(tracer, "unit.path", f"{inst.index}"):
            if tracer is None:
                path = simulate_path(self.model, self.n_periods, self.step, seed, True)
            else:
                path = replay_path(self.model, self.n_periods, self.step, seed, tracer, tally)
            in_memory = replay_estimate(path, "oracle_divergence", tracer, tally)
        tally.op(in_memory == theta, "csv_theta_differs_from_in_memory")


WORKLOADS = {
    cls.name: cls
    for cls in (CltWorkload, ConsistencyWorkload, LimitsWorkload, PathCsvWorkload)
}


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
