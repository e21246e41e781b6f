"""Self-tests of the benchmark at a tiny size (under a minute).

    python3 perfbench/selftest.py

Checks that every workload runs in both modes, that every printed metric
name and unit matches BENCHMARK.json, that an injected non-finite artifact
cell raises the failed count, and that the benchmark refuses to run
without the package source.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_workload_prints_the_declared_metrics(self):
        declared = {
            0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_benchmark(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared[trace])

    def test_injected_nonfinite_cell_counts_as_failed(self):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import workloads

        work = SCRATCH / "inject"
        workloads.remove(work)
        work.mkdir(parents=True)
        workload = workloads.ConsistencyWorkload(work, random.Random(5), tiny=True)
        inst = workload.instance()
        workloads.run_instance(inst)
        clean = workloads.Tally()
        workload.check(inst, clean)
        self.assertEqual(clean.failed, 0)

        report = inst.out / "consistency_report.json"
        payload = json.loads(report.read_text(encoding="utf-8"))
        payload["aggregates"]["2"]["rmse"][0] = float("nan")
        report.write_text(json.dumps(payload), encoding="utf-8")
        injected = workloads.Tally()
        workload.check(inst, injected)
        self.assertEqual(injected.attempted, clean.attempted)
        self.assertEqual(injected.failed, 1)
        self.assertEqual(injected.nonfinite_cells["consistency_report.json"], 1)
        workloads.remove(work)

    def test_refuses_to_run_without_the_package(self):
        bare = SCRATCH / "bare"
        workloads_dir = bare / "perfbench"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, workloads_dir, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_benchmark("clt-n200-w2", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
