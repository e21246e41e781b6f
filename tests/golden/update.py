"""Digests of every artifact of the six subcommands on configs/acceptance.json.

``acceptance.json`` beside this script holds, per artifact, its sha256 and
size, and the JSON artifacts in full, so that a move can be measured; plus
numpy's version, since another numpy may round differently.  The acceptance
suite compares the artifacts of the tree under test with it.  After a change
that moves an artifact on purpose, regenerate it from the repository root:

    python tests/golden/update.py

and name each moved artifact in CHANGES.md.  The artifacts are made twice,
in fresh interpreters with OPENBLAS_NUM_THREADS=1 and =2; if the two runs
differ in any byte, nothing is written and each artifact that differs is
named with the JSON keys, or the CSV line and column, where it does, so the
digests never record bits that depend on the BLAS thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CONFIG = ROOT / "configs" / "acceptance.json"
GOLDEN = Path(__file__).with_name("acceptance.json")

# Each artifact and the subcommand that writes it.
ARTIFACTS = {
    "path.csv": "simulate",
    "estimate.json": "estimate",
    "limits.json": "limits",
    "coupling_decay.csv": "coupling",
    "coupling_report.json": "coupling",
    "consistency_replicates.csv": "mc-consistency",
    "consistency_report.json": "mc-consistency",
    "clt_replicates.csv": "mc-clt",
    "clt_report.json": "mc-clt",
    "clt_qq.csv": "mc-clt",
}


def run(commands, out: Path) -> None:
    """Run each subcommand of ``commands`` on the acceptance config into ``out``."""
    from perifou.cli import main

    for command in commands:
        status = main([command, "--config", str(CONFIG), "--out", str(out)])
        if status != 0:
            raise RuntimeError(f"perifou {command} exited {status}")


def record(files: dict) -> dict:
    """The digest record of ``files``, artifact name -> path."""
    import numpy as np

    artifacts = {}
    for name, filename in files.items():
        data = Path(filename).read_bytes()
        entry = {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}
        if name.endswith(".json"):
            entry["content"] = json.loads(data)
        artifacts[name] = entry
    return {"numpy": np.__version__, "artifacts": artifacts}


def _leaves(value, key: str = ""):
    """(dotted key, value) for each scalar of a JSON value; list entries share their key."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _leaves(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, key)
    else:
        yield key, value


def json_moves(old, new) -> dict:
    """The largest relative move |new - old| / |old| per key from ``old`` to ``new``
    (inf where old is 0), or "changed" for a key whose non-numeric value moved."""
    before, after = list(_leaves(old)), list(_leaves(new))
    if [key for key, _ in before] != [key for key, _ in after]:
        return {"(keys)": "changed"}
    moves = {}
    for (key, x), (_, y) in zip(before, after):
        if x == y or moves.get(key) == "changed":
            continue
        if all(type(v) in (int, float) for v in (x, y)):
            move = abs(y - x) / abs(x) if x else math.inf
            moves[key] = max(move, moves.get(key, 0.0))
        else:
            moves[key] = "changed"
    return moves


def _describe(moves: dict) -> str:
    return "largest relative move per key: " + (
        ", ".join(f"{key} {move:.3g}" if move != "changed" else f"{key} changed"
                  for key, move in moves.items()) or "none (formatting only)"
    )


def differences(golden: dict, current: dict) -> list:
    """One line per artifact of ``golden`` that moved in ``current``, then one naming
    both numpy versions if they differ; empty when nothing moved."""
    lines = []
    for name, want in golden["artifacts"].items():
        got = current["artifacts"][name]
        if got["sha256"] == want["sha256"]:
            continue
        line = f"{name}: sha256 moved, {want['size']} -> {got['size']} bytes"
        if "content" in want:
            line += "; " + _describe(json_moves(want["content"], got["content"]))
        lines.append(line)
    if current["numpy"] != golden["numpy"]:
        lines.append(
            f"the digests were made under numpy {golden['numpy']}, this is numpy {current['numpy']}"
        )
    return lines


def run_with_blas_threads(threads: str, out: Path) -> None:
    """Write every artifact into ``out`` from a fresh interpreter whose BLAS
    runs ``threads`` threads."""
    code = (
        "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]\n"
        "from golden.update import ARTIFACTS, run\n"
        "run(dict.fromkeys(ARTIFACTS.values()), Path(sys.argv[3]))"
    )
    paths = [str(ROOT / "src"), str(ROOT / "tests"), str(out)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    subprocess.run([sys.executable, "-c", code, *paths], env=env, check=True)


def _first_csv_difference(one: str, two: str) -> str:
    """The first line and column where two CSV texts differ."""
    header = one.split("\n", 1)[0].split(",")
    lines = zip_longest(one.splitlines(), two.splitlines(), fillvalue="")
    line, pair = next((i, pair) for i, pair in enumerate(lines) if pair[0] != pair[1])
    cells = zip_longest(*(row.split(",") for row in pair), fillvalue="")
    column = next(j for j, (x, y) in enumerate(cells) if x != y)
    return f"line {line + 1}, column {header[column] if column < len(header) else column + 1}"


def thread_differences(first: Path, second: Path) -> list:
    """One line per artifact whose bytes differ between ``first`` and
    ``second``: the keys that moved in a JSON artifact, the first line and
    column that differ in a CSV one."""
    lines = []
    for name in ARTIFACTS:
        one, two = (first / name).read_bytes(), (second / name).read_bytes()
        if one == two:
            continue
        if name.endswith(".json"):
            where = _describe(json_moves(json.loads(one), json.loads(two)))
        else:
            where = _first_csv_difference(one.decode("utf-8"), two.decode("utf-8"))
        lines.append(f"{name}: {where}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as temporary:
        outs = [Path(temporary) / threads for threads in ("1", "2")]
        for threads, out in zip(("1", "2"), outs):
            run_with_blas_threads(threads, out)
        moved = thread_differences(*outs)
        if moved:
            print("not written: the artifacts differ between 1 and 2 BLAS threads:\n"
                  + "\n".join(moved), file=sys.stderr)
            return 1
        current = record({name: outs[0] / name for name in ARTIFACTS})
    GOLDEN.write_text(json.dumps(current, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
