"""Smoke run of the benchmark, with its negative checks.

    python3 perfbench/smoke.py

1. Runs every workload for one second, untraced and traced, and fails if a
   metric declared in ``BENCHMARK.json`` is missing, has the wrong unit, is
   not finite, or if any output failed its check.
2. Corrupts one sample of every timed output and fails unless the failure
   count rises for a CLI workload and for the stream workload.
3. Runs the benchmark from a directory holding only ``BENCHMARK.json`` and
   the benchmark's own files, and fails unless it exits non-zero without a
   result line.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import bootstrap

ROOT = bootstrap()
if ROOT is None:
    sys.exit("smoke: no src/fbeq next to the benchmark")

from perfbench import bench, workloads  # noqa: E402  (needs the bootstrap path)
from perfbench.inputs import make_inputs  # noqa: E402

import fbeq  # noqa: E402

RUN_TIMEOUT_S = 300


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def check_declared_metrics(declared: dict) -> list[str]:
    problems = []
    for workload in declared["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = workload["name"]
            done = _run(ROOT, name, trace)
            if done.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {done.returncode}\n"
                                f"{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result['attempted']} "
                                f"attempted, {result['failed']} failed")
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared[key]}
            if set(got) != set(want):
                problems.append(f"{name} trace={trace}: metrics differ from "
                                f"BENCHMARK.json: missing {sorted(set(want) - set(got))},"
                                f" extra {sorted(set(got) - set(want))}")
            for metric, unit in want.items():
                entry = got.get(metric)
                if entry is None:
                    continue
                if entry["unit"] != unit or not math.isfinite(entry["value"]):
                    problems.append(f"{name} trace={trace}: {metric} = {entry}")
            print(f"smoke: {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    return problems


def _corrupt(call: workloads.Call) -> None:
    if call.output is not None:
        call.output[call.output.size // 2] += 1000


def check_corruption_counts() -> list[str]:
    problems = []
    cfg = fbeq.build_config()
    proto = fbeq.design_prototype(cfg.filterbank_spec())
    work_root = ROOT / bench.WORK_DIR
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        inputs = make_inputs(7, Path(tmp), cfg)
        for name in ("gainfile", "stream"):
            workload = workloads.build(name, inputs, cfg, Path(tmp), proto)
            run = bench.measure(workload, 0.0, corrupt=_corrupt)
            timed_units = run.attempted - workload.units
            print(f"smoke: corrupted {name}: {run.failed} of {run.attempted} "
                  "units failed")
            if run.failed < 1 or timed_units < 1:
                problems.append(f"corrupted {name} outputs were not counted as failed")
    return problems


def check_bare_directory() -> list[str]:
    work_root = ROOT / bench.WORK_DIR
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        bare = Path(tmp)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "gainfile", 0)
    lines = done.stdout.strip().splitlines()
    printed_result = bool(lines) and lines[-1].startswith("{")
    print(f"smoke: bare directory: exit {done.returncode}, "
          f"result printed: {printed_result}")
    if done.returncode == 0 or printed_result:
        return ["the benchmark ran without the package source"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = (check_declared_metrics(declared) + check_corruption_counts()
                + check_bare_directory())
    for problem in problems:
        print(f"smoke: FAIL {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
