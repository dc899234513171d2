"""Smoke test of the benchmark itself: every workload at tiny size.

    python3 perfbench/smoke.py

Checks, for each workload, that both modes print a result line with every
metric BENCHMARK.json names, each with its unit, and every output check
passing; that two traced runs with the same seed give identical counts; and
that a directory holding only the benchmark's own files makes it fail
without printing a result. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(out)}")
    if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
        raise AssertionError(f"output checks failed: {out['attempted']} attempted, "
                             f"{out['failed']} failed")
    return out


def check_metrics(out: dict, expected: dict[str, str], where: str) -> None:
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise AssertionError(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in out["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{where}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(result(run(workload, 0)), end_to_end, f"{workload} --trace 0")
        first, second = (result(run(workload, 1)) for _ in range(2))
        check_metrics(first, per_layer, f"{workload} --trace 1")
        for name, unit in per_layer.items():
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if unit in ("count", "bytes") and a != b:
                raise AssertionError(f"{workload}: {name} differs between same-seed runs: {a} != {b}")
        print(f"ok {workload}")

    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(spec["workloads"][0]["name"], 0, cwd=bare)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            raise AssertionError("a checkout without drureg's sources did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
