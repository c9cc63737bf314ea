#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at the toy size (N = 3, 50 lookups) with --trace 0 and
--trace 1 and checks that the last output line is the result object with
every metric BENCHMARK.json names, with its unit, that each metric is also
printed by name, and that every per-layer metric is nonzero on at least one
workload.  Then checks that the negative controls of factorize and lookups
come out as counted failures with a nonzero exit status, and that the
benchmark fails without printing a result where there is no qshuffle source.
Exit status 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "factorize", "lookups")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict | None:
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    nonzero: set[str] = set()
    base = ["--seed", "1", "--seconds", "1", "--size", "toy"]

    for workload in WORKLOADS:
        for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            rc, lines = run(["--workload", workload, "--trace", trace, *base])
            result = result_of(lines)
            where = f"{workload} --trace {trace}"
            if rc != 0 or result is None or result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: exit {rc}, result {lines[-1:] if lines else None}")
                continue
            if result["attempted"] < 1:
                problems.append(f"{where}: no checks attempted")
            if set(result["metrics"]) != {m["name"] for m in names}:
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            for m in names:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} missing or without unit {m['unit']}")
                elif got["value"] != 0:
                    nonzero.add(m["name"])
                if not any(line.split()[:1] + line.split()[2:3] == [m["name"], m["unit"]] for line in lines):
                    problems.append(f"{where}: {m['name']} not printed with its unit")
            if not any(line.startswith("fail_share ") for line in lines):
                problems.append(f"{where}: fail_share not printed")
        print(f"ran {workload}", flush=True)

    for m in spec["per_layer"]:
        if m["name"] not in nonzero:
            problems.append(f"per-layer metric {m['name']} is zero on every workload")
    for m in spec["end_to_end"]:
        if m["name"] not in nonzero:
            problems.append(f"end-to-end metric {m['name']} is zero")

    for workload in ("factorize", "lookups"):
        rc, lines = run(["--workload", workload, "--trace", "0", "--negative-control", *base])
        result = result_of(lines)
        if rc == 0 or result is None or result["correct"] is not False or result["failed"] < 1:
            problems.append(f"{workload} negative control not caught: exit {rc}, {lines[-1:] if lines else None}")
        print(f"ran {workload} negative control", flush=True)

    # Only BENCHMARK.json and the benchmark's files, no program source.
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run(["--workload", "verify", "--trace", "0", *base], cwd=bare)
        if rc == 0 or result_of(lines) is not None:
            problems.append(f"run without program source: exit {rc}, output {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ran without program source", flush=True)

    for p in problems:
        print(f"FAIL: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
