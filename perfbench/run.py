#!/usr/bin/env python3
"""qshuffle benchmark.

    python3 perfbench/run.py --workload {verify,factorize,lookups} --seed N \\
        --seconds S --trace {0,1} [--size {full,toy}] [--negative-control]

Run it from the root of a source checkout: it imports qshuffle from `src/`
next to this directory and nowhere else.  Each cold run is a fresh
interpreter; see README.md for the workloads and metrics.

With --trace 0 it measures for S seconds, repeating (cold run, warm replay)
pairs, and reports the end-to-end metrics as medians.  With --trace 1 it
repeats (untraced cold run, traced cold run) pairs and reports the
per-layer metrics from span self times and cache counters; the spans are
written to .perfbench_out/.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Exit status: 0 when every output check passed, 1 when one failed or a worker
did not finish, 2 on a usage error or when there is no qshuffle source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("verify", "factorize", "lookups")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # a run must end within 180 s, workers included
MODULES = ("words", "ncpoly", "lyndon", "bases", "symqsym", "factorization", "cli", "bench")

# per-layer time metrics taken from the self time of one span name
SPAN_METRICS = {
    "lyndon.enumerate_s": "lyndon.enumerate",
    "bases.pi1_s": "bases.pi1",
    "bases.primal_s": "bases.primal",
    "bases.basis_element_s": "bases.basis_element",
    "ncpoly.product_s": "ncpoly.product",
    "ncpoly.coproduct_s": "ncpoly.coproduct",
    "factorization.product_s": "factorization.product",
    "factorization.compare_s": "factorization.compare",
    "symqsym.convert_s": "symqsym.convert",
    "symqsym.pairing_s": "symqsym.pairing_ext",
}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git (the
    benchmark may run in a checkout that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_setup(deadline: Deadline) -> float | None:
    """Seconds from starting a fresh interpreter to qshuffle imported and the
    CLI parser built, or None when the interpreter did not get there."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(WORKER), "setup", str(SRC)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline.left()))
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed if line.strip() == "ready" and proc.returncode == 0 else None


def run_worker(spec: dict, deadline: Deadline) -> dict:
    """One workload sample in a fresh interpreter; a worker that fails or runs
    past the deadline is reported as one failed check."""
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(WORKER), "sample", str(SRC), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline.left()),
        )
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "notes": ["worker ran past the deadline"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"attempted": 1, "failed": 1, "notes": [f"worker exit {proc.returncode}: {tail}"]}
    return json.loads(lines[-1])


def repeat(seconds: float, deadline: Deadline, step) -> list:
    """Calls step() until the next call would end past the measuring window
    (at least once)."""
    start, results = time.monotonic(), []
    while True:
        t0 = time.monotonic()
        results.append(step())
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if elapsed + took > seconds or deadline.left() < 2 * took:
            return results


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latency_metrics(samples: list[dict]) -> dict[str, float]:
    lat = sorted(x for s in samples for x in s.get("latencies_ms", ()))
    if not lat:
        return {}
    return {"lookup_p50_ms": percentile(lat, 0.50), "lookup_p99_ms": percentile(lat, 0.99), "lookup_n": len(lat)}


def cache_metrics(caches: dict) -> dict[str, float]:
    """Per-layer metrics from the cache counters after a cold run."""
    lru = caches["lru"]

    def ratio(key: str) -> float:
        i = lru.get(key, {"hits": 0, "misses": 0})
        total = i["hits"] + i["misses"]
        return i["hits"] / total if total else 0.0

    return {
        "ncpoly.stuffle.hit_ratio": ratio("ncpoly.stuffle_words"),
        "ncpoly.stuffle.misses": lru.get("ncpoly.stuffle_words", {}).get("misses", 0),
        "ncpoly.shuffle.hit_ratio": ratio("ncpoly.shuffle_words"),
        "ncpoly.coproduct.hit_ratio": ratio("ncpoly._word_coproduct"),
        "bases.dual_solve.count": lru.get("bases._dual_table", {}).get("misses", 0),
        "bases.cache_terms": sum(c["terms"] for c in caches["basis"].values()),
        "symqsym.rows.misses": sum(
            i["misses"] for k, i in lru.items() if k.startswith("symqsym.") and k.endswith("_row")
        ),
    }


def layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    selfs = traced["self_times"]
    out = {k: selfs.get(span, 0.0) for k, span in SPAN_METRICS.items()}
    for name, t in selfs.items():
        if name.startswith("cli.check."):
            out[name + "_s"] = t
    out["bases.dual_solve_s"] = (
        traced["dual_solve_s"] if traced.get("dual_solve_s") is not None else selfs.get("bases.dual_solve", 0.0)
    )
    for module in MODULES:
        out[f"{module}.self_s"] = sum(t for n, t in selfs.items() if n.split(".")[0] == module)
    counts = traced.get("counts", {})
    out["lyndon.words"] = counts.get("lyndon_words", 0)
    out["factorization.result_terms"] = counts.get("result_terms", 0)
    out.update(cache_metrics(traced["caches"]))
    out["trace.wall_s"] = traced["wall_s"]
    out["trace.untraced_wall_s"] = untraced["wall_s"]
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    out["trace.unaccounted_s"] = traced["wall_s"] - sum(selfs.values())
    return out


def measure_end_to_end(spec: dict, seconds: float, deadline: Deadline):
    """Set-up probes, then (cold run, warm replay) samples for the measuring
    window; every time is a median of scaled times."""
    samples: list[dict] = []
    probes = []
    for _ in range(SETUP_PROBES):
        with SpeedProbe() as probe:
            t = probe_setup(deadline)
        if t is None:
            samples.append({"attempted": 1, "failed": 1, "notes": ["setup probe failed"]})
        else:
            probes.append((probe.unprobed(t), probe.scaled(t)))
    samples += repeat(seconds, deadline, lambda: run_worker({**spec, "trace": False, "warm": True}, deadline))
    timed = [s for s in samples if "warm_s" in s]
    computed: dict[str, float] = {}
    raw: dict[str, float] = {}
    if probes:
        computed["setup_s"] = statistics.median(p[1] for p in probes)
        raw["setup_s"] = statistics.median(p[0] for p in probes)
    if timed:
        computed["wall_s"] = statistics.median(s["wall_scaled_s"] for s in timed)
        computed["warm_s"] = statistics.median(s["warm_scaled_s"] for s in timed)
        computed["peak_rss_mb"] = statistics.median(s["rss_mb"] for s in timed)
        raw["wall_s"] = statistics.median(s["wall_s"] for s in timed)
        raw["warm_s"] = statistics.median(s["warm_s"] for s in timed)
    computed.update(latency_metrics(timed))
    return samples, computed, raw, len(timed)


EXACT = ("lyndon.words", "factorization.result_terms", "bases.dual_solve.count",
         "ncpoly.stuffle.misses", "symqsym.rows.misses", "bases.cache_terms")


def measure_layers(spec: dict, seconds: float, deadline: Deadline, context: dict):
    """(untraced cold run, traced cold run) pairs for the measuring window;
    per-layer times are medians over the pairs, exact counts must repeat."""
    run_id = f"{spec['workload']}-{spec['seed']}"
    pairs = repeat(
        seconds,
        deadline,
        lambda: (
            run_worker({**spec, "trace": False, "warm": False}, deadline),
            run_worker({**spec, "trace": True, "warm": False, "run_id": run_id}, deadline),
        ),
    )
    samples = [s for pair in pairs for s in pair]
    good = [(u, t) for u, t in pairs if "self_times" in t and "wall_s" in u]
    per_pair = [layer_metrics(traced, untraced) for untraced, traced in good]
    computed: dict[str, float] = latency_metrics([u for u, _ in good])
    for name in per_pair[0] if per_pair else ():
        values = [m[name] for m in per_pair]
        computed[name] = values[0] if name in EXACT else statistics.median(values)
    # Exact counts must repeat; the span self times must add up to the traced
    # wall time within the tracing overhead.
    for m in per_pair:
        ok = all(m[k] == computed[k] for k in EXACT)
        samples.append({"attempted": 1, "failed": 0 if ok else 1,
                        "notes": [] if ok else ["exact counts differ between traced runs"]})
        ok = abs(m["trace.unaccounted_s"]) <= abs(m["trace.overhead_s"]) + 1e-3
        samples.append({"attempted": 1, "failed": 0 if ok else 1,
                        "notes": [] if ok else ["span self times do not add up to the traced wall time"]})
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"{spec['workload']}-seed{spec['seed']}-{spec['size']}.json"
    trace_file.write_text(json.dumps({"context": context, "spans": [t["spans"] for _, t in good]}))
    return samples, computed, {}, len(good)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--negative-control", action="store_true",
                        help="make the program return a wrong answer, which the checks must catch")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.negative_control and args.workload == "verify":
        parser.error("--negative-control applies to factorize and lookups")
    if not (SRC / "qshuffle" / "__init__.py").is_file():
        print(f"error: no qshuffle source at {SRC}", file=sys.stderr)
        return 2
    try:
        spec_file = load_benchmark()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    deadline = Deadline(RUN_LIMIT_S)
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "negative_control": args.negative_control,
    }
    context = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": args.seed,
        "size": args.size,
        "git_commit": git_commit(),
        "loop": "closed, one client",
    }
    if args.trace == 0:
        samples, computed, raw, runs = measure_end_to_end(spec, args.seconds, deadline)
        names = spec_file["end_to_end"]
    else:
        samples, computed, raw, runs = measure_layers(spec, args.seconds, deadline, context)
        names = spec_file["per_layer"]

    attempted = sum(s.get("attempted", 0) for s in samples)
    failed = sum(s.get("failed", 0) for s in samples)
    workload_context = next((s["context"] for s in samples if "context" in s), {})
    counts = next((s["counts"] for s in samples if s.get("counts")), {})
    caches = next((s["caches"] for s in samples if "caches" in s), {})

    print(f"# qshuffle benchmark: workload {args.workload}, trace {args.trace}")
    print("# context " + json.dumps({**context, **workload_context}))
    print(f"# samples {runs}; result counts " + json.dumps(counts))
    print("# caches after the cold run " + json.dumps(caches))
    print(f"# cold-start cache entries {next((s['cold_start_entries'] for s in samples if 'cold_start_entries' in s), None)}")
    for s in samples:
        for note in s.get("notes", ()):
            print(f"# FAILED CHECK: {note}")
    fail_share = failed / attempted if attempted else 1.0
    print(f"fail_share {fail_share:.6g} ({failed} failed of {attempted} checks)")
    if "lookup_n" in computed:
        print(f"lookup latency over {computed['lookup_n']} requests: "
              f"p50 {computed['lookup_p50_ms']:.6g} ms, p99 {computed['lookup_p99_ms']:.6g} ms")
    metrics = {}
    for m in names:
        value = computed.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  (unscaled {raw[m['name']]:.6g} {m['unit']})" if m["name"] in raw else ""
        print(f"{m['name']} {value:.6g} {m['unit']}{note}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed if attempted else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
