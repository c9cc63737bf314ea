"""One fresh interpreter of the benchmark, started by run.py.

    worker.py setup <src-dir>
        Import qshuffle, build the CLI parser through a trivial command,
        print "ready" and exit.  run.py times this from process start.

    worker.py sample <src-dir> <json-spec>
        Run one workload cold (every cache empty), then either replay the
        same inputs warm in this process or, with "trace", run it traced
        instead.  Untraced timed regions run under a SpeedProbe.  The
        outputs are checked outside the timed regions and one JSON line of
        results is printed.
"""

import sys

MAX_REPLAYS = 10


def _import_qshuffle(src: str):
    sys.path.insert(0, src)
    import qshuffle

    if not qshuffle.__file__.startswith(src):
        raise SystemExit(f"qshuffle was imported from {qshuffle.__file__}, not from {src}")


def setup(src: str) -> None:
    _import_qshuffle(src)
    import contextlib
    import io

    from qshuffle import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["lyndon", "--max-weight", "0"])
    print("ready" if rc == 0 else f"exit {rc}", flush=True)


def sample(src: str, spec: dict) -> dict:
    _import_qshuffle(src)
    import resource
    import statistics
    from time import perf_counter

    import workloads
    from calibrate import SpeedProbe
    from spans import Tracer, no_span

    cold_start = workloads.cache_snapshot()
    wl = workloads.WORKLOADS[spec["workload"]](
        workloads.SIZES[spec["size"]], spec["seed"], spec["negative_control"]
    )
    checks = workloads.Checks()
    out = {"context": wl.context()}

    if spec["trace"]:
        tracer = Tracer(spec["run_id"])
        t0 = perf_counter()
        with tracer.span(f"bench.{spec['workload']}"):
            result = wl.run_traced(tracer)
        out["wall_s"] = perf_counter() - t0
        out["self_times"] = tracer.self_times()
        out["spans"] = tracer.spans
        out["dual_solve_s"] = result.get("dual_solve_s") if isinstance(result, dict) else None
    else:
        with SpeedProbe() as probe:
            t0 = perf_counter()
            result = wl.run(no_span)
            t = perf_counter() - t0
        out["wall_s"], out["wall_scaled_s"] = probe.unprobed(t), probe.scaled(t)
        if isinstance(result, dict) and "latencies" in result:
            result["latencies"] = [
                lat - probe.busy_between(t0, t0 + lat) for t0, lat in zip(result["starts"], result["latencies"])
            ]
    out["caches"] = workloads.cache_snapshot()

    if spec["warm"]:
        # Replay until the replays have taken as long as the cold run (at
        # least once, at most MAX_REPLAYS times) and keep the medians.
        warm_raw, warm_scaled = [], []
        while not warm_raw or (sum(warm_raw) < out["wall_s"] and len(warm_raw) < MAX_REPLAYS):
            with SpeedProbe() as probe:
                t0 = perf_counter()
                warm = wl.run(no_span)
                t = perf_counter() - t0
            warm_raw.append(probe.unprobed(t))
            warm_scaled.append(probe.scaled(t))
            checks.expect(wl.same(result, warm), "warm replay differs from the cold run")
        out["warm_s"] = statistics.median(warm_raw)
        out["warm_scaled_s"] = statistics.median(warm_scaled)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if isinstance(result, dict) and "latencies" in result:
        out["latencies_ms"] = [t * 1000 for t in result["latencies"]]
    out["counts"] = wl.counts(result)
    out["cold_start_entries"] = sum(i["size"] for i in cold_start["lru"].values()) + sum(
        b["entries"] for b in cold_start["basis"].values()
    )
    wl.check(result, checks)
    out.update(attempted=checks.attempted, failed=checks.failed, notes=checks.notes)
    return out


def main() -> int:
    mode, src = sys.argv[1], sys.argv[2]
    if mode == "setup":
        setup(src)
        return 0
    import json

    result = sample(src, json.loads(sys.argv[3]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
