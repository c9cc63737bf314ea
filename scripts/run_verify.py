#!/usr/bin/env python3
"""Sweep the identity-verification matrix over a range of weight bounds and
report per-check timings.

Example:
    python scripts/run_verify.py --weights 2 3 4 5 --seed 0
"""

import argparse
import sys
import time

from qshuffle import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weights", type=int, nargs="+", default=[2, 3, 4, 5])
    parser.add_argument("--q-degree", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    bad = [w for w in args.weights if not 1 <= w <= cli.WEIGHT_CAP]
    if bad:
        parser.error(f"--weights must be between 1 and {cli.WEIGHT_CAP}, got {bad[0]}")

    failures = 0
    for w in args.weights:
        print(f"== max weight {w} ==")
        # the rows are verify's, a failed library precondition a FAIL row; each is timed
        t0 = time.perf_counter()
        for name, ok, detail in cli._verify_rows(w, args.q_degree, args.seed):
            elapsed = time.perf_counter() - t0
            verdict = "pass" if ok else "FAIL"
            print(f"  {verdict:4}  {elapsed:8.4f}s  {name:<22}  {detail}")
            failures += not ok
            t0 = time.perf_counter()
    print(f"total failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
