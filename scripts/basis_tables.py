#!/usr/bin/env python3
"""Print the dual PBW families and, optionally, their pairing Gram matrices.

Example:
    python scripts/basis_tables.py --max-weight 3 --families Pi Sigma --gram
"""

import argparse
import sys
from fractions import Fraction

from qshuffle.bases import FAMILIES, PAIRS, basis_element
from qshuffle.cli import WEIGHT_CAP
from qshuffle.ncpoly import gram, poly_str
from qshuffle.words import word_str, words_of_weight


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-weight", type=int, default=3)
    parser.add_argument("--families", nargs="+", default=list(FAMILIES), choices=FAMILIES)
    parser.add_argument("--gram", action="store_true", help="print pairing matrices")
    args = parser.parse_args()
    if not 1 <= args.max_weight <= WEIGHT_CAP:
        parser.error(f"--max-weight must be between 1 and {WEIGHT_CAP}, got {args.max_weight}")

    for family in args.families:
        print(f"== family {family} ==")
        for n in range(1, args.max_weight + 1):
            for w in words_of_weight(n):
                value = basis_element(family, w).value
                print(f"  {family}_[{word_str(w)}] = {poly_str(value)}")
    if args.gram:
        for dual, primal, _ in PAIRS.values():
            if primal not in args.families and dual not in args.families:
                continue
            print(f"== Gram <{primal}_u, {dual}_v> per weight ==")
            for n in range(1, args.max_weight + 1):
                ws = words_of_weight(n)
                rows = [basis_element(primal, u).value for u in ws]
                cols = [basis_element(dual, v).value for v in ws]
                print(f"  weight {n}:")
                for r, acc in zip(rows, gram(rows, cols)):
                    entries = (Fraction(acc.get(j, 0), r._den * c._den) for j, c in enumerate(cols))
                    print("    " + " ".join(f"{str(x):>3}" for x in entries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
