#!/usr/bin/env python3
"""Print the dual PBW families and, optionally, their pairing Gram matrices.

Example:
    python scripts/basis_tables.py --max-weight 3 --families Pi Sigma --gram
"""

import argparse
import sys

from qshuffle.bases import FAMILIES, PAIRS, basis_element
from qshuffle.ncpoly import pairing, poly_str
from qshuffle.words import word_str, words_of_weight


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-weight", type=int, default=3)
    parser.add_argument("--families", nargs="+", default=list(FAMILIES), choices=FAMILIES)
    parser.add_argument("--gram", action="store_true", help="print pairing matrices")
    args = parser.parse_args()

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
                print(f"  weight {n}:")
                for u in ws:
                    row = [
                        str(pairing(basis_element(primal, u).value, basis_element(dual, v).value))
                        for v in ws
                    ]
                    print("    " + " ".join(f"{x:>3}" for x in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
