#!/usr/bin/env python3
"""Exact manipulation census for the common rules over a small (n, k) grid.

Useful for eyeballing how window width and electorate size move the
manipulable mass under impartial culture.
"""
import argparse
import sys
from math import factorial

from votemanip.manip import census
from votemanip.metrics import frac_str
from votemanip.scf import Borda, Plurality


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-k", type=int, default=4)
    parser.add_argument("--cap", type=int, default=10 ** 6)
    args = parser.parse_args()

    header = f"{'rule':<9} {'n':>2} {'k':>2} {'M_2':>12} {'M_3':>12} {'M_4':>12} {'M':>12}"
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_n + 1):
        for k in range(3, args.max_k + 1):
            if factorial(k) ** n > args.cap:
                continue
            for rule in (Plurality(n, k, cap=args.cap), Borda(n, k, cap=args.cap)):
                cen = census(rule, (2, 3, 4, k))
                cells = [frac_str(cen.fraction(r)) for r in (2, 3, 4)]
                cells.append(frac_str(cen.manipulable_fraction()))
                name = type(rule).__name__.lower()
                print(f"{name:<9} {n:>2} {k:>2} " + " ".join(f"{c:>12}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
