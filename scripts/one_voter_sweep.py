#!/usr/bin/env python3
"""Exhaustively sweep every one-voter SCF at small k.

Each function goes through the library's instance checks, the ones ``verify
--exhaustive`` runs (``verify.one_voter_rows``): exact distance to the
nonmanipulable family, exact 3-window manipulation mass (the census taken a
block of functions at a time), the one-voter lower bound at the measured
distance, the dichotomy and the zero-distance check. Prints a distance
histogram and writes the per-function rows as JSON lines when -o is given.
"""
import argparse
import json
import sys
from collections import Counter
from fractions import Fraction

from votemanip.errors import CapExceededError
from votemanip.metrics import frac_str
from votemanip.verify import one_voter_function_count, one_voter_rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-k", "--alternatives", type=int, default=3)
    parser.add_argument("-o", "--output", default=None, help="JSONL output path")
    args = parser.parse_args()

    k = args.alternatives
    try:
        total = one_voter_function_count(k)
    except (ValueError, CapExceededError) as exc:
        print(f"{exc}; use k=3", file=sys.stderr)
        return 1

    sink = open(args.output, "w") if args.output else None
    histogram = Counter()
    margins = []
    failures = 0
    for row in one_voter_rows(k, 0, total):
        histogram[row["epsilon"]] += 1
        margins.append(Fraction(row["m3"]) - Fraction(row["bound"]))
        failures += not row["holds"]
        if sink:
            sink.write(json.dumps(row, sort_keys=True) + "\n")
    if sink:
        sink.close()

    print(f"swept {total} one-voter SCFs at k={k}: {failures} failures")
    print("distance-to-nonmanipulable histogram:")
    for eps in sorted(histogram, key=Fraction):
        print(f"  D = {eps:>6}  x{histogram[eps]}")
    print(f"worst bound margin (m3 - bound): {frac_str(min(margins))}")
    return 0 if failures == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
