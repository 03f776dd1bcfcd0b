#!/usr/bin/env python3
"""Exhaustively sweep every one-voter SCF at small k.

For each function: exact distance to the nonmanipulable family, exact
3-window manipulation mass, the one-voter lower bound at the measured
distance, and the dichotomy check. Prints a distance histogram and writes
per-function rows as JSON lines when -o is given.
"""
import argparse
import json
import sys
from collections import Counter
from math import factorial

from votemanip.errors import CapExceededError
from votemanip.manip import census, nonmanip_membership
from votemanip.metrics import distance_to_nonmanip, frac_str
from votemanip.scf import TableSCF
from votemanip.verify import BoundParams, bound_value, one_voter_function_count


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
    worst_margin = None
    failures = 0
    for t in range(total):
        digits = []
        rem = t
        for _ in range(factorial(k)):
            rem, d = divmod(rem, k)
            digits.append(d)
        f = TableSCF(1, k, digits)
        eps = distance_to_nonmanip(f).value
        cen = census(f, (3, k))
        rhs = bound_value("1.4", BoundParams(k=k, epsilon=eps))
        m3 = cen.fraction(3)
        ok = m3 >= rhs and (cen.manipulable_count() == 0) == (nonmanip_membership(f) is not None)
        histogram[eps] += 1
        margin = m3 - rhs
        if worst_margin is None or margin < worst_margin:
            worst_margin = margin
        if not ok:
            failures += 1
        if sink:
            sink.write(json.dumps({
                "function_index": t,
                "epsilon": frac_str(eps),
                "m3": frac_str(m3),
                "bound": frac_str(rhs),
                "manipulable": cen.manipulable_count() > 0,
                "holds": ok,
            }, sort_keys=True) + "\n")
    if sink:
        sink.close()

    print(f"swept {total} one-voter SCFs at k={k}: {failures} failures")
    print("distance-to-nonmanipulable histogram:")
    for eps in sorted(histogram):
        print(f"  D = {frac_str(eps):>6}  x{histogram[eps]}")
    print(f"worst bound margin (m3 - bound): {frac_str(worst_margin)}")
    return 0 if failures == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
