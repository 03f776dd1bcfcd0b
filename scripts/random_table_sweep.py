#!/usr/bin/env python3
"""Seeded random-table verification sweep, one JSON line per instance.

Each instance goes through the library's instance checks, the ones ``verify
--random`` runs (``verify.random_table_reports``): the manipulation bound, the
two-large-influences statement and the reduction disjunction, on one
measurement of the census (taken a block of tables at a time) and the
distances. Failures (none are expected) are echoed to stderr.
"""
import argparse
import json
import sys

from votemanip.metrics import frac_str
from votemanip.verify import random_table_reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--voters", type=int, default=2)
    parser.add_argument("-k", "--alternatives", type=int, default=3)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", default=None, help="JSONL path (default stdout)")
    args = parser.parse_args()

    sink = open(args.output, "w") if args.output else sys.stdout
    failures = 0
    for t, reports in random_table_reports(args.voters, args.alternatives, args.seed,
                                           0, args.count):
        row = {
            "instance": t,
            "epsilon_nonmanip": frac_str(reports[0].witnesses["epsilon"]),
            "m4": frac_str(reports[0].lhs),
            "holds": all(r.holds for r in reports),
            "statements": {r.statement: r.holds for r in reports},
        }
        sink.write(json.dumps(row, sort_keys=True) + "\n")
        if not row["holds"]:
            failures += 1
            print(f"instance {t} FAILED", file=sys.stderr)
            for r in reports:
                if not r.holds:
                    print(json.dumps(r.describe(), sort_keys=True), file=sys.stderr)
    if sink is not sys.stdout:
        sink.close()
    print(f"checked {args.count} instances, {failures} failures", file=sys.stderr)
    return 0 if failures == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
