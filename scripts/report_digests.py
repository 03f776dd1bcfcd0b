#!/usr/bin/env python3
"""Print one sha256 per CLI report over a fixed rule x shape grid.

Two checkouts that print the same lines give byte-identical reports, exit
codes and error lines over the grid. Each line is the sha256 of the call's
stdout, its exit code, the sha256 of its stderr, and the call:

    python scripts/report_digests.py > change.txt
    python scripts/report_digests.py --src /path/to/other/checkout/src > other.txt
    diff other.txt change.txt

``scripts/report_digests.txt`` holds the default grid's lines, and CI diffs
the script's output against it, so a change in any report's bytes fails CI
until that file is regenerated on purpose:

    python scripts/report_digests.py | diff scripts/report_digests.txt -

The grid: `census`, `distance`, `influences --refined`, `gs-classify`, plain
and refined `fibers` (pair 1,2 on the last voter) and, at k >= 3,
`local-dictators` for pairs 1,2 and 2,1 on the last voter, for every rule and
shape; then two table files (written by this script, in a temporary working
directory, so the reports echo the same relative path) through `census`,
`distance` and `gs-classify`, and two `verify` sweeps; then a fixed tail of 32
single-SCF `verify --thm` calls (see :func:`statement_calls`), whose reports
carry the measured values that the sweeps list only on a failure, of 21
calls at the edges of `--cap` (see :func:`cap_edges`), and of the seeded
paths' calls (see :func:`seeded_calls`). The default rules and shapes give
663 reports. The calls run in this process through
``votemanip.cli.main``, imported from ``--src`` (default: this checkout's).
"""
import argparse
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import factorial
from pathlib import Path

RULES = ["plurality", "borda", *[f"random:{s}" for s in range(4)], "top:1",
         *[f"monotone-random:{s}" for s in range(4)]]
SHAPES = [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (3, 5)]
# (file name, n, k, seed) of the table files, outcomes drawn by Python's random.
TABLES = [("table-a.json", 2, 3, 0), ("table-b.json", 3, 3, 1)]
# (statements, shapes) of statement_calls.
STATEMENTS = [(("1.2", "3.1", "7.1", "2.1", "5.3", "1.5"), ((2, 3), (3, 3))),
              (("1.4", "6.1"), ((1, 3), (1, 4)))]
# (n, k) and window widths of the sampler calls.
SAMPLE_SHAPES = [(2, 4), (3, 5)]
SAMPLE_WIDTHS = ["3", "4"]
# random:0 where k is 1 or its draws take 3 or 4 bits: census at k = 1; at
# n = 1, k = 7 distance, which lists every outcome (its one-coordinate witness
# is the table); at k = 8 the sampler, as distance there takes seconds.
RANDOM_CALLS = [["census", "--rule", "random:0", "-n", "2", "-k", "1"],
                ["distance", "--rule", "random:0", "-n", "1", "-k", "7"],
                ["sample", "--rule", "random:0", "-n", "1", "-k", "8", "--samples", "5000"]]
# The sampler's edge reads: at n = 1 the voter read is randrange(1), which
# reads words until a 0 bit, and k = width leaves one window start; at (5,5)
# (k!)^n > 2^32, so a profile index takes two words. Then Borda's packed
# scores either side of one byte: n * top = 85 * 3 = 255 packs a score in one
# byte, and 86 * 3 = 258 in two.
SAMPLE_EDGES = [["sample", "--rule", "borda", "-n", "1", "-k", "4", "--samples", "5000"],
                *[["sample", "--rule", "borda", "-n", "5", "-k", "5", "--width", width,
                   "--samples", "5000"] for width in SAMPLE_WIDTHS],
                *[["sample", "--rule", "borda", "-n", n, "-k", "4", "--samples", "5000"]
                  for n in ("85", "86")]]
SWEEPS = [["verify", "--thm", "1.4", "--exhaustive", "-k", "3"],
          ["verify", "--thm", "1.2", "--random", "300", "-n", "2", "-k", "3"]]


def exact_calls(rule: str, n: int, k: int) -> list[list[str]]:
    """The grid's calls on one rule and shape."""
    scf = ["--rule", rule, "-n", str(n), "-k", str(k)]
    last = ["--coordinate", str(n)]
    calls = [["census", *scf], ["distance", *scf], ["influences", "--refined", *scf],
             ["gs-classify", *scf]]
    calls += [["fibers", *scf, "--pair", "1,2", *last, "--variant", variant,
               "--gamma", "1/3"] for variant in ("plain", "refined")]
    if k >= 3:
        calls += [["local-dictators", *scf, "--pair", pair, *last,
                   "--max-list", "100000"] for pair in ("1,2", "2,1")]
    return calls


def statement_calls() -> list[list[str]]:
    """``verify --thm`` on Borda and ``random:0``, each statement at two shapes
    it applies to: n = 1 for 1.4 and 6.1, n >= 2 for the others."""
    return [["verify", "--thm", statement, "--rule", rule, "-n", str(n), "-k", str(k)]
            for statements, shapes in STATEMENTS for statement in statements
            for n, k in shapes for rule in ("borda", "random:0")]


def cap_edges() -> list[list[str]]:
    """Calls one entry either side of a cap, so a diff also covers refusals.

    Borda at (3,3) has 216 table entries: every exact call of the grid is
    refused at ``--cap 215`` and runs at 216. On ``top:1`` at (1,3), `census`
    reads the 24 entries of the width-2 window moves: refused at 23, runs at
    24; `gs-classify` reads only the 6-entry table: refused at 5, runs at 6.
    ``table-b.json`` (216 entries) is refused at 215 as it is read.
    """
    borda = exact_calls("borda", 3, 3)
    top = ["--rule", "top:1", "-n", "1", "-k", "3"]
    return ([[*call, "--cap", cap] for cap in ("215", "216") for call in borda]
            + [[command, *top, "--cap", cap] for command, caps in
               (("census", ("23", "24")), ("gs-classify", ("5", "6"))) for cap in caps]
            + [["census", "--table", TABLES[1][0], "--cap", "215"]])


def seeded_calls(rules) -> list[list[str]]:
    """``sample`` on each rule at the sampler shapes and widths, 5000 draws (two
    blocks of the sampler) at one and two tasks; then :data:`RANDOM_CALLS` and
    :data:`SAMPLE_EDGES`."""
    calls = [["sample", "--rule", rule, "-n", str(n), "-k", str(k), "--width", width,
              "--samples", "5000", "--tasks", tasks]
             for rule in rules for n, k in SAMPLE_SHAPES for width in SAMPLE_WIDTHS
             for tasks in ("1", "2")]
    return calls + RANDOM_CALLS + SAMPLE_EDGES


def grid(rules, shapes) -> list[list[str]]:
    """The CLI calls, in the order they are printed."""
    calls = [call for n, k in shapes for rule in rules for call in exact_calls(rule, n, k)]
    for name, _n, _k, _seed in TABLES:
        calls += [[command, "--table", name] for command in ("census", "distance", "gs-classify")]
    return calls + SWEEPS + statement_calls() + cap_edges() + seeded_calls(rules)


def write_tables() -> None:
    for name, n, k, seed in TABLES:
        rng = random.Random(seed)
        outcomes = [rng.randrange(k) + 1 for _ in range(factorial(k) ** n)]
        with open(name, "w") as fh:
            json.dump({"n": n, "k": k, "encoding": "lehmer-mixed-radix",
                       "outcomes": outcomes}, fh)


def digest_line(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{sha[0]} {code} {sha[1][:16]} {' '.join(argv)}"


def parse_shape(text: str) -> tuple[int, int]:
    n, k = text.split(",")
    return int(n), int(k)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="the src directory whose votemanip runs the calls")
    parser.add_argument("--rule", action="append", default=None,
                        help="a --rule of the grid; repeatable (default: the full list)")
    parser.add_argument("--shape", action="append", type=parse_shape, default=None,
                        metavar="N,K", help="a shape of the grid; repeatable")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from votemanip import cli

    calls = grid(args.rule or RULES, args.shape or SHAPES)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_tables()
        for argv in calls:
            print(digest_line(cli.main, argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
