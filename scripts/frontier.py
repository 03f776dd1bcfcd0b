#!/usr/bin/env python3
"""Measure how far the exact subcommands reach, one child process per call.

Each call (subcommand, rule, n, k, extra arguments) runs ``python -m votemanip``
from this checkout in its own child process. The wall time is taken around
the child, the peak RSS is that child's own ``ru_maxrss`` from ``os.wait4``
(not the running maximum over all children that ``RUSAGE_CHILDREN`` gives),
and the sha256 is that of the report the child prints. A call still running
after ``--budget`` seconds is killed and reported as past the budget. Each
call prints one Markdown table row, as in the README's frontier table:

    python scripts/frontier.py --budget 120
    python scripts/frontier.py --call "distance borda 5 4" \\
        --call "census borda 9 3 --cap 20000000"
"""
import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The README grid: Borda at the largest shapes the default cap admits, and at
# n=9, k=3 (1.0e7 profiles) past it; then the seeded paths: random:0 at n=5,
# k=4, whose table is drawn, local dictators on Borda there (190,800 found,
# 20 decoded), and the sampler: at n=4, k=5, under the winner table's 2^20
# bound; past the cap at n=13, k=5, whose 53^4 score codes lie past that
# bound; at n=86, k=4, past it too (259^3), where a score sum reaches 258 and
# takes more than one byte; and at k = 9, where it fills per-rank values only
# for the ranks it draws; then one voter, where the per-rank tables, not the
# profile table, set the reach.
SHAPES = [(5, 4, ()), (3, 5, ()), (8, 3, ()), (9, 3, ("--cap", "20000000"))]
COMMANDS = [("census",), ("distance",), ("influences", "--refined"), ("gs-classify",)]
SEEDED_CALLS = [
    "census random:0 5 4",
    "distance random:0 5 4",
    "influences --refined random:0 5 4",
    "gs-classify random:0 5 4",
    "local-dictators random:0 5 4 --pair 1,2 --coordinate 1",
    "local-dictators borda 5 4 --pair 1,2 --coordinate 1",
    "sample borda 4 5 --samples 300000",
    "sample borda 13 5 --samples 300000",
    "sample borda 86 4 --samples 100000",
    "sample borda 2 9 --samples 10",
]
ONE_VOTER_CALLS = ["gs-classify borda 1 7", "census borda 1 7", "influences borda 1 8"]
DEFAULT_CALLS = [
    f"{' '.join(command)} borda {n} {k} {' '.join(extra)}".strip()
    for n, k, extra in SHAPES for command in COMMANDS
] + SEEDED_CALLS + ONE_VOTER_CALLS


def parse_call(text: str) -> list[str]:
    """``"SUBCOMMAND [FLAGS] RULE N K [EXTRA...]"`` as CLI arguments; leading
    flags (``influences --refined``) stay with the subcommand."""
    words = shlex.split(text)
    flags = 1
    while flags < len(words) and words[flags].startswith("-"):
        flags += 1
    if len(words) < flags + 3:
        raise ValueError(f"a call needs a subcommand, rule, n and k: {text!r}")
    rule, n, k = words[flags:flags + 3]
    return [*words[:flags], "--rule", rule, "-n", n, "-k", k, *words[flags + 3:]]


def measure(argv: list[str], budget: float) -> str:
    """Run one call in a child process; its README row."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryFile() as report:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "votemanip", *argv],
                                 stdout=report, stderr=subprocess.DEVNULL, env=env)
        timer = threading.Timer(budget, child.kill)
        timer.start()
        _pid, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        report.seek(0)
        digest = hashlib.sha256(report.read()).hexdigest()
    call = f"`{' '.join(argv)}`"
    if child.returncode < 0 and wall >= budget:
        return f"| {call} | past {budget:g} s | |"
    if child.returncode != 0:
        return f"| {call} | exit {child.returncode} after {wall:.1f} s | |"
    return f"| {call} | {wall:.1f} s, {usage.ru_maxrss / 1024:.0f} MiB | `{digest[:16]}` |"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--call", action="append", default=None,
                        help='"SUBCOMMAND RULE N K [EXTRA...]"; repeatable '
                             "(default: the README grid)")
    parser.add_argument("--budget", type=float, default=120.0,
                        help="seconds before a call is killed (default 120)")
    args = parser.parse_args()
    if args.budget <= 0:
        parser.error("--budget must be positive")
    try:
        calls = [parse_call(text) for text in args.call or DEFAULT_CALLS]
    except ValueError as exc:
        parser.error(str(exc))
    print("| Call | Time, peak RSS | Report sha256 |")
    print("|---|---|---|")
    for argv in calls:
        print(measure(argv, args.budget), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
