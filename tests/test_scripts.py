"""Smoke test: each experiment script runs to completion on a tiny grid."""
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from votemanip import cli
from votemanip.verify import random_table_reports, sweep_one_voter

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("rule_census_grid.py", ["--max-n", "2", "--max-k", "3"]),
    ("random_table_sweep.py", ["--count", "3"]),
    ("one_voter_sweep.py", ["-k", "3"]),
    ("frontier.py", ["--call", "census plurality 2 3", "--budget", "60"]),
])
def test_script_runs(script, args):
    done = run_script(script, args)
    assert done.returncode == 0, done.stderr


def test_frontier_rows_carry_the_report_digest_and_stop_at_the_budget():
    argv = ["influences", "--refined", "--rule", "borda", "-n", "2", "-k", "3"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]
    call = "influences --refined borda 2 3"
    done = run_script("frontier.py", ["--call", call, "--budget", "60"])
    row = done.stdout.splitlines()[2]
    assert row.startswith(f"| `{' '.join(argv)}` | ") and row.endswith(f" MiB | `{digest}` |")
    # No interpreter starts within a millisecond, so the child is killed.
    done = run_script("frontier.py", ["--call", call, "--budget", "0.001"])
    assert done.stdout.splitlines()[2] == f"| `{' '.join(argv)}` | past 0.001 s | |"


def test_one_voter_script_rows_agree_with_the_library_sweep(tmp_path):
    out = tmp_path / "rows.jsonl"
    done = run_script("one_voter_sweep.py", ["-k", "3", "-o", str(out)])
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 729 and all(row["holds"] for row in rows)
    nonmanipulable = sum(not row["manipulable"] for row in rows)
    assert nonmanipulable == 7 == sweep_one_voter(3).stats["nonmanipulable_functions"]


def test_random_table_script_rows_agree_with_the_library_check():
    done = run_script("random_table_sweep.py", ["--count", "3"])
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [row["instance"] for row in rows] == [0, 1, 2]
    for row in rows:
        [(_t, reports)] = random_table_reports(2, 3, 0, row["instance"], row["instance"] + 1)
        assert row["statements"] == {r.statement: r.holds for r in reports}
        assert row["epsilon_nonmanip"] == reports[0].describe()["witnesses"]["epsilon"]


def test_report_digest_lines_match_the_reports():
    done = run_script("report_digests.py", ["--rule", "borda", "--rule", "random:0",
                                            "--shape", "2,3"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # Per rule: four reports, two fiber sweeps, two local-dictator pairs; then
    # three per table file, the two sweeps, eight statements at two shapes on
    # two rules, the cap's edges: eight Borda calls at two caps, two top:1
    # calls at two caps and one table file; and the seeded calls: per rule,
    # two sampler shapes at two widths and two task counts, then three
    # random:0 calls and five sampler edge calls.
    assert len(lines) == (2 * 8 + 2 * 3 + 2 + 8 * 2 * 2 + (2 * 8 + 2 * 2 + 1)
                          + (2 * 2 * 2 * 2 + 3 + 5))
    empty = hashlib.sha256(b"").hexdigest()[:16]
    refused = [line for line in lines if line.endswith(("--cap 215", "--cap 23", "--cap 5"))]
    assert len(refused) == 8 + 2 + 1
    for line in lines:
        code, err = line.split()[1:3]
        if line in refused:
            assert code == "2" and err != empty, line
        else:
            assert [code, err] == ["0", empty], line
    argv = ["census", "--rule", "random:0", "-n", "2", "-k", "3"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert f"{digest} 0 {empty} {' '.join(argv)}" in lines
