"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All exact comparisons are zero-tolerance rational arithmetic. Monte Carlo
enters only through criterion 4's consistency check and is seeded.
"""
import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import oracles
from votemanip import cli
from votemanip.graphs import verify_lindsey
from votemanip.manip import census, exact_pair_probability, sample_success
from votemanip.metrics import nearest_monotone_boolean
from votemanip.scf import Plurality, TopHDictator, random_monotone_two_valued
from votemanip.verify import (
    sweep_one_voter,
    sweep_random_tables,
    verify_reverse_hypercontractivity,
)

SEED = 20260809


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_one_voter_exhaustive_sweep():
    started = time.perf_counter()
    report = sweep_one_voter(3)
    elapsed = time.perf_counter() - started
    ok = report.holds and report.total == 729 and elapsed < 10.0
    _report(1, ok,
            f"{report.passed}/{report.total} one-voter SCFs satisfy the bound and "
            f"the dichotomy, {report.stats['nonmanipulable_functions']} nonmanipulable, "
            f"{elapsed:.2f}s")


def test_criterion_2_two_voter_randomized_sweep():
    started = time.perf_counter()
    report = sweep_random_tables(2, 3, 1000, seed=SEED)
    elapsed = time.perf_counter() - started
    ok = report.holds and report.total == 1000 and elapsed < 120.0
    _report(2, ok, f"{report.passed}/{report.total} random tables pass statements "
                   f"1.2 + 2.1 + 1.5, {elapsed:.2f}s")


def test_criterion_3_nonmanipulable_families_have_empty_census():
    checked = 0
    failures = []
    for n in (1, 2, 3):
        for k in (3, 4):
            for i in range(n):
                for mask in range(1, 1 << k):
                    H = [x for x in range(k) if mask >> x & 1]
                    f = TopHDictator(n, k, i, H)
                    if census(f, (k,)).manipulable_count() != 0:
                        failures.append(("top", n, k, i, tuple(H)))
                    checked += 1
    shapes = [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4)]
    for t in range(100):
        n, k = shapes[t % len(shapes)]
        f = random_monotone_two_valued(n, k, SEED + t)
        if census(f, (k,)).manipulable_count() != 0:
            failures.append(("monotone", n, k, t))
        checked += 1
    _report(3, not failures,
            f"|M| = 0 for all {checked} nonmanipulable instances"
            + (f", failures: {failures[:3]}" if failures else ""))


def test_criterion_4_sampler_consistency():
    started = time.perf_counter()
    f = Plurality(3, 4)
    exact = exact_pair_probability(f, width=4)
    mc = sample_success(f, 100000, seed=SEED, width=4)
    estimate = Fraction(mc.successes, mc.samples)
    stderr_sq = estimate * (1 - estimate) / mc.samples
    inside = (estimate - exact) ** 2 <= 9 * stderr_sq
    elapsed = time.perf_counter() - started
    ok = inside and elapsed < 60.0
    _report(4, ok,
            f"exact {exact} vs estimate {mc.successes}/{mc.samples}, "
            f"3-stderr interval contains the exact value: {inside}, {elapsed:.2f}s")


def test_criterion_5_reverse_hypercontractivity():
    rho = Fraction(1, 3)
    violations = 0
    checked = 0
    for n in range(2, 7):
        size = 1 << n
        for t in range(200):
            rng = random.Random(SEED * 1000 + n * 211 + t)
            bits1, bits2 = rng.getrandbits(size), rng.getrandbits(size)
            B1 = [m for m in range(size) if bits1 >> m & 1]
            B2 = [m for m in range(size) if bits2 >> m & 1]
            report = verify_reverse_hypercontractivity(n, rho, B1, B2)
            checked += 1
            if not report.holds:
                violations += 1
    correlations_ok = all(
        oracles.pairwise_preference_correlation(k, 0, 1, 2) == rho for k in (3, 4, 5)
    )
    ok = violations == 0 and correlations_ok
    _report(5, ok,
            f"{checked} set pairs, {violations} violations of joint >= eps^3; "
            f"pairwise preference correlation equals 1/3 for k in (3,4,5): {correlations_ok}")


def test_criterion_6_isoperimetry():
    exhaustive = verify_lindsey(3, 2, exhaustive=True)
    lex = verify_lindsey(6, 2, exhaustive=False)
    ok = exhaustive.holds and lex.holds
    _report(6, ok,
            f"K_3^2 exhaustive: {exhaustive.sets_checked} subsets, "
            f"{exhaustive.violations} violations; K_6^2 lexicographic: "
            f"{lex.sets_checked} segments, {lex.violations} violations")


def test_criterion_7_monotone_machinery():
    mismatches = 0
    for t in range(50):
        n = (2, 3, 4)[t % 3]
        rng = random.Random(SEED + 31 * t)
        cost_a = [rng.randrange(25) for _ in range(1 << n)]
        cost_b = [rng.randrange(25) for _ in range(1 << n)]
        _labels, cost = nearest_monotone_boolean(cost_a, cost_b)
        if cost != oracles.nearest_monotone_cost(cost_a, cost_b):
            mismatches += 1
    inequality_failures = 0
    for t in range(100):
        n = (1, 2, 3, 4)[t % 4]
        rng = random.Random(SEED + 77 * t)
        table = tuple(rng.randrange(2) for _ in range(1 << n))
        p = oracles.monotone_violation_fraction(table)
        d_tilde = oracles.monotone_distance(table)
        if p < Fraction(d_tilde, n):
            inequality_failures += 1
    ok = mismatches == 0 and inequality_failures == 0
    _report(7, ok,
            f"min-cut vs Dedekind brute force: {mismatches} mismatches over 50 cases; "
            f"violation-fraction inequality: {inequality_failures} failures over 100")


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_criterion_8_determinism():
    exact_invocations = [
        ["census", "--rule", "plurality", "-n", "3", "-k", "3"],
        ["census", "--rule", "borda", "-n", "2", "-k", "4"],
        ["verify", "--thm", "1.4", "--exhaustive", "-k", "3"],
        ["verify", "--thm", "1.2", "--random", "20", "--seed", "5", "-n", "2", "-k", "3"],
    ]
    problems = []
    for argv in exact_invocations:
        code1, out1 = _run_cli(argv + ["--tasks", "1"])
        code8, out8 = _run_cli(argv + ["--tasks", "8"])
        if not (code1 == code8 == 0) or out1 != out8:
            problems.append(argv)
    sampled = ["sample", "--rule", "borda", "-n", "2", "-k", "4",
               "--samples", "20000", "--seed", "7"]
    code1, first = _run_cli(sampled + ["--tasks", "1"])
    code8, again = _run_cli(sampled + ["--tasks", "8"])
    if not (code1 == code8 == 0) or first != again:
        problems.append(sampled)
    ok = not problems
    _report(8, ok,
            "byte-identical reports across task counts 1 and 8 for "
            f"{len(exact_invocations)} exact and 1 sampled invocation"
            + (f"; problems: {problems}" if problems else ""))
