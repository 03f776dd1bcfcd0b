"""Bound evaluation and empirical verification of the manipulability theorems.

Each verifiable statement gets an id. The registry maps ids to exact rational
bound formulas; the verifiers compare those bounds against brute-force
quantities (census fractions, influences, distances) with zero tolerance. A
holds=False report is a build-breaking finding and is preserved as a
counterexample bundle.

Statement ids:
  1.2   profile-manipulation bound for n voters: P(M_4) >= eps^15/(10^39 n^67 k^166),
        eps the distance to the nonmanipulable family
  1.2-pair  random 4-window manipulation-pair bound eps^15/(10^41 n^68 k^167)
  1.4   one-voter bound: P(M_3) >= eps^3/(10^5 k^16)
  3.1   coarse-graph bound: P(M) >= eps^5/(4 n^7 k^12 (k!)^4), eps the distance
        to the one-coordinate-or-two-valued family
  3.1-pair  coordinate-rerandomizing pair bound eps^5/(4 n^8 k^12 (k!)^5)
  7.1   refined-graph bound: P(M_4) >= eps^5/(10^9 n^7 k^46)
  7.1-pair  random 4-window pair bound eps^5/(10^11 n^8 k^47)
  1.5   reduction disjunction; the registry entry is the cubed comparison
        threshold 100^3 n^12 k^24 alpha for D(f, nonmanip)^3
  2.1   two large coarse influences 2 eps/(n k^2 (k-1)) in distinct coordinates
  5.3   refined variant: P(M_2) >= 4 eps/(n k^7) or two influences >= 2 eps/(n k^7)
  6.1   one-voter variant: P(M_2) >= 4 eps/k^6 or one influence >= 2 eps/k^6
  gamma-coarse / gamma-refined   fiber-size thresholds eps^3/(4 n^3 k^9) and
        eps^3/(10^3 n^3 k^24)
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Optional

from . import engine
from .errors import CapExceededError
from .fibers import pairwise_preference_correlation
from .manip import census, check_window_tables, nonmanip_membership
from .metrics import (
    coordinate_influences,
    distance_to_nonmanip,
    distance_to_nonmanip_bar,
    frac_str,
)
from .rankings import AdjacentTransposition, check_cap
from .scf import DEFAULT_TABLE_CAP, SCF, TableSCF, random_table_scf

RHO_PREFERENCE_PAIRS = Fraction(1, 3)

# Largest cube dimension the reverse hypercontractivity check enumerates.
MAX_CUBE_BITS = 10

# Most one-voter SCFs the exhaustive sweep enumerates (3^6 = 729 at k = 3).
MAX_ONE_VOTER_FUNCTIONS = 10 ** 6


@dataclass(frozen=True)
class BoundParams:
    """Inputs to the bound formulas; unused fields may stay None."""

    n: Optional[int] = None
    k: Optional[int] = None
    epsilon: Optional[Fraction] = None
    alpha: Optional[Fraction] = None

    def require(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"bound needs parameter {name!r}")
            if name in ("epsilon", "alpha") and not 0 <= value <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
            if name == "k" and value < 3:
                raise ValueError("bounds require k >= 3")
            if name == "n" and value < 1:
                raise ValueError("bounds require n >= 1")


_BOUNDS = {
    "1.2": (("epsilon", "n", "k"),
            lambda p: p.epsilon ** 15 / (10 ** 39 * p.n ** 67 * p.k ** 166)),
    "1.2-pair": (("epsilon", "n", "k"),
                 lambda p: p.epsilon ** 15 / (10 ** 41 * p.n ** 68 * p.k ** 167)),
    "1.4": (("epsilon", "k"),
            lambda p: p.epsilon ** 3 / (10 ** 5 * p.k ** 16)),
    "3.1": (("epsilon", "n", "k"),
            lambda p: p.epsilon ** 5 / (4 * p.n ** 7 * p.k ** 12 * factorial(p.k) ** 4)),
    "3.1-pair": (("epsilon", "n", "k"),
                 lambda p: p.epsilon ** 5 / (4 * p.n ** 8 * p.k ** 12 * factorial(p.k) ** 5)),
    "7.1": (("epsilon", "n", "k"),
            lambda p: p.epsilon ** 5 / (10 ** 9 * p.n ** 7 * p.k ** 46)),
    "7.1-pair": (("epsilon", "n", "k"),
                 lambda p: p.epsilon ** 5 / (10 ** 11 * p.n ** 8 * p.k ** 47)),
    "1.5": (("alpha", "n", "k"),
            lambda p: 100 ** 3 * p.n ** 12 * p.k ** 24 * p.alpha),
    "2.1": (("epsilon", "n", "k"),
            lambda p: 2 * p.epsilon / (p.n * p.k ** 2 * (p.k - 1))),
    "5.3-manip": (("epsilon", "n", "k"),
                  lambda p: 4 * p.epsilon / (p.n * p.k ** 7)),
    "5.3-influence": (("epsilon", "n", "k"),
                      lambda p: 2 * p.epsilon / (p.n * p.k ** 7)),
    "6.1-manip": (("epsilon", "k"),
                  lambda p: 4 * p.epsilon / p.k ** 6),
    "6.1-influence": (("epsilon", "k"),
                      lambda p: 2 * p.epsilon / p.k ** 6),
    "gamma-coarse": (("epsilon", "n", "k"),
                     lambda p: p.epsilon ** 3 / (4 * p.n ** 3 * p.k ** 9)),
    "gamma-refined": (("epsilon", "n", "k"),
                      lambda p: p.epsilon ** 3 / (10 ** 3 * p.n ** 3 * p.k ** 24)),
}


def bound_value(statement: str, params: BoundParams) -> Fraction:
    """Exact value of a registered bound at the given parameters."""
    try:
        required, formula = _BOUNDS[statement]
    except KeyError:
        raise ValueError(f"unknown bound id {statement!r}") from None
    params.require(*required)
    return Fraction(formula(params))


@dataclass
class VerificationReport:
    """One statement checked against a brute-force quantity."""

    statement: str
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    holds: bool
    comparison: str = "lhs >= rhs"
    witnesses: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def describe(self) -> dict:
        return {
            "statement": self.statement,
            "lhs": None if self.lhs is None else frac_str(self.lhs),
            "rhs": None if self.rhs is None else frac_str(self.rhs),
            "holds": self.holds,
            "comparison": self.comparison,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }


MAIN_THEOREMS = ("1.2", "1.4", "3.1", "7.1")

# Which census width and distance family feeds each main statement.
_MAIN_PLAN = {
    "1.2": (4, "nonmanip"),
    "1.4": (3, "nonmanip"),
    "3.1": (None, "nonmanip-bar"),
    "7.1": (4, "nonmanip-bar"),
}


def verify_main_theorems(f: SCF, which=MAIN_THEOREMS,
                         cap: int = DEFAULT_TABLE_CAP) -> list[VerificationReport]:
    """Compare census fractions against the headline lower bounds.

    Statement 1.4 needs n = 1; statements 3.1 and 7.1 need n >= 2.
    """
    reports = []
    widths = sorted({min(w, f.k) for w, _fam in (_MAIN_PLAN[s] for s in which)
                     if w is not None} | {f.k})
    cen = census(f, widths, cap)
    # Each family's distance is measured once, when a statement first needs it.
    distances = {"nonmanip": distance_to_nonmanip, "nonmanip-bar": distance_to_nonmanip_bar}
    measured = lru_cache(maxsize=None)(lambda family: distances[family](f, cap).value)

    for statement in which:
        width, family = _MAIN_PLAN[statement]
        if statement == "1.4" and f.n != 1:
            raise ValueError("statement 1.4 applies to one-voter functions only")
        if statement in ("3.1", "7.1") and f.n < 2:
            raise ValueError(f"statement {statement} needs n >= 2")
        eps = measured(family)
        params = BoundParams(n=f.n, k=f.k, epsilon=eps)
        rhs = bound_value(statement, params)
        lhs = cen.fraction(min(width, f.k)) if width is not None else cen.manipulable_fraction()
        reports.append(VerificationReport(
            statement=statement, lhs=lhs, rhs=rhs, holds=lhs >= rhs,
            witnesses={
                "epsilon": frac_str(eps),
                "distance_family": family,
                "census": cen.describe(),
            },
        ))
    return reports


def _influence_entry(i: int, pair: tuple[int, int], value: Fraction) -> dict:
    a, b = pair
    return {"coordinate": i + 1, "pair": [a + 1, b + 1], "influence": frac_str(value)}

def _qualifying_influences(f: SCF, threshold: Fraction, cap: int, witnesses: dict,
                           refined: bool) -> list:
    """(i, (a, b), value) for each a < b whose influence reaches the threshold,
    recorded with the threshold in ``witnesses``: the pair influence of a to b,
    or with ``refined`` the refined influence of a to b under the transposition
    of a and b. One count pass per coordinate.
    """
    qualifying = []
    for i in range(f.n):
        inf = coordinate_influences(f, i, cap, coarse=not refined, refined=refined)
        for a in range(f.k):
            for b in range(a + 1, f.k):
                value = (inf.refined(a, b, AdjacentTransposition(a, b)) if refined
                         else inf.pair(a, b))
                if value >= threshold:
                    qualifying.append((i, (a, b), value))
    witnesses["threshold"] = frac_str(threshold)
    witnesses["qualifying"] = [_influence_entry(*q) for q in qualifying]
    return qualifying


def _two_coordinate_witness(qualifying, witnesses: dict) -> bool:
    """Record the first two qualifying entries in distinct coordinates whose
    pairs differ, the second's first alternative outside the first pair."""
    for first in qualifying:
        i, (a, b), _value = first
        for j, (c, d), value in qualifying:
            if j == i or {c, d} == {a, b}:
                continue
            if c in (a, b):
                c, d = d, c
            witnesses["witness"] = {"first": _influence_entry(*first),
                                    "second": _influence_entry(j, (c, d), value)}
            return True
    return False


def verify_lemma_influences(f: SCF, epsilon: Optional[Fraction] = None,
                            statement: str = "2.1",
                            cap: int = DEFAULT_TABLE_CAP) -> VerificationReport:
    """Find the large-influence witnesses the influence lemmas promise.

    epsilon defaults to the measured distance (to the one-coordinate-or-two-
    valued family for 2.1 and 5.3, to the nonmanipulable family for 6.1). A
    zero distance leaves the lemma vacuous, reported as precondition-not-met.
    """
    if statement not in ("2.1", "5.3", "6.1"):
        raise ValueError(f"unknown influence lemma {statement!r}")
    if statement == "6.1":
        if f.n != 1:
            raise ValueError("statement 6.1 applies to one-voter functions only")
        measured = distance_to_nonmanip(f, cap).value
    else:
        if f.n < 2:
            raise ValueError(f"statement {statement} needs n >= 2")
        measured = distance_to_nonmanip_bar(f, cap).value
    if epsilon is None:
        epsilon = measured
    elif measured < epsilon:
        raise ValueError(
            f"precondition violated: measured distance {measured} < epsilon {epsilon}"
        )
    if epsilon == 0:
        return VerificationReport(
            statement=statement, lhs=None, rhs=None, holds=True,
            comparison="vacuous",
            notes=["precondition-not-met: distance is 0, statement is vacuous"],
        )

    params = BoundParams(n=f.n, k=f.k, epsilon=epsilon)
    witnesses: dict = {"epsilon": frac_str(epsilon)}
    notes: list[str] = []

    if statement == "2.1":
        threshold = bound_value("2.1", params)
        qualifying = _qualifying_influences(f, threshold, cap, witnesses, refined=False)
        holds = _two_coordinate_witness(qualifying, witnesses)
        return VerificationReport(
            statement=statement, lhs=None, rhs=threshold, holds=holds,
            comparison="two qualifying influences in distinct coordinates",
            witnesses=witnesses, notes=notes,
        )

    manip_id = "5.3-manip" if statement == "5.3" else "6.1-manip"
    inf_id = "5.3-influence" if statement == "5.3" else "6.1-influence"
    manip_threshold = bound_value(manip_id, params)
    cen = census(f, (2,), cap)
    m2 = cen.fraction(2)
    witnesses["m2"] = frac_str(m2)
    witnesses["m2_threshold"] = frac_str(manip_threshold)
    if m2 >= manip_threshold:
        return VerificationReport(
            statement=statement, lhs=m2, rhs=manip_threshold, holds=True,
            comparison="2-manipulation branch", witnesses=witnesses, notes=notes,
        )

    threshold = bound_value(inf_id, params)
    qualifying = _qualifying_influences(f, threshold, cap, witnesses, refined=True)
    if statement == "6.1":
        holds = bool(qualifying)
        comparison = "2-manipulation branch or one qualifying influence"
    else:
        holds = _two_coordinate_witness(qualifying, witnesses)
        comparison = "2-manipulation branch or two qualifying influences"
    return VerificationReport(
        statement=statement, lhs=None, rhs=threshold, holds=holds,
        comparison=comparison, witnesses=witnesses, notes=notes,
    )


def verify_thm_1_5(f: SCF, alpha: Optional[Fraction] = None,
                   cap: int = DEFAULT_TABLE_CAP) -> VerificationReport:
    """Check the reduction disjunction at a measured (or supplied) alpha.

    Either the distance to the nonmanipulable family stays below the cubed
    threshold, or 3-window manipulation mass reaches alpha. The cube-compare
    avoids irrational arithmetic.
    """
    measured = distance_to_nonmanip_bar(f, cap).value
    if alpha is None:
        alpha = measured
    elif measured > alpha:
        raise ValueError(
            f"precondition violated: measured distance {measured} > alpha {alpha}"
        )
    d_nonmanip = distance_to_nonmanip(f, cap).value
    threshold_cubed = bound_value("1.5", BoundParams(n=f.n, k=f.k, alpha=alpha))
    first = d_nonmanip ** 3 < threshold_cubed
    m3 = census(f, (3,), cap).fraction(3)
    second = m3 >= alpha
    notes = []
    if alpha == 0:
        notes.append("degenerate: alpha = 0 makes the manipulation branch trivial")
    return VerificationReport(
        statement="1.5",
        lhs=d_nonmanip ** 3,
        rhs=threshold_cubed,
        holds=first or second,
        comparison="distance branch (lhs < rhs) or manipulation branch",
        witnesses={
            "alpha": frac_str(alpha),
            "distance_nonmanip": frac_str(d_nonmanip),
            "m3": frac_str(m3),
            "distance_branch": first,
            "manipulation_branch": second,
        },
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Reverse hypercontractivity.


def verify_reverse_hypercontractivity(n: int, rho: Fraction, B1, B2,
                                      max_bits: int = MAX_CUBE_BITS) -> VerificationReport:
    """Exact check that correlated cubes overlap: P(x in B1, y in B2) >= eps^(2/(1-rho)).

    Coordinates are independent with uniform +-1 marginals and correlation
    rho; eps is the smaller marginal. The exponent 2/(1-rho) is rational for
    rational rho; both sides are raised to its denominator so the comparison
    stays exact.
    """
    if n < 1 or n > max_bits:
        raise CapExceededError(f"n={n} outside the supported range [1, {max_bits}]")
    rho = Fraction(rho)
    if not abs(rho) < 1:
        raise ValueError("|rho| must be < 1")
    size = 1 << n
    set1 = sorted(set(B1))
    set2 = sorted(set(B2))
    if any(not 0 <= x < size for x in set1 + set2):
        raise ValueError("set members must be n-bit masks")

    p, q = rho.numerator, rho.denominator
    weights = [(q + p) ** (n - d) * (q - p) ** d for d in range(n + 1)]
    total = 0
    for x in set1:
        for y in set2:
            total += weights[bin(x ^ y).count("1")]
    joint = Fraction(total, (4 * q) ** n)

    eps = Fraction(min(len(set1), len(set2)), size)
    exponent = 2 / (1 - rho)
    u, v = exponent.numerator, exponent.denominator
    holds = joint ** v >= eps ** u
    rhs = eps ** u if v == 1 else None
    notes = []
    if v != 1:
        notes.append(f"fractional exponent {u}/{v}: compared joint^{v} >= eps^{u}")
    if not set1 or not set2:
        notes.append("degenerate: an empty set has zero mass on both sides")
    return VerificationReport(
        statement="reverse-hypercontractivity",
        lhs=joint, rhs=rhs, holds=holds,
        comparison=f"joint >= eps^({u}/{v})",
        witnesses={
            "rho": frac_str(rho),
            "eps": frac_str(eps),
            "marginal1": frac_str(Fraction(len(set1), size)),
            "marginal2": frac_str(Fraction(len(set2), size)),
        },
        notes=notes,
    )


def preference_correlation_check(ks=(3, 4, 5)) -> bool:
    """The rho = 1/3 preset equals the enumerated pairwise preference correlation."""
    for k in ks:
        if pairwise_preference_correlation(k, 0, 1, 2) != RHO_PREFERENCE_PAIRS:
            return False
    return True


# ---------------------------------------------------------------------------
# Sweeps.


@dataclass
class SweepReport:
    """Aggregate of verifying one statement family over many functions."""

    label: str
    total: int
    passed: int
    failures: list[dict]
    stats: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.passed == self.total

    def describe(self) -> dict:
        return {
            "label": self.label,
            "total": self.total,
            "passed": self.passed,
            "holds": self.holds,
            "failures": self.failures,
            "stats": self.stats,
        }


def _check_instance_caps(n: int, k: int, cap: int) -> None:
    """Refuse, before any sweep instance runs, tables or census window tables over ``cap``."""
    check_cap(cap, "(k!)^n table entries", k, n)
    check_window_tables(k, cap)


def _one_voter_chunk(k: int, lo: int, hi: int, cap: int):
    fact = factorial(k)
    nonmanip_count = 0
    failures = []
    for t in range(lo, hi):
        # Function t's outcome on rank j is base-k digit j of t, least significant first.
        f = TableSCF(1, k, bytes(t // k ** j % k for j in range(fact)))
        eps = distance_to_nonmanip(f, cap).value
        cen = census(f, (3, k), cap)
        rhs = bound_value("1.4", BoundParams(k=k, epsilon=eps))
        ok_bound = cen.fraction(3) >= rhs
        member = nonmanip_membership(f, cap)
        empty = cen.manipulable_count() == 0
        ok_dichotomy = empty == (member is not None)
        ok_distance = (eps == 0) == empty
        if member is not None:
            nonmanip_count += 1
        if not (ok_bound and ok_dichotomy and ok_distance):
            failures.append({
                "function_index": t,
                "table": [x + 1 for x in f.table()],
                "epsilon": frac_str(eps),
                "m3": frac_str(cen.fraction(3)),
                "bound": frac_str(rhs),
                "bound_holds": ok_bound,
                "dichotomy_holds": ok_dichotomy,
                "distance_zero_iff_nonmanipulable": ok_distance,
            })
    return nonmanip_count, failures


def one_voter_function_count(k: int, limit: int = MAX_ONE_VOTER_FUNCTIONS) -> int:
    """The number of one-voter SCFs on k >= 3 alternatives, ``k^(k!)``, refused over
    ``limit``; as ``k^(k!) >= 2^(k!)``, the check cuts the exponent at the limit's bit length."""
    if k < 3:
        raise ValueError(f"the one-voter sweep needs k >= 3, got k={k}")
    check_cap(limit, "one-voter functions", k, n=1,
              count=lambda: k ** min(factorial(k), limit.bit_length()))
    return k ** factorial(k)


def sweep_one_voter(k: int, tasks: int = 1, cap: int = DEFAULT_TABLE_CAP) -> SweepReport:
    """Verify statement 1.4 and the dichotomy over every one-voter SCF.

    Feasible only for tiny k (k = 3 means 3^6 = 729 functions). ``cap`` bounds
    each function's table and census window tables, as for a single SCF.
    """
    total = one_voter_function_count(k)
    _check_instance_caps(1, k, cap)
    chunks = [(k, lo, hi, cap) for lo, hi in engine.split_ranges(total, tasks)]
    parts = engine.map_chunks(_one_voter_chunk, chunks, tasks)
    nonmanip_count = sum(p[0] for p in parts)
    failures = [row for p in parts for row in p[1]]
    return SweepReport(
        label=f"one-voter exhaustive sweep, k={k}, statement 1.4 + dichotomy",
        total=total, passed=total - len(failures), failures=failures,
        stats={"nonmanipulable_functions": nonmanip_count},
    )


def _random_tables_chunk(n: int, k: int, seed: int, lo: int, hi: int, cap: int):
    failures = []
    for t in range(lo, hi):
        f = random_table_scf(n, k, engine.derive_stream_seed(seed, t), cap)
        reports = verify_main_theorems(f, ("1.2",), cap)
        reports.append(verify_lemma_influences(f, statement="2.1", cap=cap))
        reports.append(verify_thm_1_5(f, cap=cap))
        bad = [r for r in reports if not r.holds]
        if bad:
            failures.append({
                "instance": t,
                "seed": engine.derive_stream_seed(seed, t),
                "reports": [r.describe() for r in bad],
            })
    return failures


def sweep_random_tables(n: int, k: int, count: int, seed: int, tasks: int = 1,
                        cap: int = DEFAULT_TABLE_CAP) -> SweepReport:
    """Verify statements 1.2, 2.1 and 1.5 over seeded random table SCFs, each
    table and its census window tables bounded by ``cap``."""
    if count < 1:
        raise ValueError(f"the random sweep needs a count of at least 1, got {count}")
    _check_instance_caps(n, k, cap)
    chunks = [(n, k, seed, lo, hi, cap) for lo, hi in engine.split_ranges(count, tasks)]
    parts = engine.map_chunks(_random_tables_chunk, chunks, tasks)
    failures = [row for p in parts for row in p]
    return SweepReport(
        label=f"random-table sweep, n={n}, k={k}, statements 1.2 + 2.1 + 1.5",
        total=count, passed=count - len(failures), failures=failures,
        stats={"seed": seed},
    )


def report_lines(reports) -> str:
    """Serialize verification reports as JSON lines, one report per line."""
    return "".join(
        json.dumps(r.describe(), sort_keys=True) + "\n" for r in reports
    )


# ---------------------------------------------------------------------------
# Counterexample bundles.


def write_counterexample(report: VerificationReport, f: Optional[SCF],
                         directory: str) -> str:
    """Serialize a failed verification (manifest plus the SCF table)."""
    os.makedirs(directory, exist_ok=True)
    manifest = {"report": report.describe()}
    if f is not None:
        from .scf import dump_scf_table

        table_path = os.path.join(directory, "scf_table.json")
        dump_scf_table(f, table_path)
        manifest["scf_table"] = "scf_table.json"
        manifest["shape"] = {"n": f.n, "k": f.k}
    path = os.path.join(directory, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
