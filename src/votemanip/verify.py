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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial
from typing import NamedTuple, Optional

from . import engine
from .errors import CapExceededError
from .graphs import CoordinateInfluences, GraphKind
from .manip import (
    ManipulationCensus,
    census_tables,
    check_census,
    nonmanip_membership,
)
from .metrics import distance_to_nonmanip, distance_to_nonmanip_bar, frac_str
from .rankings import check_cap, profile_space_size
from .scf import DEFAULT_TABLE_CAP, SCF, Block, TableSCF, random_table_scf

# Largest cube dimension the reverse hypercontractivity check enumerates.
MAX_CUBE_BITS = 10

# Most one-voter SCFs the exhaustive sweep enumerates (3^6 = 729 at k = 3).
MAX_ONE_VOTER_FUNCTIONS = 10 ** 6

# Table bytes a sweep joins for one pass of each count: a block holds as many
# instances as fit, and at least one. Past a few dozen tables a larger block
# saves little time, and each SCF and census it holds takes about 0.6 KB.
SWEEP_BLOCK_BYTES = 1 << 10


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
    """Exact value of a registered bound at the given parameters, evaluated
    once per distinct formula and parameters (a sweep meets few distinct ones)."""
    try:
        required, formula = _BOUNDS[statement]
    except KeyError:
        raise ValueError(f"unknown bound id {statement!r}") from None
    return _bound(required, formula, params)


@lru_cache(maxsize=1 << 12)
def _bound(required, formula, params: BoundParams) -> Fraction:
    params.require(*required)
    return Fraction(formula(params))


def _described(value):
    """A witness value as the report shows it: a ``Fraction`` as ``"p/q"``,
    anything with a ``describe()`` as its description, dicts and lists item by
    item, anything else as it is."""
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, dict):
        return {key: _described(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_described(item) for item in value]
    describe = getattr(value, "describe", None)
    return value if describe is None else describe()


@dataclass
class VerificationReport:
    """One statement checked against a brute-force quantity. The witnesses
    are kept as measured and formatted by :meth:`describe` (:func:`_described`),
    so a check that holds formats none of them unless its report is shown."""

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
            "witnesses": _described(self.witnesses),
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


class Measurements:
    """An SCF and the quantities the statements compare, each measured at most
    once, on first use: the census and the distances to both families.

    The census is the SCF's :func:`manip.census_tables` count
    (:meth:`SCF.counted`), at every width from 2 up to the widest asked for,
    so a narrower request later reads it; only a wider one counts again. An
    SCF that a sweep placed in a block reads the count its block made
    (:func:`measured_instances`).
    """

    def __init__(self, f: SCF):
        self.f = f
        self._census: Optional[ManipulationCensus] = None
        self._distances: dict[str, Fraction] = {}

    def census(self, widths) -> ManipulationCensus:
        """The census counts at ``widths``, each from 2 to k."""
        if self._census is None or max(widths) > max(self._census.counts):
            f = self.f
            self._census = f.counted(census_tables, tuple(range(2, max(widths) + 1)), f.cap)
        return replace(self._census, counts={w: self._census.counts[w] for w in widths})

    def distance(self, family: str) -> Fraction:
        """The distance to the ``"nonmanip"`` or the ``"nonmanip-bar"`` family."""
        if family not in self._distances:
            measure = distance_to_nonmanip if family == "nonmanip" else distance_to_nonmanip_bar
            self._distances[family] = measure(self.f).value
        return self._distances[family]


def _check_shape(n: int, k: int, statement: str) -> None:
    """Refuse, before anything is built or measured, a statement that the shape does not fit."""
    if statement in ("1.4", "6.1") and n != 1:
        raise ValueError(f"statement {statement} applies to one-voter functions only")
    if statement in ("3.1", "7.1", "2.1", "5.3") and n < 2:
        raise ValueError(f"statement {statement} needs n >= 2")
    BoundParams(n=n, k=k).require("n", "k")


def verify_main_theorems(measured: Measurements,
                         which=MAIN_THEOREMS) -> list[VerificationReport]:
    """Compare census fractions against the headline lower bounds.

    Statement 1.4 needs n = 1; statements 3.1 and 7.1 need n >= 2.
    """
    f = measured.f
    for statement in which:
        _check_shape(f.n, f.k, statement)
    # A statement without a width (3.1) reads the census at k, which is always taken.
    cen = measured.census(sorted({min(_MAIN_PLAN[s][0] or f.k, f.k) for s in which} | {f.k}))
    reports = []
    for statement in which:
        width, family = _MAIN_PLAN[statement]
        eps = measured.distance(family)
        rhs = bound_value(statement, BoundParams(n=f.n, k=f.k, epsilon=eps))
        lhs = cen.fraction(min(width, f.k)) if width is not None else cen.manipulable_fraction()
        reports.append(VerificationReport(
            statement=statement, lhs=lhs, rhs=rhs, holds=lhs >= rhs,
            witnesses={"epsilon": eps, "distance_family": family, "census": cen},
        ))
    return reports


class _Influence(NamedTuple):
    """A qualifying influence, ``count / denominator``, as measured; a
    ``Fraction`` only when its report is shown."""

    coordinate: int
    pair: tuple[int, int]
    count: int
    denominator: int

    def describe(self) -> dict:
        a, b = self.pair
        return {"coordinate": self.coordinate + 1, "pair": [a + 1, b + 1],
                "influence": frac_str(Fraction(self.count, self.denominator))}


def _qualifying_influences(measured: Measurements, threshold: Fraction, witnesses: dict,
                           refined: bool) -> list[_Influence]:
    """Each a < b whose influence reaches the threshold, recorded with the
    threshold in ``witnesses``: the pair influence of a to b, or with
    ``refined`` the refined influence of a to b under the transposition of a
    and b. One count pass per coordinate; an influence ``count / den``
    reaches ``p / q`` when ``count * q >= p * den``, so no entry becomes a
    ``Fraction`` unless its report is shown.
    """
    f = measured.f
    kind = GraphKind.SWAP if refined else GraphKind.COARSE
    p, q = threshold.numerator, threshold.denominator
    qualifying = []
    for i in range(f.n):
        inf = CoordinateInfluences(f, i)
        den = inf.denominator(kind)
        for a in range(f.k):
            for b in range(a + 1, f.k):
                count = inf.count(a, b, kind)
                if count * q >= p * den:
                    qualifying.append(_Influence(i, (a, b), count, den))
    witnesses["threshold"] = threshold
    witnesses["qualifying"] = qualifying
    return qualifying


def _two_coordinate_witness(qualifying, witnesses: dict) -> bool:
    """Record the first two qualifying entries in distinct coordinates whose
    pairs differ, the second's first alternative outside the first pair."""
    for first in qualifying:
        i, (a, b), _count, _den = first
        for second in qualifying:
            j, (c, d), _count, _den = second
            if j == i or {c, d} == {a, b}:
                continue
            if c in (a, b):
                second = second._replace(pair=(d, c))
            witnesses["witness"] = {"first": first, "second": second}
            return True
    return False


def verify_lemma_influences(measured: Measurements, epsilon: Optional[Fraction] = None,
                            statement: str = "2.1") -> VerificationReport:
    """Find the large-influence witnesses the influence lemmas promise.

    epsilon defaults to the measured distance (to the one-coordinate-or-two-
    valued family for 2.1 and 5.3, to the nonmanipulable family for 6.1). A
    zero distance leaves the lemma vacuous, reported as precondition-not-met.
    """
    if statement not in ("2.1", "5.3", "6.1"):
        raise ValueError(f"unknown influence lemma {statement!r}")
    f = measured.f
    _check_shape(f.n, f.k, statement)
    distance = measured.distance("nonmanip" if statement == "6.1" else "nonmanip-bar")
    if epsilon is None:
        epsilon = distance
    elif distance < epsilon:
        raise ValueError(
            f"precondition violated: measured distance {distance} < epsilon {epsilon}"
        )
    if epsilon == 0:
        return VerificationReport(
            statement=statement, lhs=None, rhs=None, holds=True,
            comparison="vacuous",
            notes=["precondition-not-met: distance is 0, statement is vacuous"],
        )

    params = BoundParams(n=f.n, k=f.k, epsilon=epsilon)
    witnesses: dict = {"epsilon": epsilon}

    if statement == "2.1":
        threshold = bound_value("2.1", params)
        qualifying = _qualifying_influences(measured, threshold, witnesses, refined=False)
        holds = _two_coordinate_witness(qualifying, witnesses)
        return VerificationReport(
            statement=statement, lhs=None, rhs=threshold, holds=holds,
            comparison="two qualifying influences in distinct coordinates",
            witnesses=witnesses,
        )

    manip_id = "5.3-manip" if statement == "5.3" else "6.1-manip"
    inf_id = "5.3-influence" if statement == "5.3" else "6.1-influence"
    manip_threshold = bound_value(manip_id, params)
    m2 = measured.census((2,)).fraction(2)
    witnesses["m2"] = m2
    witnesses["m2_threshold"] = manip_threshold
    if m2 >= manip_threshold:
        return VerificationReport(
            statement=statement, lhs=m2, rhs=manip_threshold, holds=True,
            comparison="2-manipulation branch", witnesses=witnesses,
        )

    threshold = bound_value(inf_id, params)
    qualifying = _qualifying_influences(measured, threshold, witnesses, refined=True)
    if statement == "6.1":
        holds = bool(qualifying)
        comparison = "2-manipulation branch or one qualifying influence"
    else:
        holds = _two_coordinate_witness(qualifying, witnesses)
        comparison = "2-manipulation branch or two qualifying influences"
    return VerificationReport(
        statement=statement, lhs=None, rhs=threshold, holds=holds,
        comparison=comparison, witnesses=witnesses,
    )


def verify_thm_1_5(measured: Measurements,
                   alpha: Optional[Fraction] = None) -> VerificationReport:
    """Check the reduction disjunction at a measured (or supplied) alpha.

    Either the distance to the nonmanipulable family stays below the cubed
    threshold, or 3-window manipulation mass reaches alpha. The cube-compare
    avoids irrational arithmetic.
    """
    f = measured.f
    _check_shape(f.n, f.k, "1.5")
    distance = measured.distance("nonmanip-bar")
    if alpha is None:
        alpha = distance
    elif distance > alpha:
        raise ValueError(
            f"precondition violated: measured distance {distance} > alpha {alpha}"
        )
    d_nonmanip = measured.distance("nonmanip")
    threshold_cubed = bound_value("1.5", BoundParams(n=f.n, k=f.k, alpha=alpha))
    first = d_nonmanip ** 3 < threshold_cubed
    m3 = measured.census((3,)).fraction(3)
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
            "alpha": alpha,
            "distance_nonmanip": d_nonmanip,
            "m3": m3,
            "distance_branch": first,
            "manipulation_branch": second,
        },
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Reverse hypercontractivity.


def verify_reverse_hypercontractivity(n: int, rho: Fraction, B1, B2) -> VerificationReport:
    """Exact check that correlated cubes overlap: P(x in B1, y in B2) >= eps^(2/(1-rho)).

    Coordinates are independent with uniform +-1 marginals and correlation
    rho; eps is the smaller marginal. The exponent 2/(1-rho) is rational for
    rational rho; both sides are raised to its denominator so the comparison
    stays exact.
    """
    if n < 1 or n > MAX_CUBE_BITS:
        raise CapExceededError(f"n={n} outside the supported range [1, {MAX_CUBE_BITS}]")
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
            "rho": rho,
            "eps": eps,
            "marginal1": Fraction(len(set1), size),
            "marginal2": Fraction(len(set2), size),
        },
        notes=notes,
    )


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


def measured_instances(build, lo: int, hi: int, n: int, k: int, cap: int = DEFAULT_TABLE_CAP):
    """``(t, Measurements)`` of the (n, k) SCF ``build(t)`` for t = lo..hi-1, in
    order, each count taken in its block.

    A block joins as many tables as fit in ``SWEEP_BLOCK_BYTES`` (at least one)
    into a :class:`scf.Block`. Every count the statements read goes through
    :meth:`SCF.counted`, which makes it for the whole block on the first read
    by any member: the census (:func:`manip.census_tables`) at the widths
    :class:`Measurements` asks for, 2 to k at the sweeps' first read, rank
    counts (:func:`rankings.rank_outcome_counts`) for both distances, fiber
    counts (:func:`rankings.fiber_outcome_counts`) for the min-cut branch, and
    transition counts (:func:`graphs.transition_counts`) for the coarse
    influences. Each is one split of the joined tables and one lane sum per
    quantity (:func:`rankings.instance_sums`), whatever the block holds. In
    a rank part of voter i the lanes run over the voters after i, then the
    table, then the voters before i (one span per table only for i = n - 1);
    in a fiber part the table is the fastest lane index. So each table's sum
    folds the outer blocks before it sums its span. Over 4,000 (2, 3) tables,
    blocks of 28 took the per-table rank, fiber and transition counts from
    about 25, 30 and 49 µs to 6, 5 and 8 µs on a 2-vCPU VM. An SCF is dropped
    once its measurements are. What the census builds is refused over
    ``cap`` (:func:`manip.check_census`) before the first SCF is built.
    """
    check_census(n, k, range(2, max(k, 2) + 1), cap)
    per_block = max(1, SWEEP_BLOCK_BYTES // profile_space_size(n, k))
    for start in range(lo, hi, per_block):
        indices = range(start, min(hi, start + per_block))
        scfs = [build(t) for t in indices]
        Block(scfs)
        scfs.reverse()
        for t in indices:
            yield t, Measurements(scfs.pop())


def one_voter_function(k: int, t: int, cap: int = DEFAULT_TABLE_CAP) -> TableSCF:
    """One-voter SCF number t of the ``k^(k!)``: its outcome on rank j is base-k
    digit j of t, least significant first."""
    return TableSCF(1, k, bytes(t // k ** j % k for j in range(factorial(k))), cap=cap)


def one_voter_rows(k: int, lo: int, hi: int, cap: int = DEFAULT_TABLE_CAP):
    """The rows of the one-voter sweep for functions lo..hi-1, in order: statement
    1.4 on each, the dichotomy (manipulable exactly when no member of the
    nonmanipulable family equals it) and a zero distance exactly when it is not
    manipulable."""
    build = partial(one_voter_function, k, cap=cap)
    for t, measured in measured_instances(build, lo, hi, 1, k, cap):
        f = measured.f
        (report,) = verify_main_theorems(measured, ("1.4",))
        eps = measured.distance("nonmanip")
        manipulable = measured.census((k,)).manipulable_count() > 0
        checks = {
            "bound_holds": report.holds,
            "dichotomy_holds": manipulable == (nonmanip_membership(f) is None),
            "distance_zero_iff_nonmanipulable": (eps == 0) != manipulable,
        }
        yield {"function_index": t, "table": [x + 1 for x in f.table()],
               "epsilon": frac_str(eps), "m3": frac_str(report.lhs),
               "bound": frac_str(report.rhs), "manipulable": manipulable, **checks,
               "holds": all(checks.values())}


def _one_voter_chunk(k: int, lo: int, hi: int, cap: int):
    nonmanipulable, failures = 0, []
    for row in one_voter_rows(k, lo, hi, cap):
        nonmanipulable += not row["manipulable"]
        if not row["holds"]:
            failures.append(row)
    return nonmanipulable, failures


def one_voter_function_count(k: int) -> int:
    """The number of one-voter SCFs on k >= 3 alternatives, ``k^(k!)``, refused over
    ``MAX_ONE_VOTER_FUNCTIONS``; as ``k^(k!) >= 2^(k!)``, the exponent is cut at its bit length."""
    if k < 3:
        raise ValueError(f"the one-voter sweep needs k >= 3, got k={k}")
    check_cap(MAX_ONE_VOTER_FUNCTIONS, "one-voter functions", k, n=1,
              count=lambda: k ** min(factorial(k), MAX_ONE_VOTER_FUNCTIONS.bit_length()))
    return k ** factorial(k)


def sweep_one_voter(k: int, tasks: int = 1, cap: int = DEFAULT_TABLE_CAP) -> SweepReport:
    """Verify statement 1.4 and the dichotomy over every one-voter SCF.

    Feasible only for tiny k (k = 3 means 3^6 = 729 functions). Each function
    is built with ``cap``, which is checked once before the first runs.
    """
    total = one_voter_function_count(k)
    check_census(1, k, range(2, k + 1), cap)
    chunks = [(k, lo, hi, cap) for lo, hi in engine.split_ranges(total, tasks)]
    parts = engine.map_chunks(_one_voter_chunk, chunks, tasks)
    nonmanip_count = sum(p[0] for p in parts)
    failures = [row for p in parts for row in p[1]]
    return SweepReport(
        label=f"one-voter exhaustive sweep, k={k}, statement 1.4 + dichotomy",
        total=total, passed=total - len(failures), failures=failures,
        stats={"nonmanipulable_functions": nonmanip_count},
    )


def random_table_reports(n: int, k: int, seed: int, lo: int, hi: int,
                         cap: int = DEFAULT_TABLE_CAP):
    """``(t, reports)`` of statements 1.2, 2.1 and 1.5 on random tables t =
    lo..hi-1 of the sweep seeded ``seed``, in order."""
    def build(t):
        return random_table_scf(n, k, engine.derive_stream_seed(seed, t), cap)

    for t, measured in measured_instances(build, lo, hi, n, k, cap):
        yield t, [*verify_main_theorems(measured, ("1.2",)),
                  verify_lemma_influences(measured, statement="2.1"), verify_thm_1_5(measured)]


def _random_tables_chunk(n: int, k: int, seed: int, lo: int, hi: int, cap: int):
    failures = []
    for t, reports in random_table_reports(n, k, seed, lo, hi, cap):
        bad = [r.describe() for r in reports if not r.holds]
        if bad:
            failures.append({"instance": t, "seed": engine.derive_stream_seed(seed, t),
                             "reports": bad})
    return failures


def sweep_random_tables(n: int, k: int, count: int, seed: int, tasks: int = 1,
                        cap: int = DEFAULT_TABLE_CAP) -> SweepReport:
    """Verify statements 1.2, 2.1 and 1.5 over seeded random table SCFs, each
    built with ``cap``. The shape and the cap are checked once, before the
    first table is drawn."""
    if count < 1:
        raise ValueError(f"the random sweep needs a count of at least 1, got {count}")
    engine.check_seed(seed)
    for statement in ("1.2", "2.1", "1.5"):
        _check_shape(n, k, statement)
    check_census(n, k, range(2, k + 1), cap)
    chunks = [(n, k, seed, lo, hi, cap) for lo, hi in engine.split_ranges(count, tasks)]
    parts = engine.map_chunks(_random_tables_chunk, chunks, tasks)
    failures = [row for p in parts for row in p]
    return SweepReport(
        label=f"random-table sweep, n={n}, k={k}, statements 1.2 + 2.1 + 1.5",
        total=count, passed=count - len(failures), failures=failures,
        stats={"seed": seed},
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
