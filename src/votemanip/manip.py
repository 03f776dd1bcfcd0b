"""Manipulation points: detection, exact census, random sampling, classification.

A profile is an r-manipulation point when some voter can strictly improve the
outcome (by their own true ranking) by permuting at most r adjacent
alternatives in their vote. A window of width w reaches every ranking a
narrower window reaches, so a voter's minimal manipulating width is that of
the narrowest window reaching a ranking with a better outcome.

The exact census and the exact pair probability run in one process and make
one pass per coordinate over its lines. What a line contributes depends only
on its outcomes, so each distinct line is worked out once: an anonymous rule
has few distinct lines (Borda at n=4, k=4 has 138 among 55,296). The pair
probability reads :func:`rankings.distinct_lines`; the census writes each
line's masks back in profile order from a memo. :func:`gs_classify` instead
asks membership in the nonmanipulable family first, then scans profiles in
index order and stops at the first manipulable one.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Optional

from . import engine, rankings
from .rankings import (
    Profile,
    Ranking,
    check_cap,
    coordinate_lines,
    decode_profile,
    distinct_lines,
    fiber_outcome_counts,
    index_digits,
    join_coordinate_lines,
    profile_digits,
    profile_space_size,
    profile_strides,
    ranking_orders,
    ranking_positions,
    top_h_by_rank,
    window_destinations,
    window_moves,
    window_permutations,
)
from .scf import (
    DEFAULT_TABLE_CAP,
    SCF,
    MonotoneTwoValued,
    TopHDictator,
    is_monotone_pair_table,
)


@dataclass(frozen=True)
class ManipulationPair:
    """A profile, a misreport differing in one coordinate, and that coordinate."""

    profile: Profile
    altered: Profile
    coordinate: int

    def describe(self) -> dict:
        return {
            "coordinate": self.coordinate + 1,
            "profile": [r.one_based() for r in self.profile],
            "altered": [r.one_based() for r in self.altered],
        }


def is_manipulation_pair(f: SCF, pair: ManipulationPair) -> bool:
    """Validate: single differing coordinate, strict gain under the true ranking."""
    sigma, tau, i = pair.profile, pair.altered, pair.coordinate
    if len(sigma) != len(tau) or not 0 <= i < len(sigma):
        return False
    for c, (r, s) in enumerate(zip(sigma, tau)):
        if c != i and r.order != s.order:
            return False
    if sigma[i].order == tau[i].order:
        return False
    truth = sigma[i].inv
    return truth[f.evaluate(tau)] < truth[f.evaluate(sigma)]


def is_r_manipulation_point(f: SCF, profile: Profile, r: int) -> Optional[ManipulationPair]:
    """First manipulation witness using one width-min(r, k) window, or None.

    Search order is deterministic: coordinate, then window start, then
    permutation index within the window.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    k = f.k
    width = min(r, k)
    outcome = f.evaluate(profile)
    for i in range(f.n):
        truth = profile[i].inv
        current = truth[outcome]
        for start in range(k - width + 1):
            for candidate in window_permutations(profile[i], start, width):
                if candidate.order == profile[i].order:
                    continue
                altered = profile[:i] + (candidate,) + profile[i + 1:]
                if truth[f.evaluate(altered)] < current:
                    return ManipulationPair(profile, altered, i)
    return None


@dataclass(frozen=True)
class ManipulationCensus:
    """Exact r-manipulation counts over the whole profile space."""

    n: int
    k: int
    total_profiles: int
    counts: dict[int, int]

    def count(self, r: int) -> int:
        return self.counts[r]

    def fraction(self, r: int) -> Fraction:
        return Fraction(self.counts[r], self.total_profiles)

    def manipulable_count(self) -> int:
        """|M|: any window width up to k."""
        return self.counts[max(self.counts)]

    def manipulable_fraction(self) -> Fraction:
        return Fraction(self.manipulable_count(), self.total_profiles)

    def describe(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "total_profiles": self.total_profiles,
            "counts": {str(r): c for r, c in sorted(self.counts.items())},
            "fractions": {
                str(r): f"{c}/{self.total_profiles}" for r, c in sorted(self.counts.items())
            },
        }


def check_window_tables(k: int, cap: int) -> None:
    """Refuse per-rank window tables, ``k! (k! - 1)`` entries, over ``cap`` before any is built."""
    check_cap(cap, "per-rank window table entries", k,
              count=lambda: factorial(k) * (factorial(k) - 1))


@lru_cache(maxsize=None)
def _census_plans(k: int, max_width: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per rank, ``(destination, mask)`` for every rank one window of width at most
    ``max_width`` reaches, ordered by the narrowest such window.

    The mask has bit ``w - 2`` set for every width w from that window's up to
    ``max_width``, so the mask of the first destination with a better outcome
    marks exactly the widths within which the voter manipulates.
    """
    full = (1 << (max_width - 1)) - 1
    plans = []
    for r in range(factorial(k)):
        seen = {r}
        plan = []
        for w in range(2, max_width + 1):
            mask = full & ~((1 << (w - 2)) - 1)
            for dest in window_destinations(k, w)[r]:
                if dest not in seen:
                    seen.add(dest)
                    plan.append((dest, mask))
        plans.append(tuple(plan))
    return tuple(plans)


@lru_cache(maxsize=None)
def _bit_table(bit: int) -> bytes:
    """``bytes.translate`` table sending each byte to its bit ``bit``."""
    return bytes(b >> bit & 1 for b in range(256))


def census(f: SCF, r_values=None, cap: int = DEFAULT_TABLE_CAP) -> ManipulationCensus:
    """Exact |M_r| for each requested r; r = k (or above) gives |M| itself.

    One pass per coordinate over its lines: each distinct line's per-rank width
    masks are worked out once (a memo cleared whenever it holds
    :func:`rankings.distinct_line_bound` lines), written back to profile order
    and ORed over the coordinates, so a profile's byte marks every width some
    voter manipulates within. Widths 2..k take k - 1 bits of that byte.
    """
    if r_values is None:
        r_values = (2, 3, 4, max(f.k, 2))
    rs = sorted(set(r_values))
    if rs and rs[0] < 2:
        raise ValueError("r values must be >= 2")
    n, k = f.n, f.k
    check_window_tables(k, cap)
    widths = [min(r, k) for r in rs]
    max_width = max(widths, default=1)
    # Headroom: one byte holds the bits of widths 2..9.
    if max_width > 9:
        raise ValueError("the census counts window widths up to 9")
    table = f.table(cap)
    fact = factorial(k)
    steps = tuple(zip(range(fact), ranking_positions(k), _census_plans(k, max_width)))
    bound = rankings.distinct_line_bound(k)
    memo: dict = {}

    def line_masks(line):
        masks = memo.get(line)
        if masks is None:
            if len(memo) >= bound:
                memo.clear()
            masks = bytearray(fact)
            for r, pos, plan in steps:
                pa = pos[line[r]]
                if pa:
                    for dest, mask in plan:
                        if pos[line[dest]] < pa:
                            masks[r] = mask
                            break
            masks = memo[line] = bytes(masks)
        return masks

    union = 0
    for i in range(n):
        masks = join_coordinate_lines(
            n, k, i, (line_masks(line) for _base, line in coordinate_lines(table, n, k, i)))
        union |= int.from_bytes(masks, "little")
    flags = union.to_bytes(len(table), "little")
    return ManipulationCensus(
        n=n, k=k, total_profiles=len(table),
        counts={r: flags.translate(_bit_table(w - 2)).count(1) if w >= 2 else 0
                for r, w in zip(rs, widths)},
    )


# ---------------------------------------------------------------------------
# Random manipulation sampling.


@dataclass(frozen=True)
class ManipulationSample:
    """One draw of the random-window manipulation experiment."""

    profile: Profile
    altered: Profile
    coordinate: int
    success: bool


def _draw(rng: random.Random, f: SCF, width: int, size: int, orders, positions):
    k = f.k
    digits = index_digits(f.n, k, rng.randrange(size))
    i = rng.randrange(f.n)
    start = rng.randrange(k - width + 1)
    order = orders[digits[i]]
    window = list(order[start:start + width])
    rng.shuffle(window)
    new_order = order[:start] + tuple(window) + order[start + width:]
    profile_orders = tuple(orders[d] for d in digits)
    altered_orders = profile_orders[:i] + (new_order,) + profile_orders[i + 1:]
    a = f.evaluate_orders(profile_orders)
    b = f.evaluate_orders(altered_orders)
    pos = positions[digits[i]]
    return profile_orders, altered_orders, i, pos[b] < pos[a]


def _check_window(k: int, width: int) -> None:
    if width < 2:
        raise ValueError("window width must be >= 2")
    if k < width:
        raise ValueError(f"need k >= {width} for a width-{width} window")


def sample_manipulation(f: SCF, seed: int, width: int = 4) -> ManipulationSample:
    """One seeded draw: uniform profile, voter, window start, window shuffle."""
    _check_window(f.k, width)
    rng = random.Random(seed)
    size = profile_space_size(f.n, f.k)
    orders = ranking_orders(f.k)
    positions = ranking_positions(f.k)
    p_orders, a_orders, i, success = _draw(rng, f, width, size, orders, positions)
    return ManipulationSample(
        profile=tuple(Ranking(o) for o in p_orders),
        altered=tuple(Ranking(o) for o in a_orders),
        coordinate=i,
        success=success,
    )


def _sample_chunk(f, width, seed, block_lo, block_hi, samples):
    orders = ranking_orders(f.k)
    positions = ranking_positions(f.k)
    size = profile_space_size(f.n, f.k)
    successes = 0
    for block in range(block_lo, block_hi):
        rng = random.Random(engine.derive_stream_seed(seed, block))
        lo = block * engine.SAMPLE_BLOCK
        hi = min(lo + engine.SAMPLE_BLOCK, samples)
        for _ in range(hi - lo):
            successes += _draw(rng, f, width, size, orders, positions)[3]
    return successes


@dataclass(frozen=True)
class SampleReport:
    samples: int
    successes: int
    seed: int
    width: int

    @property
    def rate(self) -> Fraction:
        return Fraction(self.successes, self.samples)

    def describe(self) -> dict:
        est = self.successes / self.samples
        stderr = (est * (1.0 - est) / self.samples) ** 0.5
        return {
            "samples": self.samples,
            "successes": self.successes,
            "seed": self.seed,
            "width": self.width,
            "estimate": est,
            "stderr": stderr,
            "ci3": [max(0.0, est - 3 * stderr), min(1.0, est + 3 * stderr)],
        }


def sample_success(f: SCF, samples: int, seed: int, width: int = 4,
                   tasks: int = 1) -> SampleReport:
    """Monte Carlo success counting over fixed RNG blocks.

    Draws are split into fixed blocks of :data:`engine.SAMPLE_BLOCK`, each with
    an independent stream seeded from (seed, block), so the result does not
    depend on the task count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_window(f.k, width)
    blocks = (samples + engine.SAMPLE_BLOCK - 1) // engine.SAMPLE_BLOCK
    chunk_ranges = engine.split_ranges(blocks, tasks)
    chunks = [(f, width, seed, lo, hi, samples) for lo, hi in chunk_ranges]
    successes = sum(engine.map_chunks(_sample_chunk, chunks, tasks))
    return SampleReport(samples=samples, successes=successes, seed=seed, width=width)


def exact_pair_probability(f: SCF, width: int = 4, cap: int = DEFAULT_TABLE_CAP) -> Fraction:
    """Exact success probability of the random-window manipulation draw.

    Full enumeration over (profile, coordinate, window start, window
    permutation); the denominator is (k!)^n * n * (k-width+1) * width!. One
    pass per coordinate over its distinct lines (:func:`rankings.distinct_lines`)
    counts each distinct line's successful draws once.
    """
    _check_window(f.k, width)
    n, k = f.n, f.k
    draws = (k - width + 1) * factorial(width)
    check_cap(cap, "per-rank window table entries", k, count=lambda: factorial(k) * draws)
    table = f.table(cap)
    positions = ranking_positions(k)
    # Per rank, each destination other than the rank itself with its number of draws.
    moves = [tuple((dest, c) for dest, c in Counter(dests).items() if dest != r)
             for r, dests in enumerate(window_moves(k, width))]

    def line_successes(line):
        total = 0
        for r, pos in enumerate(positions):
            pa = pos[line[r]]
            if pa:
                total += sum(c for dest, c in moves[r] if pos[line[dest]] < pa)
        return total

    successes = sum(weight * line_successes(line) for i in range(n)
                    for line, weight in distinct_lines(table, n, k, i))
    return Fraction(successes, len(table) * n * draws)


# ---------------------------------------------------------------------------
# Gibbard-Satterthwaite classification.


def nonmanip_membership(f: SCF, cap: int = DEFAULT_TABLE_CAP) -> Optional[SCF]:
    """An equal nonmanipulable witness (top_H dictator or monotone two-valued),
    or None when f lies outside the family."""
    table = f.table(cap)
    n, k = f.n, f.k

    # Dictator branch: f must depend on one coordinate alone (every line of
    # that coordinate equal) and agree with the top_H rule for H = its image.
    for i in range(n):
        lines = coordinate_lines(table, n, k, i)
        _base, first = next(lines)
        if all(line == first for _base, line in lines):
            image = frozenset(first)
            if first == top_h_by_rank(k, image):
                return TopHDictator(n, k, i, image)

    # Monotone two-valued branch: constant on every preference fiber of its
    # two-element range (each fiber all a or all b), with a monotone fiber table.
    image = sorted(set(table))
    if len(image) == 2:
        a, b = image
        fiber = (factorial(k) // 2) ** n
        count_a, _count_b = fiber_outcome_counts(table, n, k, a, b)
        if any(0 < c < fiber for c in count_a):
            return None
        labels = [a if c else b for c in count_a]
        if is_monotone_pair_table(n, (a, b), labels):
            return MonotoneTwoValued(n, k, (a, b), labels)
    return None


@dataclass(frozen=True)
class GSClassification:
    manipulable: bool
    witness_pair: Optional[ManipulationPair]
    witness_member: Optional[SCF]

    def describe(self) -> dict:
        if self.manipulable:
            return {"verdict": "manipulable", "witness": self.witness_pair.describe()}
        return {"verdict": "nonmanipulable", "witness": self.witness_member.describe()}


def _first_manipulable(table, n: int, k: int) -> Optional[int]:
    """Index of the first profile some voter manipulates by any misreport, or None.

    A width-k window reaches every other ranking, so each voter tries them all.
    """
    strides = profile_strides(n, k)
    positions = ranking_positions(k)
    ranks = range(factorial(k))
    for p, digits in enumerate(profile_digits(n, k)):
        a = table[p]
        for st, rho in zip(strides, digits):
            pos = positions[rho]
            pa = pos[a]
            if pa:
                base = p - rho * st
                for dest in ranks:
                    if pos[table[base + dest * st]] < pa:
                        return p
    return None


def gs_classify(f: SCF, cap: int = DEFAULT_TABLE_CAP) -> GSClassification:
    """Either the first manipulation pair, or an exact nonmanipulable twin.

    Membership is asked first: a member equal to f is nonmanipulable, and the
    first-hit scan would walk every profile, voter and ranking to find that.
    """
    n, k = f.n, f.k
    check_window_tables(k, cap)
    member = nonmanip_membership(f, cap)
    if member is not None:
        return GSClassification(False, None, member)
    hit = _first_manipulable(f.table(cap), n, k)
    if hit is None:
        raise AssertionError(
            "no manipulation point found yet no nonmanipulable twin exists; "
            "this contradicts the Gibbard-Satterthwaite dichotomy"
        )
    witness = is_r_manipulation_point(f, decode_profile(n, k, hit), k)
    assert witness is not None
    return GSClassification(True, witness, None)
