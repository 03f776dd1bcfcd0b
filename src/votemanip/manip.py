"""Manipulation points: detection, exact census, random sampling, classification.

A profile is an r-manipulation point when some voter can strictly improve the
outcome (by their own true ranking) by permuting at most r adjacent
alternatives in their vote. Window width min(r, k) subsumes all smaller
windows, so the census scans, per profile, the incremental candidate sets of
growing widths and records the minimal manipulating width.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional

from . import engine
from .rankings import (
    Profile,
    Ranking,
    coordinate_lines,
    decode_profile,
    index_digits,
    preference_masks,
    profile_digits,
    profile_space_size,
    profile_strides,
    ranking_orders,
    ranking_positions,
    top_h_by_rank,
    window_destinations_new,
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


def _manipulable_widths(table, n, k, max_width, start, stop):
    """Yield (p, w) for each profile p in [start, stop), in index order, that some
    voter manipulates within one window of width w <= max_width, w minimal."""
    strides = profile_strides(n, k)
    positions = ranking_positions(k)
    scans = [(w, window_destinations_new(k, w)) for w in range(2, max_width + 1)]
    for p, digits in enumerate(profile_digits(n, k, start, stop), start):
        a = table[p]
        wmin = 0
        for w, fresh in scans:
            for st, rho in zip(strides, digits):
                pos = positions[rho]
                pa = pos[a]
                base = p - rho * st
                for dest in fresh[rho]:
                    if pos[table[base + dest * st]] < pa:
                        wmin = w
                        break
                if wmin:
                    break
            if wmin:
                yield p, wmin
                break


def _census_chunk(table, n, k, widths, start, stop):
    """Count, per requested width, profiles in [start, stop) manipulable within it."""
    counts = [0] * len(widths)
    for _p, wmin in _manipulable_widths(table, n, k, max(widths), start, stop):
        for j, w in enumerate(widths):
            if wmin <= w:
                counts[j] += 1
    return counts


def census(f: SCF, r_values=None, cap: int = DEFAULT_TABLE_CAP,
           tasks: int = 1) -> ManipulationCensus:
    """Exact |M_r| for each requested r; r = k (or above) gives |M| itself."""
    if r_values is None:
        r_values = (2, 3, 4, f.k)
    rs = sorted(set(r_values))
    if rs and rs[0] < 2:
        raise ValueError("r values must be >= 2")
    widths = [min(r, f.k) for r in rs]
    table = f.table(cap)
    size = len(table)
    chunks = [
        (table, f.n, f.k, tuple(widths), lo, hi)
        for lo, hi in engine.split_ranges(size, tasks)
    ]
    partials = engine.map_chunks(_census_chunk, chunks, tasks)
    totals = [sum(part[j] for part in partials) for j in range(len(widths))]
    return ManipulationCensus(
        n=f.n, k=f.k, total_profiles=size,
        counts={r: totals[j] for j, r in enumerate(rs)},
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


def _pair_probability_chunk(table, n, k, width, start, stop):
    strides = profile_strides(n, k)
    positions = ranking_positions(k)
    moves = window_moves(k, width)
    successes = 0
    for p, digits in enumerate(profile_digits(n, k, start, stop), start):
        a = table[p]
        for st, rho in zip(strides, digits):
            pos = positions[rho]
            pa = pos[a]
            base = p - rho * st
            for dest in moves[rho]:
                if pos[table[base + dest * st]] < pa:
                    successes += 1
    return successes


def exact_pair_probability(f: SCF, width: int = 4, cap: int = DEFAULT_TABLE_CAP,
                           tasks: int = 1) -> Fraction:
    """Exact success probability of the random-window manipulation draw.

    Full enumeration over (profile, coordinate, window start, window
    permutation); the denominator is (k!)^n * n * (k-width+1) * width!.
    """
    _check_window(f.k, width)
    table = f.table(cap)
    size = len(table)
    chunks = [
        (table, f.n, f.k, width, lo, hi)
        for lo, hi in engine.split_ranges(size, tasks)
    ]
    successes = sum(engine.map_chunks(_pair_probability_chunk, chunks, tasks))
    denom = size * f.n * (f.k - width + 1) * factorial(width)
    return Fraction(successes, denom)


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
            if tuple(first) == top_h_by_rank(k, image):
                return TopHDictator(n, k, i, image)

    # Monotone two-valued branch: constant on every preference fiber of its
    # two-element range, with a monotone fiber table.
    image = sorted(set(table))
    if len(image) == 2:
        a, b = image
        fiber = [None] * (1 << n)
        for mask, out in zip(preference_masks(n, k, a, b), table):
            if fiber[mask] is None:
                fiber[mask] = out
            elif fiber[mask] != out:
                return None
        if is_monotone_pair_table(n, (a, b), fiber):
            return MonotoneTwoValued(n, k, (a, b), fiber)
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


def gs_classify(f: SCF, cap: int = DEFAULT_TABLE_CAP) -> GSClassification:
    """Either the first manipulation pair, or an exact nonmanipulable twin."""
    table = f.table(cap)
    n, k = f.n, f.k
    hit = next(_manipulable_widths(table, n, k, k, 0, len(table)), None)
    if hit is not None:
        witness = is_r_manipulation_point(f, decode_profile(n, k, hit[0]), k)
        assert witness is not None
        return GSClassification(True, witness, None)
    member = nonmanip_membership(f, cap)
    if member is None:
        raise AssertionError(
            "no manipulation point found yet no nonmanipulable twin exists; "
            "this contradicts the Gibbard-Satterthwaite dichotomy"
        )
    return GSClassification(False, None, member)
