"""Manipulation points: detection, exact census, random sampling, classification.

A profile is an r-manipulation point when some voter can strictly improve the
outcome (by their own true ranking) by permuting at most r adjacent
alternatives in their vote. A window of width w reaches every ranking a
narrower window reaches, so a voter's minimal manipulating width is that of
the narrowest window reaching a ranking with a better outcome.

The exact census, the exact pair probability and the first hit of
:func:`gs_classify` run in one process over byte lanes: each coordinate's rank
parts read as big ints, one lane per coordinate line (:func:`_gains`), so one
big-int operation tests every line, with no Python work per line or profile.

Headroom: a lane holds an alternative as the one-hot byte ``1 << x``, and the
census flags of widths 2..k as bits 0..k-2 of one byte, so these scans need
k <= :data:`MAX_LANE_K` = 8 and refuse a larger k before the table is built.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import permutations, product
from math import factorial
from operator import or_
from typing import Optional

from . import engine
from .engine import check_seed
from .rankings import (
    RankTable,
    check_cap,
    check_window_moves,
    class_tables,
    decode_profile,
    fiber_outcome_counts,
    index_digits,
    join_class_tables,
    lane_int,
    profile_space_size,
    profile_strides,
    rank_classes,
    rank_positions,
    ranking_orders,
    ranking_positions,
    ranking_rank_of,
    top_h_by_rank,
    window_blocks,
    window_moves,
)
from .scf import (
    SCF,
    MonotoneTwoValued,
    TopHDictator,
    is_monotone_pair_table,
)


@dataclass(frozen=True)
class ManipulationPair:
    """A profile, a misreport differing in one coordinate, and that coordinate,
    the profiles as the voters' order tuples."""

    profile: tuple[tuple[int, ...], ...]
    altered: tuple[tuple[int, ...], ...]
    coordinate: int

    def describe(self) -> dict:
        return {
            "coordinate": self.coordinate + 1,
            "profile": [[x + 1 for x in order] for order in self.profile],
            "altered": [[x + 1 for x in order] for order in self.altered],
        }


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
        """|M|: any window width up to k, read from a requested width of k or more."""
        full = [c for r, c in self.counts.items() if r >= self.k]
        if not full:
            raise ValueError(f"|M| needs a census width of at least k={self.k}")
        return full[0]

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


MAX_LANE_K = 8


def _check_lanes(k: int) -> None:
    if k > MAX_LANE_K:
        raise ValueError(f"one-hot byte lanes hold k <= {MAX_LANE_K} alternatives, got k={k}")


def check_census(n: int, k: int, r_values, cap: int) -> None:
    """Refuse, before anything is built, what a census at ``r_values`` builds:
    the ``(k!)^n`` table and the :func:`rankings.window_moves` table of each
    width w < k over ``cap`` (width k reads every rank and builds none), then
    k past the byte lanes."""
    check_cap(cap, "(k!)^n table entries", k, n)
    for r in _census_rs(k, r_values):
        if r < k:
            check_window_moves(k, r, cap)
    _check_lanes(k)


@lru_cache(maxsize=None)
def _gain_tables(k: int) -> tuple[bytes, tuple[bytes, ...]]:
    """``bytes.translate`` tables: outcome x to its one-hot byte ``1 << x``, and
    per rank r, x to the set of alternatives ranking r puts above x."""
    onehot = bytes(1 << x if x < k else 0 for x in range(256))
    above = tuple(bytes(sum(1 << y for y in order[:pos[x]]) if x < k else 0 for x in range(256))
                  for order, pos in zip(ranking_orders(k), ranking_positions(k)))
    return onehot, above


def _gains(parts, k: int):
    """``(V, U)`` of voter i's rank parts (:func:`rankings.rank_classes`):
    ``V[d]`` the one-hot outcome of rank d, and ``U`` yielding rank by rank
    ``U_r``, the alternatives ranking r puts above its outcome. A lane of
    ``U_r & V[d]`` is nonzero exactly where voter i, truly r, gains by
    reporting d, and holds at most one bit."""
    onehot, above = _gain_tables(k)
    return [lane_int(part, onehot) for part in parts], map(lane_int, parts, above)


def _manipulation_flags(table, n: int, k: int, widths: tuple[int, ...]) -> int:
    """Profile-order flags as one int, byte p for profile p, with bit w - 2 set
    for each width w of ``widths`` (ascending, 2..k) some voter manipulates within.

    Per rank r, ``reach`` ORs the ``V[d]`` of the ranks d a window of width w
    reaches; a full-width window reaches every rank (r too: ``U_r & V[r]`` is
    0). Nonzero lanes of ``U_r & reach`` get bit w - 2 by a SWAR test: 0x7F
    plus a lane's low seven bits carries into its top bit exactly when they are
    nonzero, and never into the next lane.
    """
    lanes = len(table) // factorial(k)
    low = int.from_bytes(b"\x7f" * lanes, "little")
    top = int.from_bytes(b"\x80" * lanes, "little")
    union = 0
    for i in range(n):
        classes = rank_classes(n, k, i)
        V, U = _gains(class_tables(table, k, classes), k)
        every = reduce(or_, V)
        flags = []
        for r, gain in enumerate(U):
            flag = 0
            for w in widths:
                # The row's distinct ranks: repeats would only OR a lane in
                # again, and r itself is harmless, as U_r & V[r] is 0.
                reach = every if w == k else reduce(
                    or_, map(V.__getitem__, set(window_moves(k, w)[r])))
                x = gain & reach
                flag |= ((x | ((x & low) + low)) & top) >> (9 - w)
            flags.append(flag.to_bytes(lanes, "little"))
        del V, U, every  # the lanes and parts, before the join's copies
        union |= int.from_bytes(join_class_tables(flags, k, classes), "little")
    return union


def _first_block_flags(table, n: int, k: int) -> int:
    """Width-k flags, as in :func:`_manipulation_flags`, of the profiles where
    voter 0 has rank 0: the first ``(k!)^(n-1)``, lane p for profile p.

    Voters 1..n-1 see voter 0 fixed, so their flags are those of the
    (n-1)-voter table the block is. Voter 0, truly rank 0, gains on the lanes
    of ``U_0 & (V[0] | ... | V[k! - 1])`` (:func:`_gains`): its rank parts are
    the table's contiguous blocks."""
    block = len(table) // factorial(k)
    onehot, above = _gain_tables(k)
    every = reduce(or_, (lane_int(table[d:d + block], onehot)
                         for d in range(0, len(table), block)))
    first = table[:block]
    return _manipulation_flags(first, n - 1, k, (k,)) | lane_int(first, above[0]) & every


def census(f: SCF, r_values=None) -> ManipulationCensus:
    """Exact |M_r| for each requested r; r = k (or above) gives |M| itself:
    :func:`census_tables` on f's table alone."""
    check_census(f.n, f.k, r_values, f.cap)
    [counted] = census_tables([f.table()], f.n, f.k, r_values)
    return counted


def _census_rs(k: int, r_values) -> list[int]:
    """The requested census widths, sorted, by default 2, 3, 4 and k."""
    if r_values is None:
        r_values = (2, 3, 4, max(k, 2))
    rs = sorted(set(r_values))
    if rs and rs[0] < 2:
        raise ValueError("r values must be >= 2")
    return rs


def census_tables(tables, n: int, k: int, r_values=None) -> list[ManipulationCensus]:
    """The census of each (n, k) table of ``tables``, from one lane pass.

    Joined, the tables are one table with an instance index slower than voter
    0; every voter split of :func:`_manipulation_flags` keeps that index whole
    and its join restores profile order, so table t's flags are bytes
    ``t * (k!)^n`` onward of the joined flags. Widths 2..k take bits 0..k-2 of
    a profile's byte, and |M_r| of a table is the number of its flag bytes
    with bit ``min(r, k) - 2`` set: that bit plane's popcount for one table,
    and per table a count over its span of the plane's bytes. The caller
    checks the cap and the lanes (:func:`check_census`).
    """
    rs = _census_rs(k, r_values)
    widths = [min(r, k) for r in rs]
    size = profile_space_size(n, k)
    if any(len(table) != size for table in tables):
        raise ValueError(f"each table needs (k!)^n = {size} entries")
    joined = b"".join(tables)
    flags = _manipulation_flags(joined, n, k, tuple(sorted({w for w in widths if w >= 2})))
    ones = int.from_bytes(b"\x01" * len(joined), "little")

    def plane(w):
        return flags >> (w - 2) & ones if w >= 2 else 0

    if len(tables) == 1:
        counts = [{r: plane(w).bit_count() for r, w in zip(rs, widths)}]
    else:
        planes = {w: plane(w).to_bytes(len(joined), "little") for w in set(widths)}
        counts = [{r: planes[w].count(1, lo, lo + size) for r, w in zip(rs, widths)}
                  for lo in range(0, len(joined), size)]
    return [ManipulationCensus(n=n, k=k, total_profiles=size, counts=c) for c in counts]


# ---------------------------------------------------------------------------
# Random manipulation sampling.


def _bits(m: int) -> tuple[int, int]:
    return m, m.bit_length()


@lru_cache(maxsize=None)
def _shuffle_plan(width: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The reads of ``shuffle`` on a length-``width`` list and their table.

    ``shuffle`` swaps item i with item ``randrange(i + 1)`` for i = width-1
    down to 1, so it reads the pairs of m = width, width-1, ..., 2. The table
    maps the mixed-radix code of the values read (the first most significant)
    to the index in ``permutations(range(width))`` of ``list(range(width))``
    shuffled by them.
    """
    radices = range(width, 1, -1)
    rank_of = ranking_rank_of(width)
    table = []
    for js in product(*map(range, radices)):
        perm = list(range(width))
        for i, j in zip(range(width - 1, 0, -1), js):
            perm[i], perm[j] = perm[j], perm[i]
        table.append(rank_of[tuple(perm)])
    return tuple(map(_bits, radices)), tuple(table)


def _draw_plan(f: SCF, width: int):
    """What :func:`_draws` reads with; per-rank positions fill on first use."""
    k = f.k
    blocks = window_blocks(k, width)
    head = tuple(map(_bits, (profile_space_size(f.n, k), f.n, len(blocks))))
    return (head, *_shuffle_plan(width), blocks, profile_strides(f.n, k), factorial(k),
            f.move_reader(), RankTable(partial(rank_positions, k)))


def _draws(getrandbits, count: int, plan) -> tuple[int, tuple[int, int, int]]:
    """The successes of ``count`` draws, and the last draw as
    ``(profile index, voter, new rank)``.

    Each value is read as CPython's ``randrange(m)`` reads it: ``b =
    m.bit_length()`` bits from ``getrandbits(b)`` (one word up to b = 32, more
    past it), again while they are m or more; so the profile index, the voter,
    the window start and the shuffle's values take the words that drawing
    orders with ``randrange`` and ``shuffle`` takes. The shuffle's values, as
    one mixed-radix code, give the window's permutation (:func:`_shuffle_plan`),
    which moves the voter's rank r to r2 (:func:`rankings.window_blocks`). A
    draw succeeds when rank r puts the moved profile's outcome above the
    profile's, both from f's move read.
    """
    head, shuffle_pairs, shuffle_table, blocks, strides, fact, read, positions = plan
    (m_index, b_index), (m_voter, b_voter), (m_start, b_start) = head
    successes = 0
    for _ in range(count):
        index = getrandbits(b_index)
        while index >= m_index:
            index = getrandbits(b_index)
        i = getrandbits(b_voter)
        while i >= m_voter:
            i = getrandbits(b_voter)
        start = getrandbits(b_start)
        while start >= m_start:
            start = getrandbits(b_start)
        code = 0
        for m, b in shuffle_pairs:
            j = getrandbits(b)
            while j >= m:
                j = getrandbits(b)
            code = code * m + j
        r = index // strides[i] % fact
        span, stride, moves = blocks[start]
        q = r % span // stride
        r2 = r + (moves[q][shuffle_table[code]] - q) * stride
        if r2 != r:  # the window's identity permutation cannot gain
            before, after = read(index, i, r, r2)
            pos = positions[r]
            successes += pos[after] < pos[before]
    return successes, (index, i, r2)


def _check_window(k: int, width: int) -> None:
    if width < 2:
        raise ValueError("window width must be >= 2")
    if k < width:
        raise ValueError(f"need k >= {width} for a width-{width} window")


def _check_draws(f: SCF, width: int) -> None:
    """Refuse a bad window, or per-ranking tables over the SCF's cap before
    the sampler fills any. It fills them for the ranks it draws (positions and
    the move read's values, :class:`rankings.RankTable`), so each can grow to
    ``k!`` ranks of k entries: ``k * k!`` is refused past the cap."""
    k = f.k
    _check_window(k, width)
    check_cap(f.cap, "sampler per-ranking table entries", k, count=lambda: k * factorial(k))


def _sample_chunk(f, width, seed, block_lo, block_hi, samples):
    plan = _draw_plan(f, width)
    successes = 0
    for block in range(block_lo, block_hi):
        getrandbits = random.Random(engine.derive_stream_seed(seed, block)).getrandbits
        lo = block * engine.SAMPLE_BLOCK
        successes += _draws(getrandbits, min(engine.SAMPLE_BLOCK, samples - lo), plan)[0]
    return successes


@dataclass(frozen=True)
class SampleReport:
    samples: int
    successes: int
    seed: int
    width: int

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
    _check_draws(f, width)
    check_seed(seed)
    blocks = (samples + engine.SAMPLE_BLOCK - 1) // engine.SAMPLE_BLOCK
    chunk_ranges = engine.split_ranges(blocks, tasks)
    chunks = [(f, width, seed, lo, hi, samples) for lo, hi in chunk_ranges]
    successes = sum(engine.map_chunks(_sample_chunk, chunks, tasks))
    return SampleReport(samples=samples, successes=successes, seed=seed, width=width)


def exact_pair_probability(f: SCF, width: int = 4) -> Fraction:
    """Exact success probability of the random-window manipulation draw.

    Full enumeration over (profile, coordinate, window start, window
    permutation); the denominator is (k!)^n * n * (k-width+1) * width!. A
    draw moving rank r to d succeeds on the lanes of ``U_r & V[d]``
    (:func:`_gains`), each holding at most one bit, so the draws from r to d
    that succeed are ``c(r, d) * popcount(U_r & V[d])``.
    """
    _check_window(f.k, width)
    n, k = f.n, f.k
    check_window_moves(k, width, f.cap)
    _check_lanes(k)
    table = f.table()
    # Per rank, each destination other than the rank itself with its number of draws.
    moves = [tuple((dest, c) for dest, c in Counter(dests).items() if dest != r)
             for r, dests in enumerate(window_moves(k, width))]
    successes = 0
    for i in range(n):
        V, U = _gains(class_tables(table, k, rank_classes(n, k, i)), k)
        successes += sum(c * (gain & V[d]).bit_count()
                         for gain, dests in zip(U, moves) for d, c in dests)
    return Fraction(successes, len(table) * n * (k - width + 1) * factorial(width))


# ---------------------------------------------------------------------------
# Gibbard-Satterthwaite classification.


def nonmanip_membership(f: SCF) -> Optional[SCF]:
    """An equal nonmanipulable witness (top_H dictator or monotone two-valued),
    or None when f lies outside the family."""
    table = f.table()
    n, k = f.n, f.k

    # Dictator branch: f must depend on coordinate i alone (each of its rank
    # parts one repeated byte, the line) and agree with the top_H rule for H =
    # its image. Moving another voter of profile 0 to rank 1 must then keep
    # its outcome, which rules out most i before any part is sliced. Only a
    # constant f, which returns at once, passes for two i: one top_H table a call.
    strides = profile_strides(n, k)
    for i in range(n):
        if k > 1 and any(table[s] != table[0] for j, s in enumerate(strides) if j != i):
            continue
        parts = class_tables(table, k, rank_classes(n, k, i))
        if all(part.count(part[0]) == len(part) for part in parts):
            line = bytes(part[0] for part in parts)
            image = frozenset(line)
            if line == top_h_by_rank(k, image):
                return TopHDictator(n, k, i, image, cap=f.cap)

    # Monotone two-valued branch: constant on every preference fiber of its
    # two-element range (each fiber all a or all b), with a monotone fiber table.
    image = sorted(f.range())
    if len(image) == 2:
        a, b = image
        fiber = (factorial(k) // 2) ** n
        count_a, _count_b = f.counted(fiber_outcome_counts, a, b)
        if any(0 < c < fiber for c in count_a):
            return None
        labels = [a if c else b for c in count_a]
        if is_monotone_pair_table(n, (a, b), labels):
            return MonotoneTwoValued(n, k, (a, b), labels, cap=f.cap)
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


def gs_classify(f: SCF) -> GSClassification:
    """Either the first manipulation pair, or an exact nonmanipulable twin.

    Membership is asked first: a member equal to f is nonmanipulable. Otherwise
    the first manipulable profile is the lowest nonzero byte of the width-k
    census flags (:func:`_manipulation_flags`), as a width-k window reaches
    every other ranking. The profiles where voter 0 has rank 0 come first in
    index order, so their flags (:func:`_first_block_flags`) are scanned
    first, and the whole table only when they hold no hit.
    """
    n, k = f.n, f.k
    check_census(n, k, (max(k, 2),), f.cap)
    member = nonmanip_membership(f)
    if member is not None:
        return GSClassification(False, None, member)
    table = f.table()
    flags = _first_block_flags(table, n, k) or _manipulation_flags(table, n, k, (k,))
    if not flags:
        raise AssertionError(
            "no manipulation point found yet no nonmanipulable twin exists; "
            "this contradicts the Gibbard-Satterthwaite dichotomy"
        )
    hit = ((flags & -flags).bit_length() - 1) // 8
    return GSClassification(True, _first_manipulation(table, n, k, hit), None)


def _first_manipulation(table, n: int, k: int, index: int) -> ManipulationPair:
    """The first misreport some voter of profile ``index`` gains by: voter by
    voter, its orders in ``permutations`` order (a width-k window's draws), each
    outcome the table byte ``(d - r)`` strides of voter i from the index."""
    rank_of, positions = ranking_rank_of(k), ranking_positions(k)
    profile = decode_profile(n, k, index)
    outcome = table[index]
    for i, (order, r, stride) in enumerate(
            zip(profile, index_digits(n, k, index), profile_strides(n, k))):
        pos = positions[r]
        for misreport in permutations(order):
            d = rank_of[misreport]
            if d != r and pos[table[index + (d - r) * stride]] < pos[outcome]:
                return ManipulationPair(profile, profile[:i] + (misreport,) + profile[i + 1:], i)
    raise AssertionError(f"profile {index} is flagged manipulable, yet no voter gains")
