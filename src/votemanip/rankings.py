"""Permutation primitives: rankings, adjacent transpositions, windows, dense indexing.

Alternatives are integers in [0, k) internally and are shown 1-based in all
human-facing output. A ranking lists alternatives from top (position 0) to
bottom. Rankings and profiles are indexed by their Lehmer (factorial-base)
rank, which coincides with lexicographic order of the order tuple, so index 0
is the identity ranking. Profile indices pack coordinate ranks mixed-radix
with voter 0 most significant.

This module is the only code that knows that layout. Everything else walks
the ``(k!)^n`` profile table through :func:`profile_strides`,
:func:`index_digits`, :func:`class_tables` with its
inverse :func:`join_class_tables`, and :func:`swap_first_voters`. Every scan
per line reads the parts of :func:`rank_classes`, each entry a byte lane on one
coordinate line, as big ints (:func:`lane_int`, :func:`pair_lanes`).
Outcomes are counted by one kernel over such ints, :func:`instance_sums`, for
a block of same-shape tables joined into one (:func:`join_tables`) or for one
table, the block of one: :func:`outcome_count`, :func:`outcome_counts`,
:func:`rank_outcome_counts` and :func:`fiber_outcome_counts` return one count
per table.
"""
from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import permutations
from math import factorial

from .errors import CapExceededError

# Largest k for which full k! lookup tables may be materialized.
MAX_TABLE_K = 10


def _inverse(order: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(order)
    for pos, alt in enumerate(order):
        inv[alt] = pos
    return tuple(inv)


# ---------------------------------------------------------------------------
# Dense indexing.


def rank_order(k: int, index: int) -> tuple[int, ...]:
    """The order tuple of the ranking of rank ``index`` in ``[0, k!)``, decoded
    digit by digit, with no k!-sized table."""
    remaining = list(range(k))
    order = []
    for j in range(k, 0, -1):
        digit, index = divmod(index, factorial(j - 1))
        order.append(remaining.pop(digit))
    return tuple(order)


def rank_positions(k: int, index: int) -> tuple[int, ...]:
    """:func:`rank_order`'s positions (alternative -> position)."""
    return _inverse(rank_order(k, index))


class RankTable(dict):
    """Per-rank values filled on first use: ``table[r]`` is ``fill(r)``,
    computed once, so a hit costs one subscript and only the ranks read are
    ever filled."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, r):
        value = self[r] = self.fill(r)
        return value


def profile_space_size(n: int, k: int) -> int:
    return factorial(k) ** n


def check_alternatives(k: int, *alternatives: int) -> None:
    """Refuse alternative ids that repeat or lie outside ``0..k-1``."""
    # A loop, not all() over a generator, at half the cost: every influence
    # read runs this check.
    for x in alternatives:
        if not 0 <= x < k:
            break
    else:
        if len(set(alternatives)) == len(alternatives):
            return
    raise ValueError(f"need distinct alternatives in 0..{k - 1}")


def check_coordinate(n: int, i: int) -> None:
    """Refuse a voter index outside ``0..n-1``."""
    if not 0 <= i < n:
        raise ValueError("coordinate out of range")


def check_cap(cap: int, what: str, k: int, n=None, count=None) -> None:
    """Refuse more than ``cap`` items before their count is formed.

    The count is ``(k!)^n`` (n voters, one voter when n is None), or ``count()``
    when given, which must be at least ``2^(max(n, k) - 1)`` for k >= 2 as
    ``(k!)^n`` is. So n or k past ``cap.bit_length()`` is refused without any
    factorial or power, and the message names n, k and the cap, not the count.
    """
    voters = 1 if n is None else n
    if (k >= 2 and max(voters, k) > cap.bit_length()
            or (profile_space_size(voters, k) if count is None else count()) > cap):
        shape = f"k={k}" if n is None else f"n={n}, k={k}"
        raise CapExceededError(f"{what} at {shape} exceed the cap {cap}")


def decode_profile(n: int, k: int, index: int) -> tuple[tuple[int, ...], ...]:
    """The voters' order tuples of profile ``index``: :func:`rank_order` of each
    digit of :func:`index_digits`."""
    if not 0 <= index < profile_space_size(n, k):
        raise ValueError(f"profile index {index} out of range for n={n}, k={k}")
    return tuple(rank_order(k, d) for d in index_digits(n, k, index))


def index_digits(n: int, k: int, index: int) -> tuple[int, ...]:
    """Per-voter ranking ranks of one profile index, voter 0 first."""
    fact = factorial(k)
    return tuple([index // stride % fact for stride in profile_strides(n, k)])


@lru_cache(maxsize=None)
def profile_strides(n: int, k: int) -> tuple[int, ...]:
    """Index increment per unit change of each coordinate's rank."""
    fact = factorial(k)
    return tuple(fact ** (n - 1 - i) for i in range(n))


def class_tables(table, k: int, classes) -> list[bytes]:
    """Per choice of one rank class per voter, the outcomes of its profiles.

    ``classes`` covers the last ``m = len(classes)`` of the table's voters:
    ``classes[c]`` lists voter ``n - m + c``'s rank classes, and the voters
    before them are kept whole. Choosing class ``j_c`` from each ``classes[c]``
    gives part ``sum_c j_c * len(classes[0]) * ... * len(classes[c - 1])``
    (``classes[0]``'s choice least significant), which lists the outcomes of
    ``product(*chosen classes, *[range(k!)] * (n - m))`` in that order. Each
    step slices off the last voter, whose rank-r entries are ``t[r::k!]``, so
    the Python work is per part, never per profile.
    """
    fact = factorial(k)
    parts = [table]
    for voter_classes in reversed(classes):
        parts = [part[ranks[0]::fact] if len(ranks) == 1
                 else b"".join([part[r::fact] for r in ranks])
                 for part in parts for ranks in voter_classes]
    return parts


def join_class_tables(parts, k: int, classes):
    """The table that :func:`class_tables` split into ``parts`` with ``classes``.

    Each voter's classes must list each of its k! ranks once. Undone
    ``classes[0]`` first, rank r of class ``ranks`` sends slice
    ``ranks.index(r)`` of its part back to ``out[r::k!]``."""
    fact = factorial(k)
    for voter_classes in classes:
        width = len(voter_classes)
        joined = []
        for first in range(0, len(parts), width):
            group = parts[first:first + width]
            out = bytearray(sum(map(len, group)))
            for ranks, part in zip(voter_classes, group):
                size = len(part) // len(ranks)
                for j, r in enumerate(ranks):
                    out[r::fact] = part[j * size:(j + 1) * size]
            joined.append(out)
        parts = joined
    [table] = parts
    return table


def rank_classes(n: int, k: int, i: int) -> list:
    """:func:`class_tables` classes splitting voter i by rank, the voters after it
    whole: part r holds voter i's rank-r outcomes, and entry j of every part
    lies on the same coordinate-i line, byte lane j."""
    check_coordinate(n, i)
    fact = factorial(k)
    return [[(r,) for r in range(fact)]] + [[range(fact)]] * (n - 1 - i)


def swap_first_voters(table, n: int, k: int) -> bytes:
    """The table with voters 0 and 1 (n >= 2) exchanged: ``k!^2`` block slices."""
    fact = factorial(k)
    block = fact ** (n - 2)
    return b"".join([table[(y * fact + x) * block:(y * fact + x + 1) * block]
                     for x in range(fact) for y in range(fact)])


def lane_int(part, translation: bytes) -> int:
    """``part.translate(translation)`` as one int, byte j at byte lane j (bits 8j..8j+7)."""
    return int.from_bytes(part.translate(translation), "little")


# Headroom: pair_lanes packs two outcomes as ``x << 4 | y`` in a byte.
assert MAX_TABLE_K <= 16, "two outcomes must fit in one byte"


def pair_lanes(x: int, y: int, lanes: int) -> bytes:
    """Lane j holds ``x_j << 4 | y_j`` for two tables read as little-endian ints."""
    return (x << 4 | y).to_bytes(lanes, "little")


@lru_cache(maxsize=None)
def indicator(x: int) -> bytes:
    """``bytes.translate`` table sending byte x to 1 and every other byte to 0."""
    return bytes(int(v == x) for v in range(256))


def join_tables(tables, n: int, k: int) -> bytes:
    """Same-shape (n, k) tables as one table whose instance index is slower
    than voter 0: table t is bytes ``t * (k!)^n`` onward. One table is itself."""
    size = profile_space_size(n, k)
    if set(map(len, tables)) != {size}:
        raise ValueError(f"each table needs (k!)^n = {size} entries")
    return b"".join(tables)


# Lane widths an instance sum is read in, by array item size.
_SUM_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def sum_bytes(largest: int) -> int:
    """The fewest bytes, 1, 2, 4 or 8, of a lane that holds ``largest``."""
    for size in (1, 2, 4, 8):
        if largest < 1 << 8 * size:
            return size
    raise ValueError(f"a lane sum of {largest} passes 64 bits")


def instance_sums(terms, instances: int, outer: int, span: int, width: int = 1,
                  most: int = 1) -> list[int]:
    """Per instance, ``sum(weight * popcount)`` of its lanes in each
    ``(weight, lanes)`` of ``terms``.

    Each int of ``lanes`` holds 0 or 1 in every lane of ``width`` bytes, and
    ``sum(weight * lane)`` over the terms is at most ``most`` in any lane. The
    lanes run ``outer`` blocks, each of ``instances`` spans of ``span`` lanes,
    slowest first: instance t's lanes are span t of every block. One instance
    is a popcount per term, with no fold. More are summed lane by lane: the
    weighted terms, then an outer fold that adds the upper half of the blocks
    to the lower (shift-adds), then a product with ``span`` ones that puts the
    sum of each span in its last lane, read as an array.

    Headroom: an instance sum is at most ``outer * span * most``, and so is any
    lane on the way to it. Lanes are widened first (0 or 1 in the low byte)
    when ``width`` bytes cannot hold it, to :func:`sum_bytes` of it, which
    must be at most 8 (asserted).
    """
    if instances == 1:
        total = 0
        for weight, lanes in terms:
            total += weight * lanes.bit_count()
        return [total]
    wide = max(width, sum_bytes(outer * span * most))
    assert outer * span * most < 1 << 8 * wide, "an instance sum must fit in its lane"
    count = instances * outer * span
    total = 0
    for weight, lanes in terms:
        if wide != width:
            data = bytearray(count * wide)
            data[::wide] = lanes.to_bytes(count * width, "little")[::width]
            lanes = int.from_bytes(data, "little")
        total += weight * lanes
    bits = instances * span * wide * 8
    while outer > 1:
        keep = outer - outer // 2
        total = (total & (1 << keep * bits) - 1) + (total >> keep * bits)
        outer = keep
    if span > 1:
        total *= int.from_bytes(b"\x01".ljust(wide, b"\x00") * span, "little")
    sums = array(_SUM_TYPECODES[wide])
    sums.frombytes(total.to_bytes((instances + 1) * span * wide, "little"))
    if sys.byteorder == "big":
        sums.byteswap()
    return sums[span - 1:instances * span:span].tolist()


def outcome_count(part, x: int, instances: int = 1, outer: int = 1) -> list[int]:
    """Per instance, the entries of ``part`` equal to x, its lanes laid out as
    in :func:`instance_sums` with ``outer`` blocks: x's indicator lanes as one
    int, summed per instance (one instance: popcounted). Unlike
    ``bytes.count``, whose per-byte branch runs at about 300 MB/s on a
    structureless table, its cost does not depend on the bytes."""
    span = len(part) // (instances * outer)
    return instance_sums(((1, lane_int(part, indicator(x))),), instances, outer, span)


def outcome_counts(part, k: int, instances: int = 1, outer: int = 1) -> list[tuple[int, ...]]:
    """Per instance, the entries of ``part`` equal to each alternative x < k,
    for a part holding outcomes below k only: :func:`outcome_count` for
    x < k - 1, and the last alternative's count by subtraction."""
    lines = len(part) // instances
    counts = [outcome_count(part, x, instances, outer) for x in range(k - 1)]
    return list(zip(*counts, [lines - sum(column) for column in zip(*counts)] if counts
                    else [lines] * instances))


def rank_outcome_counts(tables, n: int, k: int, i: int) -> list[tuple[tuple[int, ...], ...]]:
    """Per table of a block of same-shape tables (:func:`join_tables`), per
    ranking rank of voter i, the profiles electing each alternative.

    One :func:`class_tables` split of the joined tables. Its lanes run from
    slowest to fastest over the voters after i, then the table, then the
    voters before i, so a table's lanes are one span only for i = n - 1; its
    counts are :func:`outcome_counts` over ``(k!)^(n-1-i)`` outer blocks.
    """
    joined = join_tables(tables, n, k)
    parts = class_tables(joined, k, rank_classes(n, k, i))
    outer = factorial(k) ** (n - 1 - i)
    return list(zip(*[outcome_counts(part, k, len(tables), outer) for part in parts]))


@lru_cache(maxsize=None)
def ranks_preferring(k: int, a: int, b: int) -> tuple[int, ...]:
    """The ranks of the rankings placing a above b, ascending: k!/2 of them."""
    return tuple(r for r, pos in enumerate(ranking_positions(k)) if pos[a] < pos[b])


def fiber_outcome_counts(tables, n: int, k: int, a: int,
                         b: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per table of a block of same-shape tables (:func:`join_tables`), per
    preference mask, the profiles electing a and b.

    A mask has bit c set when voter c ranks a above b, so its fiber holds the
    ``(k!/2)^n`` profiles where voter c's class is b above a (bit c clear) or
    a above b (set). One :func:`class_tables` split of the joined tables, in
    whose parts the table index is the fastest lane index: each table's count
    is an :func:`outcome_count` over ``(k!/2)^n`` outer blocks of one lane.
    """
    joined = join_tables(tables, n, k)
    parts = class_tables(joined, k, [(ranks_preferring(k, b, a), ranks_preferring(k, a, b))] * n)
    instances = len(tables)
    outer = len(parts[0]) // instances

    def counts(x):
        return zip(*[outcome_count(part, x, instances, outer) for part in parts])

    return list(zip(counts(a), counts(b)))


# ---------------------------------------------------------------------------
# Cached flat tables used by the enumeration engines. All are index-aligned
# with the Lehmer order above.


@lru_cache(maxsize=None)
def ranking_orders(k: int) -> tuple[tuple[int, ...], ...]:
    """All k! order tuples, position ``i`` holding the ranking with rank i."""
    if k > MAX_TABLE_K:
        raise ValueError(f"k={k} too large for materialized ranking tables")
    return tuple(permutations(range(k)))


@lru_cache(maxsize=None)
def ranking_positions(k: int) -> tuple[tuple[int, ...], ...]:
    """Per-rank inverse tables (alternative -> position)."""
    return tuple(_inverse(order) for order in ranking_orders(k))


@lru_cache(maxsize=None)
def ranking_rank_of(k: int) -> dict[tuple[int, ...], int]:
    return {order: i for i, order in enumerate(ranking_orders(k))}


@lru_cache(maxsize=None)
def window_blocks(k: int, width: int) -> tuple[tuple[int, int, tuple[tuple[int, ...], ...]], ...]:
    """Per window start s, ``(span, stride, moves)`` giving the rank that
    permuting positions ``s..s+w-1`` of a ranking moves it to, w = min(width, k).

    Lehmer rank is lexicographic rank. So ``r % span`` (``span = (k-s)!``)
    ranks r's alternatives from position s on, relabeled 0..m-1 in their order
    (m = k - s), and ``q = r % span // stride`` (``stride = (k-s-w)!``) is the
    index of their first w, the window, in ``permutations(range(m), w)``.
    Permuting the window keeps the positions before it and after it, so
    permutation j of ``permutations(range(w))`` moves r to
    ``r + (moves[q][j] - q) * stride``. The tables hold
    ``sum m!/(m-w)! * w!`` entries over the starts, not the ``k! (k-w+1) w!``
    of :func:`window_moves`.
    """
    w = min(width, k)
    blocks = []
    for start in range(k - w + 1):
        m = k - start
        windows = list(permutations(range(m), w))
        block_of = {window: q for q, window in enumerate(windows)}
        moves = tuple(tuple(map(block_of.__getitem__, permutations(window))) for window in windows)
        blocks.append((factorial(m), factorial(m - w), moves))
    return tuple(blocks)


def check_window_moves(k: int, width: int, cap: int) -> None:
    """Refuse, before it is built, a :func:`window_moves` table over ``cap``:
    ``k! (k-w+1) w!`` entries, w = min(width, k)."""
    w = min(width, k)
    check_cap(cap, "per-rank window table entries", k,
              count=lambda: factorial(k) * (k - w + 1) * factorial(w))


# Headroom: a window_moves row holds ranks below k! as unsigned 4-byte items,
# which hold them for k <= 12 (12! < 2^32); a larger rank raises OverflowError.
assert array("I").itemsize == 4, "a rank must fit in an array('I') item"


@lru_cache(maxsize=None)
def window_moves(k: int, width: int) -> tuple[array, ...]:
    """Per-rank destination of every (window start, window permutation) draw,
    from :func:`window_blocks`.

    Entry ``r`` lists one destination rank per draw, ordered by window start
    and then permutation index, the rank itself and repeats included. At
    width 2, entry ``2p + 1`` swaps positions p and p + 1: a refined-graph move.
    Each entry is an ``array('I')``, 4 bytes a draw.
    """
    blocks = window_blocks(k, width)
    return tuple(
        array("I", [r + (dest - r % span // stride) * stride
                    for span, stride, moves in blocks for dest in moves[r % span // stride]])
        for r in range(factorial(k))
    )


def top_h_by_rank(k: int, H: frozenset) -> bytes:
    """Per ranking rank, the highest-ranked member of H: a top_H dictator's outcomes.

    Lexicographic rank splits the rankings of ``m`` remaining alternatives into
    ``m`` blocks of ``(m-1)!``, block j starting with the j-th smallest. A block
    whose first alternative is in H has it as every top; any other block is
    the same question on the alternatives left, memoized by that set.
    """
    if k > MAX_TABLE_K:
        raise ValueError(f"k={k} too large for materialized ranking tables")
    return _block_tops(tuple(range(k)), H, {})


def _block_tops(remaining: tuple[int, ...], H: frozenset, memo: dict) -> bytes:
    """:func:`top_h_by_rank` over the rankings of ``remaining``, in lexicographic order."""
    if remaining not in memo:
        block = factorial(len(remaining) - 1)
        memo[remaining] = b"".join(
            bytes([x]) * block if x in H
            else _block_tops(remaining[:j] + remaining[j + 1:], H, memo)
            for j, x in enumerate(remaining))
    return memo[remaining]
