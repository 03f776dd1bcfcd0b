"""Counts of an anonymous score rule, folded over its weighted lines.

A profile of a :class:`scf.ScoreRule` elects the winner of its total, the sum
of its voters' codes (:meth:`scf.ScoreRule.code`). A line is a distinct total
s of n - 1 voters' codes; its weight is the number of ordered (n-1)-tuples of
ranks that sum to s (:func:`power_counts`), and its row is the k! outcomes the
last voter sees, ``winner(s + codes[r])`` per rank r (:meth:`scf.ScoreRule.rows`).
Because the rule is anonymous, every coordinate has the same lines, so each
count below is made once per rule, for every coordinate, and equals the table
path's count of any coordinate exactly:

- rank counts (:func:`rankings.rank_outcome_counts`): ``counts[r][row[r]] += w``;
- transition counts (:func:`graphs.transition_counts`): with ``C_x`` the
  count of x in a row, ``moves[a][b] += w * C_a * C_b``, the diagonal too;
- refined edges (:func:`graphs.refined_edge_lanes`): per adjacent swap
  (r, s) whose row values differ, w in both directions, and in ``swap`` too
  when they are the swapped pair itself;
- fiber counts (:func:`rankings.fiber_outcome_counts`), per pair, which depend
  on the preference mask only through its popcount (:func:`fiber_counts`).

:data:`FOLDS` maps each table count to its fold; :meth:`scf.SCF.counted` is
the one place that reads it. Every value is a Python int.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from math import factorial

from .graphs import adjacent_swaps, refined_edge_lanes, transition_counts
from .rankings import (
    check_coordinate,
    fiber_outcome_counts,
    indicator,
    lane_int,
    rank_outcome_counts,
    ranks_preferring,
)


def convolve(weights: dict[int, int], other: dict[int, int]) -> dict[int, int]:
    """Per sum of a total of each, the product of their weights, summed."""
    out = defaultdict(int)
    for s, w in weights.items():
        for c, times in other.items():
            out[s + c] += w * times
    return out


def power_counts(codes, m: int) -> list[dict[int, int]]:
    """Per j = 0..m, the ordered j-tuples drawn from ``codes`` (one draw per
    listed code) by their sum: ``{0: 1}`` convolved j times with
    ``Counter(codes)``, so a code listed several times (Plurality's) is
    summed once per step."""
    step = Counter(codes)
    powers = [{0: 1}]
    for _ in range(m):
        powers.append(convolve(powers[-1], step))
    return powers


class ScoreLines:
    """A score rule's lines: ``rows``, each total's row, and ``weighted``, the
    ``(weight, row)`` pairs with the weights of lines that share a row
    summed; and each count folded from them, made on its first read
    (:meth:`read`). ``codes`` are the rule's per-rank codes."""

    def __init__(self, n: int, k: int, codes: list[int], weights: dict[int, int],
                 rows: dict[int, bytes]):
        self.n, self.k, self.codes, self.rows = n, k, codes, rows
        # The folds but fiber_counts read a row and its weight only, so lines
        # with one row are folded once: 586 lines have 138 rows at Borda (4,4).
        same = Counter()
        for s, w in weights.items():
            same[rows[s]] += w
        self.weighted = [(w, row) for row, w in same.items()]
        self._made: dict = {}

    def read(self, count, args: tuple):
        """The rule's value of ``count`` (a key of :data:`FOLDS`) at ``args``.
        A count of one coordinate checks it and reads the one fold that serves
        every coordinate; a fiber count is folded once per pair."""
        fold = FOLDS[count]
        if fold is not fiber_counts:
            check_coordinate(self.n, *args)
            args = ()
        made = self._made.get((fold, args))
        if made is None:
            made = self._made[fold, args] = fold(self, *args)
        return made


def rank_counts(lines: ScoreLines) -> tuple[tuple[int, ...], ...]:
    """Per rank r, the profiles electing each alternative when a voter has rank r."""
    counts = [[0] * lines.k for _ in range(factorial(lines.k))]
    for w, row in lines.weighted:
        for column, x in zip(counts, row):
            column[x] += w
    return tuple(map(tuple, counts))


def transition_moves(lines: ScoreLines) -> list[list[int]]:
    """``moves[a][b]``: (profile, ranking) pairs where giving a voter that
    ranking moves the outcome from a to b. A line holds ``C_a * C_b`` of them."""
    k = lines.k
    moves = [[0] * k for _ in range(k)]
    for w, row in lines.weighted:
        sizes = [row.count(x) for x in range(k)]
        for a, size in enumerate(sizes):
            if size:
                move, weight = moves[a], w * size
                for b, other in enumerate(sizes):
                    move[b] += weight * other
    return moves


def refined_edges(lines: ScoreLines) -> tuple[list[list[int]], list[list[int]]]:
    """``(every, swap)`` of :func:`graphs.refined_edge_counts`: each adjacent
    swap of a line whose two outcomes differ is w edges each way."""
    k = lines.k
    swaps = list(adjacent_swaps(k))
    every = [[0] * k for _ in range(k)]
    swap = [[0] * k for _ in range(k)]
    for w, row in lines.weighted:
        for r, s, (c, d) in swaps:
            a, b = row[r], row[s]
            if a != b:
                every[a][b] += w
                every[b][a] += w
                if a == c and b == d or a == d and b == c:
                    swap[a][b] += w
                    swap[b][a] += w
    return every, swap


def fiber_counts(lines: ScoreLines, a: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per preference mask (bit c set when voter c ranks a above b), the
    profiles of its fiber electing a and b.

    By anonymity the counts depend only on the mask's popcount j. Voter n - 1
    is taken in class A (a above b) when j >= 1, the other voters' totals
    being then those of j - 1 voters in class A and n - j in class B (the
    :func:`convolve` of two :func:`power_counts`), and in class B when j = 0,
    over the totals of n - 1 voters in class B. Each total's count is its
    weight times the a (or b) in its row at voter n - 1's class ranks.
    """
    n, codes, rows = lines.n, lines.codes, lines.rows
    below, above = ranks_preferring(lines.k, b, a), ranks_preferring(lines.k, a, b)
    # Byte lane r is 1 for each rank r of class A.
    mask = sum(1 << 8 * r for r in above)
    # Per distinct row, the counts of a and of b over class B's ranks, then A's.
    tallies = {}
    for _w, row in lines.weighted:
        ones = [lane_int(row, indicator(x)) for x in (a, b)]
        on_a = [(one & mask).bit_count() for one in ones]
        tallies[row] = ([one.bit_count() - x for one, x in zip(ones, on_a)], on_a)
    ayes = power_counts([codes[r] for r in above], n - 1)
    noes = power_counts([codes[r] for r in below], n - 1)
    # Per count v of the other voters in class A, the totals of those voters.
    others = [convolve(ayes[v], noes[n - 1 - v]) for v in range(n)]
    by_popcount = []
    for j in range(n + 1):
        count_a = count_b = 0
        for s, w in others[max(j - 1, 0)].items():
            x, y = tallies[rows[s]][j > 0]
            count_a += w * x
            count_b += w * y
        by_popcount.append((count_a, count_b))
    popcounts = [m.bit_count() for m in range(1 << n)]
    return (tuple(by_popcount[j][0] for j in popcounts),
            tuple(by_popcount[j][1] for j in popcounts))


# Table count -> the fold that gives the same value from a score rule's lines.
FOLDS = {
    rank_outcome_counts: rank_counts,
    transition_counts: transition_moves,
    refined_edge_lanes: refined_edges,
    fiber_outcome_counts: fiber_counts,
}
