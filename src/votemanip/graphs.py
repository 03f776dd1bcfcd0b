"""Rankings graphs, outcome boundaries, and product-graph isoperimetry.

Two graphs live on the profile space: the coarse graph joins profiles that
differ in exactly one coordinate, the refined graph additionally requires the
differing coordinate to move by a single adjacent transposition. Boundary
sizes and influences are not enumerated: they are reads of a coordinate's
edge counts, k x k matrices indexed by outcome pair:
:func:`transition_counts` for the coarse graph, and :func:`refined_edge_counts`
for the refined one, summed over all adjacent swaps and for the swap of the
pair itself. Each is counted over the byte lanes of voter i's rank parts
(:func:`rankings.rank_classes`). :class:`CoordinateInfluences` makes each
count on its first read and holds the one checked read of all of them,
:meth:`CoordinateInfluences.count`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from math import factorial
from typing import Iterator, Optional

from .errors import CapExceededError
from .rankings import (
    check_alternatives,
    check_coordinate,
    check_window_moves,
    class_tables,
    indicator,
    lane_int,
    pair_lanes,
    profile_space_size,
    rank_classes,
    ranking_orders,
    window_moves,
)
from .scf import SCF


class GraphKind(Enum):
    """Which edges a count reads: every coarse edge, every refined edge, or the
    refined edges that swap the two outcomes themselves."""

    COARSE = "coarse"
    REFINED = "refined"
    SWAP = "swap"


# Headroom: transition_counts sums indicator lanes over at most this many rank
# parts, so a byte lane stays below 256 (k! passes 255 from k = 6), then adds
# the groups in lanes of ceil(bitlen(k!) / 8) bytes, which hold k!.
LANE_GROUP = 255


def transition_counts(f: SCF, i: int) -> list[list[int]]:
    """``moves[a][b]``: (profile, ranking) pairs where giving voter i that ranking
    moves the outcome from a to b.

    A line with outcome counts ``C`` holds ``C_a * C_b`` such pairs. Outcome a's
    indicator lanes summed over the rank parts (by ``LANE_GROUP``) give ``C_a``
    per line, and over the bit planes of two such sums, ``sum C_a C_b`` is the
    sum of ``2^(t+u) popcount(plane_{a,t} & plane_{b,u})``. Row a sums to k! times
    the profiles electing a, ``sum 2^t popcount(plane_{a,t})``, which gives
    the diagonal with no pass over the table.
    """
    k = f.k
    parts = class_tables(f.table(), k, rank_classes(f.n, k, i))
    fact, lanes = len(parts), len(parts[0])
    width = (fact.bit_length() + 7) // 8
    totals = [0] * k
    for first in range(0, fact, LANE_GROUP):
        group = parts[first:first + LANE_GROUP]
        for a in range(k):
            wide = bytearray(lanes * width)
            wide[::width] = sum(lane_int(part, indicator(a)) for part in group).to_bytes(
                lanes, "little")
            totals[a] += int.from_bytes(wide, "little")
    ones = int.from_bytes(b"\x01".ljust(width, b"\x00") * lanes, "little")
    planes = [[(t, total >> t & ones) for t in range(fact.bit_length())] for total in totals]
    moves = [[0] * k for _ in range(k)]
    for a, b in combinations(range(k), 2):
        moves[a][b] = moves[b][a] = sum(
            (x & y).bit_count() << (t + u) for t, x in planes[a] for u, y in planes[b])
    for a, row in enumerate(moves):
        mass = sum(x.bit_count() << t for t, x in planes[a])
        row[a] = fact * mass - sum(row)
    return moves


def refined_edge_counts(f: SCF, i: int) -> tuple[list[list[int]], list[list[int]]]:
    """``(every, swap)``: refined-graph edges of coordinate i that change the outcome.

    ``every[a][b]`` counts the profiles with outcome a where swapping some
    adjacent pair in voter i's ranking gives outcome b != a, and ``swap[a][b]``
    those where the swapped pair is a and b themselves. Per edge between ranks
    r and s, parts r and s paired by :func:`rankings.pair_lanes` hold
    ``a << 4 | b`` where r elects a and s elects b, for ``bytes.count``. The
    swaps are checked against f's cap (:func:`rankings.check_window_moves`) first.
    """
    k = f.k
    check_window_moves(k, 2, f.cap)
    parts = class_tables(f.table(), k, rank_classes(f.n, k, i))
    lanes = len(parts[0])
    ints = [int.from_bytes(part, "little") for part in parts]
    every = [[0] * k for _ in range(k)]
    swap = [[0] * k for _ in range(k)]
    # Every refined edge of a line once, from rank r to the rank s its swap of
    # positions p and p + 1 (the pair c, d) gives, and counted in both directions.
    for r, (order, moves) in enumerate(zip(ranking_orders(k), window_moves(k, 2))):
        for p, s in enumerate(moves[1::2]):
            if r < s:
                c, d = order[p:p + 2]
                pairs = pair_lanes(ints[r], ints[s], lanes)
                for a, b in permutations(range(k), 2):
                    edges = pairs.count(a << 4 | b)
                    if edges:
                        every[a][b] += edges
                        every[b][a] += edges
                        if a == c and b == d or a == d and b == c:
                            swap[a][b] += edges
                            swap[b][a] += edges
    return every, swap


class CoordinateInfluences:
    """Coordinate i's edge counts and the influences read from them.

    Each count is made on its first read: ``moves``, :func:`transition_counts`,
    for a coarse read, and ``edges``, both matrices of
    :func:`refined_edge_counts`, for a refined or a swap one. :meth:`count` is
    the one checked read of all three. A coarse influence is a count of
    (profile, ranking) pairs over ``size * k!``; a refined or swap one is a
    count of directed refined edges over ``2 * size``. These denominators are
    kept here only.
    """

    def __init__(self, f: SCF, i: int):
        check_coordinate(f.n, i)
        self.f, self.i, self.k = f, i, f.k
        self.size = profile_space_size(f.n, f.k)

    @cached_property
    def moves(self) -> list[list[int]]:
        return transition_counts(self.f, self.i)

    @cached_property
    def edges(self) -> tuple[list[list[int]], list[list[int]]]:
        return refined_edge_counts(self.f, self.i)

    def count(self, a: int, b: Optional[int] = None, kind: GraphKind = GraphKind.COARSE) -> int:
        """Edges of ``kind`` in coordinate i leaving outcome a (for b, when
        set): the size of that outcome boundary."""
        if b is None:
            check_alternatives(self.k, a)
        else:
            check_alternatives(self.k, a, b)
        if kind is GraphKind.COARSE:
            row = self.moves[a]
        else:
            every, swap = self.edges
            row = (swap if kind is GraphKind.SWAP else every)[a]
        return sum(row) - row[a] if b is None else row[b]

    def denominator(self, kind: GraphKind = GraphKind.COARSE) -> int:
        """What a count of ``kind`` is divided by to give an influence."""
        return self.size * factorial(self.k) if kind is GraphKind.COARSE else 2 * self.size

    def influence(self, a: int, b: Optional[int] = None,
                  kind: GraphKind = GraphKind.COARSE) -> Fraction:
        """:meth:`count` over :meth:`denominator`: coarse, the probability the
        outcome is a and a new ranking for voter i moves it (to b); refined,
        half the mass of profiles an adjacent swap moves from a (to b)."""
        return Fraction(self.count(a, b, kind), self.denominator(kind))


# ---------------------------------------------------------------------------
# Generic edge/vertex boundaries on products of complete graphs.


def product_vertices(sizes: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    return product(*(range(s) for s in sizes))


def product_neighbors(v: tuple[int, ...], sizes: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    for c, size in enumerate(sizes):
        for value in range(size):
            if value != v[c]:
                yield v[:c] + (value,) + v[c + 1:]


# Largest K_k^n an exhaustive sweep enumerates the 2^(k^n) subsets of, and
# the largest a lexicographic sweep builds: it holds a k^n-bit neighbour
# mask per vertex, and its time grows with the cube of k^n (4,096 vertices
# took about 30 s, 1,024 under a second).
MAX_EXHAUSTIVE_VERTICES = 16
MAX_LEX_VERTICES = 1024


@dataclass
class LindseyReport:
    """Outcome of an edge-isoperimetry sweep on K_k^n."""

    k: int
    n: int
    mode: str
    size_limit: int
    sets_checked: int
    violations: int
    min_slack: Optional[int]
    min_slack_set: Optional[tuple] = None
    holds: bool = field(init=False)

    def __post_init__(self):
        self.holds = self.violations == 0

    def describe(self) -> dict:
        return {
            "graph": f"K_{self.k}^{self.n}",
            "mode": self.mode,
            "size_limit": self.size_limit,
            "sets_checked": self.sets_checked,
            "violations": self.violations,
            "holds": self.holds,
            "min_slack": self.min_slack,
            "min_slack_set": (
                None if self.min_slack_set is None
                else [list(v) for v in self.min_slack_set]
            ),
        }


def verify_lindsey(k_complete: int, n_copies: int, exhaustive: bool = True) -> LindseyReport:
    """Check |edge boundary of A| >= |A| for small subsets of K_k^n.

    The inequality is required for |A| <= (1 - 1/k) k^n. Exhaustive mode runs
    every subset (feasible only for tiny graphs); otherwise only lexicographic
    initial segments, which are extremal for this problem, are checked. The
    vertex count is checked against the mode's cap before anything is built.
    """
    if k_complete < 2:
        raise ValueError(f"K_k needs k >= 2, got k={k_complete}")
    if n_copies < 1:
        raise ValueError(f"need at least one copy of K_k, got {n_copies}")
    vertex_cap = MAX_EXHAUSTIVE_VERTICES if exhaustive else MAX_LEX_VERTICES
    # k >= 2 gives k^n >= 2^n, which passes the cap once n reaches its bit
    # length, so an oversized n is refused without forming k^n.
    if n_copies >= vertex_cap.bit_length() or k_complete ** n_copies > vertex_cap:
        sets = ("exhaustive subsets; use exhaustive=False" if exhaustive
                else "lexicographic segments")
        raise CapExceededError(
            f"K_{k_complete}^{n_copies} has more than {vertex_cap} vertices, the cap for {sets}"
        )
    sizes = (k_complete,) * n_copies
    m = k_complete ** n_copies
    limit = m - k_complete ** (n_copies - 1)
    vertices = list(product_vertices(sizes))
    neighbor_masks = []
    index_of = {v: i for i, v in enumerate(vertices)}
    for v in vertices:
        mask = 0
        for w in product_neighbors(v, sizes):
            mask |= 1 << index_of[w]
        neighbor_masks.append(mask)

    checked = 0
    violations = 0
    min_slack = None
    min_set = None

    def consider(mask: int) -> None:
        nonlocal checked, violations, min_slack, min_set
        size = bin(mask).count("1")
        if size == 0 or size > limit:
            return
        checked += 1
        outside = ~mask
        edges = 0
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            edges += bin(neighbor_masks[v] & outside).count("1")
            rest ^= low
        slack = edges - size
        if slack < 0:
            violations += 1
        if min_slack is None or slack < min_slack:
            min_slack = slack
            min_set = tuple(vertices[i] for i in range(m) if mask >> i & 1)

    if exhaustive:
        for mask in range(1 << m):
            consider(mask)
        mode = "exhaustive"
    else:
        mask = 0
        for i in range(limit):
            mask |= 1 << i
            consider(mask)
        mode = "lexicographic"

    return LindseyReport(
        k=k_complete, n=n_copies, mode=mode, size_limit=limit,
        sets_checked=checked, violations=violations,
        min_slack=min_slack, min_slack_set=min_set,
    )
