"""Rankings graphs, outcome boundaries, and product-graph isoperimetry.

Two graphs live on the profile space: the coarse graph joins profiles that
differ in exactly one coordinate, the refined graph additionally requires the
differing coordinate to move by a single adjacent transposition. Boundary
sets between outcomes are enumerated exactly, streaming in profile-index
order, from a byte search of the table. Boundary sizes and influences are not
enumerated: they are reads of a coordinate's edge counts,
:func:`transition_counts` for the coarse graph and :func:`refined_edge_counts`
for the refined one, each counted over the byte lanes of voter i's rank parts
(:func:`rankings.rank_classes`). :func:`coordinate_influences` makes each
count on its first read and holds the one checked read of both,
:meth:`CoordinateInfluences.count`.
"""
from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product
from math import factorial
from typing import Iterator, Optional

from .errors import CapExceededError
from .rankings import (
    AdjacentTransposition,
    Profile,
    adjacent_swap_neighbors,
    all_rankings,
    check_alternatives,
    check_coordinate,
    class_tables,
    decode_profile,
    encode_profile,
    indicator,
    lane_int,
    pair_lanes,
    profile_space_size,
    profile_strides,
    rank_classes,
    ranking_rank_of,
)
from .scf import SCF


class GraphKind(Enum):
    COARSE = "coarse"
    REFINED = "refined"


def neighbors(profile: Profile, kind: GraphKind) -> list[Profile]:
    """All graph neighbors of a profile, coordinate-major order.

    Coarse degree is n(k!-1); refined degree is n(k-1) since transpositions of
    non-adjacent alternatives act as the identity and are not emitted.
    """
    k = profile[0].k
    rankings = all_rankings(k)
    rank_of = ranking_rank_of(k)
    return [profile[:i] + (rankings[dest],) + profile[i + 1:] for i, r in enumerate(profile)
            for dest in _rank_moves(k, kind, None, rank_of[r.order])]


@dataclass(frozen=True)
class BoundarySpec:
    """Selects a boundary: outcome ``a`` flipping to ``b`` in coordinate ``i``.

    ``b=None`` selects any outcome change away from ``a``. ``z`` restricts the
    refined boundary to a single adjacent transposition and requires the
    refined kind.
    """

    i: int
    a: int
    b: Optional[int] = None
    z: Optional[AdjacentTransposition] = None
    kind: GraphKind = GraphKind.COARSE

    def __post_init__(self):
        if self.b is not None and self.a == self.b:
            raise ValueError("boundary needs two distinct outcomes")
        _check_kind(self.z, self.kind)

    def describe(self) -> dict:
        d = {
            "coordinate": self.i + 1,
            "from": self.a + 1,
            "to": None if self.b is None else self.b + 1,
            "kind": self.kind.value,
        }
        if self.z is not None:
            d["transposition"] = [self.z.a + 1, self.z.b + 1]
        return d


def _rank_moves(k: int, kind: GraphKind, z: Optional[AdjacentTransposition],
                rho: int):
    """The ranks one edge of the graph (restricted to z) reaches from rank rho.
    Coarse moves are every other rank, listed on each call: the coarse moves
    of every rank would be k! (k! - 1) entries."""
    if kind is GraphKind.COARSE:
        return [r for r in range(factorial(k)) if r != rho]
    return _swap_moves(k, z, rho)


@lru_cache(maxsize=None)
def _swap_moves(k: int, z: Optional[AdjacentTransposition], rho: int) -> tuple[int, ...]:
    """The refined moves of :func:`_rank_moves`, k - 1 at most, kept per rank."""
    pair = None if z is None else (min(z.a, z.b), max(z.a, z.b))
    return tuple(dest for dest, a, b in adjacent_swap_neighbors(k)[rho]
                 if pair is None or (a, b) == pair)


def _check_kind(z: Optional[AdjacentTransposition], kind: GraphKind) -> None:
    if z is not None and kind is not GraphKind.REFINED:
        raise ValueError("transposition-restricted boundaries are refined-graph only")


def _check_edges(k: int, a: int, b: Optional[int], z: Optional[AdjacentTransposition],
                 kind: GraphKind) -> None:
    """Refuse a selection of edges from outcome a (to b, under z, when set) that
    :class:`BoundarySpec` refuses, or whose alternatives lie outside ``0..k-1``."""
    _check_kind(z, kind)
    if b is None:
        check_alternatives(k, a)
    else:
        check_alternatives(k, a, b)
    if z is not None:
        check_alternatives(k, z.a, z.b)


def _spec_partners(f: SCF, spec: BoundarySpec):
    """The table, and a function listing the partners, in edge order, of a
    profile p electing a that leave a (for b, when b is set).

    An edge from voter i's rank ``r = p // stride % k!`` to ``dest`` reaches
    ``p + (dest - r) * stride``, computed for p's own rank only. The coarse
    partners are p's whole coordinate-i line, a range of indices; p itself
    elects a, so the filter drops it.
    """
    check_coordinate(f.n, spec.i)
    _check_edges(f.k, spec.a, spec.b, spec.z, spec.kind)
    table = f.table()
    fact = factorial(f.k)
    stride = profile_strides(f.n, f.k)[spec.i]
    a, b = spec.a, spec.b
    coarse = spec.kind is GraphKind.COARSE

    def partners(p: int) -> list[int]:
        r = p // stride % fact
        if coarse:
            line = range(p - r * stride, p + (fact - r) * stride, stride)
        else:
            line = [p + (dest - r) * stride for dest in _swap_moves(f.k, spec.z, r)]
        return [q for q in line if table[q] != a and (b is None or table[q] == b)]

    return table, partners


def iter_boundary_index_pairs(f: SCF, spec: BoundarySpec) -> Iterator[tuple[int, int]]:
    """Ordered boundary pairs as profile indices, streamed in index order; the
    spec is checked on the call, not on the first pair."""
    table, partners = _spec_partners(f, spec)
    electing = map(re.Match.start, re.finditer(re.escape(bytes([spec.a])), table))
    return ((p, q) for p in electing for q in partners(p))


def boundary(f: SCF, spec: BoundarySpec) -> list[tuple[Profile, Profile]]:
    """Materialized boundary pair set (use the iterator for large instances)."""
    return [(decode_profile(f.n, f.k, p), decode_profile(f.n, f.k, q))
            for p, q in iter_boundary_index_pairs(f, spec)]


def boundary_count(f: SCF, spec: BoundarySpec) -> int:
    """Size of the boundary :func:`boundary` lists, read from one count pass."""
    return coordinate_influences(f, spec.i).count(spec.a, spec.b, spec.z, spec.kind)


# Headroom: transition_counts sums indicator lanes over at most this many rank
# parts, so a lane stays below 256 (k! passes 255 from k = 6).
LANE_GROUP = 255


def transition_counts(f: SCF, i: int) -> list[list[int]]:
    """``moves[a][b]``: (profile, ranking) pairs where giving voter i that ranking
    moves the outcome from a to b.

    A line with outcome counts ``C`` holds ``C_a * C_b`` such pairs. Outcome a's
    indicator lanes summed over a group of rank parts give ``C_a`` per line,
    and over the bit planes of two groups' sums, ``sum C_a C_b`` is the sum of
    ``2^(t+u) popcount(plane_{a,t} & plane_{b,u})``. Row a sums to k! times
    the profiles electing a, ``sum 2^t popcount(plane_{a,t})``, which gives
    the diagonal with no pass over the table.
    """
    k = f.k
    parts = class_tables(f.table(), k, rank_classes(f.n, k, i))
    ones = int.from_bytes(b"\x01" * len(parts[0]), "little")
    planes = [[] for _ in range(k)]
    for first in range(0, len(parts), LANE_GROUP):
        group = parts[first:first + LANE_GROUP]
        for a, out in enumerate(planes):
            total = sum(lane_int(part, indicator(a)) for part in group)
            out += [(t, total >> t & ones) for t in range(len(group).bit_length())]
    moves = [[0] * k for _ in range(k)]
    for a, b in combinations(range(k), 2):
        moves[a][b] = moves[b][a] = sum(
            (x & y).bit_count() << (t + u) for t, x in planes[a] for u, y in planes[b])
    for a, row in enumerate(moves):
        mass = sum(x.bit_count() << t for t, x in planes[a])
        row[a] = len(parts) * mass - sum(row)
    return moves


def refined_edge_counts(f: SCF, i: int) -> dict:
    """Refined-graph edges of coordinate i that change the outcome.

    Key ``(a, b, (c, d))`` with c < d counts the profiles with outcome a where
    swapping the adjacent alternatives c and d in voter i's ranking gives
    outcome b != a. Per edge between ranks r and s, parts r and s paired by
    :func:`rankings.pair_lanes` hold ``a << 4 | b`` where r elects a and s
    elects b, for ``bytes.count``.
    """
    k = f.k
    parts = class_tables(f.table(), k, rank_classes(f.n, k, i))
    lanes = len(parts[0])
    ints = [int.from_bytes(part, "little") for part in parts]
    counts: dict = defaultdict(int)
    # Every refined edge of a line once, as (rank, rank after the swap, swap),
    # and counted in both directions.
    for r, moves in enumerate(adjacent_swap_neighbors(k)):
        for s, c, d in moves:
            if r < s:
                pairs = pair_lanes(ints[r], ints[s], lanes)
                for a, b in permutations(range(k), 2):
                    edges = pairs.count(a << 4 | b)
                    if edges:
                        counts[a, b, (c, d)] += edges
                        counts[b, a, (c, d)] += edges
    return dict(counts)


class CoordinateInfluences:
    """Coordinate i's edge counts and the influences read from them.

    Each count is made on its first read: ``moves``, :func:`transition_counts`,
    for a coarse read, and ``edges``, :func:`refined_edge_counts`, for a refined
    one. :meth:`count` is the one checked read of both. A coarse influence is
    a count of (profile, ranking) pairs over ``size * k!``; a refined one is a
    count of directed refined edges over ``2 * size``. These two denominators
    are kept here only.
    """

    def __init__(self, f: SCF, i: int):
        check_coordinate(f.n, i)
        self.f, self.i, self.k = f, i, f.k
        self.size = profile_space_size(f.n, f.k)

    @cached_property
    def moves(self) -> list[list[int]]:
        return transition_counts(self.f, self.i)

    @cached_property
    def edges(self) -> dict:
        return refined_edge_counts(self.f, self.i)

    def count(self, a: int, b: Optional[int] = None, z: Optional[AdjacentTransposition] = None,
              kind: GraphKind = GraphKind.COARSE) -> int:
        """Edges leaving outcome a (for b, under z, when set): the size of the
        boundary ``BoundarySpec(i, a, b, z, kind)`` selects."""
        _check_edges(self.k, a, b, z, kind)
        if kind is GraphKind.COARSE:
            row = self.moves[a]
            return sum(row) - row[a] if b is None else row[b]
        w = None if z is None else (min(z.a, z.b), max(z.a, z.b))
        return sum(c for (x, y, v), c in self.edges.items()
                   if x == a and (b is None or y == b) and (w is None or v == w))

    def denominator(self, kind: GraphKind = GraphKind.COARSE) -> int:
        """What a count of ``kind`` is divided by to give an influence."""
        return self.size * factorial(self.k) if kind is GraphKind.COARSE else 2 * self.size

    def _coarse(self, count: int) -> Fraction:
        return Fraction(count, self.denominator(GraphKind.COARSE))

    def _refined(self, count: int) -> Fraction:
        return Fraction(count, self.denominator(GraphKind.REFINED))

    def pair(self, a: int, b: int) -> Fraction:
        """Probability the outcome moves from a to b."""
        return self._coarse(self.count(a, b))

    def target(self, a: int) -> Fraction:
        """Probability the outcome is a and leaves a."""
        return self._coarse(self.count(a))

    def total(self) -> Fraction:
        """Probability the outcome changes."""
        return self._coarse(sum(self.count(a) for a in range(self.k)))

    def refined(self, a: int, b: int, z: AdjacentTransposition) -> Fraction:
        """Half the mass of profiles where applying z moves the outcome from a to b."""
        return self._refined(self.count(a, b, z, GraphKind.REFINED))

    def refined_all(self, a: int, b: int) -> Fraction:
        """The refined influence of a to b summed over all adjacent transpositions."""
        return self._refined(self.count(a, b, kind=GraphKind.REFINED))


def coordinate_influences(f: SCF, i: int) -> CoordinateInfluences:
    """Coordinate i's influences: the coordinate is checked at once, and each
    read pays only for the count pass it needs, one per kind."""
    return CoordinateInfluences(f, i)


def is_on_boundary(f: SCF, profile: Profile, spec: BoundarySpec) -> bool:
    """Whether the profile has at least one boundary partner under the spec."""
    f.check_profile(profile)
    table, partners = _spec_partners(f, spec)
    p = encode_profile(profile)
    # A list, not any(): partner index 0 is falsy.
    return table[p] == spec.a and bool(partners(p))


# ---------------------------------------------------------------------------
# Generic edge/vertex boundaries on products of complete graphs.


def product_vertices(sizes: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    return product(*(range(s) for s in sizes))


def product_neighbors(v: tuple[int, ...], sizes: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    for c, size in enumerate(sizes):
        for value in range(size):
            if value != v[c]:
                yield v[:c] + (value,) + v[c + 1:]


def edge_boundary(A, sizes: tuple[int, ...]) -> int:
    """Number of edges with exactly one endpoint in A."""
    A = set(A)
    count = 0
    for u in A:
        for v in product_neighbors(u, sizes):
            if v not in A:
                count += 1
    return count


def vertex_boundary(A, sizes: tuple[int, ...]) -> set:
    """Members of A with at least one neighbor outside A."""
    A = set(A)
    return {
        u for u in A
        if any(v not in A for v in product_neighbors(u, sizes))
    }


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
