"""Exact distances to the nonmanipulable families, and the monotone Boolean
repair (an exact minimum cut) that the two-valued branch uses.
Influences are reads of the edge counts in :mod:`graphs`.

Every quantity here is an exact rational over arbitrary-precision integers.
The bounds this library verifies reach scales like 10^-39, far below float
resolution, so no floating point is allowed anywhere in this module.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import factorial
from operator import getitem
from typing import Callable, Optional, Sequence

from .errors import CapExceededError
from .rankings import fiber_outcome_counts, top_h_by_rank
from .scf import (
    SCF,
    MonotoneTwoValued,
    OneCoordinate,
    TableSCF,
    TopHDictator,
)

MAX_HYPERCUBE_BITS = 20

# Largest k whose top_H tables are cached: the 127 sets of k = 7 take 640 KB,
# the 1023 sets of k = 10 would take 3.7 GB (a k = 10 table builds in ms).
TOP_H_CACHE_K = 7


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Distances to the nonmanipulable families.


@dataclass(frozen=True)
class DistanceReport:
    """Distance to a family plus the family member attaining it, built by
    ``build`` on the first read of :attr:`witness`: a check that reads only the
    value builds no member."""

    family: str
    value: Fraction
    build: Callable[[], SCF] = field(repr=False, compare=False)

    @cached_property
    def witness(self) -> SCF:
        return self.build()

    def describe(self) -> dict:
        return {
            "family": self.family,
            "value": frac_str(self.value),
            "witness": self.witness.describe(),
        }


def distance_to_nonmanip_bar(f: SCF) -> DistanceReport:
    """Distance to functions of one coordinate or of at most two values.

    One-coordinate branch: per coordinate, the modal completion (ties to the
    lowest id). Two-valued branch: keep the two heaviest outcomes, map the
    rest onto the lower of the pair. The minimum over all candidates is exact,
    and only its witness is built, when read. Both read the SCF's cached
    :meth:`SCF.rank_counts`; the masses are the column sums of coordinate 0's.
    """
    table = f.table()
    n, k = f.n, f.k
    size = len(table)
    best_agree = -1
    best_witness = None

    for i in range(n):
        completion = []
        agree = 0
        for row in f.rank_counts(i):
            most = max(row)
            completion.append(row.index(most))
            agree += most
        if agree > best_agree:
            best_agree = agree
            best_witness = partial(OneCoordinate, n, k, i, completion, cap=f.cap)

    mass = [sum(column) for column in zip(*f.rank_counts(0))]
    ranked = sorted(range(k), key=lambda x: (-mass[x], x))
    keep = ranked[:2] if k >= 2 else ranked[:1]
    agree = sum(mass[a] for a in keep)
    if agree > best_agree:
        best_agree = agree
        best_witness = partial(_two_valued_witness, f, keep)

    return DistanceReport("nonmanip-bar", Fraction(size - best_agree, size), best_witness)


def _two_valued_witness(f: SCF, keep) -> TableSCF:
    """f with every outcome outside ``keep`` mapped to the lower of ``keep``."""
    fallback = min(keep)
    return TableSCF(f.n, f.k, f.table().translate(bytes.maketrans(
        bytes(range(f.k)), bytes(a if a in keep else fallback for a in range(f.k)))), cap=f.cap)


def _dictator_plan(k: int):
    """Per nonempty subset H of the alternatives, by mask: H and the top_H
    dictator's outcome per ranking rank (:func:`rankings.top_h_by_rank`)."""
    for mask in range(1, 1 << k):
        members = frozenset(x for x in range(k) if mask >> x & 1)
        yield members, top_h_by_rank(k, members)


@lru_cache(maxsize=None)
def _cached_dictator_plan(k: int) -> tuple:
    """:func:`_dictator_plan` for k up to ``TOP_H_CACHE_K``: the one cache of
    top_H tables."""
    return tuple(_dictator_plan(k))


def distance_to_nonmanip(f: SCF) -> DistanceReport:
    """Distance to the nonmanipulable family.

    Minimizes over every top_H dictator (its agreement read from the SCF's
    cached :meth:`SCF.rank_counts`: per rank, the count of its top_H outcome,
    the subsets and their outcomes listed once per k by :func:`_dictator_plan`)
    and, per alternative pair, the cost-optimal monotone two-valued function
    found by an exact minimum cut over the preference hypercube, counted over
    :func:`rankings.class_tables`. A cut costs at least the sum over vertices
    of the cheaper label, so a pair whose agreement cannot pass the best so far
    skips its cut; a tie never replaces the best, so the value and witness are
    those of the full search, and only that witness is built, when read. A hypercube past
    ``MAX_HYPERCUBE_BITS`` is refused before the table is built.
    """
    n, k = f.n, f.k
    if k >= 2 and n > MAX_HYPERCUBE_BITS:
        raise CapExceededError(f"hypercube with 2^{n} vertices exceeds the cap")
    table = f.table()
    size = len(table)
    best_agree = -1
    best_witness = None

    for i in range(n):
        counts = f.rank_counts(i)
        plan = _cached_dictator_plan(k) if k <= TOP_H_CACHE_K else _dictator_plan(k)
        for members, tops in plan:
            agree = sum(map(getitem, counts, tops))
            if agree > best_agree:
                best_agree = agree
                best_witness = partial(TopHDictator, n, k, i, members, cap=f.cap)

    fiber = (factorial(k) // 2) ** n
    for a in range(k):
        for b in range(a + 1, k):
            count_a, count_b = f.counted(fiber_outcome_counts, a, b)
            cost_a = [fiber - c for c in count_a]
            cost_b = [fiber - c for c in count_b]
            if size - sum(map(min, cost_a, cost_b)) <= best_agree:
                continue
            labels, cost = nearest_monotone_boolean(cost_a, cost_b)
            if size - cost > best_agree:
                best_agree = size - cost
                best_witness = partial(MonotoneTwoValued, n, k, (a, b),
                                       [a if lab else b for lab in labels], cap=f.cap)

    return DistanceReport("nonmanip", Fraction(size - best_agree, size), best_witness)


# ---------------------------------------------------------------------------
# Monotone Boolean machinery.


class _Dinic:
    """Deterministic max-flow on small graphs; capacities are Python ints."""

    def __init__(self, nodes: int):
        self.adj: list[list[list[int]]] = [[] for _ in range(nodes)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _levels(self, s: int, t: int) -> Optional[list[int]]:
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _rev in self.adj[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _push(self, u: int, t: int, limit: int, level, it) -> int:
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            edge = self.adj[u][it[u]]
            v, cap, rev = edge
            if cap > 0 and level[v] == level[u] + 1:
                pushed = self._push(v, t, min(limit, cap), level, it)
                if pushed:
                    edge[1] -= pushed
                    self.adj[v][rev][1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * len(self.adj)
            while True:
                pushed = self._push(s, t, 1 << 300, level, it)
                if not pushed:
                    break
                flow += pushed

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _rev in self.adj[u]:
                if cap > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def nearest_monotone_boolean(cost_a: Sequence[int], cost_b: Sequence[int]):
    """Cheapest monotone labeling of the hypercube given per-vertex costs.

    ``cost_a[z]`` (resp. ``cost_b[z]``) is the price of labeling vertex z with
    the upper (resp. lower) value; the returned labeling is monotone upward
    (label a is closed under setting bits). Solved exactly as a minimum cut:
    source->z carries cost_b, z->sink carries cost_a, and each covering edge
    z->z|bit is uncuttable. Returns (labels, total cost) with ``labels[z]``
    true for the upper value.
    """
    m = len(cost_a)
    n = m.bit_length() - 1
    if m != 1 << n or len(cost_b) != m:
        raise ValueError("cost tables must both have length 2^n")
    if n > MAX_HYPERCUBE_BITS:
        raise CapExceededError(f"hypercube with 2^{n} vertices exceeds the cap")
    if any(c < 0 for c in cost_a) or any(c < 0 for c in cost_b):
        raise ValueError("costs must be nonnegative")
    source, sink = m, m + 1
    infinite = sum(cost_a) + sum(cost_b) + 1
    net = _Dinic(m + 2)
    for z in range(m):
        net.add_edge(source, z, cost_b[z])
        net.add_edge(z, sink, cost_a[z])
        for i in range(n):
            bit = 1 << i
            if not z & bit:
                net.add_edge(z, z | bit, infinite)
    flow = net.max_flow(source, sink)
    reach = net.residual_reachable(source)
    labels = tuple(z in reach for z in range(m))
    total = sum(cost_a[z] if labels[z] else cost_b[z] for z in range(m))
    assert total == flow, "min cut does not match its labeling cost"
    return labels, total
