"""Fibers of the a-vs-b preference vector, and local dictators.

A fiber collects the profiles sharing one a-vs-b preference vector. Plain
fibers fix the vector in every coordinate; refined fibers fix it outside one
coordinate i and additionally require a to sit directly above b in coordinate
i. Fibers are never materialized as profile lists. :func:`fiber_sweep`
counts every fiber of coordinate i at once from one split of the table
(:func:`rankings.class_tables`), voter i by rank and every other voter by its
side of the pair, with no pass over lines; local dictators AND indicator
lanes of voter i's rank parts.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial
from operator import and_, or_
from typing import Sequence

from .rankings import (
    check_alternatives,
    check_coordinate,
    check_window_moves,
    class_tables,
    indicator,
    join_class_tables,
    lane_int,
    rank_classes,
    ranking_orders,
    ranks_preferring,
    window_moves,
)
from .scf import SCF


def key_string(key: Sequence[int]) -> str:
    return "".join("+" if bit > 0 else "-" for bit in key)


@lru_cache(maxsize=None)
def ranks_adjacent_above(k: int, a: int, b: int) -> tuple[tuple[int, int], ...]:
    """(rank, swapped rank) for rankings with a directly above b: the
    width-2 :func:`rankings.window_moves` draw swapping a's position p and p + 1."""
    return tuple((r, moves[2 * p + 1]) for r, (order, moves)
                 in enumerate(zip(ranking_orders(k), window_moves(k, 2)))
                 for p in range(k - 1) if order[p:p + 2] == (a, b))


class FiberVariant(Enum):
    PLAIN = "plain"
    REFINED = "refined"


@dataclass(frozen=True)
class FiberRecord:
    """Exact member/boundary counts of one fiber plus its size classification."""

    pair: tuple[int, int]
    key: tuple[int, ...]
    variant: FiberVariant
    coordinate: int
    member_count: int
    boundary_count: int
    gamma: Fraction
    large: bool

    def describe(self) -> dict:
        return {
            "pair": [self.pair[0] + 1, self.pair[1] + 1],
            "key": key_string(self.key),
            "variant": self.variant.value,
            "coordinate": self.coordinate + 1,
            "member_count": self.member_count,
            "boundary_count": self.boundary_count,
            "gamma": f"{self.gamma.numerator}/{self.gamma.denominator}",
            "classification": "large" if self.large else "small",
        }


def fiber_member_count(n: int, k: int, variant: FiberVariant) -> int:
    half = factorial(k) // 2
    if variant is FiberVariant.PLAIN:
        return half ** n
    return factorial(k - 1) * half ** (n - 1)


def fiber_sweep(f: SCF, i: int, pair: tuple[int, int], variant: FiberVariant,
                gamma: Fraction) -> list[FiberRecord]:
    """Classify every fiber key for one coordinate and pair, in key-mask order.

    :func:`rankings.class_tables` splits voter i into its k! ranks and every
    other voter into its two sides of the pair, so each choice of sides (a
    refined key) owns k! parts whose entry j lies on one coordinate-i line.
    Read part r's outcomes a and b as the bits of ``A_r`` and ``B_r``. Plain,
    per side of voter i (the key's bit i): a rank r is on the boundary in
    ``A_r & (B_0 | B_1 | ...)``. Refined: r with a directly above b, swapped
    to s, is on it in ``A_r & B_s``; its swaps are checked against f's cap
    first. A fiber is large when its boundary share is at least ``1 - gamma``,
    for a gamma in [0, 1].
    """
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must lie in [0, 1]")
    check_coordinate(f.n, i)
    check_alternatives(f.k, *pair)
    a, b = pair
    n, k = f.n, f.k
    plain = variant is FiberVariant.PLAIN
    if not plain:
        check_window_moves(k, 2, f.cap)
    fact = factorial(k)
    sides = (ranks_preferring(k, b, a), ranks_preferring(k, a, b))
    parts = class_tables(f.table(), k,
                         [sides] * i + [[(r,) for r in range(fact)]] + [sides] * (n - 1 - i))
    swaps = () if plain else ranks_adjacent_above(k, a, b)
    side = len(sides[0]) if plain else len(swaps)
    expected = fiber_member_count(n, k, variant)
    assert len(parts[0]) * side == expected, (len(parts[0]), side, expected)
    low = (1 << i) - 1
    bits = n if plain else n - 1
    on_boundary = [0] * (1 << bits)
    for rest in range(1 << (n - 1)):
        # Parts are indexed by the others' sides (bit c for voter c), with
        # voter i's rank taking k! places at bit position i.
        first = (rest & low) + (rest >> i << i) * fact
        line = parts[first:first + (fact << i):1 << i]
        A, B = ([lane_int(part, indicator(x)) for part in line] for x in pair)
        if plain:
            to_b = reduce(or_, B)
            for bit, ranks in enumerate(sides):
                mask = rest & low | bit << i | rest >> i << (i + 1)
                on_boundary[mask] = sum((A[r] & to_b).bit_count() for r in ranks)
        else:
            on_boundary[rest] = sum((A[r] & B[s]).bit_count() for r, s in swaps)
    return [
        FiberRecord(
            pair=(a, b), key=tuple(1 if mask >> j & 1 else -1 for j in range(bits)),
            variant=variant, coordinate=i, member_count=expected, boundary_count=count,
            gamma=gamma, large=Fraction(count, expected) >= 1 - gamma,
        )
        for mask, count in enumerate(on_boundary)
    ]


# ---------------------------------------------------------------------------
# Local dictators.


def local_dictator_sets(f: SCF, i: int, pair: tuple[int, int]) -> list[int]:
    """Indices, ascending, of the profiles that are local dictators on {a, b, c}
    in coordinate i for some third alternative c.

    A block is a width-3 window holding a and b. Its six orders are the six
    draws of one window start in :func:`rankings.window_moves`. Over voter i's
    rank parts (:func:`rankings.rank_classes`), the AND of the six orders'
    indicator lanes of their block tops marks the lines on which every order
    elects its top; :func:`rankings.join_class_tables` puts the marks of all
    six back in profile order. The width-3 moves are checked against f's cap first.
    """
    n, k = f.n, f.k
    classes = rank_classes(n, k, i)
    check_alternatives(k, *pair)
    check_window_moves(k, 3, f.cap)
    a, b = pair
    orders = ranking_orders(k)
    parts = class_tables(f.table(), k, classes)
    found = [0] * factorial(k)
    for r, moves in enumerate(window_moves(k, 3)):
        for start in range(k - 2):
            dests = moves[6 * start:6 * start + 6]
            if r == min(dests) and {a, b} <= set(orders[r][start:start + 3]):
                hit = reduce(and_, (lane_int(parts[d], indicator(orders[d][start]))
                                    for d in dests))
                for d in dests:
                    found[d] |= hit
    flags = join_class_tables([x.to_bytes(len(parts[0]), "little") for x in found], k, classes)
    return [mark.start() for mark in re.finditer(b"\x01", flags)]

