"""Preference vectors, fibers over them, local dictators, and dictator fibers.

A fiber collects the profiles sharing one a-vs-b preference vector. Plain
fibers fix the vector in every coordinate; refined fibers fix it outside one
coordinate i and additionally require a to sit directly above b in coordinate
i. Fibers are never materialized as profile lists. :func:`fiber_sweep`
counts every fiber of coordinate i at once from one split of the table
(:func:`rankings.class_tables`), voter i by rank and every other voter by its
side of the pair, with no pass over lines; dictator fibers and local dictators
AND indicator lanes of voter i's rank parts. :func:`iter_fiber_members`
generates one fiber's members from its key.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, product
from math import factorial
from operator import and_, or_
from typing import Iterator, Sequence

from .rankings import (
    Profile,
    Ranking,
    adjacent_swap_neighbors,
    all_rankings,
    check_alternatives,
    check_coordinate,
    class_tables,
    decode_profile,
    indicator,
    join_class_tables,
    lane_int,
    lane_rest,
    rank_classes,
    ranking_orders,
    ranking_positions,
    ranks_preferring,
    top_h_by_rank,
    window_moves,
    window_permutations,
)
from .scf import SCF


def preference_vector(profile: Profile, a: int, b: int) -> tuple[int, ...]:
    """Per-voter comparison: +1 where a is ranked above b, else -1."""
    if a == b:
        raise ValueError("need two distinct alternatives")
    return tuple(1 if r.inv[a] < r.inv[b] else -1 for r in profile)


def deleted_preference_vector(profile: Profile, i: int, a: int, b: int) -> tuple[int, ...]:
    """The preference vector with coordinate i removed."""
    check_coordinate(len(profile), i)
    full = preference_vector(profile, a, b)
    return full[:i] + full[i + 1:]


def key_string(key: Sequence[int]) -> str:
    return "".join("+" if bit > 0 else "-" for bit in key)


@lru_cache(maxsize=None)
def ranks_adjacent_above(k: int, a: int, b: int) -> tuple[tuple[int, int], ...]:
    """(rank, swapped rank) for rankings with a directly above b."""
    pos = ranking_positions(k)
    pair = (min(a, b), max(a, b))
    return tuple((r, dest) for r, moves in enumerate(adjacent_swap_neighbors(k))
                 for dest, x, y in moves if (x, y) == pair and pos[r][a] < pos[r][b])


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

    @property
    def boundary_ratio(self) -> Fraction:
        return Fraction(self.boundary_count, self.member_count)

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


def _coordinate_choices(n: int, k: int, pair: tuple[int, int], key: Sequence[int],
                        variant: FiberVariant, i: int):
    """Per-coordinate rank lists whose product enumerates the fiber."""
    a, b = pair
    _check_key(n, key, variant)
    choices = [ranks_preferring(k, *((a, b) if bit > 0 else (b, a))) for bit in key]
    if variant is FiberVariant.REFINED:
        check_coordinate(n, i)
        choices.insert(i, tuple(r for r, _s in ranks_adjacent_above(k, a, b)))
    return choices


def iter_fiber_members(f_n: int, f_k: int, pair: tuple[int, int], key: Sequence[int],
                       variant: FiberVariant, i: int) -> Iterator[Profile]:
    """Fiber members as profiles, generated on the fly in index order."""
    choices = _coordinate_choices(f_n, f_k, pair, key, variant, i)
    rankings = all_rankings(f_k)
    for digits in product(*choices):
        yield tuple(rankings[d] for d in digits)


def fiber_member_count(n: int, k: int, variant: FiberVariant) -> int:
    half = factorial(k) // 2
    if variant is FiberVariant.PLAIN:
        return half ** n
    return factorial(k - 1) * half ** (n - 1)


def _key_bits(n: int, variant: FiberVariant) -> int:
    return n if variant is FiberVariant.PLAIN else n - 1


def _check_key(n: int, key: Sequence[int], variant: FiberVariant) -> None:
    bits = _key_bits(n, variant)
    if len(key) != bits:
        raise ValueError(f"{variant.value} fiber key needs {bits} bits, got {len(key)}")


def boundary_fiber(f: SCF, i: int, pair: tuple[int, int], key: Sequence[int],
                   variant: FiberVariant, gamma: Fraction) -> FiberRecord:
    """Count fiber members sitting on the a-to-b boundary in coordinate i.

    Plain variant: a member is on the boundary when its outcome is a and some
    replacement of coordinate i yields b. Refined variant: the outcome is a
    and swapping the adjacent a-b block in coordinate i yields b. The record
    is read from :func:`fiber_sweep`, which checks the coordinate and the pair.
    """
    _check_key(f.n, key, variant)
    # Records are in key-mask order: bit j is set where key[j] is +1.
    return fiber_sweep(f, i, pair, variant, gamma)[
        sum(1 << j for j, bit in enumerate(key) if bit > 0)]


def fiber_sweep(f: SCF, i: int, pair: tuple[int, int], variant: FiberVariant,
                gamma: Fraction) -> list[FiberRecord]:
    """Classify every fiber key for one coordinate and pair, in key-mask order.

    :func:`rankings.class_tables` splits voter i into its k! ranks and every
    other voter into its two sides of the pair, so each choice of sides (a
    refined key) owns k! parts whose entry j lies on one coordinate-i line.
    Read part r's outcomes a and b as the bits of ``A_r`` and ``B_r``. Plain,
    per side of voter i (the key's bit i): a rank r is on the boundary in
    ``A_r & (B_0 | B_1 | ...)``. Refined: r with a directly above b, swapped
    to s, is on it in ``A_r & B_s``.
    """
    check_coordinate(f.n, i)
    check_alternatives(f.k, *pair)
    a, b = pair
    n, k = f.n, f.k
    fact = factorial(k)
    sides = (ranks_preferring(k, b, a), ranks_preferring(k, a, b))
    parts = class_tables(f.table(), k,
                         [sides] * i + [[(r,) for r in range(fact)]] + [sides] * (n - 1 - i))
    swaps = ranks_adjacent_above(k, a, b)
    side = len(sides[0]) if variant is FiberVariant.PLAIN else len(swaps)
    expected = fiber_member_count(n, k, variant)
    assert len(parts[0]) * side == expected, (len(parts[0]), side, expected)
    low = (1 << i) - 1
    bits = _key_bits(n, variant)
    on_boundary = [0] * (1 << bits)
    for rest in range(1 << (n - 1)):
        # Parts are indexed by the others' sides (bit c for voter c), with
        # voter i's rank taking k! places at bit position i.
        first = (rest & low) + (rest >> i << i) * fact
        line = parts[first:first + (fact << i):1 << i]
        A, B = ([lane_int(part, indicator(x)) for part in line] for x in pair)
        if variant is FiberVariant.PLAIN:
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


def refined_topset_membership(f: SCF, i: int, a: int, b: int, profile: Profile,
                              gamma: Fraction) -> bool:
    """Whether the profile's deleted-coordinate fiber mostly elects the a-b top.

    Over the fiber fixing all a-vs-b preferences except coordinate i (which
    runs over all k! rankings), the outcome must equal the higher-ranked of
    {a, b} in coordinate i with probability at least 1 - 2k*gamma.
    """
    check_coordinate(f.n, i)
    check_alternatives(f.k, a, b)
    f.check_profile(profile)
    sides = [[ranks_preferring(f.k, *((a, b) if r.prefers(a, b) else (b, a)))] for r in profile]
    sides[i] = [(r,) for r in range(factorial(f.k))]
    parts = class_tables(f.table(), f.k, sides)
    agree = sum(map(bytes.count, parts, top_h_by_rank(f.k, frozenset((a, b)))))
    return Fraction(agree, sum(map(len, parts))) >= 1 - 2 * f.k * gamma


# ---------------------------------------------------------------------------
# Local dictators.


def is_local_dictator(f: SCF, profile: Profile, i: int, H) -> bool:
    """H forms an adjacent block in coordinate i and every within-block
    rearrangement elects the block's top H-member."""
    check_coordinate(f.n, i)
    f.check_profile(profile)
    subset = set(H)
    if not subset:
        raise ValueError("H must be nonempty")
    check_alternatives(f.k, *subset)
    r = profile[i]
    positions = sorted(r.inv[x] for x in subset)
    lo = positions[0]
    if positions[-1] - lo + 1 != len(subset):
        return False
    return all(f.evaluate(profile[:i] + (c,) + profile[i + 1:]) == c.order[lo]
               for c in window_permutations(r, lo, len(subset)))


def local_dictator_sets(f: SCF, i: int, pair: tuple[int, int]) -> set[Profile]:
    """Profiles that are local dictators on {a, b, c} in coordinate i for some
    third alternative c.

    A block is a width-3 window holding a and b. Its six orders are the six
    draws of one window start in :func:`rankings.window_moves`. Over voter i's
    rank parts (:func:`rankings.rank_classes`), the AND of the six orders'
    indicator lanes of their block tops marks the lines on which every order
    elects its top; :func:`rankings.join_class_tables` puts the marks of all
    six back in profile order.
    """
    n, k = f.n, f.k
    classes = rank_classes(n, k, i)
    check_alternatives(k, *pair)
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
    return {decode_profile(n, k, mark.start()) for mark in re.finditer(b"\x01", flags)}


# ---------------------------------------------------------------------------
# Dictator fibers (rest-profiles whose induced one-voter SCF is a top_H rule).


def _dictator_rests(f: SCF, i: int, sets) -> set[tuple[Ranking, ...]]:
    """Rest-profiles of the coordinate-i lines that are top_H for an H in ``sets``:
    the lanes of the AND over ranks r of part r's indicator of r's top_H member."""
    k = f.k
    classes = rank_classes(f.n, k, i)
    parts = class_tables(f.table(), k, classes)
    found = 0
    for H in sets:
        found |= reduce(and_, map(lane_int, parts, map(indicator, top_h_by_rank(k, H))))
    marks = found.to_bytes(len(parts[0]), "little")
    rankings = all_rankings(k)
    return {tuple(rankings[d] for d in lane_rest(f.n, k, i, mark.start()))
            for mark in re.finditer(b"\x01", marks)}


def dictator_fiber_set(f: SCF, i: int, H) -> set[tuple[Ranking, ...]]:
    """Rest-profiles for which freezing them makes coordinate i a top_H rule."""
    subset = frozenset(H)
    if not subset or not subset <= set(range(f.k)):
        raise ValueError(f"H must be a nonempty subset of 0..{f.k - 1}")
    return _dictator_rests(f, i, [subset])


def dictator_pair_set(f: SCF, i: int, pair: tuple[int, int]) -> set[tuple[Ranking, ...]]:
    """Union of dictator fibers over all H containing the pair with |H| >= 3."""
    check_alternatives(f.k, *pair)
    others = [x for x in range(f.k) if x not in pair]
    return _dictator_rests(f, i, [frozenset(pair).union(extra) for size in range(1, len(others) + 1)
                                  for extra in combinations(others, size)])


def pairwise_preference_correlation(k: int, a: int, b: int, c: int) -> Fraction:
    """Exact E[x^{a,b} x^{a,c}] over a uniform ranking; 1/3 for distinct a,b,c."""
    if len({a, b, c}) != 3:
        raise ValueError("need three distinct alternatives")
    # x^{a,b} x^{a,c} is +1 when a is above both or below both, else -1.
    total = sum(1 if (pos[a] < pos[b]) == (pos[a] < pos[c]) else -1
                for pos in ranking_positions(k))
    return Fraction(total, factorial(k))
