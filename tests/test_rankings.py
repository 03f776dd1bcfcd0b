import random
from collections import Counter
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (
    all_adjacent_transpositions,
    apply_adjacent_transposition,
    encode_profile,
    encode_ranking,
    window_permutations,
)
from votemanip.rankings import (
    check_window_moves,
    class_tables,
    decode_profile,
    index_digits,
    join_class_tables,
    outcome_counts,
    profile_space_size,
    rank_classes,
    rank_order,
    swap_first_voters,
    top_h_by_rank,
    window_moves,
)
from votemanip.errors import CapExceededError
from votemanip.scf import random_table_scf


def rankings_st(k_min=2, k_max=6):
    return st.integers(k_min, k_max).flatmap(lambda k: st.permutations(list(range(k))).map(tuple))


def test_adjacent_swap_forced():
    assert apply_adjacent_transposition((0, 1, 2), (0, 1)) == (1, 0, 2)


def test_non_adjacent_is_identity():
    r = (0, 2, 1)
    assert apply_adjacent_transposition(r, (0, 1)) is r


@given(rankings_st())
def test_transposition_involution_and_support(r):
    k = len(r)
    for t in all_adjacent_transpositions(k):
        once = apply_adjacent_transposition(r, t)
        assert apply_adjacent_transposition(once, t) == r
        moved = {p for p in range(k) if once[p] != r[p]}
        assert moved in (set(), {r.index(t[0]), r.index(t[1])})


def test_transposition_count():
    assert len(all_adjacent_transpositions(5)) == 5 * 4 // 2


def test_top_restricted_examples():
    order = (1, 2, 0)  # 1-based order (2, 3, 1)
    assert oracles.top_of(order, {0, 2}) == 2
    assert oracles.top_of(order, {1}) == 1
    assert oracles.top_of(order, range(3)) == order[0]


def test_window_singleton_and_full():
    # The draws of rank r: per window start, its permutations, r itself first.
    r = encode_ranking((2, 0, 3, 1))
    assert window_moves(4, 1)[r] == (r,) * 4
    full = window_moves(4, 4)[r]
    assert len(set(full)) == 24 and full[0] == r
    # width is clamped beyond k
    assert window_moves(4, 99) == window_moves(4, 4)


def test_window_interior():
    # Start 1 of width 3 on k = 5: draws 6..11 keep positions 0 and 4.
    out = [rank_order(5, d) for d in window_moves(5, 3)[encode_ranking((4, 1, 0, 3, 2))][6:12]]
    assert len(set(out)) == 6
    for w in out:
        assert w[0] == 4 and w[4] == 2
        assert set(w[1:4]) == {1, 0, 3}


def test_window_closure():
    # The draws of start 1 at width 2 from any of them give the same set.
    first = set(window_moves(4, 2)[0][2:4])
    assert {v for w in first for v in window_moves(4, 2)[w][2:4]} == first


def test_identity_is_index_zero():
    for k in range(1, 6):
        assert encode_ranking(tuple(range(k))) == 0
        assert rank_order(k, 0) == tuple(range(k))


def test_round_trip_exhaustive():
    for k in range(1, 7):
        seen = set()
        for index in range(factorial(k)):
            r = rank_order(k, index)
            assert encode_ranking(r) == index
            seen.add(r)
        assert len(seen) == factorial(k)


def test_bijection_k3():
    indices = {encode_ranking(p) for p in permutations(range(3))}
    assert indices == set(range(6))


def test_profile_index_mixed_radix():
    r1, r2 = rank_order(3, 4), rank_order(3, 1)
    assert encode_profile((r1, r2)) == 6 * 4 + 1
    assert decode_profile(2, 3, 25) == (r1, r2) == ((2, 0, 1), (0, 2, 1))
    with pytest.raises(ValueError):
        decode_profile(2, 3, 36)
    with pytest.raises(ValueError):
        decode_profile(2, 3, -1)


@given(st.integers(0, factorial(4) ** 2 - 1))
def test_profile_round_trip(index):
    assert encode_profile(decode_profile(2, 4, index)) == index


def test_window_destinations_cover_window_permutations():
    # The census ORs its reach over a window_moves row: the row, the rank
    # itself aside, is the set of rankings one width-3 window reaches.
    k = 4
    for rank in range(factorial(k)):
        r = rank_order(k, rank)
        expected = {
            encode_ranking(w)
            for s in range(k - 2)
            for w in window_permutations(r, s, 3)
        } - {rank}
        assert set(window_moves(k, 3)[rank]) - {rank} == expected


@pytest.mark.parametrize("n, k", [(1, 3), (3, 3), (2, 4)])
def test_layout_helpers_agree_with_profile_decoding(n, k):
    size = profile_space_size(n, k)
    profiles = [decode_profile(n, k, p) for p in range(size)]
    ranks = [tuple(encode_ranking(r) for r in prof) for prof in profiles]
    assert [index_digits(n, k, p) for p in range(size)] == ranks
    # Per voter, the table of that voter's rank in each profile.
    voter_tables = [bytes(d[v] for d in ranks) for v in range(n)]
    for i in range(n):
        voter_parts = [class_tables(t, k, rank_classes(n, k, i)) for t in voter_tables]
        for lane in range(size // factorial(k)):
            # The other voters' ranks on a lane: the voters after i, then before i.
            digits = index_digits(n - 1, k, lane)
            rest = digits[n - 1 - i:] + digits[:n - 1 - i]
            for r in range(factorial(k)):
                assert tuple(parts[r][lane] for parts in voter_parts) == rest[:i] + (r,) + rest[i:]
    if n >= 2:
        swapped = [swap_first_voters(t, n, k) for t in voter_tables]
        assert swapped == [voter_tables[1], voter_tables[0], *voter_tables[2:]]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 1), (2, 2), (1, 3), (2, 3), (3, 3), (2, 4)]), st.data())
def test_join_class_tables_inverts_class_tables(shape, data):
    # Any partition of each of the last m voters' ranks into classes, each class
    # and the classes themselves in any order.
    n, k = shape
    fact = factorial(k)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    table = bytes(rng.randrange(256) for _ in range(fact ** n))
    classes = []
    for _ in range(data.draw(st.integers(0, n))):
        ranks = rng.sample(range(fact), fact)
        cuts = sorted(rng.sample(range(1, fact), rng.randrange(fact)))
        classes.append([tuple(ranks[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, fact])])
    assert join_class_tables(class_tables(table, k, classes), k, classes) == table


def test_top_h_by_rank_and_window_moves():
    for k in range(1, 7):
        for mask in range(1, 1 << k):
            H = {x for x in range(k) if mask >> x & 1}
            assert top_h_by_rank(k, frozenset(H)) == bytes(
                oracles.top_of(rank_order(k, r), H) for r in range(factorial(k))
            )
    # Past the cached sizes the tables are built per call and equal.
    H = frozenset({1, 5})
    assert top_h_by_rank(8, H) == bytes(
        oracles.top_of(rank_order(8, r), H) for r in range(factorial(8)))
    for k in (3, 4, 5):
        for width in range(2, k + 1):
            for rank, moves in enumerate(window_moves(k, width)):
                r = rank_order(k, rank)
                assert [rank_order(k, d) for d in moves] == [
                    w for start in range(k - width + 1)
                    for w in window_permutations(r, start, width)
                ]


@pytest.mark.parametrize("k, width", [(1, 3), (3, 2), (3, 4), (5, 2), (5, 3)])
def test_window_move_tables_are_refused_past_the_cap_on_their_entry_count(k, width):
    entries = sum(map(len, window_moves(k, width)))
    check_window_moves(k, width, entries)
    with pytest.raises(CapExceededError):
        check_window_moves(k, width, entries - 1)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_adjacent_swap_neighbors_swap_each_position_pair_in_position_order(k):
    # The refined graph's moves are the width-2 window_moves: start p's first
    # draw is the ranking itself and its second swaps positions p and p + 1.
    for rank, (order, moves) in enumerate(zip(permutations(range(k)), window_moves(k, 2))):
        expected = []
        for p in range(k - 1):
            swapped = list(order)
            swapped[p], swapped[p + 1] = order[p + 1], order[p]
            expected += [rank, encode_ranking(tuple(swapped))]
        assert list(moves) == expected


@pytest.mark.parametrize("k, size", [(1, 0), (1, 7), (2, 0), (3, 1), (4, 100), (5, 257),
                                     (8, 4096), (10, 0)])
def test_outcome_counts_match_counter(k, size):
    rng = random.Random(k * 1000 + size)
    part = bytes(rng.randrange(k) for _ in range(size))
    counts = Counter(part)
    assert outcome_counts(part, k) == [counts[x] for x in range(k)]


def test_outcome_counts_match_counter_on_a_whole_k10_table():
    table = random_table_scf(1, 10, 3).table()
    counts = Counter(table)
    assert outcome_counts(table, 10) == [counts[x] for x in range(10)]


def test_top_h_tables_past_k7_are_not_kept():
    # Kept, the 255 tables of k = 8 would hold 10 MB (3.7 GB for k = 10).
    import tracemalloc

    tracemalloc.start()
    try:
        for mask in range(1, 1 << 8):
            top_h_by_rank(8, frozenset(x for x in range(8) if mask >> x & 1))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20
