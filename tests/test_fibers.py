from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, strategies as st

import oracles
from votemanip.fibers import (
    FiberVariant,
    fiber_member_count,
    fiber_sweep,
    local_dictator_sets,
    ranks_adjacent_above,
)
from votemanip.rankings import (
    decode_profile,
    profile_space_size,
    ranking_orders,
    ranks_preferring,
)
from votemanip.scf import Constant, Plurality, TopHDictator, random_table_scf


def preference_key(prof, a, b):
    """The a-vs-b preference vector of a profile, straight from its orders."""
    return tuple(1 if order.index(a) < order.index(b) else -1 for order in prof)


def test_preference_vector_basics():
    # A fiber sweep splits each voter's ranks by ranks_preferring: the side of
    # a voter's rank is that voter's entry of the preference vector.
    p = ((0, 1, 2), (1, 0, 2))
    above = ranks_preferring(3, 0, 1)
    ranks = [ranking_orders(3).index(order) for order in p]
    assert tuple(1 if r in above else -1 for r in ranks) == preference_key(p, 0, 1) == (1, -1)
    f = Plurality(2, 3)
    for i in (-1, 2):
        with pytest.raises(ValueError, match="coordinate out of range"):
            fiber_sweep(f, i, (0, 1), FiberVariant.REFINED, Fraction(1, 2))
    with pytest.raises(ValueError):
        fiber_sweep(f, 0, (1, 1), FiberVariant.PLAIN, Fraction(1, 2))


@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
def test_preference_antisymmetry(o1, o2):
    # Swapping the pair flips every voter's side: ranks_preferring(a, b) and
    # ranks_preferring(b, a) split the k! ranks into two halves.
    p = (tuple(o1), tuple(o2))
    ranks = [ranking_orders(4).index(order) for order in p]
    for a in range(4):
        for b in range(4):
            if a != b:
                x = [1 if r in ranks_preferring(4, a, b) else -1 for r in ranks]
                y = [1 if r in ranks_preferring(4, b, a) else -1 for r in ranks]
                assert all(u == -v for u, v in zip(x, y))
                assert tuple(x) == preference_key(p, a, b)
                assert len(ranks_preferring(4, a, b)) == factorial(4) // 2


def test_preference_correlation_is_one_third():
    for k in (3, 4, 5):
        assert oracles.pairwise_preference_correlation(k, 0, 1, 2) == Fraction(1, 3)
        assert oracles.pairwise_preference_correlation(k, 2, 0, 1) == Fraction(1, 3)


def test_plain_fiber_sizes_partition_everything():
    # Each record's member count is the number of profiles with its key.
    n, k = 2, 3
    records = fiber_sweep(Plurality(n, k), 0, (0, 1), FiberVariant.PLAIN, Fraction(1, 2))
    keys = [preference_key(decode_profile(n, k, index), 0, 1)
            for index in range(profile_space_size(n, k))]
    total = 0
    for rec in records:
        members = keys.count(rec.key)
        assert members == rec.member_count == (factorial(k) // 2) ** n
        assert members == fiber_member_count(n, k, FiberVariant.PLAIN)
        total += members
    assert len(records) == 1 << n
    assert total == profile_space_size(n, k)


def adjacent_above(order, a, b):
    return order.index(b) == order.index(a) + 1


def test_refined_fiber_members():
    n, k = 2, 3
    assert fiber_member_count(n, k, FiberVariant.REFINED) == (
        factorial(k - 1) * (factorial(k) // 2) ** (n - 1))
    # ranks_adjacent_above lists the ranks with 0 directly above 1, each with
    # the rank that swaps them.
    orders = ranking_orders(k)
    swaps = ranks_adjacent_above(k, 0, 1)
    assert {r for r, _s in swaps} == {
        r for r, order in enumerate(orders) if adjacent_above(order, 0, 1)}
    for r, s in swaps:
        assert adjacent_above(orders[s], 1, 0)
    # In coordinate 1 the key describes voter 0: each record's boundary count
    # is the direct count over the profiles with 0 directly above 1 in voter
    # 1 and voter 0 on the key's side, electing 0 and electing 1 after the swap.
    # Seed 17's two fibers have boundary counts 2 and 0, so a key read from the
    # wrong voter shows.
    f = random_table_scf(n, k, 17)
    evaluate = oracles.table_evaluator(f)
    swapped = {orders[r]: orders[s] for r, s in swaps}
    profiles = [decode_profile(n, k, index) for index in range(profile_space_size(n, k))]
    records = fiber_sweep(f, 1, (0, 1), FiberVariant.REFINED, Fraction(1, 2))
    assert sorted(rec.boundary_count for rec in records) == [0, 2]
    for rec in records:
        members = [p for p in profiles
                   if adjacent_above(p[1], 0, 1) and preference_key(p[:1], 0, 1) == rec.key]
        assert len(members) == rec.member_count
        direct = sum(1 for p in members if evaluate(p) == 0
                     and evaluate((p[0], swapped[p[1]])) == 1)
        assert rec.boundary_count == direct
    for i in (-1, n):
        with pytest.raises(ValueError, match="coordinate out of range"):
            fiber_sweep(f, i, (0, 1), FiberVariant.REFINED, Fraction(1, 2))


def test_refined_fibers_partition_adjacent_above_profiles():
    # The refined fibers of coordinate 0, one per key of voter 1, share out
    # the profiles with 0 directly above 1 in voter 0.
    n, k = 2, 3
    profiles = [decode_profile(n, k, index) for index in range(profile_space_size(n, k))]
    eligible = [p for p in profiles if adjacent_above(p[0], 0, 1)]
    records = fiber_sweep(Plurality(n, k), 0, (0, 1), FiberVariant.REFINED, Fraction(1, 2))
    assert sorted(rec.key for rec in records) == [(-1,), (1,)]
    seen = []
    for rec in records:
        members = [p for p in eligible if preference_key(p[1:], 0, 1) == rec.key]
        assert len(members) == rec.member_count
        seen += members
    assert set(seen) == set(eligible)
    assert len(seen) == len(eligible)


def test_constant_fiber_is_small():
    f = Constant(2, 3, 0)
    # Records are in key-mask order: key (+1, +1) is mask 0b11.
    rec = fiber_sweep(f, 0, (0, 1), FiberVariant.PLAIN, Fraction(1, 2))[0b11]
    assert rec.key == (1, 1)
    assert rec.boundary_count == 0
    assert not rec.large


def test_top_dictator_refined_fiber_counts():
    # Half the members carry the adjacent 0-1 block at the very top; exactly
    # those lie on the boundary, so the ratio is 1/2.
    f = TopHDictator(2, 3, 0, range(3))
    for rec in fiber_sweep(f, 0, (0, 1), FiberVariant.REFINED, Fraction(1, 2)):
        assert rec.member_count == 6
        assert rec.boundary_count == 3
        assert rec.large  # 1/2 >= 1 - 1/2
    for strict in fiber_sweep(f, 0, (0, 1), FiberVariant.REFINED, Fraction(1, 4)):
        assert not strict.large


def test_plain_fiber_boundary_against_direct_enumeration():
    f = random_table_scf(2, 3, 3)
    evaluate = oracles.table_evaluator(f)
    key = (1, -1)
    rec = fiber_sweep(f, 0, (0, 2), FiberVariant.PLAIN, Fraction(1, 2))[0b01]
    assert rec.key == key
    perms = list(permutations(range(3)))
    direct = 0
    for prof in product(perms, repeat=2):
        vector = tuple(1 if order.index(0) < order.index(2) else -1 for order in prof)
        if vector != key or evaluate(prof) != 0:
            continue
        if any(evaluate((r, prof[1])) == 2 for r in perms if r != prof[0]):
            direct += 1
    assert rec.boundary_count == direct


def test_fiber_sweep_covers_all_keys():
    f = Plurality(2, 3)
    records = fiber_sweep(f, 0, (0, 1), FiberVariant.PLAIN, Fraction(1, 3))
    assert len(records) == 4
    assert {rec.key for rec in records} == {
        (-1, -1), (1, -1), (-1, 1), (1, 1)
    }


@pytest.mark.parametrize("variant", list(FiberVariant))
def test_fiber_sweep_refuses_a_gamma_outside_the_unit_interval(variant):
    # gamma 2 would call every fiber large and gamma -1 none.
    f = Plurality(2, 3)
    for gamma in (Fraction(0), Fraction(1)):
        assert len(fiber_sweep(f, 0, (0, 1), variant, gamma)) > 0
    for gamma in (Fraction(-1, 100), Fraction(101, 100)):
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\]"):
            fiber_sweep(f, 0, (0, 1), variant, gamma)


def test_local_dictator_on_top_dictatorship():
    # For the unrestricted top dictatorship the outcome is the coordinate top,
    # and at k = 3 the block is the whole ranking: every profile qualifies in
    # coordinate 0, and none in coordinate 1, whose rankings never decide.
    f = TopHDictator(2, 3, 0, range(3))
    assert local_dictator_sets(f, 0, (0, 1)) == list(range(36))
    assert local_dictator_sets(f, 1, (0, 1)) == []


def test_local_dictator_requires_block():
    # Each profile found holds the pair in one width-3 window of coordinate 0.
    f = Plurality(2, 4)
    found = local_dictator_sets(f, 0, (0, 2))
    assert found
    for index in found:
        order = decode_profile(2, 4, index)[0]
        assert abs(order.index(0) - order.index(2)) <= 2


def test_local_dictator_tops_the_block():
    # Each profile found elects the top of a block of three adjacent
    # alternatives holding the pair.
    f = random_table_scf(2, 4, 8)
    found = local_dictator_sets(f, 0, (0, 1))
    assert found
    for index in found:
        order = decode_profile(2, 4, index)[0]
        tops = {order[s] for s in range(2) if {0, 1} <= set(order[s:s + 3])}
        assert f.table()[index] in tops


def test_local_dictator_sets_plurality_double_enumeration():
    f = Plurality(3, 3)
    found = local_dictator_sets(f, 0, (0, 1))
    assert len(found) == 48
    # Independent scan straight from the definition.
    direct = set()
    perms = list(permutations(range(3)))
    for prof in product(perms, repeat=3):
        for c in (2,):
            positions = sorted(prof[0].index(x) for x in (0, 1, c))
            if positions[-1] - positions[0] != 2:
                continue
            lo = positions[0]
            ok = True
            for block in permutations((0, 1, c)):
                cand = prof[0][:lo] + block + prof[0][lo + 3:]
                counts = [0, 0, 0]
                for o in (cand,) + prof[1:]:
                    counts[o[0]] += 1
                winner = max(range(3), key=lambda x: (counts[x], -x))
                if winner != block[0]:
                    ok = False
                    break
            if ok:
                direct.add(prof)
                break
    assert [decode_profile(3, 3, index) for index in found] == sorted(direct)


@pytest.mark.parametrize("call", [
    lambda f: local_dictator_sets(f, 0, (1, 1)),
    lambda f: fiber_sweep(f, 0, (0, 7), FiberVariant.REFINED, Fraction(1, 2)),
    lambda f: local_dictator_sets(f, 0, (0, 7)),
    lambda f: fiber_sweep(f, 0, (0, 9), FiberVariant.PLAIN, Fraction(1, 2)),
], ids=["pair-1-1", "pair-0-7", "local-0-7", "fiber-H-0-9"])
def test_dictator_and_local_sets_reject_alternatives_outside_the_rule(call):
    with pytest.raises(ValueError):
        call(Plurality(2, 3))


@pytest.mark.parametrize("call", [
    lambda f: local_dictator_sets(f, 0, (5, 0)),
    lambda f: local_dictator_sets(f, 0, (2, -1)),
], ids=["local-dictator-H-above-k", "local-dictator-H-negative"])
def test_fiber_predicates_refuse_bad_alternatives_and_profile_shapes(call):
    with pytest.raises(ValueError):
        call(Plurality(2, 3))
