from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, strategies as st

from votemanip.fibers import (
    FiberVariant,
    boundary_fiber,
    deleted_preference_vector,
    dictator_fiber_set,
    dictator_pair_set,
    fiber_member_count,
    fiber_sweep,
    is_local_dictator,
    iter_fiber_members,
    local_dictator_sets,
    pairwise_preference_correlation,
    preference_vector,
    refined_topset_membership,
)
from votemanip.rankings import Ranking, all_rankings, decode_profile, profile_space_size
from votemanip.scf import (
    Constant,
    MonotoneTwoValued,
    Plurality,
    TopHDictator,
    random_table_scf,
)


def profile(*orders):
    return tuple(Ranking(o) for o in orders)


def test_preference_vector_basics():
    p = profile((0, 1, 2), (1, 0, 2))
    assert preference_vector(p, 0, 1) == (1, -1)
    assert deleted_preference_vector(p, 0, 0, 1) == (-1,)
    for i in (-1, 2):
        with pytest.raises(ValueError, match="coordinate out of range"):
            deleted_preference_vector(p, i, 0, 1)
    with pytest.raises(ValueError):
        preference_vector(p, 1, 1)


@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
def test_preference_antisymmetry(o1, o2):
    p = profile(tuple(o1), tuple(o2))
    for a in range(4):
        for b in range(4):
            if a != b:
                x = preference_vector(p, a, b)
                y = preference_vector(p, b, a)
                assert all(u == -v for u, v in zip(x, y))


def test_preference_correlation_is_one_third():
    for k in (3, 4, 5):
        assert pairwise_preference_correlation(k, 0, 1, 2) == Fraction(1, 3)
        assert pairwise_preference_correlation(k, 2, 0, 1) == Fraction(1, 3)


def test_plain_fiber_sizes_partition_everything():
    n, k = 2, 3
    total = 0
    for mask in range(1 << n):
        key = tuple(1 if mask >> i & 1 else -1 for i in range(n))
        members = list(iter_fiber_members(n, k, (0, 1), key, FiberVariant.PLAIN, 0))
        assert len(members) == (factorial(k) // 2) ** n == fiber_member_count(n, k, FiberVariant.PLAIN)
        for m in members:
            assert preference_vector(m, 0, 1) == key
        total += len(members)
    assert total == profile_space_size(n, k)


def test_refined_fiber_members():
    n, k = 2, 3
    key = (1,)
    members = list(iter_fiber_members(n, k, (0, 1), key, FiberVariant.REFINED, 0))
    assert len(members) == factorial(k - 1) * (factorial(k) // 2) ** (n - 1)
    for m in members:
        pa, pb = m[0].inv[0], m[0].inv[1]
        assert pb == pa + 1  # 0 sits directly above 1
        assert preference_vector(m, 0, 1)[1] == 1
    # In coordinate 1 the key describes voter 0.
    for m in iter_fiber_members(n, k, (0, 1), key, FiberVariant.REFINED, 1):
        assert m[1].inv[1] == m[1].inv[0] + 1 and m[0].prefers(0, 1)
    for i in (-1, n):
        with pytest.raises(ValueError, match="coordinate out of range"):
            list(iter_fiber_members(n, k, (0, 1), key, FiberVariant.REFINED, i))


def test_refined_fibers_partition_adjacent_above_profiles():
    n, k = 2, 3
    eligible = {
        index
        for index in range(profile_space_size(n, k))
        if (lambda p: p[0].inv[1] == p[0].inv[0] + 1)(decode_profile(n, k, index))
    }
    seen = []
    for key in ((1,), (-1,)):
        for m in iter_fiber_members(n, k, (0, 1), key, FiberVariant.REFINED, 0):
            from votemanip.rankings import encode_profile

            seen.append(encode_profile(m))
    assert sorted(seen) == sorted(eligible)
    assert len(seen) == len(set(seen))


def test_constant_fiber_is_small():
    f = Constant(2, 3, 0)
    rec = boundary_fiber(f, 0, (0, 1), (1, 1), FiberVariant.PLAIN, Fraction(1, 2))
    assert rec.boundary_count == 0
    assert not rec.large


def test_top_dictator_refined_fiber_counts():
    # Half the members carry the adjacent 0-1 block at the very top; exactly
    # those lie on the boundary, so the ratio is 1/2.
    f = TopHDictator(2, 3, 0, range(3))
    for key in ((1,), (-1,)):
        rec = boundary_fiber(f, 0, (0, 1), key, FiberVariant.REFINED, Fraction(1, 2))
        assert rec.member_count == 6
        assert rec.boundary_count == 3
        assert rec.large  # 1/2 >= 1 - 1/2
        strict = boundary_fiber(f, 0, (0, 1), key, FiberVariant.REFINED, Fraction(1, 4))
        assert not strict.large


def test_plain_fiber_boundary_against_direct_enumeration():
    f = random_table_scf(2, 3, 3)
    key = (1, -1)
    rec = boundary_fiber(f, 0, (0, 2), key, FiberVariant.PLAIN, Fraction(1, 2))
    direct = 0
    for m in iter_fiber_members(2, 3, (0, 2), key, FiberVariant.PLAIN, 0):
        if f.evaluate(m) != 0:
            continue
        if any(f.evaluate((r, m[1])) == 2 for r in all_rankings(3) if r.order != m[0].order):
            direct += 1
    assert rec.boundary_count == direct


def test_fiber_sweep_covers_all_keys():
    f = Plurality(2, 3)
    records = fiber_sweep(f, 0, (0, 1), FiberVariant.PLAIN, Fraction(1, 3))
    assert len(records) == 4
    assert {rec.key for rec in records} == {
        (-1, -1), (1, -1), (-1, 1), (1, 1)
    }


def test_refined_topset_membership_dictator_bit():
    # Outcome equals the a-b top of coordinate 1 exactly, so membership holds
    # for every profile even at gamma = 0.
    f = MonotoneTwoValued(2, 3, (0, 1), (1, 1, 0, 0))  # bit 1 decides
    for index in range(36):
        p = decode_profile(2, 3, index)
        assert refined_topset_membership(f, 1, 0, 1, p, Fraction(0))


def test_refined_topset_membership_constant_off_pair():
    f = Constant(2, 3, 2)
    p = decode_profile(2, 3, 17)
    assert not refined_topset_membership(f, 0, 0, 1, p, Fraction(1, 100))


@pytest.mark.parametrize("length", [1, 3])
def test_refined_topset_membership_refuses_a_profile_of_the_wrong_length(length):
    f = random_table_scf(2, 3, 5)
    with pytest.raises(ValueError, match="profile needs 2 rankings"):
        refined_topset_membership(f, 0, 0, 1, decode_profile(length, 3, 0), Fraction(0))


@pytest.mark.parametrize("call", [
    lambda f, p: is_local_dictator(f, p, 0, {5}),
    lambda f, p: is_local_dictator(f, p, 0, {2, -1}),
    lambda f, p: is_local_dictator(f, decode_profile(2, 2, 0), 0, {2}),
    lambda f, p: refined_topset_membership(f, 0, 0, 1, decode_profile(2, 4, 0), Fraction(1, 10)),
], ids=["local-dictator-H-above-k", "local-dictator-H-negative",
        "local-dictator-rankings-of-2", "topset-rankings-of-4"])
def test_fiber_predicates_refuse_bad_alternatives_and_profile_shapes(call):
    f = Plurality(2, 3)
    with pytest.raises(ValueError):
        call(f, decode_profile(2, 3, 0))


def test_refined_topset_membership_ignores_deleted_coordinate():
    f = random_table_scf(2, 3, 123)
    gamma = Fraction(1, 24)
    for index in range(36):
        p = decode_profile(2, 3, index)
        got = refined_topset_membership(f, 0, 0, 1, p, gamma)
        for r in all_rankings(3):
            q = (r, p[1])
            assert refined_topset_membership(f, 0, 0, 1, q, gamma) == got


def test_local_dictator_on_top_dictatorship():
    # For the unrestricted top dictatorship the outcome is the coordinate top,
    # so exactly the blocks sitting at the top of the ranking qualify.
    f = TopHDictator(2, 3, 0, range(3))
    p = profile((2, 0, 1), (0, 1, 2))
    assert is_local_dictator(f, p, 0, {2, 0})
    assert is_local_dictator(f, p, 0, {2, 0, 1})
    assert is_local_dictator(f, p, 0, {2})
    assert not is_local_dictator(f, p, 0, {0, 1})  # adjacent block, not at the top
    assert not is_local_dictator(f, p, 0, {2, 1})  # not an adjacent block
    for i in (-1, 2):
        with pytest.raises(ValueError, match="coordinate out of range"):
            is_local_dictator(f, p, i, {2, 0})


def test_local_dictator_requires_block():
    f = Plurality(2, 4)
    p = profile((0, 1, 2, 3), (3, 2, 1, 0))
    assert not is_local_dictator(f, p, 0, {0, 2})


def test_local_dictator_tops_the_block():
    f = random_table_scf(2, 3, 8)
    for index in range(36):
        p = decode_profile(2, 3, index)
        for c in range(3):
            H = {x for x in range(3) if x != c}
            if is_local_dictator(f, p, 0, H):
                top = min(H, key=p[0].inv.__getitem__)
                assert f.evaluate(p) == top


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
    assert {tuple(r.order for r in p) for p in found} == direct


def test_dictator_fiber_sets():
    f = TopHDictator(2, 3, 0, {0, 2})
    assert len(dictator_fiber_set(f, 0, {0, 2})) == 6
    assert dictator_fiber_set(Constant(2, 3, 1), 0, {0, 1}) == set()

    plur = Plurality(2, 3)
    rest = dictator_fiber_set(plur, 0, range(3))
    assert {r[0].order for r in rest} == {(2, 0, 1), (2, 1, 0)}


@pytest.mark.parametrize("call", [
    lambda f: dictator_pair_set(f, 0, (1, 1)),
    lambda f: dictator_pair_set(f, 0, (0, 7)),
    lambda f: local_dictator_sets(f, 0, (0, 7)),
    lambda f: dictator_fiber_set(f, 0, {0, 9}),
], ids=["pair-1-1", "pair-0-7", "local-0-7", "fiber-H-0-9"])
def test_dictator_and_local_sets_reject_alternatives_outside_the_rule(call):
    with pytest.raises(ValueError):
        call(Plurality(2, 3))


def test_dictator_pair_set_unions_over_supersets():
    f = TopHDictator(2, 3, 0, range(3))
    assert len(dictator_pair_set(f, 0, (0, 1))) == 6
    assert dictator_pair_set(f, 1, (0, 1)) == set()
    # |H| >= 3 filters out pair dictatorships
    g = TopHDictator(2, 3, 0, {0, 1})
    assert dictator_pair_set(g, 0, (0, 1)) == set()
