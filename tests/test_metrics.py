from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from votemanip.errors import CapExceededError
from votemanip.fibers import FiberVariant, fiber_sweep
from votemanip.graphs import CoordinateInfluences, GraphKind
from votemanip.metrics import (
    distance_to_nonmanip,
    distance_to_nonmanip_bar,
    frac_str,
    nearest_monotone_boolean,
)
from votemanip import metrics
from votemanip.rankings import fiber_outcome_counts, rank_outcome_counts, top_h_by_rank
from votemanip.scf import (
    Borda,
    Constant,
    MonotoneTwoValued,
    OneCoordinate,
    PairBooleanSCF,
    Plurality,
    TableSCF,
    TopHDictator,
    random_table_scf,
)


def test_frac_round_trip():
    assert frac_str(Fraction(3, 12)) == "1/4"
    assert Fraction(frac_str(Fraction(7, 9))) == Fraction(7, 9)


def test_distance_plurality_borda_pinned():
    # The two rule tables disagree on the share frozen from the independent
    # 36-profile oracle scan.
    assert oracles.table_distance(Plurality(2, 3), Borda(2, 3)) == Fraction(2, 9)
    assert oracles.table_distance(Plurality(2, 3), Borda(2, 3)) == oracles.distance_fraction(
        oracles.plurality_tuple, oracles.borda_tuple, 2, 3
    )


def test_distance_to_nonmanip_bar_cases():
    one_coord = OneCoordinate(2, 3, 1, [o[1] for o in permutations(range(3))])
    assert distance_to_nonmanip_bar(one_coord).value == 0
    assert distance_to_nonmanip_bar(Constant(2, 3, 1)).value == 0

    report = distance_to_nonmanip_bar(Plurality(3, 3))
    assert report.value == Fraction(7, 27)  # two-valued branch, frozen from oracle
    assert oracles.table_distance(Plurality(3, 3), report.witness) == report.value


def test_distance_to_nonmanip_bar_oracle_recomputation():
    # Oracle: recompute both branches straight from outcome histograms.
    f = Plurality(3, 3)
    table = f.table()
    size = len(table)
    per_coord = []
    for i in range(3):
        stride = 6 ** (2 - i)
        agree = 0
        for rho in range(6):
            counts = [0, 0, 0]
            for p, out in enumerate(table):
                if (p // stride) % 6 == rho:
                    counts[out] += 1
            agree += max(counts)
        per_coord.append(Fraction(size - agree, size))
    mass = [table.count(a) for a in range(3)]
    two_valued = Fraction(size - sum(sorted(mass)[-2:]), size)
    assert distance_to_nonmanip_bar(f).value == min(min(per_coord), two_valued)


def test_distance_to_nonmanip_members_are_at_zero():
    for member in (TopHDictator(2, 3, 1, {0, 2}),
                   MonotoneTwoValued(2, 3, (1, 2), (2, 1, 2, 1)),
                   Constant(2, 3, 0)):
        report = distance_to_nonmanip(member)
        assert report.value == 0
        assert oracles.table_distance(member, report.witness) == 0


def test_distance_to_nonmanip_anti_dictator_pinned():
    # All 7 top_H rules and the 9 monotone pair tables were enumerated by the
    # oracle; the minimum is 2/3.
    anti = TableSCF(1, 3, [o[-1] for o in permutations(range(3))])
    report = distance_to_nonmanip(anti)
    assert report.value == Fraction(2, 3)
    assert oracles.table_distance(anti, report.witness) == Fraction(2, 3)


def test_distance_to_nonmanip_matches_full_candidate_oracle():
    fam1 = oracles.monotone_family(2)
    perms = list(permutations(range(3)))
    for seed in (11, 12, 13, 14):
        f = random_table_scf(2, 3, seed)
        table = f.table()
        profs = oracles.all_profiles(2, 3)
        best = Fraction(1)
        for i in range(2):
            for mask in range(1, 8):
                H = {x for x in range(3) if mask >> x & 1}
                bad = sum(
                    1 for p, prof in enumerate(profs)
                    if table[p] != next(x for x in prof[i] if x in H)
                )
                best = min(best, Fraction(bad, 36))
        for a in range(3):
            for b in range(a + 1, 3):
                keys = [
                    sum(1 << i for i in range(2) if prof[i].index(a) < prof[i].index(b))
                    for prof in profs
                ]
                for g in fam1:
                    bad = sum(
                        1 for p in range(36)
                        if table[p] != (a if g[keys[p]] else b)
                    )
                    best = min(best, Fraction(bad, 36))
        assert distance_to_nonmanip(f).value == best


def full_nonmanip_search(f):
    """The candidate search of distance_to_nonmanip with every pair's min-cut
    made: the best agreement and its first witness, in the same order."""
    table, n, k = f.table(), f.n, f.k
    best_agree, best = -1, None
    for i in range(n):
        for mask in range(1, 1 << k):
            H = frozenset(x for x in range(k) if mask >> x & 1)
            counts = f.counted(rank_outcome_counts, i)
            agree = sum(row[top] for row, top in zip(counts, top_h_by_rank(k, H)))
            if agree > best_agree:
                best_agree, best = agree, TopHDictator(n, k, i, H)
    fiber = (factorial(k) // 2) ** n
    for a in range(k):
        for b in range(a + 1, k):
            [(count_a, count_b)] = fiber_outcome_counts([table], n, k, a, b)
            labels, cost = nearest_monotone_boolean(
                [fiber - c for c in count_a], [fiber - c for c in count_b])
            if len(table) - cost > best_agree:
                best_agree = len(table) - cost
                best = MonotoneTwoValued(n, k, (a, b), [a if lab else b for lab in labels])
    return Fraction(len(table) - best_agree, len(table)), best


@pytest.mark.parametrize("n, k, seeds", [(2, 3, range(40)), (3, 3, range(10)), (4, 4, range(2))])
def test_skipped_min_cuts_leave_values_and_witnesses_unchanged(monkeypatch, n, k, seeds):
    cuts = []

    def counted(*costs):
        cuts.append(1)
        return nearest_monotone_boolean(*costs)

    monkeypatch.setattr(metrics, "nearest_monotone_boolean", counted)
    for seed in seeds:
        f = random_table_scf(n, k, seed)
        value, witness = full_nonmanip_search(f)
        report = distance_to_nonmanip(f)
        assert report.value == value
        assert report.witness.describe() == witness.describe()
    # The bound skipped some cuts, so the pruned path is exercised.
    assert len(cuts) < len(seeds) * k * (k - 1) // 2


def test_distance_to_nonmanip_is_minimal_over_explicit_members():
    f = random_table_scf(2, 3, 314)
    best = distance_to_nonmanip(f).value
    members = [
        TopHDictator(2, 3, i, H)
        for i in range(2)
        for H in ({0}, {1}, {0, 1}, {0, 2}, {0, 1, 2})
    ]
    members.append(MonotoneTwoValued(2, 3, (0, 1), (1, 0, 1, 0)))
    members.append(MonotoneTwoValued(2, 3, (1, 2), (2, 1, 2, 1)))
    for w in members:
        assert best <= oracles.table_distance(f, w)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_family_ordering_and_witness_identity(seed):
    f = random_table_scf(2, 3, seed)
    near = distance_to_nonmanip(f)
    far = distance_to_nonmanip_bar(f)
    assert far.value <= near.value
    assert oracles.table_distance(f, near.witness) == near.value
    assert oracles.table_distance(f, far.witness) == far.value


def total_influence(f, i):
    """The probability a new ranking for voter i changes the outcome."""
    inf = CoordinateInfluences(f, i)
    return sum(inf.influence(a) for a in range(f.k))


def test_influence_examples():
    assert total_influence(Constant(2, 3, 0), 0) == 0
    top = TopHDictator(2, 3, 0, range(3))
    assert total_influence(top, 1) == 0
    assert total_influence(top, 0) == Fraction(2, 3)  # 1 - 1/k at k=3


def test_influence_identities():
    f = random_table_scf(2, 3, 55)
    for i in range(2):
        inf = CoordinateInfluences(f, i)
        for kind in GraphKind:
            for a in range(3):
                assert inf.influence(a, kind=kind) == sum(
                    inf.influence(a, b, kind) for b in range(3) if b != a)


@pytest.mark.parametrize("call", [
    lambda f, a, b: fiber_sweep(f, 0, (a, b), FiberVariant.PLAIN, Fraction(1, 4)),
    lambda f, a, b: fiber_sweep(f, 1, (a, b), FiberVariant.REFINED, Fraction(1, 4))[1],
    lambda f, a, b: CoordinateInfluences(f, 0).influence(a, b),
    lambda f, a, b: CoordinateInfluences(f, 0).influence(a, b, GraphKind.SWAP),
    lambda f, a, b: CoordinateInfluences(f, 0).influence(a, b, GraphKind.REFINED),
    lambda f, a, b: PairBooleanSCF(2, 3, (a, b), [0, 0, 0, 0]),
], ids=["fiber_sweep", "boundary_fiber", "influence_pair", "influence_refined",
        "influence_refined_total", "PairBooleanSCF"])
@pytest.mark.parametrize("pair", [(0, 0), (0, 7), (7, 0), (0, 3), (-1, 0), (2, -1)])
def test_a_pair_must_be_two_distinct_alternatives(call, pair):
    # A negative id would otherwise index from the end.
    with pytest.raises(ValueError, match="distinct alternatives in 0..2"):
        call(Plurality(2, 3), *pair)


@pytest.mark.parametrize("call", [
    lambda f, a: CoordinateInfluences(f, 0).influence(a),
    lambda f, a: CoordinateInfluences(f, 0).influence(0, a, GraphKind.SWAP),
], ids=["influence_target", "influence_refined transposition"])
@pytest.mark.parametrize("a", [3, 7, -1])
def test_an_alternative_must_lie_in_range(call, a):
    with pytest.raises(ValueError, match="distinct alternatives in 0..2"):
        call(Plurality(2, 3), a)


def test_influence_pair_matches_oracle():
    f = random_table_scf(2, 3, 60)
    got = CoordinateInfluences(f, 1).influence(0, 2)
    want = oracles.influence_pair_fraction(oracles.table_evaluator(f), 2, 3, 1, 0, 2)
    assert got == want


def test_influence_refined_against_direct_count():
    # Inf_i^{a,b;z} is half the mass of profiles moved from a to b by z.
    from votemanip.rankings import decode_profile, profile_space_size

    f = random_table_scf(2, 3, 91)
    evaluate = oracles.table_evaluator(f)
    for a, b in ((0, 1), (1, 2)):
        for i in range(2):
            hits = 0
            for index in range(profile_space_size(2, 3)):
                p = decode_profile(2, 3, index)
                if evaluate(p) != a:
                    continue
                q = p[:i] + (oracles.apply_adjacent_transposition(p[i], (a, b)),) + p[i + 1:]
                if evaluate(q) == b:
                    hits += 1
            assert CoordinateInfluences(f, i).influence(a, b, GraphKind.SWAP) == Fraction(
                hits, 2 * 36)


def test_influence_refined_sums_over_transpositions():
    # The refined influence of 1 to 2 is half the mass of profiles that some
    # adjacent swap moves from 1 to 2, one count per transposition.
    from votemanip.rankings import decode_profile, profile_space_size

    f = random_table_scf(2, 3, 61)
    evaluate = oracles.table_evaluator(f)
    hits = 0
    for index in range(profile_space_size(2, 3)):
        p = decode_profile(2, 3, index)
        if evaluate(p) == 1:
            for z in oracles.all_adjacent_transpositions(3):
                q = (oracles.apply_adjacent_transposition(p[0], z), p[1])
                hits += evaluate(q) == 2
    assert CoordinateInfluences(f, 0).influence(1, 2, GraphKind.REFINED) == Fraction(hits, 2 * 36)


def test_monotone_violation_fraction_cases():
    assert oracles.monotone_violation_fraction((0, 0, 0, 1)) == 0
    assert oracles.monotone_violation_fraction((1, 0)) == 1  # the anti-dictator bit
    assert oracles.monotone_violation_fraction((0, 1)) == 0
    with pytest.raises(ValueError):
        oracles.monotone_violation_fraction((0, 1, 0))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10 ** 6))
def test_violation_fraction_dominates_monotone_distance(n, seed):
    import random as _random

    rng = _random.Random(seed)
    table = tuple(rng.randrange(2) for _ in range(1 << n))
    p = oracles.monotone_violation_fraction(table)
    d = oracles.monotone_distance(table)
    assert p >= d / n


def test_nearest_monotone_trivial_cases():
    labels, cost = nearest_monotone_boolean([0] * 4, [0] * 4)
    assert cost == 0
    # Costs already consistent with the monotone labeling 'upper iff bit 1 set'
    labels, cost = nearest_monotone_boolean([3, 3, 0, 0], [0, 0, 5, 5])
    assert cost == 0
    assert labels == (False, False, True, True)


def test_nearest_monotone_output_is_monotone_and_optimal():
    import random as _random

    for n in (2, 3, 4):
        for trial in range(8):
            rng = _random.Random(1000 * n + trial)
            cost_a = [rng.randrange(12) for _ in range(1 << n)]
            cost_b = [rng.randrange(12) for _ in range(1 << n)]
            labels, cost = nearest_monotone_boolean(cost_a, cost_b)
            for z in range(1 << n):
                for i in range(n):
                    bit = 1 << i
                    if not z & bit and labels[z]:
                        assert labels[z | bit]
            assert cost == oracles.nearest_monotone_cost(cost_a, cost_b)


def test_nearest_monotone_versus_unconstrained_majority():
    # The per-vertex cheapest labeling lower-bounds the monotone optimum, and
    # matches it whenever that labeling happens to be monotone already.
    import random as _random

    for trial in range(12):
        rng = _random.Random(4000 + trial)
        n = rng.choice((2, 3))
        cost_a = [rng.randrange(9) for _ in range(1 << n)]
        cost_b = [rng.randrange(9) for _ in range(1 << n)]
        free = [cost_a[z] <= cost_b[z] for z in range(1 << n)]
        free_cost = sum(min(cost_a[z], cost_b[z]) for z in range(1 << n))
        _labels, cost = nearest_monotone_boolean(cost_a, cost_b)
        assert cost >= free_cost
        monotone_free = all(
            not (free[z] and not free[z | 1 << i])
            for z in range(1 << n) for i in range(n) if not z >> i & 1
        )
        if monotone_free:
            assert cost == free_cost


@pytest.mark.parametrize("n", range(5))
def test_the_min_cut_witness_is_the_optimum_with_the_fewest_upper_labels(n):
    # Costs drawn from 0..1 or 0..2 tie often, as do equal tables at every
    # vertex, so most shapes have several optima; the oracle's is the unique
    # one with the fewest upper labels, which every other optimum contains.
    import random as _random

    family = oracles.monotone_family(n)
    rng = _random.Random(80 + n)
    for trial in range(60):
        top = (1, 2, 9)[trial % 3]
        cost_a = [rng.randrange(top + 1) for _ in range(1 << n)]
        cost_b = list(cost_a) if trial % 5 == 0 else [rng.randrange(top + 1)
                                                        for _ in range(1 << n)]
        cost = {t: sum(cost_a[z] if t[z] else cost_b[z] for z in range(1 << n))
                for t in family}
        best = min(cost.values())
        optima = [t for t in family if cost[t] == best]
        fewest = [t for t in optima if sum(t) == min(map(sum, optima))]
        assert len(fewest) == 1
        assert all(all(u >= w for u, w in zip(t, fewest[0])) for t in optima)
        assert nearest_monotone_boolean(cost_a, cost_b) == (tuple(map(bool, fewest[0])), best)


def test_nearest_monotone_validation():
    with pytest.raises(ValueError):
        nearest_monotone_boolean([1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        nearest_monotone_boolean([1, -1], [0, 0])
    with pytest.raises(CapExceededError):
        nearest_monotone_boolean([0] * (1 << 21), [0] * (1 << 21))


def test_distance_peak_stays_below_four_tables():
    # The counts come from class_tables slices, with no per-profile list: the
    # traced peak is about 3 tables (a per-profile mask list made it 9).
    import tracemalloc

    f = Borda(4, 4)
    size = len(f.table())
    tracemalloc.start()
    try:
        distance_to_nonmanip(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * size
