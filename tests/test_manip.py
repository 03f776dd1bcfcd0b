import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from votemanip import cli, engine, manip, rankings
from votemanip.manip import (
    GSClassification,
    census,
    exact_pair_probability,
    gs_classify,
    nonmanip_membership,
    sample_success,
)
from votemanip.metrics import distance_to_nonmanip
from votemanip.verify import sweep_random_tables
from votemanip.rankings import decode_profile, rank_order
from votemanip.scf import (
    Borda,
    DEFAULT_TABLE_CAP,
    WINNER_TABLE_ENTRIES,
    Constant,
    MonotoneTwoValued,
    Plurality,
    ScoreRule,
    TableSCF,
    TopHDictator,
    random_monotone_two_valued,
    random_table_scf,
)


def test_top_dictator_has_no_witnesses():
    f = TopHDictator(2, 3, 0, {0, 2})
    assert census(f, (2, 3)).counts == oracles.census_counts(
        f.evaluate_orders, 2, 3, (2, 3))[1] == {2: 0, 3: 0}


def test_monotone_two_valued_has_no_witnesses():
    f = random_monotone_two_valued(2, 3, 21)
    assert census(f, (2, 3)).counts == oracles.census_counts(
        f.evaluate_orders, 2, 3, (2, 3))[1] == {2: 0, 3: 0}


def test_witness_set_matches_oracle_plurality():
    # The profiles the width-k census flags, against a direct scan.
    f = Plurality(3, 3)
    flags = manip._manipulation_flags(f.table(), 3, 3, (3,))
    mine = {index for index, flag in enumerate(flags.to_bytes(216, "little")) if flag}
    # Oracle: direct nested-loop detection at full width.
    direct = set()
    perms = list(permutations(range(3)))
    for index, prof in enumerate(product(perms, repeat=3)):
        out = oracles.plurality_tuple(prof)
        hit = False
        for i in range(3):
            pos = {a: p for p, a in enumerate(prof[i])}
            for cand in perms:
                if pos[oracles.plurality_tuple(prof[:i] + (cand,) + prof[i + 1:])] < pos[out]:
                    hit = True
                    break
            if hit:
                break
        if hit:
            direct.add(index)
    assert mine == direct


def test_witness_validates_and_r_precondition():
    f = Borda(2, 3)
    found = gs_classify(f).witness_pair
    assert found and oracles.is_manipulation_pair(f.evaluate_orders, found)
    with pytest.raises(ValueError, match="r values must be >= 2"):
        census(f, (1, 2))


def test_census_pinned_regressions():
    # Frozen from the independent nested-loop oracle.
    cen = census(Plurality(3, 3))
    assert cen.total_profiles == 216
    assert {r: cen.count(r) for r in (2, 3, 4)} == {2: 36, 3: 36, 4: 36}
    assert cen.manipulable_fraction() == Fraction(1, 6)

    cen = census(Borda(2, 3), (2, 3))
    assert {r: cen.count(r) for r in (2, 3)} == {2: 14, 3: 14}

    cen = census(Plurality(2, 3), (2, 3))
    assert cen.count(2) == 4 and cen.fraction(3) == Fraction(1, 9)


def test_census_matches_oracle_on_random_tables():
    for seed in (1, 2, 3):
        f = random_table_scf(2, 3, seed)
        cen = census(f, (2, 3))
        total, counts = oracles.census_counts(oracles.table_evaluator(f), 2, 3, (2, 3))
        assert cen.total_profiles == total
        assert {r: cen.count(r) for r in (2, 3)} == counts


def test_census_constant_zero():
    cen = census(Constant(2, 3, 1))
    assert all(c == 0 for c in cen.counts.values())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_census_monotone_in_r(seed):
    f = random_table_scf(2, 4, seed)
    cen = census(f, (2, 3, 4))
    assert cen.count(2) <= cen.count(3) <= cen.count(4)


def test_gs_classify_recovers_dictator():
    f = TopHDictator(2, 3, 0, {0, 2})
    res = gs_classify(f)
    assert not res.manipulable
    w = res.witness_member
    assert isinstance(w, TopHDictator) and w.i == 0 and w.H == {0, 2}


def test_gs_classify_borda_manipulable():
    res = gs_classify(Borda(2, 3))
    assert res.manipulable
    assert oracles.is_manipulation_pair(oracles.borda_tuple, res.witness_pair)


def test_gs_classify_two_valued_witness():
    f = random_monotone_two_valued(2, 3, 14)
    res = gs_classify(f)
    assert not res.manipulable
    if isinstance(res.witness_member, MonotoneTwoValued):
        assert res.witness_member.table() == f.table()
    else:
        # Degenerate draws collapse to a constant, reported as a dictatorship.
        assert isinstance(res.witness_member, TopHDictator)
    assert oracles.table_distance(f, res.witness_member) == 0


@pytest.mark.parametrize("f", [
    TopHDictator(3, 4, 0, range(4)),
    TopHDictator(2, 3, 1, {0, 2}),
    random_monotone_two_valued(3, 4, 1),
    random_monotone_two_valued(2, 3, 14),
], ids=["top-all", "top-pair", "monotone-4", "monotone-3"])
def test_gs_classify_asks_membership_before_scanning(monkeypatch, f):
    # A member equal to f is nonmanipulable, so the first-hit scan, the census
    # flags of every voter at width k, is never needed.
    expected = GSClassification(False, None, nonmanip_membership(f)).describe()

    def refuse(*args, **kwargs):
        raise AssertionError("the first-hit scan ran")

    monkeypatch.setattr(manip, "_manipulation_flags", refuse)
    assert gs_classify(f).describe() == expected


def _full_scan_witness(f):
    """The first manipulation pair from the width-k flags of the whole table."""
    flags = manip._manipulation_flags(f.table(), f.n, f.k, (f.k,))
    hit = ((flags & -flags).bit_length() - 1) // 8
    return manip._first_manipulation(f.table(), f.n, f.k, hit)


def test_gs_classify_first_hit_equals_the_full_scan():
    # The profiles where voter 0 has rank 0 come first. Random tables mostly
    # hit there; electing voter 0's top on all of them leaves no hit there
    # (voter 0 has its top, and the others cannot move a constant), so the
    # full scan runs.
    early = late = 0
    for n in (1, 2, 3, 4):
        for k in (3, 4):
            block = factorial(k) ** (n - 1)
            for seed in range(3):
                table = random_table_scf(n, k, seed).table()
                for f in (TableSCF(n, k, table), TableSCF(n, k, bytes(block) + table[block:])):
                    if nonmanip_membership(f) is not None:
                        continue
                    hits_first = manip._first_block_flags(f.table(), n, k) != 0
                    early += hits_first
                    late += not hits_first
                    witness = gs_classify(f).witness_pair
                    assert witness == _full_scan_witness(f)
                    if n < 4:
                        first = oracles.first_manipulation_pair(
                            oracles.table_evaluator(f), n, k)
                        assert (witness.profile, witness.altered, witness.coordinate) == first
    assert early and late


def test_census_at_one_alternative():
    # The default r values include k, which must not fall below the smallest width.
    cen = census(Plurality(2, 1))
    assert cen.counts == {2: 0, 3: 0, 4: 0}
    assert cen.manipulable_fraction() == 0


def test_manipulable_count_needs_a_width_of_at_least_k():
    # |M| of Borda(2, 4) is 29/48; its width-2 count alone, 121/288, is |M_2|.
    f = Borda(2, 4)
    assert census(f, (2, 4)).manipulable_fraction() == Fraction(29, 48)
    assert census(f, (2, 9)).manipulable_fraction() == Fraction(29, 48)
    assert census(f, (2,)).fraction(2) == Fraction(121, 288)
    for widths in ((2,), (2, 3)):
        with pytest.raises(ValueError, match="width of at least k=4"):
            census(f, widths).manipulable_count()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_empty_manipulation_iff_distance_zero(seed):
    f = random_table_scf(2, 3, seed)
    empty = census(f, (f.k,)).manipulable_count() == 0
    assert empty == (distance_to_nonmanip(f).value == 0)
    assert empty == (nonmanip_membership(f) is not None)


def test_sampler_deterministic_and_consistent():
    f = Plurality(2, 4)
    rep1 = sample_success(f, 3000, seed=11)
    rep2 = sample_success(f, 3000, seed=11)
    assert rep1 == rep2
    rep_split = sample_success(f, 3000, seed=11, tasks=3)
    assert rep_split == rep1


def _sampler_subjects(n, k):
    """Plurality, Borda, random:0, top:1 and monotone-random:0, each with an
    evaluator of order tuples for the oracle."""
    table_rule = random_table_scf(n, k, 0)
    lookup = dict(zip(oracles.all_profiles(n, k), table_rule.table()))
    monotone = random_monotone_two_valued(n, k, 0)
    return [(Plurality(n, k), oracles.plurality_tuple), (Borda(n, k), oracles.borda_tuple),
            (table_rule, lookup.__getitem__), (TopHDictator(n, k, 0, range(k)), lambda p: p[0][0]),
            (monotone, monotone.evaluate_orders)]


def test_sampler_draws_equal_the_order_tuple_oracle():
    # Every width at (2,4); then n = 1, whose voter read is randrange(1), which
    # reads words until a 0 bit; k = width, which has one window start; and
    # Borda (5,5), whose (k!)^n > 2^32 takes two words per profile index.
    for n, k, widths, subjects, samples in (
            (2, 4, range(2, 5), _sampler_subjects(2, 4), engine.SAMPLE_BLOCK + 500),
            (1, 4, (2, 4), _sampler_subjects(1, 4), engine.SAMPLE_BLOCK + 500),
            (2, 3, (3,), _sampler_subjects(2, 3), 500),
            (5, 5, (3,), [(Borda(5, 5), oracles.borda_tuple)], 500)):
        for f, evaluate in subjects:
            for width in widths:
                for seed in range(6):
                    # One draw: its success, and its (profile index, voter, new rank).
                    successes, (index, i, r2) = manip._draws(
                        random.Random(seed).getrandbits, 1, manip._draw_plan(f, width))
                    profile = decode_profile(n, k, index)
                    altered = profile[:i] + (rank_order(k, r2),) + profile[i + 1:]
                    assert ((profile, altered, i, successes == 1)
                            == oracles.sampler_draw(random.Random(seed), evaluate, n, k, width))
                expected = oracles.sampler_successes(evaluate, n, k, width, samples, 3,
                                                     engine.SAMPLE_BLOCK)
                for tasks in (1, 2):
                    assert sample_success(f, samples, 3, width, tasks).successes == expected


@pytest.mark.parametrize("rule, n, k, evaluate, table", [
    (Borda, 7, 5, oracles.borda_tuple, True), (Borda, 8, 5, oracles.borda_tuple, False),
    (Plurality, 31, 5, oracles.plurality_tuple, True),
    (Plurality, 32, 5, oracles.plurality_tuple, False),
    (Borda, 86, 3, oracles.borda_tuple, True), (Borda, 128, 3, oracles.borda_tuple, True),
    (Borda, 86, 4, oracles.borda_tuple, False)])
def test_the_winner_table_and_the_packed_read_agree_either_side_of_its_bound(
        monkeypatch, rule, n, k, evaluate, table):
    # The move read keeps a table of (n * top + 1)^(k-1) winners up to
    # WINNER_TABLE_ENTRIES = 2^20 and reads packed vectors past it, whatever
    # the cap: 29^4 and 33^4 at Borda (7,5) and (8,5), 32^4 and 33^4 at
    # Plurality (31,5) and (32,5). Borda (86,3) sums in one byte and (128,3)
    # and (86,4) in two. At one task only the packed side reads a packed
    # vector; at both task counts and caps the successes are the oracle's.
    packed, reads = ScoreRule.packed, []
    monkeypatch.setattr(ScoreRule, "packed",
                        lambda self, order: reads.append(order) or packed(self, order))
    bound = (n * max(rule(n, k).scores) + 1) ** (k - 1)
    assert (bound <= WINNER_TABLE_ENTRIES) == table
    samples, width = engine.SAMPLE_BLOCK + 500, min(4, k)
    expected = oracles.sampler_successes(evaluate, n, k, width, samples, 3, engine.SAMPLE_BLOCK)
    for cap in (DEFAULT_TABLE_CAP, 10 ** 12):
        f = rule(n, k, cap=cap)
        reads.clear()
        assert sample_success(f, samples, 3, width, 1).successes == expected
        assert bool(reads) != table
        assert sample_success(f, samples, 3, width, 2).successes == expected


READER_SEEDS = (0, 1, 7, 12345)


def test_the_reader_reads_what_randrange_reads():
    # b = m.bit_length() bits a read: 1 bit at m = 1, one whole word at
    # 2^32 - 1, two words from 2^32 on. The draw loop reads the profile index
    # first; at n = 1, k = 2 any index names a rank (its value mod 2), so that
    # read's pair is set to each m. A draw then reads randrange(1) for the
    # voter and for the window start, and shuffles a list of two.
    ms = (1, 2, 3, 4, 5, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1)
    plan = manip._draw_plan(Borda(1, 2), 2)
    head, rest = plan[0], plan[1:]
    for m in ms:
        plan_m = (((m, m.bit_length()),) + head[1:],) + rest
        for seed in READER_SEEDS:
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(40):
                index = manip._draws(rng.getrandbits, 1, plan_m)[1][0]
                assert index == reference.randrange(m)
                assert reference.randrange(1) == reference.randrange(1) == 0
                reference.shuffle([0, 1])
            assert rng.getstate() == reference.getstate()
            manip._draws(rng.getrandbits, 40, plan_m)
            for _ in range(40):
                reference.randrange(m), reference.randrange(1), reference.randrange(1)
                reference.shuffle([0, 1])
            assert rng.getstate() == reference.getstate()


def test_the_draw_loop_reads_what_randrange_and_shuffle_read_at_the_word_edges():
    # Profile indices below (k!)^n at the edges of one 32-bit word: (2!)^31 =
    # 2^31 and (3!)^12 read one word, (2!)^32 = 2^32 and (4!)^7 read two; then
    # voters and window starts 1..5 and shuffles of 2..5. Each block of draws
    # leaves the generator where the order-tuple draws leave it.
    borda, plurality = oracles.borda_tuple, oracles.plurality_tuple
    for f, evaluate, width in ((Borda(31, 2), borda, 2), (Borda(32, 2), borda, 2),
                               (Borda(12, 3), borda, 3), (Plurality(7, 4), plurality, 2),
                               (Borda(5, 5), borda, 5), (Borda(1, 5), borda, 2),
                               (Borda(3, 6), borda, 3), (Plurality(4, 5), plurality, 4)):
        plan = manip._draw_plan(f, width)
        for seed in READER_SEEDS:
            rng, reference = random.Random(seed), random.Random(seed)
            successes = manip._draws(rng.getrandbits, 30, plan)[0]
            assert successes == sum(oracles.sampler_draw(reference, evaluate, f.n, f.k, width)[3]
                                    for _ in range(30))
            assert rng.getstate() == reference.getstate()


def test_the_shuffle_table_is_the_shuffle_of_range_width():
    for width in (2, 3, 4):
        orders = list(permutations(range(width)))
        pairs, table = manip._shuffle_plan(width)
        assert sorted(table) == list(range(len(orders)))
        for seed in READER_SEEDS:
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(100):
                code = 0
                for m, _b in pairs:
                    code = code * m + rng.randrange(m)
                perm = list(range(width))
                reference.shuffle(perm)
                assert orders[table[code]] == tuple(perm)
            assert rng.getstate() == reference.getstate()


def test_seeded_paths_refuse_negative_seeds():
    # Random(s) seeds from abs(s), so seed -s would repeat the stream of s.
    f = Borda(2, 4)
    for call in (lambda: random_table_scf(2, 3, -5), lambda: random_monotone_two_valued(2, 3, -5),
                 lambda: sample_success(f, 10, -3),
                 lambda: sweep_random_tables(2, 3, 3, -1)):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            call()


def test_sampler_rejects_narrow_rankings():
    with pytest.raises(ValueError):
        sample_success(Plurality(2, 3), 10, 0, width=4)


def test_sample_success_rejects_width_one():
    with pytest.raises(ValueError):
        sample_success(Plurality(2, 3), 100, seed=0, width=1)


def test_exact_pair_probability_pinned_and_oracle():
    f = Plurality(3, 4)
    value = exact_pair_probability(f, width=4)
    assert value == Fraction(5, 128)  # frozen from the nested-loop oracle

    g = Plurality(2, 4)
    assert exact_pair_probability(g, width=4) == oracles.pair_probability(
        g.evaluate_orders, 2, 4, 4)


def test_sampler_three_window_variant():
    f = TableSCF(1, 3, [o[-1] for o in permutations(range(3))])  # anti-dictator
    rep = sample_success(f, 2000, seed=3, width=3)
    assert rep.successes > 0
    exact = exact_pair_probability(f, width=3)
    assert exact > 0


def test_sampler_never_succeeds_on_nonmanipulable():
    f = TopHDictator(2, 4, 0, range(4))
    rep = sample_success(f, 2000, seed=9)
    assert rep.successes == 0


def test_census_cap_exceeded():
    from votemanip.errors import CapExceededError

    with pytest.raises(CapExceededError):
        census(Plurality(4, 4, cap=1000))


def test_census_rejects_widths_past_one_byte(monkeypatch):
    # An alternative is a one-hot byte in the lanes, so k <= 8; the caps pass
    # and the refusal comes before any table is built.
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(Plurality, "_build_table", refuse)
    for f in (Plurality(1, 9, cap=10 ** 14), Plurality(1, 10, cap=10 ** 14)):
        for scan in (lambda: census(f, (f.k,)),
                     lambda: exact_pair_probability(f, 4),
                     lambda: gs_classify(f)):
            with pytest.raises(ValueError, match="k <= 8"):
                scan()


def test_census_splits_each_coordinate_once_in_one_process(monkeypatch):
    splits = []
    split = manip.class_tables

    def counted(table, k, classes):
        splits.append(classes)
        return split(table, k, classes)

    def no_pool(*args, **kwargs):
        raise AssertionError("the census starts no process pool")

    monkeypatch.setattr(manip, "class_tables", counted)
    monkeypatch.setattr(engine, "map_chunks", no_pool)
    expected = [rankings.rank_classes(3, 3, i) for i in range(3)]
    census(Borda(3, 3))
    assert splits == expected
    splits.clear()
    with redirect_stdout(io.StringIO()):
        code = cli.main(["census", "--rule", "random:4", "-n", "3", "-k", "3", "--tasks", "2"])
    assert code == 0
    assert splits == expected


def test_gs_classify_finds_a_late_first_hit():
    # A top dictator with its last entry changed: only the last profile's
    # lines can be manipulated, and the first of them comes late in index order.
    for n, k in ((2, 3), (3, 3), (2, 4)):
        table = bytearray(TopHDictator(n, k, 0, range(k)).table())
        table[-1] = (table[-1] + 1) % k
        f = TableSCF(n, k, bytes(table))
        first = oracles.first_manipulation_pair(oracles.table_evaluator(f), n, k)
        witness = gs_classify(f).witness_pair
        assert (witness.profile, witness.altered, witness.coordinate) == first


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_witness_search_agrees_with_census(seed):
    # The direct per-profile window search and the table-driven census are
    # independent code paths; their per-r membership counts must coincide.
    f = random_table_scf(2, 3, seed)
    cen = census(f, (2, 3))
    assert oracles.census_counts(oracles.table_evaluator(f), 2, 3, (2, 3))[1] == cen.counts
