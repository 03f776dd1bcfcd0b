import json
import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from votemanip.rankings import (
    decode_profile,
    profile_space_size,
    ranking_orders,
    ranking_rank_of,
)
from votemanip.scf import (
    UNIFORM_CHUNK,
    Borda,
    Constant,
    MonotoneTwoValued,
    PairBooleanSCF,
    Plurality,
    TableSCF,
    TopHDictator,
    dump_scf_table,
    is_anonymous,
    is_monotone_pair_table,
    load_scf_table,
    random_monotone_two_valued,
    random_table_scf,
    uniform_bytes,
)


def test_top_dictator_and_constant_evaluate():
    f = TopHDictator(2, 3, 0, range(3))
    assert f.evaluate_orders(((2, 0, 1), (0, 1, 2))) == 2
    c = Constant(2, 3, 1)
    assert all(c.evaluate_orders(decode_profile(2, 3, d)) == 1 for d in range(36))


def test_plurality_majority_tops():
    f = Plurality(3, 3)
    assert f.evaluate_orders(((0, 1, 2), (0, 2, 1), (1, 0, 2))) == 0


def test_rule_table_reevaluation_identity():
    # A rule's table, kept as a TableSCF, holds its evaluation at each index.
    for rule in (Plurality(2, 3), Borda(2, 3), TopHDictator(2, 3, 1, {0, 2}),
                 Constant(2, 3, 2), random_monotone_two_valued(2, 3, 5)):
        t = TableSCF(rule.n, rule.k, rule.table())
        assert t.table() == bytes(rule.evaluate_orders(decode_profile(2, 3, index))
                                  for index in range(profile_space_size(2, 3)))


def test_range():
    assert Constant(2, 3, 1).range() == {1}
    assert random_monotone_two_valued(2, 3, 11).range() <= {0, 1, 2}
    assert Plurality(2, 3).range() == {0, 1, 2}
    two = PairBooleanSCF(2, 3, (0, 2), (0, 2, 2, 0))
    assert two.range() == {0, 2}


def test_anonymity_neutrality_examples():
    def is_neutral(f):
        return oracles.is_neutral(f.evaluate_orders, f.n, f.k)

    f = Plurality(2, 3)
    assert is_anonymous(f) and not is_neutral(f)
    g = TopHDictator(2, 3, 0, range(3))
    assert not is_anonymous(g) and is_neutral(g)
    c = Constant(2, 3, 0)
    assert is_anonymous(c) and not is_neutral(c)


def test_predicates_report_cap_instead_of_sampling():
    from votemanip.errors import CapExceededError

    with pytest.raises(CapExceededError):
        is_anonymous(Plurality(2, 3, cap=10))


def test_exists_anonymous_neutral():
    assert oracles.exists_anonymous_neutral(2, 2) is False
    assert oracles.exists_anonymous_neutral(2, 3) is True
    assert oracles.exists_anonymous_neutral(1, 5) is True
    assert oracles.exists_anonymous_neutral(2, 4) is False  # 4 = 2 + 2
    assert oracles.exists_anonymous_neutral(6, 5) is False  # 5 = 2 + 3


def test_monotone_table_validation():
    with pytest.raises(ValueError):
        MonotoneTwoValued(2, 3, (0, 1), (0, 1, 1, 0))
    MonotoneTwoValued(2, 3, (0, 1), (1, 0, 1, 0))


@pytest.mark.parametrize("k", [1, 0])
def test_random_monotone_two_valued_refuses_fewer_than_two_alternatives(k):
    # Its two labels are a pair of distinct alternatives.
    with pytest.raises(ValueError) as refused:
        random_monotone_two_valued(2, k, 1)
    assert str(refused.value) == f"a monotone two-valued SCF needs k >= 2, got k={k}"
    assert random_monotone_two_valued(2, 2, 1).range() <= {0, 1}


def test_random_generators_reproducible():
    assert random_table_scf(2, 3, 42).table() == random_table_scf(2, 3, 42).table()
    a = random_monotone_two_valued(3, 4, 7)
    b = random_monotone_two_valued(3, 4, 7)
    assert a.pair == b.pair and a.bool_table == b.bool_table


def test_table_file_round_trip(tmp_path):
    f = random_table_scf(2, 3, 99)
    path = tmp_path / "scf.json"
    dump_scf_table(f, path)
    doc = json.loads(path.read_text())
    assert doc["encoding"] == "lehmer-mixed-radix"
    assert doc["n"] == 2 and doc["k"] == 3
    assert min(doc["outcomes"]) >= 1
    g = load_scf_table(path)
    assert (g.n, g.k, g.table()) == (f.n, f.k, f.table())
    dump_scf_table(g, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8])
def test_uniform_bytes_are_randrange_draws_and_leave_the_same_state(seed, k):
    # k = 1, 2, 4 and 8 sit at the edges of k.bit_length(); the last count
    # needs a second chunk of words, so rejections cross a chunk boundary.
    for count in (0, 1, 1000, UNIFORM_CHUNK + 1000):
        expected_rng, rng = random.Random(seed), random.Random(seed)
        expected = bytes(expected_rng.randrange(k) for _ in range(count))
        assert uniform_bytes(rng, k, count) == expected
        assert rng.getstate() == expected_rng.getstate()
        assert rng.random() == expected_rng.random()


@pytest.mark.parametrize("n, k", [(2, 1), (1, 2), (2, 3), (3, 3), (2, 4), (1, 7), (1, 8)])
def test_random_tables_draw_randrange_per_profile_in_index_order(n, k):
    for seed in (0, 1, 7, 12345):
        rng = random.Random(seed)
        expected = bytes(rng.randrange(k) for _ in range(factorial(k) ** n))
        assert random_table_scf(n, k, seed).table() == expected


def test_random_monotone_two_valued_equals_the_per_mask_closure():
    for seed in range(4):
        for n in range(1, 9):
            for k in (2, 3, 5):
                f = random_monotone_two_valued(n, k, seed)
                assert (f.pair, f.bool_table) == oracles.monotone_two_valued(n, k, seed)


def test_monotone_pair_table_check_equals_the_dedekind_family():
    for n in (1, 2, 3):
        family = set(oracles.monotone_family(n))
        for code in range(1 << (1 << n)):
            bits = tuple(code >> m & 1 for m in range(1 << n))
            table = [2 if bit else 0 for bit in bits]
            assert is_monotone_pair_table(n, (2, 0), table) == (bits in family)


@pytest.mark.parametrize("rule, n, k", [(Plurality, 255, 2), (Plurality, 256, 2),
                                        (Borda, 255, 2), (Borda, 256, 2),
                                        (Borda, 127, 3), (Borda, 128, 3)])
def test_score_codes_pick_the_winner_either_side_of_a_one_byte_sum(rule, n, k):
    # The shapes where the largest score sum n * top reaches 256: one byte
    # holds it on the first of each pair and not on the second.
    f = rule(n, k)
    oracle = oracles.plurality_tuple if rule is Plurality else oracles.borda_tuple
    for prof, moved in _profiles_and_moves(n, k, random.Random(n)):
        assert f.evaluate_orders(prof) == oracle(prof)
        assert _read_move(f, prof, moved) == (oracle(prof), oracle(moved))


def _profiles_and_moves(n, k, rng, count=100):
    """Random profiles with one voter's ranking redrawn, then the edges of
    the score sums: one ranking for all voters reaches the largest sum n *
    top, two rankings split evenly tie, and a move of the last voter to the
    other ranking breaks the tie."""
    orders = ranking_orders(k)
    fact = factorial(k)
    pairs = []
    for _ in range(count):
        ranks = [rng.randrange(fact) for _ in range(n)]
        moved = list(ranks)
        moved[rng.randrange(n)] = rng.randrange(fact)
        pairs.append((ranks, moved))
    tie = [0, fact - 1] * (n // 2) + [0] * (n % 2)
    pairs += [([0] * n, [0] * (n - 1) + [fact - 1]), ([fact - 1] * n, [fact - 1] * n),
              (tie, tie[:-1] + [fact - 1 - tie[-1]])]
    return [(tuple(orders[r] for r in ranks), tuple(orders[r] for r in moved))
            for ranks, moved in pairs]


def _read_move(f, prof, moved):
    """f's move read of the voter whose ranking ``moved`` changes (voter 0
    when none does)."""
    rank_of = ranking_rank_of(f.k)
    ranks, moved_ranks = [rank_of[o] for o in prof], [rank_of[o] for o in moved]
    i = next((c for c, (r, s) in enumerate(zip(ranks, moved_ranks)) if r != s), 0)
    return f.move_reader()(oracles.encode_profile(prof), i, ranks[i], moved_ranks[i])


def test_the_move_read_equals_evaluate_orders_on_every_rule_kind():
    # The table read, the generic read through evaluate_orders and the
    # two-valued rules, against the order-tuple oracles where they exist.
    rng = random.Random(5)
    for n, k in ((1, 3), (2, 4), (3, 3), (4, 2)):
        table = random_table_scf(n, k, 3)
        lookup = dict(zip(oracles.all_profiles(n, k), table.table()))
        monotone = random_monotone_two_valued(n, k, 2)
        for f, oracle in ((table, lookup.__getitem__),
                          (TopHDictator(n, k, n - 1, {0, k - 1}),
                           lambda p: oracles.top_of(p[n - 1], {0, k - 1})),
                          (monotone, lambda p: monotone.bool_table[
                              oracles.pair_mask(p, *monotone.pair)])):
            for prof, moved in _profiles_and_moves(n, k, rng, 200):
                expected = (oracle(prof), oracle(moved))
                assert _read_move(f, prof, moved) == expected
                if f is not table:
                    assert (f.evaluate_orders(prof), f.evaluate_orders(moved)) == expected


@pytest.mark.parametrize("rule, oracle", [(Plurality, oracles.plurality_tuple),
                                          (Borda, oracles.borda_tuple)])
def test_score_rules_evaluate_past_the_table_k_without_per_ranking_tables(
        monkeypatch, rule, oracle):
    # k = 12 is past MAX_TABLE_K: a single profile is scored from its own orders.
    from votemanip import rankings, scf

    def refuse(k):
        raise AssertionError(f"a per-ranking table was built at k={k}")

    for module in (rankings, scf):
        monkeypatch.setattr(module, "ranking_orders", refuse)
    monkeypatch.setattr(rankings, "ranking_positions", refuse)
    k = 12
    assert k > rankings.MAX_TABLE_K
    rng = random.Random(12)
    for n in (1, 2, 3, 4):
        f = rule(n, k)
        for _ in range(20):
            prof = tuple(tuple(rng.sample(range(k), k)) for _ in range(n))
            assert f.evaluate_orders(prof) == oracle(prof)
        same = (tuple(range(k - 1, -1, -1)),) * n
        assert f.evaluate_orders(same) == oracle(same) == k - 1
    # An order and its reverse tie (Borda on all, plurality on the two tops).
    tie = (tuple(range(k - 1, -1, -1)), tuple(range(k)))
    assert rule(2, k).evaluate_orders(tie) == oracle(tie) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_monotone_two_valued_is_monotone(seed):
    f = random_monotone_two_valued(2, 3, seed)
    a, b = f.pair
    table = f.bool_table
    for mask in range(4):
        for i in range(2):
            bit = 1 << i
            if not mask & bit and table[mask] == a:
                assert table[mask | bit] == a


def _write_table(path, doc):
    path.write_text(json.dumps(doc))
    return path


def test_load_table_rejects_string_n(tmp_path):
    doc = {"n": "2", "k": 3, "encoding": "lehmer-mixed-radix", "outcomes": [1] * 36}
    with pytest.raises(ValueError):
        load_scf_table(_write_table(tmp_path / "t.json", doc))


def test_load_table_rejects_missing_n(tmp_path):
    doc = {"k": 3, "encoding": "lehmer-mixed-radix", "outcomes": [1] * 36}
    with pytest.raises(ValueError):
        load_scf_table(_write_table(tmp_path / "t.json", doc))


@pytest.mark.parametrize("doc", [[1, 2], "x"], ids=["list", "string"])
def test_load_table_refuses_a_file_that_is_not_an_object(tmp_path, doc):
    with pytest.raises(ValueError, match=r"^table file needs a JSON object"):
        load_scf_table(_write_table(tmp_path / "t.json", doc))


@pytest.mark.parametrize("bad", [0, 4])
def test_load_table_names_the_files_own_outcome(tmp_path, bad):
    # The file holds 1-based outcomes: at k = 3, 4 is past k and 0 below 1.
    doc = {"n": 1, "k": 3, "encoding": "lehmer-mixed-radix", "outcomes": [1, 2, 3, bad, 2, 1]}
    with pytest.raises(ValueError,
                       match=rf"^table file outcome {bad} is not an alternative in \[1, 3\]$"):
        load_scf_table(_write_table(tmp_path / "t.json", doc))


def test_table_scf_rejects_bool_outcomes():
    with pytest.raises(ValueError):
        TableSCF(1, 3, [True] * 6)


@pytest.mark.parametrize("n, k", [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (2, 4), (3, 4), (2, 5)])
def test_score_tables_match_oracles(n, k):
    # Even n gives score ties, which must go to the lowest id.
    profiles = oracles.all_profiles(n, k)
    assert Borda(n, k).table() == bytes([oracles.borda_tuple(p) for p in profiles])
    assert Plurality(n, k).table() == bytes([oracles.plurality_tuple(p) for p in profiles])


def test_cap_checks_refuse_huge_shapes_before_any_factorial(monkeypatch, tmp_path):
    # n or k past the cap's bit length is refused without forming k!, (k!)^n,
    # k! (k! - 1) or k^(k!).
    from votemanip import manip, rankings, scf, verify
    from votemanip.errors import CapExceededError

    def no_factorial(x):
        raise AssertionError(f"factorial({x}) was formed")

    for module in (rankings, scf, manip, verify):
        monkeypatch.setattr(module, "factorial", no_factorial)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10 ** 7, "k": 3, "encoding": "lehmer-mixed-radix",
                                "outcomes": [1]}))
    for build in (lambda: Plurality(10 ** 7, 3).table(),
                  lambda: Borda(1, 3000).table(),
                  lambda: random_table_scf(10 ** 7, 3, 0),
                  lambda: load_scf_table(path),
                  lambda: manip.census(Plurality(1, 3000)),
                  lambda: manip.gs_classify(Plurality(1, 3000)),
                  lambda: verify.sweep_one_voter(3000),
                  lambda: rankings.check_cap(10 ** 7, "entries", 10 ** 9, 10 ** 9)):
        with pytest.raises(CapExceededError):
            build()


def test_cap_check_is_exact_at_small_caps():
    # k = bit length of the cap can still fit: 3! = 6 <= 6, 2^1 = 2 <= 2.
    from votemanip.errors import CapExceededError
    from votemanip.rankings import check_cap

    check_cap(6, "entries", 3, 1)
    check_cap(2, "entries", 2, 1)
    check_cap(1, "entries", 1, 10 ** 9)
    for cap, k, n in ((5, 3, 1), (1, 2, 1), (35, 3, 2), (0, 1, 1)):
        with pytest.raises(CapExceededError):
            check_cap(cap, "entries", k, n)


def test_table_scf_keeps_a_bytes_table_and_refuses_an_outcome_past_k():
    outcomes = bytes([0, 1, 2, 2, 1, 0])
    assert TableSCF(1, 3, outcomes).table() is outcomes
    with pytest.raises(ValueError, match=r"^table outcome 3 is not"):
        TableSCF(1, 3, bytes([0, 1, 2, 3, 1, 0]))
    # The largest bad byte is the one named, wherever it sits.
    with pytest.raises(ValueError, match=r"^table outcome 255 is not"):
        TableSCF(1, 3, bytes([7, 255, 2, 3, 1, 0]))
    with pytest.raises(ValueError, match=r"^table outcome 1 is not an alternative in \[0, 1\)"):
        TableSCF(1, 1, bytes([1]))
    with pytest.raises(ValueError):
        TableSCF(1, 3, bytes(5))


@pytest.mark.parametrize("n, k", [(2, 2), (2, 3), (3, 3), (2, 4)])
def test_range_and_membership_image_are_the_set_of_table_bytes(n, k):
    from votemanip.manip import nonmanip_membership

    rng = random.Random(n * 10 + k)
    for _ in range(8):
        image = rng.sample(range(k), rng.randint(1, k))
        f = TableSCF(n, k, bytes(rng.choice(image) for _ in range(profile_space_size(n, k))))
        assert f.range() == frozenset(f.table())
    # A member equal to a monotone two-valued table: a top_H dictator, or
    # the two-valued witness on the table's image.
    pairs = 0
    for seed in range(8):
        g = TableSCF(n, k, random_monotone_two_valued(n, k, seed).table())
        member = nonmanip_membership(g)
        assert member.table() == g.table() and member.range() == frozenset(g.table())
        if isinstance(member, MonotoneTwoValued):
            assert member.pair == tuple(sorted(frozenset(g.table())))
            pairs += 1
    assert pairs


def test_random_monotone_two_valued_refuses_fiber_labels_past_the_cap():
    from votemanip.errors import CapExceededError

    assert random_monotone_two_valued(3, 3, 0, cap=8).n == 3
    for n in (4, 10 ** 9):
        with pytest.raises(CapExceededError):
            random_monotone_two_valued(n, 3, 0, cap=8)
