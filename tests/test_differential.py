"""Differential tests: the package against the order-tuple oracles in ``oracles``.

Shapes cover n = 1, 2, 3 at k = 3 and n = 2 at k = 4, and every coordinate, so
a wrong stride for a first, middle or last voter shows up as a mismatch; the
census, the classification, the distances, local dictators, the class tables
and the fiber outcome counts are also checked at k = 1, 2 and 5, and the
census and edge counts at k = 6, where k! passes what a byte lane counts to.
"""
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from votemanip import cli, verify
from votemanip.fibers import FiberVariant, fiber_sweep, local_dictator_sets
from votemanip.graphs import (
    CoordinateInfluences,
    GraphKind,
    refined_edge_counts,
    transition_counts,
)
from votemanip.manip import (
    census,
    census_tables,
    exact_pair_probability,
    gs_classify,
    nonmanip_membership,
)
from votemanip.metrics import distance_to_nonmanip, distance_to_nonmanip_bar
from votemanip.rankings import (
    class_tables,
    decode_profile,
    fiber_outcome_counts,
    rank_outcome_counts,
)
from votemanip.scf import (
    Borda,
    Constant,
    OneCoordinate,
    PairBooleanSCF,
    Plurality,
    TableSCF,
    TopHDictator,
    dump_scf_table,
    is_anonymous,
    load_scf_table,
    random_monotone_two_valued,
    random_table_scf,
)

SHAPES = [(1, 3), (2, 3), (3, 3), (2, 4)]
# Census shapes at the edges: no window (k = 1), only the width-2 window (k = 2),
# and five alternatives.
EDGE_SHAPES = [(1, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 5)]
# The edge shapes with a pair of alternatives.
PAIR_EDGE_SHAPES = [(n, k) for n, k in EDGE_SHAPES if k >= 2]
# More ranks (k! = 720) than a byte lane counts to.
WIDE_SHAPES = [(1, 6)]
KINDS = ["random", "plurality", "borda", "top", "monotone"]


@st.composite
def subjects(draw, shapes=SHAPES):
    """(package SCF, order-tuple evaluator) pairs over the given shapes."""
    n, k = draw(st.sampled_from(shapes))
    # A two-valued rule needs two alternatives.
    kind = draw(st.sampled_from(KINDS if k > 1 else KINDS[:-1]))
    if kind == "random":
        rng = random.Random(draw(st.integers(0, 10 ** 6)))
        outcomes = [rng.randrange(k) for _ in oracles.all_profiles(n, k)]
        lookup = dict(zip(oracles.all_profiles(n, k), outcomes))
        return TableSCF(n, k, outcomes), lookup.__getitem__
    if kind == "plurality":
        return Plurality(n, k), oracles.plurality_tuple
    if kind == "borda":
        return Borda(n, k), oracles.borda_tuple
    if kind == "top":
        i = draw(st.integers(0, n - 1))
        H = draw(st.sets(st.integers(0, k - 1), min_size=1))
        return TopHDictator(n, k, i, H), lambda prof: oracles.top_of(prof[i], H)
    f = random_monotone_two_valued(n, k, draw(st.integers(0, 10 ** 6)))
    a, b = f.pair
    return f, lambda prof: f.bool_table[oracles.pair_mask(prof, a, b)]


@settings(max_examples=30, deadline=None)
@given(subjects(SHAPES + EDGE_SHAPES), st.integers(0, 10 ** 6))
def test_tables_are_bytes_matching_the_oracle(subject, seed):
    # Every SCF class, a seeded random table (the stream of the old list build),
    # the table of a TableSCF copy and of a dumped and loaded table file.
    f, evaluate = subject
    n, k = f.n, f.k
    profiles = oracles.all_profiles(n, k)
    orders = list(permutations(range(k)))
    rng = random.Random(seed)
    i, winner = rng.randrange(n), rng.randrange(k)
    per_rank = [rng.randrange(k) for _ in orders]
    stream = random.Random(seed)
    drawn = dict(zip(profiles, [stream.randrange(k) for _ in profiles]))
    cases = [
        (f, evaluate),
        (Constant(n, k, winner), lambda prof: winner),
        (OneCoordinate(n, k, i, per_rank), lambda prof: per_rank[orders.index(prof[i])]),
        (TableSCF(n, k, f.table()), evaluate),
        (random_table_scf(n, k, seed), drawn.__getitem__),
    ]
    if k >= 2:
        a, b = rng.sample(range(k), 2)
        labels = [rng.choice((a, b)) for _ in range(1 << n)]
        cases.append((PairBooleanSCF(n, k, (a, b), labels),
                      lambda prof: labels[oracles.pair_mask(prof, a, b)]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        dump_scf_table(f, path)
        cases.append((load_scf_table(path), evaluate))
        for g, oracle in cases:
            table = g.table()
            assert type(table) is bytes
            assert table == bytes(oracle(prof) for prof in profiles)


def _relabelled(table, k):
    """The two-valued candidate as a list: the two heaviest outcomes kept, the rest to the lower."""
    mass = [list(table).count(a) for a in range(k)]
    keep = sorted(range(k), key=lambda x: (-mass[x], x))[:2]
    return [a if a in keep else min(keep) for a in table]


@settings(max_examples=25, deadline=None)
@given(subjects(SHAPES + EDGE_SHAPES))
def test_nonmanip_bar_witness_attains_its_value(subject):
    f, _evaluate = subject
    report = distance_to_nonmanip_bar(f)
    assert oracles.table_distance(f, report.witness) == report.value
    if isinstance(report.witness, TableSCF):
        assert report.witness.table() == bytes(_relabelled(f.table(), f.k))


@pytest.mark.parametrize("n, k", [(2, 3), (3, 3), (2, 4)])
def test_nonmanip_bar_two_valued_witness_is_the_list_relabelling(n, k):
    for seed in range(4):
        f = random_table_scf(n, k, seed)
        witness = distance_to_nonmanip_bar(f).witness
        assert isinstance(witness, TableSCF)
        assert type(witness.table()) is bytes
        assert witness.table() == bytes(_relabelled(f.table(), k))


def _decoded(f, indices):
    """The order tuples of profile indices, in their order."""
    return [decode_profile(f.n, f.k, index) for index in indices]


@settings(max_examples=25, deadline=None)
@given(subjects())
def test_census_and_classification_match_oracle(subject):
    f, evaluate = subject
    rs = sorted({2, 3, 4, f.k})
    total, counts = oracles.census_counts(evaluate, f.n, f.k, rs)
    cen = census(f, rs)
    assert cen.total_profiles == total
    assert {r: cen.count(r) for r in rs} == counts
    assert _classification_matches_oracle(f, evaluate) == (counts[f.k] > 0)


def _classification_matches_oracle(f, evaluate):
    """Check the gs-classify verdict, its witness and membership; return the verdict."""
    verdict = gs_classify(f)
    first = oracles.first_manipulation_pair(evaluate, f.n, f.k)
    assert verdict.manipulable == (first is not None)
    if first is not None:
        assert verdict.witness_pair.profile == first[0]
    else:
        assert verdict.witness_member.table() == f.table()
    member = nonmanip_membership(f)
    assert (member is not None) == oracles.is_nonmanipulable_member(evaluate, f.n, f.k)
    if member is not None:
        assert member.table() == f.table()
    return verdict.manipulable


@settings(max_examples=30, deadline=None)
@given(subjects(SHAPES + EDGE_SHAPES))
def test_gs_classify_witness_is_the_first_manipulation_pair(subject):
    # The whole witness: the first manipulable profile, its first gaining
    # voter, and that voter's first gaining order in permutations order.
    f, evaluate = subject
    first = oracles.first_manipulation_pair(evaluate, f.n, f.k)
    witness = gs_classify(f).witness_pair
    assert (None if witness is None
            else (witness.profile, witness.altered, witness.coordinate)) == first
    if first is not None:
        profile, altered, i = first
        assert witness.describe() == {"coordinate": i + 1,
                                      "profile": [[x + 1 for x in o] for o in profile],
                                      "altered": [[x + 1 for x in o] for o in altered]}


@settings(max_examples=25, deadline=None)
@given(subjects(EDGE_SHAPES))
def test_census_matches_oracle_at_edge_shapes(subject):
    f, evaluate = subject
    rs = [2, 3, 4, 5]
    total, counts = oracles.census_counts(evaluate, f.n, f.k, rs)
    cen = census(f, rs)
    assert cen.total_profiles == total
    assert cen.counts == counts


@settings(max_examples=20, deadline=None)
@given(subjects())
def test_exact_pair_probability_matches_oracle(subject):
    f, evaluate = subject
    for width in range(2, f.k + 1):
        assert exact_pair_probability(f, width) == oracles.pair_probability(
            evaluate, f.n, f.k, width)


@settings(max_examples=25, deadline=None)
@given(subjects())
def test_distances_match_oracle(subject):
    f, evaluate = subject
    assert distance_to_nonmanip(f).value == oracles.distance_to_nonmanip_fraction(
        evaluate, f.n, f.k)
    assert distance_to_nonmanip_bar(f).value == oracles.distance_to_nonmanip_bar_fraction(
        evaluate, f.n, f.k)


@settings(max_examples=25, deadline=None)
@given(subjects(EDGE_SHAPES))
def test_classification_and_distances_match_oracle_at_edge_shapes(subject):
    f, evaluate = subject
    _classification_matches_oracle(f, evaluate)
    assert distance_to_nonmanip(f).value == oracles.distance_to_nonmanip_fraction(
        evaluate, f.n, f.k)
    assert distance_to_nonmanip_bar(f).value == oracles.distance_to_nonmanip_bar_fraction(
        evaluate, f.n, f.k)


@settings(max_examples=40, deadline=None)
@given(subjects(SHAPES + EDGE_SHAPES), st.data())
def test_class_tables_and_rank_counts_match_oracle(subject, data):
    # Any class lists for the last m voters: empty classes, repeated and
    # overlapping ranks, and classes in any rank order.
    f, evaluate = subject
    n, k = f.n, f.k
    ranks = st.lists(st.integers(0, factorial(k) - 1), max_size=4)
    m = data.draw(st.integers(0, n))
    classes = [data.draw(st.lists(ranks, min_size=1, max_size=3)) for _ in range(m)]
    assert class_tables(f.table(), k, classes) == oracles.class_tables(evaluate, n, k, classes)
    for i in range(n):
        assert rank_outcome_counts([f.table()], n, k, i) == [tuple(map(
            tuple, oracles.rank_outcome_counts(evaluate, n, k, i)))]


@settings(max_examples=20, deadline=None)
@given(subjects(SHAPES + PAIR_EDGE_SHAPES))
def test_fiber_outcome_counts_match_oracle(subject):
    f, evaluate = subject
    n, k = f.n, f.k
    for a, b in permutations(range(k), 2):
        assert fiber_outcome_counts([f.table()], n, k, a, b) == [tuple(map(
            tuple, oracles.fiber_outcome_counts(evaluate, n, k, a, b)))]


@settings(max_examples=20, deadline=None)
@given(subjects(SHAPES + EDGE_SHAPES))
def test_influences_and_boundaries_match_oracle(subject):
    f, evaluate = subject
    n, k = f.n, f.k
    size = len(oracles.all_profiles(n, k))
    fact = len(list(permutations(range(k))))
    coarse, refined, swap = GraphKind
    for i in range(n):
        moves = oracles.transition_counts(evaluate, n, k, i)
        edges = oracles.refined_edge_counts(evaluate, n, k, i)
        matrices = {coarse: [[moves.get((a, b), 0) for b in range(k)] for a in range(k)]}
        matrices[refined], matrices[swap] = oracles.refined_edge_matrices(edges, k)
        assert transition_counts([f.table()], n, k, i) == [matrices[coarse]]
        assert refined_edge_counts(f, i) == (matrices[refined], matrices[swap])

        inf = CoordinateInfluences(f, i)
        for kind, matrix in matrices.items():
            denominator = size * fact if kind is coarse else 2 * size
            for a in range(k):
                leaving = sum(matrix[a]) - matrix[a][a]
                assert inf.count(a, kind=kind) == leaving
                assert inf.influence(a, kind=kind) == Fraction(leaving, denominator)
                for b in range(k):
                    if b != a:
                        assert inf.count(a, b, kind) == matrix[a][b]
                        assert inf.influence(a, b, kind) == Fraction(matrix[a][b], denominator)


def _orbit_table(profiles, group, k, rng):
    """A random table that elects ``pi[c]`` at ``act(prof)`` when it elects c at
    prof, for every (act, pi) in ``group``: a draw per orbit, carried across it."""
    drawn = {}
    for prof in profiles:
        if prof not in drawn:
            c = rng.randrange(k)
            for act, pi in group:
                drawn[act(prof)] = pi[c]
    return [drawn[prof] for prof in profiles]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SHAPES), st.integers(0, 10 ** 6))
def test_symmetry_predicates_match_oracle(shape, seed):
    # Tables built anonymous and neutral, ones fixed only by the cyclic shift
    # of the voters or by relabeling alternatives 1 and 2, and each of these
    # with one entry changed at a profile of mixed rankings.
    n, k = shape
    rng = random.Random(seed)
    profiles = oracles.all_profiles(n, k)
    same = tuple(range(k))

    def voters(orders):
        return [(lambda prof, s=s: tuple(prof[j] for j in s), same) for s in orders]

    def alternatives(perms):
        return [(lambda prof, pi=pi: tuple(tuple(pi[x] for x in r) for r in prof), pi)
                for pi in perms]

    anonymous = _orbit_table(profiles, voters(permutations(range(n))), k, rng)
    neutral = _orbit_table(profiles, alternatives(permutations(range(k))), k, rng)
    assert is_anonymous(TableSCF(n, k, anonymous))
    ring = tuple(range(n))
    cyclic = _orbit_table(profiles, voters(ring[c:] + ring[:c] for c in range(n)), k, rng)
    swap = (1, 0) + same[2:]
    one_swap = _orbit_table(profiles, alternatives([same, swap]), k, rng)
    mixed = [index for index, prof in enumerate(profiles) if len(set(prof)) > 1] or [0]
    for outcomes in (anonymous, neutral, cyclic, one_swap):
        changed = list(outcomes)
        index = rng.choice(mixed)
        changed[index] = (changed[index] + 1) % k
        for table in (outcomes, changed):
            evaluate = dict(zip(profiles, table)).__getitem__
            f = TableSCF(n, k, table)
            assert is_anonymous(f) == oracles.is_anonymous(evaluate, n, k)


@settings(max_examples=3, deadline=None)
@given(subjects(WIDE_SHAPES))
def test_census_and_edge_counts_match_oracle_past_a_byte_of_ranks(subject):
    f, evaluate = subject
    n, k = f.n, f.k
    # The oracle's own outcomes, looked up: it evaluates each profile hundreds of times.
    profiles = oracles.all_profiles(n, k)
    evaluate = dict(zip(profiles, map(evaluate, profiles))).__getitem__
    rs = [2, 3, 4, 5, 6]
    assert census(f, rs).counts == oracles.census_counts(evaluate, n, k, rs)[1]
    for i in range(n):
        moves = oracles.transition_counts(evaluate, n, k, i)
        edges = oracles.refined_edge_counts(evaluate, n, k, i)
        assert transition_counts([f.table()], n, k, i) == [
            [[moves.get((a, b), 0) for b in range(k)] for a in range(k)]]
        assert refined_edge_counts(f, i) == oracles.refined_edge_matrices(edges, k)


def _oracle_influences_report(evaluate, n, k, refined):
    """The ``influences`` report's coordinate rows, assembled from the oracle counts."""
    size = len(oracles.all_profiles(n, k))
    per_pair = size * len(list(permutations(range(k))))

    def frac(count, denominator):
        x = Fraction(count, denominator)
        return f"{x.numerator}/{x.denominator}"

    report = {}
    for i in range(n):
        moves = oracles.transition_counts(evaluate, n, k, i)
        leaving = [sum(c for (x, y), c in moves.items() if x == a != y) for a in range(k)]
        row = {
            "total": frac(sum(leaving), per_pair),
            "target": {str(a + 1): frac(leaving[a], per_pair) for a in range(k)},
            "pairs": {f"{a + 1}-{b + 1}": frac(moves.get((a, b), 0), per_pair)
                      for a, b in permutations(range(k), 2)},
        }
        if refined:
            edges = oracles.refined_edge_counts(evaluate, n, k, i)
            row["refined_same_pair"] = {
                f"{a + 1}-{b + 1}": frac(edges.get((a, b, (a, b)), 0), 2 * size)
                for a, b in combinations(range(k), 2)}
            row["refined_all_transpositions"] = {
                f"{a + 1}-{b + 1}": frac(sum(c for (x, y, _z), c in edges.items()
                                             if (x, y) == (a, b)), 2 * size)
                for a, b in combinations(range(k), 2)}
        report[str(i + 1)] = row
    return report


@pytest.mark.parametrize("n, k", [(2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("rule", ["random:7", "borda", "plurality"])
def test_influences_report_matches_oracle(rule, n, k):
    if rule == "borda":
        evaluate = oracles.borda_tuple
    elif rule == "plurality":
        evaluate = oracles.plurality_tuple
    else:
        lookup = dict(zip(oracles.all_profiles(n, k), random_table_scf(n, k, 7).table()))
        evaluate = lookup.__getitem__
    for refined in (False, True):
        argv = ["influences", "--rule", rule, "-n", str(n), "-k", str(k)]
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(argv + ["--refined"] * refined) == 0
        got = json.loads(buf.getvalue())["result"]["coordinates"]
        assert got == _oracle_influences_report(evaluate, n, k, refined)


@settings(max_examples=15, deadline=None)
@given(subjects(), st.data())
def test_fiber_sets_match_oracle(subject, data):
    f, evaluate = subject
    n, k = f.n, f.k
    a, b = data.draw(st.sampled_from(list(permutations(range(k), 2))))
    for i in range(n):
        assert _decoded(f, local_dictator_sets(f, i, (a, b))) == sorted(
            oracles.local_dictator_profiles(evaluate, n, k, i, a, b))


@settings(max_examples=15, deadline=None)
@given(subjects(PAIR_EDGE_SHAPES), st.data())
def test_local_dictators_match_oracle_at_edge_shapes(subject, data):
    f, evaluate = subject
    a, b = data.draw(st.sampled_from(list(permutations(range(f.k), 2))))
    for i in range(f.n):
        assert _decoded(f, local_dictator_sets(f, i, (a, b))) == sorted(
            oracles.local_dictator_profiles(evaluate, f.n, f.k, i, a, b))


@settings(max_examples=15, deadline=None)
@given(subjects(SHAPES + PAIR_EDGE_SHAPES), st.data())
def test_fiber_sweeps_match_oracle(subject, data):
    f, evaluate = subject
    n, k = f.n, f.k
    a, b = data.draw(st.sampled_from(list(permutations(range(k), 2))))
    gamma = Fraction(data.draw(st.integers(0, 8)), 8)
    for i in range(n):
        for pair in ((a, b), (b, a)):
            for variant in FiberVariant:
                refined = variant is FiberVariant.REFINED
                records = fiber_sweep(f, i, pair, variant, gamma)
                bits = n - refined
                assert [rec.key for rec in records] == [
                    tuple(1 if mask >> j & 1 else -1 for j in range(bits))
                    for mask in range(1 << bits)]
                assert {rec.key: [rec.member_count, rec.boundary_count] for rec in records} == (
                    oracles.fiber_counts(evaluate, n, k, i, *pair, refined))
                for rec in records:
                    assert rec.large == (Fraction(rec.boundary_count, rec.member_count) >= 1 - gamma)


def _rule_scfs(n, k, count, seed=0):
    """``count`` (n, k) SCFs cycling through the rule kinds, the seeded ones drawn anew."""
    rng = random.Random(seed)
    kinds = KINDS if k > 1 else KINDS[:-1]
    scfs = []
    for t in range(count):
        kind = kinds[t % len(kinds)]
        if kind == "random":
            scfs.append(random_table_scf(n, k, rng.randrange(10 ** 6)))
        elif kind == "plurality":
            scfs.append(Plurality(n, k))
        elif kind == "borda":
            scfs.append(Borda(n, k))
        elif kind == "top":
            H = [x for x in range(k) if rng.random() < 0.5] or [rng.randrange(k)]
            scfs.append(TopHDictator(n, k, rng.randrange(n), H))
        else:
            scfs.append(random_monotone_two_valued(n, k, rng.randrange(10 ** 6)))
    return scfs


@pytest.mark.parametrize("n, k", SHAPES + EDGE_SHAPES)
def test_block_census_equals_the_census_of_each_table(n, k):
    # A block of one table, a full sweep block, and a sweep's full block
    # followed by a partial one each give every table its own census.
    # The census taken alone is that of a copy of the table in no block.
    full = max(1, verify.SWEEP_BLOCK_BYTES // factorial(k) ** n)
    scfs = _rule_scfs(n, k, full + 3)
    rs = [2, 3, 4, 5]
    cap = scfs[0].cap
    memo = {}

    def alone(f, widths):
        key = (f.table(), tuple(widths))
        if key not in memo:
            memo[key] = census(TableSCF(n, k, f.table()), widths)
        return memo[key]

    assert census_tables([scfs[0].table()], n, k, rs, cap) == [alone(scfs[0], rs)]
    block = census_tables([f.table() for f in scfs[:full]], n, k, rs, cap)
    assert block == [alone(f, rs) for f in scfs[:full]]
    measured = list(verify.measured_instances(scfs.__getitem__, 0, len(scfs), n, k))
    widths = range(2, max(k, 2) + 1)
    assert [t for t, _m in measured] == list(range(len(scfs)))
    for f, (_t, m) in zip(scfs, measured):
        assert m.f is f
        assert m.census(widths) == alone(f, widths)


def _oracle_counts(f):
    """The oracle's rank counts per voter, fiber counts per ordered pair, and
    transition matrices (diagonal included) per voter, of f's table."""
    n, k = f.n, f.k
    evaluate = oracles.table_evaluator(f)
    ranks = [tuple(map(tuple, oracles.rank_outcome_counts(evaluate, n, k, i))) for i in range(n)]
    fibers = {pair: tuple(map(tuple, oracles.fiber_outcome_counts(evaluate, n, k, *pair)))
              for pair in permutations(range(k), 2)}
    moves = []
    for i in range(n):
        counts = oracles.transition_counts(evaluate, n, k, i)
        moves.append([[counts.get((a, b), 0) for b in range(k)] for a in range(k)])
    return ranks, fibers, moves


@pytest.mark.parametrize("n, k", SHAPES + EDGE_SHAPES)
def test_block_counts_equal_the_oracle_per_instance(monkeypatch, n, k):
    # Blocks of one, two and five tables; then sweep blocks of three over seven
    # instances, so instances 2 and 3, and 5 and 6, lie on either side of a
    # boundary, each reading its counts from its own block.
    scfs = _rule_scfs(n, k, 7, seed=10 * n + k)
    expected = [_oracle_counts(f) for f in scfs]
    for count in (1, 2, 5):
        tables, want = [f.table() for f in scfs[:count]], expected[:count]
        for i in range(n):
            assert rank_outcome_counts(tables, n, k, i) == [ranks[i] for ranks, _, _ in want]
            assert transition_counts(tables, n, k, i) == [moves[i] for _, _, moves in want]
        for pair in permutations(range(k), 2):
            assert fiber_outcome_counts(tables, n, k, *pair) == [
                fibers[pair] for _, fibers, _ in want]
    monkeypatch.setattr(verify, "SWEEP_BLOCK_BYTES", 3 * factorial(k) ** n)
    measured = list(verify.measured_instances(scfs.__getitem__, 0, len(scfs), n, k))
    for (_t, m), (ranks, fibers, moves) in zip(measured, expected):
        assert [m.f.counted(rank_outcome_counts, i) for i in range(n)] == ranks
        assert [CoordinateInfluences(m.f, i).moves for i in range(n)] == moves
        assert {pair: m.f.counted(fiber_outcome_counts, *pair) for pair in fibers} == fibers


@pytest.mark.parametrize("n, k", [(4, 3), (5, 3), (2, 5), (1, 6)])
def test_block_counts_past_a_byte_lane_equal_the_counts_of_each_table(n, k):
    # A table's lines pass 255 at (5, 3), and its transition sums pass a byte
    # lane at every shape here, so the block sums run in wider lanes.
    scfs = _rule_scfs(n, k, 3, seed=n + k)
    tables = [f.table() for f in scfs]
    for i in range(n):
        assert rank_outcome_counts(tables, n, k, i) == [
            rank_outcome_counts([t], n, k, i)[0] for t in tables]
        assert transition_counts(tables, n, k, i) == [
            transition_counts([t], n, k, i)[0] for t in tables]
    for pair in [(0, 1), (k - 1, 0)]:
        assert fiber_outcome_counts(tables, n, k, *pair) == [
            fiber_outcome_counts([t], n, k, *pair)[0] for t in tables]


def _verify_report(argv, tasks):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["verify", *argv, "--tasks", str(tasks)]) == 0
    return buf.getvalue()


@pytest.mark.parametrize("count", [27, 28, 29])
def test_random_sweep_report_is_the_same_across_tasks_and_blocks(monkeypatch, count):
    # 28 tables of 36 bytes fill a sweep block at n = 2, k = 3; one table a
    # block, as a census per SCF takes them, gives the same report.
    assert verify.SWEEP_BLOCK_BYTES // 36 == 28
    argv = ["--thm", "1.2", "--random", str(count), "--seed", "3", "-n", "2", "-k", "3"]
    report = _verify_report(argv, 1)
    assert json.loads(report)["result"]["total"] == count
    assert _verify_report(argv, 2) == report
    with monkeypatch.context() as m:
        m.setattr(verify, "SWEEP_BLOCK_BYTES", 1)
        assert _verify_report(argv, 1) == report


def test_exhaustive_sweep_report_is_the_same_across_tasks_and_blocks(monkeypatch):
    argv = ["--thm", "1.4", "--exhaustive", "-k", "3"]
    report = _verify_report(argv, 1)
    assert json.loads(report)["result"]["total"] == 729
    assert _verify_report(argv, 2) == report
    # The 729 functions span five blocks of the default 170, the last one
    # partial; one a block and blocks of 100 give the same report.
    for block_bytes in (1, 600):
        with monkeypatch.context() as m:
            m.setattr(verify, "SWEEP_BLOCK_BYTES", block_bytes)
            assert _verify_report(argv, 1) == report


def test_sweep_instances_across_a_block_boundary_match_the_one_instance_checks():
    # 4 tables of 216 bytes fill a block at n = 3, k = 3, and 170 one-voter
    # tables of 6 bytes at k = 3.
    assert verify.SWEEP_BLOCK_BYTES // 216 == 4
    swept = [(t, [r.describe() for r in reports])
             for t, reports in verify.random_table_reports(3, 3, 5, 10, 40)]
    # Each instance checked alone is the one-instance range t..t+1.
    assert swept == [(t, [r.describe() for r in reports]) for t in range(10, 40)
                     for _t, reports in verify.random_table_reports(3, 3, 5, t, t + 1)]
    rows = list(verify.one_voter_rows(3, 0, 729))
    assert rows == [row for t in range(729) for row in verify.one_voter_rows(3, t, t + 1)]


def _failing_verify_report(argv, tasks, bundle_dir):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["verify", *argv, "--tasks", str(tasks),
                         "--bundle-dir", str(bundle_dir)]) == 3
    return buf.getvalue()


def _make_every_instance_fail(monkeypatch):
    # No census fraction reaches a bound of 2, and no influence the 2.1
    # threshold of 2; 1.5's distance branch fails against a cubed threshold of
    # 0, and its manipulation branch reads the census (m3 >= alpha), so every
    # census fraction reads 0.
    bounds = dict(verify._BOUNDS)
    for statement in ("1.2", "1.4", "2.1"):
        bounds[statement] = (bounds[statement][0], lambda p: Fraction(2))
    bounds["1.5"] = (bounds["1.5"][0], lambda p: Fraction(0))
    monkeypatch.setattr(verify, "_BOUNDS", bounds)
    monkeypatch.setattr(verify.ManipulationCensus, "fraction", lambda self, r: Fraction(0))


def test_failure_rows_are_the_same_across_tasks_and_blocks(monkeypatch, tmp_path):
    _make_every_instance_fail(monkeypatch)
    random_argv = ["--thm", "1.2", "--random", "30", "--seed", "3", "-n", "2", "-k", "3"]
    exhaustive_argv = ["--thm", "1.4", "--exhaustive", "-k", "3"]
    for argv in (random_argv, exhaustive_argv):
        report = _failing_verify_report(argv, 1, tmp_path)
        assert _failing_verify_report(argv, 2, tmp_path) == report
        with monkeypatch.context() as m:
            m.setattr(verify, "SWEEP_BLOCK_BYTES", 1)
            assert _failing_verify_report(argv, 1, tmp_path) == report
            assert _failing_verify_report(argv, 2, tmp_path) == report
        if argv is random_argv:
            random_failures = json.loads(report)["result"]["failures"]
        else:
            one_voter_failures = json.loads(report)["result"]["failures"]

    # The same rows, built one SCF at a time.
    expected = []
    for t in range(30):
        seed = verify.engine.derive_stream_seed(3, t)
        measured = verify.Measurements(random_table_scf(2, 3, seed))
        reports = [*verify.verify_main_theorems(measured, ("1.2",)),
                   verify.verify_lemma_influences(measured, statement="2.1"),
                   verify.verify_thm_1_5(measured)]
        assert not any(r.holds for r in reports)
        expected.append({"instance": t, "seed": seed, "reports": [r.describe() for r in reports]})
    assert random_failures == expected
    assert len(one_voter_failures) == 729
    for t, row in enumerate(one_voter_failures):
        measured = verify.Measurements(verify.one_voter_function(3, t))
        [report] = verify.verify_main_theorems(measured, ("1.4",))
        described = report.describe()
        assert not report.holds
        assert (row["function_index"], row["m3"], row["bound"], row["epsilon"]) == (
            t, described["lhs"], described["rhs"], described["witnesses"]["epsilon"])
