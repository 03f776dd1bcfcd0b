from math import factorial

import pytest

import oracles

from votemanip import graphs
from votemanip.errors import CapExceededError
from votemanip.graphs import (
    CoordinateInfluences,
    GraphKind,
    product_neighbors,
    refined_edge_counts,
    transition_counts,
    verify_lindsey,
)
from votemanip.rankings import (
    decode_profile,
    ranking_orders,
)
from votemanip.scf import Borda, Constant, Plurality, TopHDictator, random_table_scf


# The coarse graph on profiles is the product of n complete graphs on the k!
# ranks (product_neighbors); the refined graph keeps the adjacent swaps
# (oracles.all_adjacent_transpositions) of one voter's ranking.
def coarse_neighbors(ranks, k):
    return list(product_neighbors(tuple(ranks), (factorial(k),) * len(ranks)))


def refined_neighbors(ranks, k):
    orders = ranking_orders(k)
    swapped = [[oracles.apply_adjacent_transposition(orders[r], t)
                for t in oracles.all_adjacent_transpositions(k)] for r in ranks]
    return [ranks[:i] + (oracles.encode_ranking(order),) + ranks[i + 1:]
            for i, r in enumerate(ranks) for order in swapped[i] if order != orders[r]]


def test_neighbor_counts():
    rank = ranking_orders(3).index
    one = (rank((0, 1, 2)),)
    assert len(refined_neighbors(one, 3)) == 2
    two = (rank((0, 1, 2)), rank((2, 1, 0)))
    assert len(coarse_neighbors(two, 3)) == 2 * 5
    assert len(refined_neighbors(two, 3)) == 2 * 2


def test_refined_subset_of_coarse():
    rank = ranking_orders(4).index
    prof = (rank((1, 0, 2, 3)), rank((3, 2, 1, 0)))
    coarse = set(coarse_neighbors(prof, 4))
    refined = set(refined_neighbors(prof, 4))
    assert refined < coarse
    assert len(refined) == 2 * 3
    # So the refined edges leaving a for b are some of the coarse ones, and
    # those swapping a and b some of the refined ones.
    for f in (random_table_scf(2, 3, 4), Borda(2, 4)):
        for i in range(2):
            [moves] = transition_counts([f.table()], f.n, f.k, i)
            every, swap = refined_edge_counts(f, i)
            for a in range(f.k):
                for b in range(f.k):
                    if a != b:
                        assert swap[a][b] <= every[a][b] <= moves[a][b]


def test_constant_has_empty_boundaries():
    f = Constant(2, 3, 0)
    for kind in GraphKind:
        assert CoordinateInfluences(f, 0).count(0, 1, kind=kind) == 0


def test_top_dictator_refined_pair_boundaries():
    # One pair per ordered (a, b): the ranking with a on top and b second.
    f = TopHDictator(1, 3, 0, range(3))
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            assert CoordinateInfluences(f, 0).count(a, b, GraphKind.SWAP) == 1


@pytest.mark.parametrize("call", [
    lambda f: CoordinateInfluences(f, 0).count(5),
], ids=["count-a5"])
def test_boundary_functions_reject_inputs_outside_the_rule(call):
    with pytest.raises(ValueError):
        call(Plurality(2, 3))


def made(f, i):
    """Coordinate i's influences with both its counts already made."""
    inf = CoordinateInfluences(f, i)
    inf.moves, inf.edges
    return inf


# Reads of coordinate 0's counts, each given a, b and a kind, and using those
# it takes: the checked count, and the influences of the report's rows.
COUNT_READS = {
    "count": lambda f, a, b, kind: CoordinateInfluences(f, 0).count(a, b, kind),
    # A boundary count read after the counts are made, as verify reads them.
    "boundary_count": lambda f, a, b, kind: made(f, 0).count(a, b, kind),
    "pair": lambda f, a, b, kind: CoordinateInfluences(f, 0).influence(a, b),
    "refined": lambda f, a, b, kind: CoordinateInfluences(f, 0).influence(a, b, SWAP),
    "refined_all": lambda f, a, b, kind: CoordinateInfluences(f, 0).influence(a, b, REFINED),
    "target": lambda f, a, b, kind: CoordinateInfluences(f, 0).influence(a),
}
SPECS = ("count", "boundary_count")
PAIRS = (*SPECS, "pair", "refined", "refined_all")
COARSE, REFINED, SWAP = GraphKind
# case -> (a, b, kind), and the reads that take all of them. A swap read's
# transposition z is the pair (a, b) itself.
BAD_SELECTIONS = {
    "equal pair": ((0, 0, COARSE), PAIRS),
    "equal refined pair": ((1, 1, REFINED), SPECS),
    "equal swap pair": ((2, 2, SWAP), SPECS),
    "negative a": ((-1, 0, COARSE), (*PAIRS, "target")),
    "negative b": ((0, -1, REFINED), PAIRS),
    "a past k": ((3, None, REFINED), (*SPECS, "target")),
    "b past k": ((0, 7, COARSE), PAIRS),
    "z past k": ((0, 9, SWAP), (*SPECS, "refined")),
    "negative z": ((-1, 2, SWAP), (*SPECS, "refined")),
}


@pytest.mark.parametrize("read, case", [
    (read, case) for case, (_selection, reads) in BAD_SELECTIONS.items() for read in reads])
def test_every_count_read_refuses_a_selection_outside_the_rule(read, case):
    # Unchecked, pair(0, 0) reads the diagonal, a negative id indexes from the
    # end, and an id past k gives IndexError or a count of 0.
    selection, _reads = BAD_SELECTIONS[case]
    with pytest.raises(ValueError):
        COUNT_READS[read](Plurality(2, 3), *selection)


@pytest.mark.parametrize("i", [-1, 2])
def test_coordinate_influences_checks_the_coordinate_at_once(monkeypatch, i):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(Plurality, "_build_table", refuse)
    with pytest.raises(ValueError, match="coordinate out of range"):
        CoordinateInfluences(Plurality(2, 3), i)


@pytest.mark.parametrize("i", [-1, 2])
def test_edge_counts_reject_coordinate_out_of_range(i):
    f = Plurality(2, 3)
    with pytest.raises(ValueError, match="coordinate out of range"):
        transition_counts([f.table()], f.n, f.k, i)
    with pytest.raises(ValueError, match="coordinate out of range"):
        refined_edge_counts(f, i)


def test_lane_group_size_does_not_change_transition_counts(monkeypatch):
    # Per-line counts summed over groups of any size, down to one rank, give the
    # same counts as one group of all k! ranks.
    subjects = [Borda(3, 3), Plurality(2, 4), random_table_scf(2, 4, 3)]

    def counts():
        return [transition_counts([f.table()], f.n, f.k, i) for f in subjects for i in range(f.n)]

    expected = counts()
    for group in (1, 2, 5):
        monkeypatch.setattr(graphs, "LANE_GROUP", group)
        assert counts() == expected


def test_transposition_partition_of_refined_boundary():
    # The refined edges from a to b split by the transposition that makes
    # them: the refined count is their sum, the swap count the part of (a, b).
    f = random_table_scf(2, 3, 77)
    for i in range(2):
        inf = CoordinateInfluences(f, i)
        edges = oracles.refined_edge_counts(oracles.table_evaluator(f), 2, 3, i)
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                split = {z: edges.get((a, b, z), 0) for z in ((0, 1), (0, 2), (1, 2))}
                assert inf.count(a, b, GraphKind.REFINED) == sum(split.values())
                assert inf.count(a, b, GraphKind.SWAP) == split[min(a, b), max(a, b)]


def test_boundary_symmetry_both_kinds():
    # Each edge between outcomes a and b leaves a one way and b the other.
    f = random_table_scf(2, 3, 5)
    inf = CoordinateInfluences(f, 0)
    for kind in GraphKind:
        assert inf.count(0, 1, kind=kind) == inf.count(1, 0, kind=kind) > 0


def test_outcome_boundary_counts_bichromatic_edges_twice():
    f = random_table_scf(2, 3, 13)
    table = f.table()
    directional = sum(
        CoordinateInfluences(f, i).count(a)
        for i in range(2) for a in range(3)
    )
    # Independent undirected count over coarse edges.
    undirected = 0
    for p in range(len(table)):
        for i, stride in ((0, 6), (1, 1)):
            rho = (p // stride) % 6
            base = p - rho * stride
            for rho2 in range(rho + 1, 6):
                if table[p] != table[base + rho2 * stride]:
                    undirected += 1
    assert directional == 2 * undirected


def test_lindsey_exhaustive_k3_squared():
    report = verify_lindsey(3, 2, exhaustive=True)
    assert report.holds
    assert report.violations == 0
    assert report.size_limit == 6
    assert report.min_slack is not None and report.min_slack >= 0


def test_lindsey_lexicographic_k6_squared():
    report = verify_lindsey(6, 2, exhaustive=False)
    assert report.holds
    assert report.sets_checked == 30


def test_lindsey_exhaustive_cap():
    with pytest.raises(CapExceededError):
        verify_lindsey(6, 2, exhaustive=True)


def test_neighbor_degrees_small_shapes():
    for k in (3, 4):
        for n in (1, 2, 3):
            size = factorial(k) ** n
            indices = range(size) if size <= 1296 else range(0, size, 97)
            for index in indices:
                ranks = tuple(map(ranking_orders(k).index, decode_profile(n, k, index)))
                assert len(coarse_neighbors(ranks, k)) == n * (factorial(k) - 1)
                assert len(refined_neighbors(ranks, k)) == n * (k - 1)
