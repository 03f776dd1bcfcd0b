import pytest

from votemanip import graphs
from votemanip.errors import CapExceededError
from votemanip.graphs import (
    BoundarySpec,
    GraphKind,
    boundary,
    boundary_count,
    coordinate_influences,
    edge_boundary,
    is_on_boundary,
    neighbors,
    product_vertices,
    refined_edge_counts,
    transition_counts,
    verify_lindsey,
    vertex_boundary,
)
from votemanip.rankings import AdjacentTransposition, Ranking, decode_profile
from votemanip.scf import Borda, Constant, Plurality, TopHDictator, random_table_scf


def test_neighbor_counts():
    one = (Ranking((0, 1, 2)),)
    assert len(neighbors(one, GraphKind.REFINED)) == 2
    two = (Ranking((0, 1, 2)), Ranking((2, 1, 0)))
    assert len(neighbors(two, GraphKind.COARSE)) == 2 * 5
    assert len(neighbors(two, GraphKind.REFINED)) == 2 * 2


def test_coarse_neighbors_build_no_table_of_every_ranks_moves():
    # All ranks' coarse moves at k = 6 are 720 * 719 entries, over 12 MiB.
    import tracemalloc

    prof = (decode_profile(1, 6, 0)[0], decode_profile(1, 6, 719)[0])
    tracemalloc.start()
    try:
        assert len(neighbors(prof, GraphKind.COARSE)) == 2 * 719
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_is_on_boundary_builds_no_offsets_of_other_ranks():
    # Every rank's coarse offsets at k = 5 are 120 * 119 ints, about 500 KiB;
    # one profile's partners are at most 119.
    import tracemalloc

    f = Borda(2, 5)
    table = f.table()
    first, second = decode_profile(2, 5, 0), decode_profile(2, 5, 14399)
    for prof, p in ((first, 0), (second, 14399)):
        spec = BoundarySpec(i=1, a=table[p])
        tracemalloc.start()
        try:
            assert is_on_boundary(f, prof, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 10


def test_refined_subset_of_coarse():
    prof = (Ranking((1, 0, 2, 3)), Ranking((3, 2, 1, 0)))
    coarse = {tuple(r.order for r in p) for p in neighbors(prof, GraphKind.COARSE)}
    refined = {tuple(r.order for r in p) for p in neighbors(prof, GraphKind.REFINED)}
    assert refined < coarse
    assert len(refined) == 2 * 3


def test_constant_has_empty_boundaries():
    f = Constant(2, 3, 0)
    for kind in GraphKind:
        spec = BoundarySpec(i=0, a=0, b=1, kind=kind)
        assert boundary_count(f, spec) == 0


def test_top_dictator_refined_pair_boundaries():
    # One pair per ordered (a, b): the ranking with a on top and b second.
    f = TopHDictator(1, 3, 0, range(3))
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            z = AdjacentTransposition(min(a, b), max(a, b))
            spec = BoundarySpec(i=0, a=a, b=b, z=z, kind=GraphKind.REFINED)
            pairs = boundary(f, spec)
            assert len(pairs) == 1
            sigma, sigma2 = pairs[0]
            assert sigma[0].order[0] == a and sigma[0].order[1] == b
            assert sigma2[0].order[0] == b and sigma2[0].order[1] == a
            assert is_on_boundary(f, sigma, spec)
            assert not is_on_boundary(f, sigma2, spec)


@pytest.mark.parametrize("call", [
    # Three voters, and rankings of four alternatives, for a 2-voter 3-alternative rule.
    lambda f: is_on_boundary(f, decode_profile(3, 3, 0), BoundarySpec(i=0, a=0)),
    lambda f: is_on_boundary(f, decode_profile(2, 4, 0), BoundarySpec(i=0, a=0)),
    # Alternatives past k = 3.
    lambda f: boundary_count(f, BoundarySpec(i=0, a=5)),
    lambda f: boundary(f, BoundarySpec(i=0, a=5)),
    lambda f: boundary(f, BoundarySpec(i=0, a=0, b=5)),
    lambda f: boundary(f, BoundarySpec(i=0, a=0, z=AdjacentTransposition(0, 5),
                                       kind=GraphKind.REFINED)),
], ids=["three-voters", "k4-profile", "count-a5", "boundary-a5", "boundary-b5", "boundary-z5"])
def test_boundary_functions_reject_inputs_outside_the_rule(call):
    with pytest.raises(ValueError):
        call(Plurality(2, 3))


# Reads of coordinate 0's counts, each given a, b, a transposition z and a
# kind, and using those it takes.
COUNT_READS = {
    "count": lambda f, a, b, z, kind: coordinate_influences(f, 0).count(a, b, z, kind),
    "boundary_count": lambda f, a, b, z, kind: boundary_count(f, BoundarySpec(0, a, b, z, kind)),
    "pair": lambda f, a, b, z, kind: coordinate_influences(f, 0).pair(a, b),
    "refined": lambda f, a, b, z, kind: coordinate_influences(f, 0).refined(
        a, b, z or AdjacentTransposition(0, 1)),
    "refined_all": lambda f, a, b, z, kind: coordinate_influences(f, 0).refined_all(a, b),
    "target": lambda f, a, b, z, kind: coordinate_influences(f, 0).target(a),
}
SPECS = ("count", "boundary_count")
PAIRS = (*SPECS, "pair", "refined", "refined_all")
COARSE, REFINED = GraphKind
# case -> (a, b, z, kind), and the reads that take all of them.
BAD_SELECTIONS = {
    "equal pair": ((0, 0, None, COARSE), PAIRS),
    "equal refined pair": ((1, 1, None, REFINED), SPECS),
    "negative a": ((-1, 0, None, COARSE), (*PAIRS, "target")),
    "negative b": ((0, -1, None, REFINED), PAIRS),
    "a past k": ((3, None, None, REFINED), (*SPECS, "target")),
    "b past k": ((0, 7, None, COARSE), PAIRS),
    "z past k": ((0, 1, AdjacentTransposition(0, 9), REFINED), (*SPECS, "refined")),
    "negative z": ((0, 1, AdjacentTransposition(-1, 0), REFINED), (*SPECS, "refined")),
    "z on a coarse read": ((0, 1, AdjacentTransposition(0, 1), COARSE), SPECS),
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
        coordinate_influences(Plurality(2, 3), i)


def test_boundary_pairs_check_the_spec_when_called():
    with pytest.raises(ValueError, match="coordinate out of range"):
        graphs.iter_boundary_index_pairs(Plurality(2, 3), BoundarySpec(i=2, a=0))


@pytest.mark.parametrize("i", [-1, 2])
def test_is_on_boundary_rejects_coordinate_out_of_range(i):
    f = Plurality(2, 3)
    for index in range(36):
        spec = BoundarySpec(i=i, a=f.table()[index])
        with pytest.raises(ValueError, match="coordinate out of range"):
            is_on_boundary(f, decode_profile(2, 3, index), spec)
    for count in (transition_counts, refined_edge_counts):
        with pytest.raises(ValueError, match="coordinate out of range"):
            count(f, i)


def test_lane_group_size_does_not_change_transition_counts(monkeypatch):
    # Per-line counts summed over groups of any size, down to one rank, give the
    # same counts as one group of all k! ranks.
    subjects = [Borda(3, 3), Plurality(2, 4), random_table_scf(2, 4, 3)]

    def counts():
        return [transition_counts(f, i) for f in subjects for i in range(f.n)]

    expected = counts()
    for group in (1, 2, 5):
        monkeypatch.setattr(graphs, "LANE_GROUP", group)
        assert counts() == expected


def test_refined_pairs_require_adjacency():
    f = random_table_scf(2, 3, 31)
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            z = AdjacentTransposition(min(a, b), max(a, b))
            spec = BoundarySpec(i=1, a=a, b=b, z=z, kind=GraphKind.REFINED)
            for sigma, sigma2 in boundary(f, spec):
                pa, pb = sigma[1].inv[a], sigma[1].inv[b]
                assert abs(pa - pb) == 1


def test_transposition_partition_of_refined_boundary():
    f = random_table_scf(2, 3, 77)
    for i in range(2):
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                total = boundary_count(f, BoundarySpec(i=i, a=a, b=b, kind=GraphKind.REFINED))
                split = sum(
                    boundary_count(f, BoundarySpec(
                        i=i, a=a, b=b, z=AdjacentTransposition(x, y), kind=GraphKind.REFINED))
                    for x in range(3) for y in range(x + 1, 3)
                )
                assert total == split


def test_boundary_symmetry_both_kinds():
    f = random_table_scf(2, 3, 5)
    for kind in GraphKind:
        fwd = set(map(tuple, (
            (tuple(r.order for r in p), tuple(r.order for r in q))
            for p, q in boundary(f, BoundarySpec(i=0, a=0, b=1, kind=kind))
        )))
        back = set(map(tuple, (
            (tuple(r.order for r in q), tuple(r.order for r in p))
            for p, q in boundary(f, BoundarySpec(i=0, a=1, b=0, kind=kind))
        )))
        assert fwd == back


def test_outcome_boundary_counts_bichromatic_edges_twice():
    f = random_table_scf(2, 3, 13)
    table = f.table()
    directional = sum(
        boundary_count(f, BoundarySpec(i=i, a=a, kind=GraphKind.COARSE))
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


def test_edge_boundary_examples():
    sizes = (3, 3)
    everything = set(product_vertices(sizes))
    assert edge_boundary(set(), sizes) == 0
    assert edge_boundary(everything, sizes) == 0
    assert edge_boundary({(0, 0)}, sizes) == 4
    row = {(0, c) for c in range(6)}
    assert edge_boundary(row, (6, 6)) == 30
    assert vertex_boundary(row, (6, 6)) == row
    assert vertex_boundary(everything, sizes) == set()


def test_complete_graph_cut():
    for size in range(1, 6):
        A = {(v,) for v in range(size)}
        assert edge_boundary(A, (6,)) == size * (6 - size)


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
    from math import factorial

    for k in (3, 4):
        for n in (1, 2, 3):
            size = factorial(k) ** n
            indices = range(size) if size <= 1296 else range(0, size, 97)
            for index in indices:
                prof = decode_profile(n, k, index)
                assert len(neighbors(prof, GraphKind.COARSE)) == n * (factorial(k) - 1)
                assert len(neighbors(prof, GraphKind.REFINED)) == n * (k - 1)
