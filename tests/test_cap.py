"""The table cap is set once, when an SCF is built, and every consumer reads it.

Borda at (3,3) has 216 table entries: built with ``cap=215`` every consumer
refuses, whatever ran on the SCF before; built with ``cap=216`` every consumer
answers as with the default cap.
"""
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from votemanip import fibers, graphs, manip, rankings, scf
from votemanip.errors import CapExceededError
from votemanip.fibers import FiberVariant, fiber_sweep, local_dictator_sets
from votemanip.graphs import (
    CoordinateInfluences,
    GraphKind,
    refined_edge_counts,
    transition_counts,
)
from votemanip.manip import (
    census,
    exact_pair_probability,
    gs_classify,
    nonmanip_membership,
    sample_success,
)
from votemanip.metrics import distance_to_nonmanip, distance_to_nonmanip_bar
from votemanip.scf import (
    DEFAULT_TABLE_CAP,
    Borda,
    WINNER_TABLE_ENTRIES,
    MonotoneTwoValued,
    Plurality,
    TopHDictator,
    dump_scf_table,
    is_anonymous,
    random_table_scf,
)
from votemanip.verify import Measurements

GAMMA = Fraction(1, 3)


def borda(cap):
    return Borda(3, 3, cap=cap)


def majority(cap):
    """Two-valued: 0 where at least two voters put 0 above 1, else 1."""
    return MonotoneTwoValued(3, 3, (0, 1), [0 if m.bit_count() >= 2 else 1 for m in range(8)],
                             cap=cap)


def dumped(f) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        dump_scf_table(f, path)
        return path.read_text()


def as_scf(g):
    return None if g is None else (g.describe(), g.table())


# name -> (builder, consumer returning a comparable answer)
CONSUMERS = {
    "table": (borda, lambda f: f.table()),
    "range": (borda, lambda f: f.range()),
    # The record of key (+1, -1, +1), mask 0b101.
    "boundary_fiber": (borda, lambda f: fiber_sweep(f, 0, (0, 1), FiberVariant.PLAIN,
                                                    GAMMA)[0b101]),
    "fiber_sweep": (borda, lambda f: fiber_sweep(f, 2, (1, 2), FiberVariant.REFINED, GAMMA)),
    "local_dictator_sets": (borda, lambda f: local_dictator_sets(f, 0, (0, 1))),
    "boundary_count": (borda, lambda f: CoordinateInfluences(f, 2).count(
        0, kind=GraphKind.REFINED)),
    "transition_counts": (borda, lambda f: f.counted(transition_counts, 0)),
    "refined_edge_counts": (borda, lambda f: refined_edge_counts(f, 1)),
    "census": (borda, lambda f: census(f)),
    "exact_pair_probability": (borda, lambda f: exact_pair_probability(f, 3)),
    "nonmanip_membership": (borda, lambda f: as_scf(nonmanip_membership(f))),
    "gs_classify": (borda, lambda f: gs_classify(f).describe()),
    "coordinate_influences": (borda, lambda f: [
        (inf := CoordinateInfluences(f, 0)).moves, inf.edges]),
    "influence_total": (borda, lambda f: sum(map(CoordinateInfluences(f, 1).influence,
                                                 range(3)))),
    "influence_target": (borda, lambda f: CoordinateInfluences(f, 1).influence(2)),
    "influence_pair": (borda, lambda f: CoordinateInfluences(f, 2).influence(1, 0)),
    "influence_refined": (borda, lambda f: CoordinateInfluences(f, 0).influence(
        0, 1, GraphKind.SWAP)),
    "influence_refined_total": (borda, lambda f: CoordinateInfluences(f, 0).influence(
        1, 2, GraphKind.REFINED)),
    "distance_to_nonmanip": (borda, lambda f: distance_to_nonmanip(f).describe()),
    "distance_to_nonmanip_bar": (borda, lambda f: distance_to_nonmanip_bar(f).describe()),
    "is_anonymous": (borda, is_anonymous),
    "dump_scf_table": (borda, dumped),
    "Measurements.census": (borda, lambda f: Measurements(f).census((2, 3))),
    "Measurements.distance": (borda, lambda f: Measurements(f).distance("nonmanip-bar")),
}


@pytest.mark.parametrize("name", CONSUMERS)
def test_a_consumer_refuses_below_the_table_size_whatever_ran_before(name):
    build, consume = CONSUMERS[name]
    f = build(215)
    with pytest.raises(CapExceededError):
        consume(f)
    for other in ("table", "census", "distance_to_nonmanip_bar", "transition_counts"):
        with pytest.raises(CapExceededError):
            CONSUMERS[other][1](f)
        with pytest.raises(CapExceededError):
            consume(f)


@pytest.mark.parametrize("name", CONSUMERS)
def test_a_consumer_answers_as_before_at_the_table_size(name):
    build, consume = CONSUMERS[name]
    assert consume(build(216)) == consume(build(DEFAULT_TABLE_CAP))


def test_witnesses_and_derived_scfs_carry_the_cap():
    cap = 216
    kinds = set()
    for f in (borda(cap), majority(cap), TopHDictator(3, 3, 0, {0, 2}, cap=cap),
              random_table_scf(3, 3, 0, cap)):
        gs = gs_classify(f)
        derived = [distance_to_nonmanip(f).witness, distance_to_nonmanip_bar(f).witness,
                   nonmanip_membership(f), gs.witness_member]
        derived = [g for g in derived if g is not None]
        assert [g.cap for g in derived] == [cap] * len(derived)
        kinds |= {type(g).__name__ for g in derived}
    # Every kind of witness the distances and membership build.
    assert kinds == {"OneCoordinate", "TableSCF", "TopHDictator", "MonotoneTwoValued"}


# Borda (1,5) has 120 table entries. Local dictators (36 profiles on pair 0, 1)
# read window_moves(5, 3), 120 * 3 * 6 = 2160 entries; refined edges and refined
# fibers read the swaps of window_moves(5, 2), 120 * 4 * 2 = 960 entries. The
# default census reads window_moves(5, w) for w = 2, 3 and 4, the largest
# 120 * 2 * 24 = 5760 entries; gs_classify reads no move table, only the table.
MOVE_TABLE_CALLS = {
    "census": (5760, census),
    "gs_classify": (120, lambda f: gs_classify(f).describe()),
    "local_dictator_sets": (2160, lambda f: local_dictator_sets(f, 0, (0, 1))),
    "refined_edge_counts": (960, lambda f: refined_edge_counts(f, 0)),
    "refined_fiber_sweep": (960, lambda f: fiber_sweep(f, 0, (0, 1), FiberVariant.REFINED,
                                                       GAMMA)),
}


@pytest.mark.parametrize("name", MOVE_TABLE_CALLS)
def test_move_tables_past_the_cap_are_refused_before_any_table(monkeypatch, name):
    entries, call = MOVE_TABLE_CALLS[name]

    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    with monkeypatch.context() as patch:
        for module in (rankings, fibers, graphs, manip):
            for table in ("window_moves", "ranks_adjacent_above"):
                if hasattr(module, table):
                    patch.setattr(module, table, refuse)
        patch.setattr(Borda, "_build_table", refuse)
        with pytest.raises(CapExceededError):
            call(Borda(1, 5, cap=entries - 1))
    assert call(Borda(1, 5, cap=entries)) == call(Borda(1, 5))


def test_the_sampler_builds_no_table_past_the_cap(monkeypatch):
    # Borda (4,5) has 2.1e8 profiles, past the default cap; the refusal waits
    # for a table, which the sampler never asks for.
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(Borda, "_build_table", refuse)
    f = Borda(4, 5)
    assert sample_success(f, 50, seed=1).samples == 50
    with pytest.raises(CapExceededError):
        f.table()


def test_the_sampler_refuses_per_ranking_tables_past_the_cap(monkeypatch):
    # The sampler's per-ranking tables hold k * k! entries: 600 at k = 5, and
    # 36,288,000 at k = 10, past the default cap of 10^7; 3,265,920 at k = 9.
    def refuse(*args, **kwargs):
        raise AssertionError("a sampler table was built")

    for f in (Borda(2, 5, cap=599), Borda(2, 10)):
        with monkeypatch.context() as patch:
            patch.setattr(manip, "window_blocks", refuse)
            patch.setattr(manip, "ranking_positions", refuse)
            with pytest.raises(CapExceededError):
                sample_success(f, 10, seed=0)
    assert sample_success(Borda(2, 5, cap=600), 10, seed=0).samples == 10


def test_the_sampler_fills_per_rank_tables_only_for_the_ranks_it_draws(monkeypatch):
    # 9! = 362,880 rankings, under the cap's k * k! check: ranking_orders(9)
    # alone would hold about 45 MiB. A draw decodes the ranks it reads, so
    # no k!-sized table is built and the traced peak stays a few MiB (the
    # window moves of rankings.window_blocks(9, 4) are most of it).
    tables = {name: getattr(rankings, name) for name in ("ranking_orders", "ranking_positions")}

    def small_only(name):
        def table(k):
            assert k < 9, f"{name} built a k!-sized table at k={k}"
            return tables[name](k)
        return table

    for module in (rankings, scf, manip):
        monkeypatch.setattr(module, "ranking_orders", small_only("ranking_orders"))
    for module in (rankings, manip):
        monkeypatch.setattr(module, "ranking_positions", small_only("ranking_positions"))
    for f in (Borda(2, 9), TopHDictator(2, 9, 0, {1, 4})):
        tracemalloc.start()
        try:
            assert sample_success(f, 10, seed=0).samples == 10
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


def test_a_raised_cap_keeps_no_winner_table_past_its_bound():
    # Sampling at k = 11 needs a cap of at least 11 * 11! = 439,084,800, which
    # would admit Plurality (4,11)'s 5^10 = 9,765,625 winners per score
    # vector; the move read's bound is WINNER_TABLE_ENTRIES whatever the cap,
    # so a draw decodes its score codes. Plurality (2,11)'s 3^10 table is under
    # the bound; drawing from it first fills the shared window-move caches,
    # so the traced peak is the draws' own.
    assert sample_success(Plurality(2, 11, cap=10 ** 10), 10, seed=0).samples == 10
    tracemalloc.start()
    try:
        assert sample_success(Plurality(4, 11, cap=10 ** 10), 200, seed=0).samples == 200
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WINNER_TABLE_ENTRIES
