import json
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from votemanip import manip, verify
from votemanip.errors import CapExceededError
from votemanip.manip import census
from votemanip.graphs import CoordinateInfluences, GraphKind
from votemanip.metrics import frac_str
from votemanip.scf import (
    Block,
    OneCoordinate,
    Plurality,
    TableSCF,
    TopHDictator,
    random_table_scf,
)
from votemanip.verify import (
    STATEMENTS,
    BoundParams,
    Measurements,
    bound_value,
    check_statement,
    one_voter_function,
    sweep_one_voter,
    sweep_random_tables,
    verify_reverse_hypercontractivity,
    verify_statement,
    write_counterexample,
    VerificationReport,
)


def test_bound_value_pins():
    assert bound_value("1.4", BoundParams(k=3, epsilon=Fraction(1))) == Fraction(1, 4304672100000)
    assert bound_value("2.1", BoundParams(n=2, k=3, epsilon=Fraction(1, 2))) == Fraction(1, 36)
    assert bound_value("1.2", BoundParams(n=5, k=4, epsilon=Fraction(0))) == 0
    eps = Fraction(1, 3)
    assert bound_value("3.1", BoundParams(n=2, k=3, epsilon=eps)) == \
        eps ** 5 / (4 * 2 ** 7 * 3 ** 12 * factorial(3) ** 4)
    assert bound_value("7.1", BoundParams(n=2, k=3, epsilon=eps)) == \
        eps ** 5 / (10 ** 9 * 2 ** 7 * 3 ** 46)
    assert bound_value("gamma-coarse", BoundParams(n=2, k=3, epsilon=eps)) == \
        eps ** 3 / (4 * 8 * 3 ** 9)
    assert bound_value("gamma-refined", BoundParams(n=2, k=3, epsilon=eps)) == \
        eps ** 3 / (1000 * 8 * 3 ** 24)
    assert bound_value("1.5", BoundParams(n=2, k=3, alpha=Fraction(1, 36))) == \
        Fraction(10 ** 6 * 2 ** 12 * 3 ** 24, 36)


def test_bound_value_validation():
    with pytest.raises(ValueError):
        bound_value("1.4", BoundParams(k=3))
    with pytest.raises(ValueError):
        bound_value("1.4", BoundParams(k=2, epsilon=Fraction(1, 2)))
    with pytest.raises(ValueError):
        bound_value("nope", BoundParams())
    with pytest.raises(ValueError):
        bound_value("1.2", BoundParams(n=2, k=3, epsilon=Fraction(3, 2)))


def test_bound_monotonicity_grid():
    eps_grid = [Fraction(i, 10) for i in range(11)]
    for statement in ("1.2", "1.4", "3.1", "7.1", "2.1"):
        previous = None
        for eps in eps_grid:
            params = BoundParams(n=2, k=3, epsilon=eps)
            value = bound_value(statement, params)
            assert value >= 0
            if previous is not None:
                assert value >= previous
            previous = value
    for statement in ("1.2", "3.1", "7.1", "2.1"):
        small = bound_value(statement, BoundParams(n=2, k=3, epsilon=Fraction(1, 2)))
        assert bound_value(statement, BoundParams(n=3, k=3, epsilon=Fraction(1, 2))) <= small
        assert bound_value(statement, BoundParams(n=2, k=4, epsilon=Fraction(1, 2))) <= small


# Per statement: a shape it fits, and one it refuses with the message it gives.
SHAPES = {
    "1.2": ((2, 3), (2, 2), "bounds require k >= 3"),
    "1.4": ((1, 3), (2, 3), "statement 1.4 applies to one-voter functions only"),
    "3.1": ((2, 3), (1, 3), "statement 3.1 needs n >= 2"),
    "7.1": ((2, 3), (1, 3), "statement 7.1 needs n >= 2"),
    "1.5": ((1, 3), (1, 2), "bounds require k >= 3"),
    "2.1": ((2, 3), (1, 3), "statement 2.1 needs n >= 2"),
    "5.3": ((2, 3), (1, 3), "statement 5.3 needs n >= 2"),
    "6.1": ((1, 3), (2, 3), "statement 6.1 applies to one-voter functions only"),
}


def test_the_statement_table_lists_the_ids_in_help_order():
    assert list(STATEMENTS) == list(SHAPES)
    with pytest.raises(ValueError, match=r"^unknown statement '9\.9'$"):
        check_statement("9.9", 2, 3)
    with pytest.raises(ValueError, match=r"^unknown statement '9\.9'$"):
        verify_statement(Measurements(random_table_scf(2, 3, 5)), "9.9")


@pytest.mark.parametrize("statement", list(SHAPES))
def test_each_statement_runs_on_a_shape_it_fits_and_refuses_one_it_does_not(statement):
    fits, misfit, message = SHAPES[statement]
    check_statement(statement, *fits)
    report = verify_statement(Measurements(random_table_scf(*fits, 5)), statement)
    assert report.statement == statement and report.holds
    if STATEMENTS[statement][2] is None:
        with pytest.raises(ValueError, match=rf"^statement {statement} takes no value$"):
            verify_statement(Measurements(random_table_scf(*fits, 5)), statement,
                             Fraction(1, 2))
    with pytest.raises(ValueError) as refused:
        check_statement(statement, *misfit)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        verify_statement(Measurements(random_table_scf(*misfit, 5)), statement)
    assert str(refused.value) == message


def test_main_theorems_on_members_and_random():
    member = TopHDictator(2, 3, 0, range(3))
    for statement in ("1.2", "3.1", "7.1"):
        report = verify_statement(Measurements(member), statement)
        assert report.holds
        assert report.rhs == 0  # epsilon is 0
    f = random_table_scf(2, 3, 2024)
    for statement in ("1.2", "3.1", "7.1"):
        assert verify_statement(Measurements(f), statement).holds


def test_main_theorem_one_voter():
    anti = TableSCF(1, 3, [o[-1] for o in permutations(range(3))])
    report = verify_statement(Measurements(anti), "1.4")
    assert report.holds
    assert report.lhs > 0
    with pytest.raises(ValueError):
        verify_statement(Measurements(Plurality(2, 3)), "1.4")
    with pytest.raises(ValueError):
        verify_statement(Measurements(anti), "3.1")


def test_lemma_influences_vacuous_on_members():
    report = verify_statement(Measurements(TopHDictator(2, 3, 0, range(3))), "2.1")
    assert report.holds
    assert any("precondition-not-met" in note for note in report.notes)


def test_lemma_influences_witnesses_random():
    f = random_table_scf(2, 3, 4242)
    for statement in ("2.1", "5.3"):
        report = verify_statement(Measurements(f), statement)
        assert report.holds
        witnesses = report.describe()["witnesses"]
        if "witness" in witnesses:
            first = witnesses["witness"]["first"]
            second = witnesses["witness"]["second"]
            assert first["coordinate"] != second["coordinate"]
            assert second["pair"][0] not in first["pair"]


def test_lemma_influences_qualifying_values(monkeypatch):
    # A zero influence threshold lists every pair; an unreachable 2-manipulation
    # threshold sends 5.3 and 6.1 to their refined-influence branch.
    real = verify.bound_value
    monkeypatch.setattr(verify, "bound_value", lambda sid, params: (
        Fraction(2) if sid.endswith("-manip") else
        Fraction(0) if sid in ("2.1", "5.3-influence", "6.1-influence") else real(sid, params)))
    cases = [(random_table_scf(2, 3, 4242), "2.1"), (random_table_scf(2, 4, 7), "2.1"),
             (random_table_scf(2, 3, 4242), "5.3"), (random_table_scf(2, 4, 7), "5.3"),
             (random_table_scf(1, 4, 3), "6.1")]
    for f, statement in cases:
        report = verify_statement(Measurements(f), statement)
        expected = [
            {"coordinate": i + 1, "pair": [a + 1, b + 1], "influence": frac_str(
                CoordinateInfluences(f, i).influence(
                    a, b, GraphKind.COARSE if statement == "2.1" else GraphKind.SWAP))}
            for i in range(f.n) for a in range(f.k) for b in range(a + 1, f.k)
        ]
        assert report.describe()["witnesses"]["qualifying"] == expected


def test_lemma_influences_one_voter():
    anti = TableSCF(1, 3, [o[-1] for o in permutations(range(3))])
    report = verify_statement(Measurements(anti), "6.1")
    assert report.holds
    with pytest.raises(ValueError):
        verify_statement(Measurements(anti), "2.1")
    with pytest.raises(ValueError):
        verify_statement(Measurements(Plurality(2, 3)), "6.1")


def test_lemma_influences_precondition_violation():
    f = Plurality(2, 3)
    with pytest.raises(ValueError):
        verify_statement(Measurements(f), "2.1", Fraction(99, 100))


def test_thm_1_5_branches():
    # A nonmanipulable member satisfies the distance branch for any alpha > 0.
    member = TopHDictator(2, 3, 0, range(3))
    report = verify_statement(Measurements(member), "1.5", Fraction(1, 100))
    assert report.holds and report.witnesses["distance_branch"]

    # One-coordinate but manipulable: alpha measures 0, the manipulation
    # branch holds trivially and the report flags the degeneracy.
    anti_orders = [o[-1] for o in permutations(range(3))]
    one_coord = OneCoordinate(2, 3, 0, anti_orders)
    report = verify_statement(Measurements(one_coord), "1.5")
    assert report.holds
    assert report.describe()["witnesses"]["alpha"] == "0/1"
    assert any("degenerate" in note for note in report.notes)

    # Perturbing a dictator at one profile: alpha = 1/36.
    table = TopHDictator(2, 3, 0, range(3)).table()
    table = list(table)
    table[7] = (table[7] + 1) % 3
    bumped = TableSCF(2, 3, table)
    report = verify_statement(Measurements(bumped), "1.5")
    assert report.holds

    with pytest.raises(ValueError):
        verify_statement(Measurements(bumped), "1.5", Fraction(0))


def test_reverse_hypercontractivity_cases():
    full = list(range(8))
    report = verify_reverse_hypercontractivity(3, Fraction(1, 3), full, full)
    assert report.holds and report.lhs == 1

    # rho = 0: joint factorizes, and P1 P2 >= min^2.
    report = verify_reverse_hypercontractivity(2, Fraction(0), [0, 1], [2])
    assert report.lhs == Fraction(2, 4) * Fraction(1, 4)
    assert report.holds

    # Integer exponent 3 at rho = 1/3.
    report = verify_reverse_hypercontractivity(2, Fraction(1, 3), [0], [3])
    assert report.rhs == Fraction(1, 64)
    assert report.holds

    # Fractional exponent goes through the cross-powered comparison.
    report = verify_reverse_hypercontractivity(2, Fraction(1, 5), [0], [3])
    assert report.rhs is None
    assert report.holds
    assert any("fractional exponent" in note for note in report.notes)

    with pytest.raises(ValueError):
        verify_reverse_hypercontractivity(2, Fraction(1), [0], [1])
    # The inequality holds only for 0 <= rho < 1: at rho = -1/2 the joint of
    # {+1} and {-1} on one bit is 3/8 < (1/2)^(4/3).
    with pytest.raises(ValueError):
        verify_reverse_hypercontractivity(1, Fraction(-1, 2), [1], [0])
    with pytest.raises(CapExceededError):
        verify_reverse_hypercontractivity(64, Fraction(1, 3), [0], [1])


def test_reverse_hypercontractivity_exact_joint():
    # n = 1, rho = 1/3, B1 = B2 = {+1}: joint is the single atom (1+rho)/4 = 1/3.
    report = verify_reverse_hypercontractivity(1, Fraction(1, 3), [1], [1])
    assert report.lhs == Fraction(1, 3)
    assert report.rhs == Fraction(1, 8)
    assert report.holds


def test_sweep_one_voter_k3():
    report = sweep_one_voter(3)
    assert report.total == 729
    assert report.holds
    assert report.stats["nonmanipulable_functions"] == 7
    with pytest.raises(CapExceededError):
        sweep_one_voter(4)


def test_one_voter_function_count_refuses_without_forming_the_count():
    # 10^(10!) has 3.6 million digits and takes seconds to form; the check cuts
    # the exponent at the cap's bit length instead.
    assert verify.one_voter_function_count(3) == 729
    start = time.perf_counter()
    with pytest.raises(CapExceededError):
        verify.one_voter_function_count(10)
    assert time.perf_counter() - start < 1


def test_sweeps_refuse_a_cap_before_any_instance_runs(monkeypatch):
    # A 216-entry table at n = 3, k = 3; the census's 24-entry
    # window_moves(3, 2) at k = 3.
    def refuse(*args, **kwargs):
        raise AssertionError("an instance ran")

    monkeypatch.setattr(verify.engine, "map_chunks", refuse)
    with pytest.raises(CapExceededError):
        sweep_random_tables(3, 3, 1, seed=0, cap=215)
    with pytest.raises(CapExceededError):
        sweep_one_voter(3, cap=23)


def test_instance_checks_refuse_census_window_tables_over_the_cap():
    # 24 window_moves(3, 2) entries at k = 3 against a 6-entry one-voter table.
    with pytest.raises(CapExceededError):
        list(verify.one_voter_rows(3, 0, 1, cap=23))
    [row] = verify.one_voter_rows(3, 0, 1, cap=24)
    assert row["holds"]


def test_random_sweep_refuses_a_shape_before_any_table_is_drawn(monkeypatch):
    # Statement 2.1 needs n >= 2: refused before the first table is drawn,
    # not in every worker after its first instance is measured.
    def refuse(*args, **kwargs):
        raise AssertionError("a random table was drawn")

    monkeypatch.setattr(verify, "random_table_scf", refuse)
    with pytest.raises(ValueError, match="statement 2.1 needs n >= 2"):
        sweep_random_tables(1, 3, 10, seed=0, tasks=2)
    with pytest.raises(ValueError, match="bounds require k >= 3"):
        sweep_random_tables(2, 2, 10, seed=0)


def test_sweep_random_tables_small():
    report = sweep_random_tables(2, 3, 25, seed=99)
    assert report.total == 25
    assert report.holds


MEASURES = ("distance_to_nonmanip", "distance_to_nonmanip_bar")


def count_calls(monkeypatch, names=MEASURES) -> Counter:
    """Count the calls made through ``verify``'s bindings of ``names``."""
    calls = Counter()
    for name in names:
        def counted(*args, _real=getattr(verify, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    return calls


def census_passes(monkeypatch) -> list:
    """Record the tables and widths of each ``census_tables`` pass. One
    wrapper stands for both bindings, ``manip.census``'s and
    ``Measurements``', so the two still read one memo."""
    passes = []
    real = manip.census_tables

    def recorded(tables, n, k, r_values, cap):
        passes.append((list(tables), r_values))
        return real(tables, n, k, r_values, cap)

    monkeypatch.setattr(manip, "census_tables", recorded)
    monkeypatch.setattr(verify, "census_tables", recorded)
    return passes


def test_sweeps_measure_each_quantity_once_per_scf(monkeypatch):
    # Each instance's census is taken once, in its block's census_tables pass
    # (no per-SCF census), and each distance once per instance.
    calls = count_calls(monkeypatch)
    passes = census_passes(monkeypatch)
    assert sweep_random_tables(2, 3, 5, seed=0).holds
    assert calls == {"distance_to_nonmanip": 5, "distance_to_nonmanip_bar": 5}
    assert passes == [([random_table_scf(2, 3, verify.engine.derive_stream_seed(0, t)).table()
                        for t in range(5)], (2, 3))]
    calls.clear()
    passes.clear()
    assert sweep_one_voter(3).holds
    assert calls == {"distance_to_nonmanip": 729}
    # 170 six-entry tables fill a block.
    assert [(len(tables), widths) for tables, widths in passes] == [(170, (2, 3))] * 4 + [
        (49, (2, 3))]
    assert sum((tables for tables, _ in passes), []) == [
        one_voter_function(3, t).table() for t in range(729)]


def test_measurements_read_a_narrower_census_from_the_wider_one(monkeypatch):
    # Each SCF here is a fresh copy, in no block, so what one measured is not
    # read by another.
    def fresh():
        return random_table_scf(2, 4, 5)

    alone = [verify_statement(Measurements(fresh()), "1.2").describe(),
             verify_statement(Measurements(fresh()), "1.5").describe()]
    narrow, wide = census(fresh(), (2, 3)), census(fresh(), (4,))
    calls = count_calls(monkeypatch)
    passes = census_passes(monkeypatch)
    f = fresh()
    measured = Measurements(f)
    # 1.2 takes the width-4 census at k = 4 and 1.5 the width-3 one.
    shared = [verify_statement(measured, "1.2").describe(),
              verify_statement(measured, "1.5").describe()]
    assert shared == alone
    assert list(shared[0]["witnesses"]["census"]["counts"]) == ["4"]
    assert measured.census((2, 3)) == narrow
    assert calls == {name: 1 for name in MEASURES}
    assert [widths for _tables, widths in passes] == [(2, 3, 4)]
    # Another Measurements of the same SCF reads the count already made.
    assert Measurements(f).census((4,)) == wide
    assert len(passes) == 1
    # Only a wider census than the one taken counts again.
    measured = Measurements(fresh())
    measured.census((3,))
    assert measured.census((4,)) == wide
    assert [widths for _tables, widths in passes] == [(2, 3, 4), (2, 3), (2, 3, 4)]


def test_a_block_census_is_one_pass_for_its_members(monkeypatch):
    # manip.census of each member of one Block makes one census_tables pass,
    # each member's result that of its table alone; Measurements of the same
    # SCFs read that pass.
    scfs = [random_table_scf(1, 4, seed) for seed in range(5)] + [Plurality(1, 4)]
    alone = [census(TableSCF(1, 4, f.table())) for f in scfs]
    passes = census_passes(monkeypatch)
    Block(scfs)
    assert [manip.census(f) for f in scfs] == alone
    assert passes == [([f.table() for f in scfs], (2, 3, 4))]
    assert [Measurements(f).census((2, 3, 4)) for f in scfs] == alone
    assert verify_statement(Measurements(scfs[0]), "1.4").holds
    assert len(passes) == 1


def test_one_voter_functions_are_distinct():
    tables = {one_voter_function(3, t).table() for t in range(3 ** 6)}
    assert len(tables) == 729 and one_voter_function(3, 1).table() == bytes([1, 0, 0, 0, 0, 0])


def test_write_counterexample(tmp_path):
    f = random_table_scf(2, 3, 1)
    report = VerificationReport("demo", Fraction(0), Fraction(1), False)
    path = write_counterexample(report, f, str(tmp_path / "bundle"))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["report"]["statement"] == "demo"
    assert doc["shape"] == {"n": 2, "k": 3}
    assert (tmp_path / "bundle" / "scf_table.json").exists()
