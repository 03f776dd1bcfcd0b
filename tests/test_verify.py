import json
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from votemanip import verify
from votemanip.errors import CapExceededError
from votemanip.manip import census
from votemanip.graphs import CoordinateInfluences, GraphKind
from votemanip.metrics import frac_str
from votemanip.scf import (
    OneCoordinate,
    Plurality,
    TableSCF,
    TopHDictator,
    random_table_scf,
)
from votemanip.verify import (
    BoundParams,
    Measurements,
    bound_value,
    one_voter_function,
    sweep_one_voter,
    sweep_random_tables,
    verify_lemma_influences,
    verify_main_theorems,
    verify_reverse_hypercontractivity,
    verify_thm_1_5,
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


def test_main_theorems_on_members_and_random():
    member = TopHDictator(2, 3, 0, range(3))
    for report in verify_main_theorems(Measurements(member), ("1.2", "3.1", "7.1")):
        assert report.holds
        assert report.rhs == 0  # epsilon is 0
    f = random_table_scf(2, 3, 2024)
    for report in verify_main_theorems(Measurements(f), ("1.2", "3.1", "7.1")):
        assert report.holds


def test_main_theorem_one_voter():
    anti = TableSCF(1, 3, [o[-1] for o in permutations(range(3))])
    (report,) = verify_main_theorems(Measurements(anti), ("1.4",))
    assert report.holds
    assert report.lhs > 0
    with pytest.raises(ValueError):
        verify_main_theorems(Measurements(Plurality(2, 3)), ("1.4",))
    with pytest.raises(ValueError):
        verify_main_theorems(Measurements(anti), ("3.1",))


def test_lemma_influences_vacuous_on_members():
    report = verify_lemma_influences(Measurements(TopHDictator(2, 3, 0, range(3))),
                                     statement="2.1")
    assert report.holds
    assert any("precondition-not-met" in note for note in report.notes)


def test_lemma_influences_witnesses_random():
    f = random_table_scf(2, 3, 4242)
    for statement in ("2.1", "5.3"):
        report = verify_lemma_influences(Measurements(f), statement=statement)
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
        report = verify_lemma_influences(Measurements(f), statement=statement)
        expected = [
            {"coordinate": i + 1, "pair": [a + 1, b + 1], "influence": frac_str(
                CoordinateInfluences(f, i).influence(
                    a, b, GraphKind.COARSE if statement == "2.1" else GraphKind.SWAP))}
            for i in range(f.n) for a in range(f.k) for b in range(a + 1, f.k)
        ]
        assert report.describe()["witnesses"]["qualifying"] == expected


def test_lemma_influences_one_voter():
    anti = TableSCF(1, 3, [o[-1] for o in permutations(range(3))])
    report = verify_lemma_influences(Measurements(anti), statement="6.1")
    assert report.holds
    with pytest.raises(ValueError):
        verify_lemma_influences(Measurements(anti), statement="2.1")
    with pytest.raises(ValueError):
        verify_lemma_influences(Measurements(Plurality(2, 3)), statement="6.1")


def test_lemma_influences_precondition_violation():
    f = Plurality(2, 3)
    with pytest.raises(ValueError):
        verify_lemma_influences(Measurements(f), epsilon=Fraction(99, 100), statement="2.1")


def test_thm_1_5_branches():
    # A nonmanipulable member satisfies the distance branch for any alpha > 0.
    member = TopHDictator(2, 3, 0, range(3))
    report = verify_thm_1_5(Measurements(member), alpha=Fraction(1, 100))
    assert report.holds and report.witnesses["distance_branch"]

    # One-coordinate but manipulable: alpha measures 0, the manipulation
    # branch holds trivially and the report flags the degeneracy.
    anti_orders = [o[-1] for o in permutations(range(3))]
    one_coord = OneCoordinate(2, 3, 0, anti_orders)
    report = verify_thm_1_5(Measurements(one_coord))
    assert report.holds
    assert report.describe()["witnesses"]["alpha"] == "0/1"
    assert any("degenerate" in note for note in report.notes)

    # Perturbing a dictator at one profile: alpha = 1/36.
    table = TopHDictator(2, 3, 0, range(3)).table()
    table = list(table)
    table[7] = (table[7] + 1) % 3
    bumped = TableSCF(2, 3, table)
    report = verify_thm_1_5(Measurements(bumped))
    assert report.holds

    with pytest.raises(ValueError):
        verify_thm_1_5(Measurements(bumped), alpha=Fraction(0))


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


MEASURES = ("census", "distance_to_nonmanip", "distance_to_nonmanip_bar")


def count_calls(monkeypatch, names=MEASURES) -> Counter:
    """Count the calls made through ``verify``'s bindings of ``names``."""
    calls = Counter()
    for name in names:
        def counted(*args, _real=getattr(verify, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    return calls


def test_sweeps_measure_each_quantity_once_per_scf(monkeypatch):
    # Each instance's census is taken once, in its block's census_tables pass
    # (no per-SCF census), and each distance once per instance.
    calls = count_calls(monkeypatch)
    blocks = []
    census_tables = verify.census_tables

    def recorded(tables, *args):
        blocks.append(list(tables))
        return census_tables(tables, *args)

    monkeypatch.setattr(verify, "census_tables", recorded)
    assert sweep_random_tables(2, 3, 5, seed=0).holds
    assert calls == {"distance_to_nonmanip": 5, "distance_to_nonmanip_bar": 5}
    assert blocks == [[random_table_scf(2, 3, verify.engine.derive_stream_seed(0, t)).table()
                       for t in range(5)]]
    calls.clear()
    blocks.clear()
    assert sweep_one_voter(3).holds
    assert calls == {"distance_to_nonmanip": 729}
    # 170 six-entry tables fill a block.
    assert [len(block) for block in blocks] == [170] * 4 + [49]
    assert sum(blocks, []) == [one_voter_function(3, t).table() for t in range(729)]


def test_measurements_read_a_narrower_census_from_the_wider_one(monkeypatch):
    f = random_table_scf(2, 4, 5)
    fresh = [verify_main_theorems(Measurements(f), ("1.2",))[0].describe(),
             verify_thm_1_5(Measurements(f)).describe()]
    calls = count_calls(monkeypatch)
    measured = Measurements(f)
    # 1.2 takes the width-4 census at k = 4 and 1.5 the width-3 one.
    shared = [verify_main_theorems(measured, ("1.2",))[0].describe(),
              verify_thm_1_5(measured).describe()]
    assert shared == fresh
    assert list(shared[0]["witnesses"]["census"]["counts"]) == ["4"]
    assert measured.census((2, 3)) == census(f, (2, 3))
    assert calls == {name: 1 for name in MEASURES}
    # Only a wider census than the one taken measures again.
    measured = Measurements(f)
    measured.census((3,))
    assert measured.census((4,)) == census(f, (4,))
    assert calls["census"] == 3


def test_one_voter_functions_are_distinct():
    tables = {one_voter_function(3, t).table() for t in range(3 ** 6)}
    assert len(tables) == 729 and one_voter_function(3, 1).table() == bytes([1, 0, 0, 0, 0, 0])


def test_write_counterexample(tmp_path):
    f = random_table_scf(2, 3, 1)
    report = VerificationReport("demo", Fraction(0), Fraction(1), False)
    path = write_counterexample(report, f, str(tmp_path / "bundle"))
    doc = json.loads(open(path).read())
    assert doc["report"]["statement"] == "demo"
    assert doc["shape"] == {"n": 2, "k": 3}
    assert (tmp_path / "bundle" / "scf_table.json").exists()
