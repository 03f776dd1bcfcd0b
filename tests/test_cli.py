import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import oracles

from votemanip import cli, manip, rankings, scf, verify
from votemanip.scf import SCF, Plurality, dump_scf_table
from votemanip.verify import SweepReport, VerificationReport


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run_cli(argv)
    return code, json.loads(out)


def test_census_report():
    code, doc = run_json(["census", "--rule", "plurality", "-n", "3", "-k", "3"])
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["result"]["fractions"] == {
        "M_2": "1/6", "M_3": "1/6", "M_4": "1/6", "M": "1/6",
    }
    assert doc["config"]["rule"] == "plurality"
    assert "tasks" not in doc["config"]


def test_census_exact_mode_strings_only():
    code, doc = run_json(["census", "--rule", "borda", "-n", "2", "-k", "3"])
    assert code == 0
    for value in doc["result"]["fractions"].values():
        assert isinstance(value, str) and "/" in value


@pytest.mark.parametrize("r_values", ["2,3,4", "2"])
def test_census_at_one_alternative(r_values):
    # k is always added to the r values, and k = 1 is no window width.
    code, doc = run_json(["census", "--rule", "plurality", "-n", "2", "-k", "1",
                          "--r-values", r_values])
    assert code == 0
    assert doc["result"]["total_profiles"] == 1
    assert set(doc["result"]["counts"].values()) == {0}
    assert doc["result"]["fractions"]["M"] == "0/1"


def test_distance_refuses_an_oversized_hypercube_before_the_table(monkeypatch):
    # 21 voters over two alternatives: a 2^21-vertex preference hypercube.
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(Plurality, "_build_table", refuse)
    code, out = run_cli(["distance", "--rule", "plurality", "-n", "21", "-k", "2"])
    assert code == 2
    assert out == ""


def test_distance_report():
    code, doc = run_json(["distance", "--rule", "plurality", "-n", "3", "-k", "3"])
    assert code == 0
    assert doc["result"]["nonmanip"]["value"] == "10/27"
    assert doc["result"]["nonmanip_bar"]["value"] == "7/27"


def test_influences_report():
    code, doc = run_json(["influences", "--rule", "top:1", "-n", "2", "-k", "3", "--refined"])
    assert code == 0
    coords = doc["result"]["coordinates"]
    assert coords["1"]["total"] == "2/3"
    assert coords["2"]["total"] == "0/1"
    assert "refined_same_pair" in coords["1"]


def test_fibers_report():
    code, doc = run_json([
        "fibers", "--rule", "top:1", "-n", "2", "-k", "3",
        "--pair", "1,2", "--coordinate", "1", "--variant", "refined",
        "--gamma", "1/2",
    ])
    assert code == 0
    assert doc["result"]["large"] + doc["result"]["small"] == 2
    for row in doc["result"]["records"]:
        assert row["member_count"] == 6


@pytest.mark.parametrize("gamma, code", [("0", 0), ("1", 0), ("-1/100", 1), ("101/100", 1)])
def test_fibers_refuse_a_gamma_outside_the_unit_interval(capsys, gamma, code):
    argv = ["fibers", "--rule", "borda", "-n", "2", "-k", "3", "--pair", "1,2",
            "--coordinate", "1", f"--gamma={gamma}"]
    got, out = run_cli(argv)
    assert got == code
    if code:
        assert out == ""
        assert capsys.readouterr().err == "error: gamma must lie in [0, 1]\n"
    else:
        assert len(json.loads(out)["result"]["records"]) == 4


def test_fibers_plain_variant_with_epsilon_preset():
    code, doc = run_json([
        "fibers", "--rule", "plurality", "-n", "2", "-k", "3",
        "--pair", "1,2", "--coordinate", "1", "--variant", "plain",
        "--epsilon", "1/4",
    ])
    assert code == 0
    assert len(doc["result"]["records"]) == 4
    gamma = doc["result"]["gamma"]
    # (1/4)^3 / (4 n^3 k^9) at n=2, k=3: (1/64) / 629856
    assert gamma == "1/40310784"
    for row in doc["result"]["records"]:
        assert row["member_count"] == 9
        assert row["variant"] == "plain"


def test_local_dictators_report():
    code, doc = run_json([
        "local-dictators", "--rule", "plurality", "-n", "3", "-k", "3",
        "--pair", "1,2", "--coordinate", "1",
    ])
    assert code == 0
    assert doc["result"]["count"] == 48
    assert len(doc["result"]["profiles"]) == 20


def test_local_dictators_decode_only_the_profiles_listed(monkeypatch):
    from votemanip import fibers

    argv = ["local-dictators", "--rule", "borda", "-n", "3", "-k", "4",
            "--pair", "1,2", "--coordinate", "1"]
    full = run_json([*argv, "--max-list", "100000"])[1]["result"]
    decoded = []
    for module in (rankings, fibers):
        if hasattr(module, "decode_profile"):
            def counted(n, k, index, decode=module.decode_profile):
                decoded.append(index)
                return decode(n, k, index)
            monkeypatch.setattr(module, "decode_profile", counted)
    code, doc = run_json([*argv, "--max-list", "3"])
    assert code == 0 and len(decoded) <= 3
    assert doc["result"] == {"count": full["count"], "profiles": full["profiles"][:3]}
    assert full["count"] > 3


@pytest.mark.parametrize("argv", [
    ["local-dictators", "--pair", "1,2", "--coordinate", "1", "--cap", "2159"],
    ["fibers", "--pair", "1,2", "--coordinate", "1", "--variant", "refined",
     "--gamma", "1/3", "--cap", "959"],
    ["influences", "--refined", "--cap", "959"],
], ids=["local-dictators", "refined-fibers", "refined-influences"])
def test_move_tables_past_the_cap_exit_2(argv, capsys):
    # Borda (1,5): 120 table entries, under either cap; 2160 width-3 moves and
    # 960 adjacent swaps, each one over its cap.
    code, out = run_cli([*argv, "--rule", "borda", "-n", "1", "-k", "5"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith(
        "error: per-rank window table entries at k=5 exceed the cap")


def test_local_dictators_rejects_negative_max_list():
    # A negative slice bound used to list all but the last profiles.
    code, out = run_cli([
        "local-dictators", "--rule", "plurality", "-n", "2", "-k", "3",
        "--pair", "1,2", "--coordinate", "1", "--max-list", "-1",
    ])
    assert code == 1 and out == ""


@pytest.mark.parametrize("coordinate", ["0", "4"])
def test_local_dictators_rejects_coordinate_out_of_range(coordinate):
    # 0 used to wrap round to voter n, and n + 1 died with an IndexError.
    code, out = run_cli([
        "local-dictators", "--rule", "plurality", "-n", "3", "-k", "3",
        "--pair", "1,2", "--coordinate", coordinate,
    ])
    assert code == 1 and out == ""


def test_verify_single_and_exhaustive():
    code, doc = run_json(["verify", "--thm", "1.2", "--rule", "borda", "-n", "2", "-k", "3"])
    assert code == 0
    assert doc["result"]["reports"][0]["holds"] is True

    code, doc = run_json(["verify", "--thm", "1.4", "--exhaustive", "-k", "3"])
    assert code == 0
    assert doc["result"]["total"] == 729
    assert doc["result"]["passed"] == 729


def test_verify_lemma_statements():
    code, doc = run_json(["verify", "--thm", "5.3", "--rule", "random:9",
                          "-n", "2", "-k", "3"])
    assert code == 0 and doc["result"]["reports"][0]["holds"]
    # One-voter statement on a manipulable one-voter table.
    code, doc = run_json(["verify", "--thm", "6.1", "--rule", "random:4",
                          "-n", "1", "-k", "3"])
    assert code == 0 and doc["result"]["reports"][0]["holds"]
    code, doc = run_json(["verify", "--thm", "1.5", "--rule", "borda",
                          "-n", "2", "-k", "3"])
    assert code == 0 and doc["result"]["reports"][0]["holds"]


def test_verify_random_sweep():
    code, doc = run_json([
        "verify", "--thm", "1.2", "--random", "10", "--seed", "5", "-n", "2", "-k", "3",
    ])
    assert code == 0
    assert doc["result"]["total"] == 10 and doc["result"]["holds"]


@pytest.mark.parametrize("thm", ["1.4", "2.1", "1.5", "3.1", "7.1", "5.3", "6.1"])
def test_verify_random_refuses_a_statement_it_does_not_sweep(monkeypatch, capsys, thm):
    # The random sweep checks statements 1.2, 2.1 and 1.5 together, under --thm 1.2.
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(verify, "sweep_random_tables", refuse)
    code, out = run_cli(["verify", "--thm", thm, "--random", "10", "-n", "2", "-k", "3"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "error: --random sweeps support --thm 1.2 (checked with 2.1 and 1.5)\n")


@pytest.mark.parametrize("argv, message", [
    (["--thm", "1.4", "-n", "5", "-k", "4"], "statement 1.4 applies to one-voter functions only"),
    (["--thm", "6.1", "-n", "2", "-k", "3"], "statement 6.1 applies to one-voter functions only"),
    *[(["--thm", t, "-n", "1", "-k", "3"], f"statement {t} needs n >= 2")
      for t in ("3.1", "7.1", "2.1", "5.3")],
    *[(["--thm", t, "-n", "2", "-k", "2"], "bounds require k >= 3")
      for t in ("1.2", "3.1", "7.1", "1.5", "2.1", "5.3")],
    *[(["--thm", t, "-n", "1", "-k", "2"], "bounds require k >= 3") for t in ("1.4", "6.1")],
])
def test_verify_refuses_a_shape_before_building_the_table(monkeypatch, capsys, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(scf.Borda, "_build_table", refuse)
    code, out = run_cli(["verify", "--rule", "borda", *argv])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("rule", ["random:0", "monotone-random:0"])
def test_verify_refuses_a_random_rule_shape_before_drawing_it(monkeypatch, capsys, rule):
    def refuse(*args, **kwargs):
        raise AssertionError("a random table was drawn")

    monkeypatch.setattr(scf, "random_table_scf", refuse)
    monkeypatch.setattr(scf, "random_monotone_two_valued", refuse)
    code, out = run_cli(["verify", "--thm", "1.4", "--rule", rule, "-n", "5", "-k", "4"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: statement 1.4 applies to one-voter functions only\n"


@pytest.mark.parametrize("argv, seed", [
    (["census", "--rule", "random:-5", "-n", "2", "-k", "3"], -5),
    (["census", "--rule", "monotone-random:-5", "-n", "2", "-k", "3"], -5),
    (["sample", "--rule", "borda", "-n", "2", "-k", "4", "--samples", "2000", "--seed", "-3"], -3),
    (["verify", "--thm", "1.2", "--random", "3", "-n", "2", "-k", "3", "--seed", "-1"], -1),
    (["hypercontractivity", "--bits", "2", "--seed", "-2"], -2),
])
def test_negative_seeds_are_refused_before_anything_is_built(monkeypatch, capsys, argv, seed):
    # Random(s) seeds from abs(s), so seed -5 would report seed 5's stream.
    def refuse(*args, **kwargs):
        raise AssertionError("a seeded object was built")

    monkeypatch.setattr(scf, "uniform_bytes", refuse, raising=False)
    monkeypatch.setattr(scf, "MonotoneTwoValued", refuse)
    monkeypatch.setattr(manip, "sample_success", refuse)
    monkeypatch.setattr(verify, "sweep_random_tables", refuse)
    monkeypatch.setattr(verify, "verify_reverse_hypercontractivity", refuse)
    code, out = run_cli(argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: a seed must be >= 0, got {seed}\n"


def test_verify_echoes_seed_0_unless_random_is_given_one():
    _code, doc = run_json(["verify", "--thm", "1.4", "--exhaustive", "-k", "3"])
    assert doc["config"]["seed"] == 0
    random = ["verify", "--thm", "1.2", "--random", "2", "-n", "2", "-k", "3"]
    assert run_cli(random) == run_cli([*random, "--seed", "0"])
    _code, doc = run_json([*random, "--seed", "5"])
    assert doc["config"]["seed"] == doc["result"]["stats"]["seed"] == 5


def test_sample_deterministic():
    argv = ["sample", "--rule", "borda", "-n", "2", "-k", "4",
            "--samples", "4000", "--seed", "7"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["result"]["samples"] == 4000
    assert isinstance(doc["result"]["estimate"], float)


def test_gs_classify_report():
    code, doc = run_json(["gs-classify", "--rule", "top:1:1,3", "-n", "2", "-k", "3"])
    assert code == 0
    assert doc["result"]["verdict"] == "nonmanipulable"
    assert doc["result"]["witness"]["subset"] == [1, 3]

    code, doc = run_json(["gs-classify", "--rule", "borda", "-n", "2", "-k", "3"])
    assert doc["result"]["verdict"] == "manipulable"


def test_isoperimetry_and_hypercontractivity():
    code, doc = run_json(["isoperimetry", "-k", "3", "--copies", "2"])
    assert code == 0 and doc["result"]["holds"]

    code, doc = run_json(["isoperimetry", "-k", "6", "--copies", "2", "--lex-only"])
    assert code == 0 and doc["result"]["holds"]

    code, doc = run_json([
        "hypercontractivity", "--bits", "3", "--rho", "1/3",
        "--pairs", "25", "--seed", "1",
    ])
    assert code == 0 and doc["result"]["holds"]

    code, doc = run_json([
        "hypercontractivity", "--bits", "2", "--rho", "1/3",
        "--b1", "0,1", "--b2", "2,3",
    ])
    assert code == 0 and doc["result"]["holds"]


@pytest.mark.parametrize("argv, message", [
    # At rho = -1/2 the joint of {+1} and {-1} is 3/8 < (1/2)^(4/3): the
    # inequality holds only for 0 <= rho < 1.
    (["hypercontractivity", "--bits", "1", "--rho=-1/2", "--b1", "1", "--b2", "0"],
     "rho must lie in [0, 1), got -1/2"),
    (["gs-classify", "--rule", "monotone-random:1", "-n", "2", "-k", "1"],
     "a monotone two-valued SCF needs k >= 2, got k=1"),
], ids=["negative-rho", "monotone-one-alternative"])
def test_an_input_a_check_or_rule_does_not_cover_is_refused(capsys, argv, message):
    code, out = run_cli(argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def _count_passes(monkeypatch) -> list:
    """The classes of every ``rankings.class_tables`` split of the table, under any import."""
    from votemanip import fibers, graphs, manip, rankings

    calls = []

    def split(table, k, classes, _split=rankings.class_tables):
        calls.append(classes)
        return _split(table, k, classes)

    for module in (rankings, fibers, graphs, manip):
        if hasattr(module, "class_tables"):
            monkeypatch.setattr(module, "class_tables", split)
    return calls


def test_influences_makes_at_most_two_passes_per_coordinate(monkeypatch):
    # One transition-count split and one refined-edge split of the table by
    # each coordinate's rank.
    from votemanip.rankings import rank_classes

    calls = _count_passes(monkeypatch)
    code, _ = run_cli(["influences", "--refined", "--rule", "borda", "-n", "3", "-k", "3"])
    assert code == 0
    assert calls == [rank_classes(3, 3, i) for i in range(3) for _count in ("coarse", "refined")]


def test_fiber_sweep_and_boundary_count_make_one_pass(monkeypatch):
    from votemanip import fibers
    from votemanip.graphs import CoordinateInfluences, GraphKind
    from votemanip.rankings import rank_classes, ranks_preferring

    calls = _count_passes(monkeypatch)
    f = Plurality(3, 3)
    sides = (ranks_preferring(3, 1, 0), ranks_preferring(3, 0, 1))
    for variant in fibers.FiberVariant:
        calls.clear()
        fibers.fiber_sweep(f, 1, (0, 1), variant, Fraction(1, 3))
        assert calls == [[sides, [(r,) for r in range(6)], sides]]
    # (a, b, kind) of each boundary read on coordinate 2, from a fresh SCF (the
    # SCF keeps its transition counts, so a second coarse read makes no split).
    selections = [(0, None, GraphKind.COARSE), (0, 1, GraphKind.COARSE),
                  (0, None, GraphKind.REFINED), (0, 1, GraphKind.SWAP)]
    for selection in selections:
        f = Plurality(3, 3)
        f.table()
        calls.clear()
        CoordinateInfluences(f, 2).count(*selection)
        assert calls == [rank_classes(3, 3, 2)]


def test_coordinate_influences_count_each_kind_on_its_first_read(monkeypatch):
    # No split on construction; the coarse reads share one split by the
    # coordinate's rank, and the first swap read adds the one split that
    # every refined and swap read then shares.
    from votemanip.graphs import CoordinateInfluences, GraphKind
    from votemanip.rankings import rank_classes

    calls = _count_passes(monkeypatch)
    inf = CoordinateInfluences(scf.Borda(3, 3), 1)
    assert calls == []
    for _ in range(2):
        inf.influence(0, 1), inf.influence(2), inf.count(1, 0)
        assert calls == [rank_classes(3, 3, 1)]
    inf.influence(0, 1, GraphKind.SWAP)
    assert calls == [rank_classes(3, 3, 1)] * 2
    for _ in range(2):
        inf.influence(0, 2, GraphKind.REFINED), inf.count(2, kind=GraphKind.REFINED)
        inf.count(1, kind=GraphKind.SWAP)
        assert calls == [rank_classes(3, 3, 1)] * 2


@pytest.mark.parametrize("argv, config", [
    (["isoperimetry", "-k", "2", "--copies", "2"], {"k": 2}),
    (["hypercontractivity", "--bits", "2", "--pairs", "3"], {"seed": 0}),
])
def test_calls_without_a_table_take_and_echo_no_cap(argv, config):
    # Their limits are constants of their own, so --cap would bound nothing.
    code, doc = run_json(argv)
    assert code == 0 and doc["config"] == {"command": argv[0], **config}
    code, out = run_cli([*argv, "--cap", "1"])
    assert code == 1 and out == ""


def test_isoperimetry_rejects_zero_copies():
    code, out = run_cli(["isoperimetry", "-k", "3", "--copies", "0"])
    assert code == 1 and out == ""


def test_isoperimetry_rejects_k_below_2():
    code, out = run_cli(["isoperimetry", "-k", "0", "--copies", "2"])
    assert code == 1 and out == ""


def test_isoperimetry_lex_only_rejects_zero_copies():
    code, out = run_cli(["isoperimetry", "-k", "3", "--copies", "0", "--lex-only"])
    assert code == 1 and out == ""


def test_isoperimetry_lex_only_cap_before_allocating(monkeypatch):
    def refuse(sizes):
        raise AssertionError(f"built the vertices of {sizes}")

    monkeypatch.setattr(cli.graphs, "product_vertices", refuse)
    for k, copies in (("4", "6"), ("2", "11")):  # 4,096 and 2,048 vertices
        code, out = run_cli(["isoperimetry", "-k", k, "--copies", copies, "--lex-only"])
        assert code == 2 and out == ""


def test_hypercontractivity_rejects_64_bits_before_allocating():
    code, _ = run_cli(["hypercontractivity", "--bits", "64", "--pairs", "1"])
    assert code == 2


def test_hypercontractivity_rejects_0_bits():
    code, _ = run_cli(["hypercontractivity", "--bits", "0", "--pairs", "1"])
    assert code == 2


def test_table_file_source(tmp_path):
    path = tmp_path / "plur.json"
    dump_scf_table(Plurality(2, 3), path)
    code, doc = run_json(["census", "--table", str(path)])
    assert code == 0
    assert doc["result"]["fractions"]["M"] == "1/9"


def test_exit_code_invalid_config():
    code, _ = run_cli(["census", "--rule", "nonsense", "-n", "2", "-k", "3"])
    assert code == 1
    code, _ = run_cli(["census", "--rule", "plurality"])
    assert code == 1
    code, _ = run_cli(["nonexistent-subcommand"])
    assert code == 1


def test_exit_code_cap_exceeded():
    code, _ = run_cli(["census", "--rule", "plurality", "-n", "4", "-k", "4", "--cap", "1000"])
    assert code == 2


def test_exit_code_verification_failure(monkeypatch, tmp_path):
    # A true statement cannot honestly fail, so fake one to test the plumbing.
    fake = VerificationReport("1.5", Fraction(1), Fraction(0), False)
    monkeypatch.setattr(cli.verify, "verify_statement", lambda *a, **kw: fake)
    code, _ = run_cli([
        "verify", "--thm", "1.5", "--rule", "plurality", "-n", "2", "-k", "3",
        "--bundle-dir", str(tmp_path / "bundle"),
    ])
    assert code == 3
    assert (tmp_path / "bundle" / "manifest.json").exists()
    assert (tmp_path / "bundle" / "scf_table.json").exists()


@pytest.mark.parametrize("sweep, argv, label", [
    ("sweep_one_voter", ["--thm", "1.4", "--exhaustive", "-k", "3"], "1.4-sweep"),
    ("sweep_random_tables", ["--thm", "1.2", "--random", "4", "-n", "2", "-k", "3"],
     "random-sweep"),
])
def test_exit_code_sweep_failure(monkeypatch, tmp_path, sweep, argv, label):
    failures = [{"index": 0}]
    fake = SweepReport(label, 2, 1, failures)
    monkeypatch.setattr(cli.verify, sweep, lambda *a, **kw: fake)
    code, out = run_cli(["verify", *argv,
                         "--bundle-dir", str(tmp_path / "bundle")])
    assert code == 3
    assert json.loads(out)["result"] == fake.describe()
    manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
    assert manifest == {"report": VerificationReport(
        label, None, None, False, witnesses={"failures": failures}).describe()}


@pytest.mark.parametrize("command", ["census", "gs-classify"])
def test_window_tables_past_the_cap_are_refused_before_any_table(monkeypatch, command):
    # At n = 1, k = 8 the table holds 8! = 40,320 entries. The default census
    # also reads window_moves(8, w) for w = 2, 3 and 4, the largest 8! * 5 * 24
    # = 4,838,400 entries; gs-classify reads no move table, so only its table
    # counts, and it runs at the table's size.
    fits = {"census": 4838400, "gs-classify": 40320}[command]
    argv = [command, "--rule", "plurality", "-n", "1", "-k", "8", "--cap"]

    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(manip, "window_moves", refuse)
    with monkeypatch.context() as patch:
        patch.setattr(Plurality, "_build_table", refuse)
        code, out = run_cli([*argv, str(fits - 1)])
    assert code == 2
    assert out == ""
    if command == "gs-classify":
        code, doc = run_json([*argv, str(fits)])
        assert code == 0 and doc["result"]["verdict"] == "nonmanipulable"


def test_verify_refuses_the_census_move_tables_past_the_cap(monkeypatch):
    # At n = 1, k = 8 statement 1.4 takes the census at widths 2 to 8, whose
    # window_moves(8, 4) holds 4,838,400 entries: refused one below, after the
    # 40,320-entry table is built and before any move table is.
    def refuse(*args, **kwargs):
        raise AssertionError("a move table was built")

    monkeypatch.setattr(manip, "window_moves", refuse)
    code, out = run_cli(["verify", "--thm", "1.4", "--rule", "plurality", "-n", "1", "-k", "8",
                         "--cap", "4838399"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("rule", ["borda", "random:0"])
def test_refined_influences_refuse_the_swap_table_before_the_scf_is_built(monkeypatch, rule):
    # At n = 1, k = 4 the table holds 24 entries and the refined pass's swaps,
    # window_moves(4, 2), 24 * 3 * 2 = 144: a cap of 100 admits the one, not
    # the other. A random rule draws its table as it is built.
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    argv = ["influences", "--refined", "--rule", rule, "-n", "1", "-k", "4", "--cap"]
    with monkeypatch.context() as patch:
        patch.setattr(SCF, "table", refuse)
        patch.setattr(cli.scf, "random_table_scf", refuse)
        code, out = run_cli([*argv, "143"])
    assert code == 2
    assert out == ""
    code, doc = run_json([*argv, "144"])
    assert code == 0 and len(doc["result"]["coordinates"]["1"]["refined_same_pair"]) == 6


@pytest.mark.parametrize("argv, message", [
    (["--rule", "borda", "-n", "1", "-k", "-1"], "need at least one alternative"),
    (["--table", "absent.json", "-k", "10"], "--table gives the SCF and its shape"),
])
def test_refined_influences_leave_a_bad_shape_to_its_own_error(capsys, argv, message):
    code, out = run_cli(["influences", "--refined", *argv])
    assert (code, out) == (1, "") and message in capsys.readouterr().err


@pytest.mark.parametrize("rule", ["borda", "random:0"])
def test_gs_classify_at_k7_runs_at_the_default_cap_and_matches_the_oracle(rule):
    # The one-voter table holds 7! = 5,040 entries and gs-classify builds no
    # move table. Borda elects a lone voter's top, a top_H dictator, so the
    # oracle's first manipulation pair is None, found only after 7!^2 reads;
    # its membership oracle says the same at once.
    code, doc = run_json(["gs-classify", "--rule", rule, "-n", "1", "-k", "7"])
    assert code == 0
    result = doc["result"]
    if rule == "borda":
        assert oracles.is_nonmanipulable_member(oracles.borda_tuple, 1, 7)
        assert result["verdict"] == "nonmanipulable"
        assert result["witness"] == scf.TopHDictator(1, 7, 0, range(7)).describe()
    else:
        evaluate = oracles.table_evaluator(scf.random_table_scf(1, 7, 0))
        profile, altered, i = oracles.first_manipulation_pair(evaluate, 1, 7)
        assert result == {"verdict": "manipulable", "witness": {
            "coordinate": i + 1, "profile": [[x + 1 for x in o] for o in profile],
            "altered": [[x + 1 for x in o] for o in altered]}}


def test_tasks_env_override(monkeypatch):
    monkeypatch.setenv("MANIP_TASKS", "not-a-number")
    code, _ = run_cli(["census", "--rule", "plurality", "-n", "2", "-k", "3"])
    assert code == 1


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    code, text = run_cli(["census", "--rule", "plurality", "-n", "2", "-k", "3",
                          "-o", str(out)])
    assert code == 0
    assert text == ""
    assert json.loads(out.read_text())["command"] == "census"


@pytest.mark.parametrize("argv", [
    ["census", "--rule", "plurality", "-n", "6000", "-k", "3"],
    ["census", "--rule", "plurality", "-n", "1", "-k", "3000"],
    ["influences", "--rule", "plurality", "-n", "6000", "-k", "3"],
    ["gs-classify", "--rule", "plurality", "-n", "1", "-k", "3000"],
    ["distance", "--rule", "plurality", "-n", "1", "-k", "3000"],
    ["verify", "--thm", "1.4", "--exhaustive", "-k", "8"],
])
def test_counts_past_the_cap_are_refused_without_printing_them(capsys, argv):
    # Each count has thousands of digits: the refusal names n, k and the cap.
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceed the cap" in err and len(err) < 200


def test_sample_honours_the_cap(capsys):
    # The sampler's per-ranking tables hold k * k! = 600 entries at k = 5.
    argv = ["sample", "--rule", "borda", "-n", "2", "-k", "5", "--samples", "10"]
    code, out = run_cli([*argv, "--cap", "599"])
    assert code == 2 and out == ""
    assert "exceed the cap" in capsys.readouterr().err
    code, doc = run_json([*argv, "--cap", "600"])
    assert code == 0 and doc["result"]["samples"] == 10


@pytest.mark.parametrize("argv", [
    ["verify", "--thm", "1.2", "--random", "-5", "-n", "2", "-k", "3"],
    ["verify", "--thm", "1.2", "--random", "0", "-n", "2", "-k", "3"],
    ["verify", "--thm", "1.4", "--exhaustive", "-k", "0"],
    ["hypercontractivity", "--bits", "3", "--pairs", "-2"],
    ["hypercontractivity", "--bits", "3", "--pairs", "0"],
])
def test_counts_below_one_are_refused(capsys, argv):
    # Each would check nothing and report a pass.
    code, out = run_cli(argv)
    assert code == 1
    assert out == ""
    assert "an SCF is required" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, fits", [
    # Three voters at k = 3 make a 216-entry table.
    (["verify", "--thm", "1.2", "--random", "1", "-n", "3", "-k", "3"], 216),
    # One voter at k = 3: its census reads window_moves(3, 2), 6 * 2 * 2 = 24
    # entries, past the 6-entry table.
    (["verify", "--thm", "1.4", "--exhaustive", "-k", "3"], 24),
])
def test_verify_sweeps_honour_the_cap(capsys, argv, fits):
    code, out = run_cli([*argv, "--cap", str(fits - 1)])
    assert code == 2
    assert out == ""
    assert "exceed the cap" in capsys.readouterr().err
    code, doc = run_json([*argv, "--cap", str(fits)])
    assert code == 0
    assert doc["config"]["enumeration_cap"] == fits and doc["result"]["holds"]


@pytest.mark.parametrize("argv", [
    ["--thm", "1.2", "--rule", "borda", "-n", "2", "-k", "3", "--epsilon", "1/2"],
    ["--thm", "1.5", "--rule", "borda", "-n", "2", "-k", "3", "--epsilon", "1/2"],
    ["--thm", "2.1", "--rule", "borda", "-n", "2", "-k", "3", "--alpha", "1/2"],
    ["--thm", "1.2", "--random", "2", "-n", "2", "-k", "3", "--epsilon", "1/2"],
    ["--thm", "1.4", "--exhaustive", "-k", "3", "--alpha", "1/2"],
    ["--thm", "1.4", "--exhaustive", "-k", "3", "--rule", "borda"],
    ["--thm", "1.4", "--exhaustive", "-k", "3", "-n", "5"],
    ["--thm", "1.2", "--random", "2", "-n", "2", "-k", "3", "--rule", "borda"],
    ["--thm", "1.4", "--exhaustive", "--random", "2", "-k", "3"],
    ["--thm", "1.4", "--exhaustive", "-k", "3", "--seed", "5"],
    ["--thm", "1.2", "--rule", "borda", "-n", "2", "-k", "3", "--seed", "0"],
])
def test_verify_refuses_an_option_it_would_not_use(capsys, argv):
    # Each of these options is echoed in the report's config, so a run that
    # ignored it would report a setting it never used.
    code, out = run_cli(["verify", *argv])
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("statement", list(verify.STATEMENTS))
@pytest.mark.parametrize("option, value", [("--epsilon", "0"), ("--alpha", "1")])
def test_verify_takes_an_override_exactly_where_the_statement_names_it(capsys, statement,
                                                                        option, value):
    takes = {"1.5": "--alpha", "2.1": "--epsilon", "5.3": "--epsilon", "6.1": "--epsilon"}
    n = "1" if statement in ("1.4", "6.1") else "2"
    code, out = run_cli(["verify", "--thm", statement, "--rule", "random:5", "-n", n, "-k", "3",
                         option, value])
    if takes.get(statement) != option:
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith(f"error: {option} applies only to --thm ")
        return
    assert code == 0
    [report] = json.loads(out)["result"]["reports"]
    assert report["statement"] == statement and report["holds"]
    if option == "--alpha":
        assert report["witnesses"]["alpha"] == "1/1"
    else:  # a zero epsilon leaves the lemma vacuous
        assert report["comparison"] == "vacuous"


FIBERS = ["fibers", "--rule", "borda", "-n", "2", "-k", "3", "--pair", "1,2", "--coordinate", "1"]


@pytest.mark.parametrize("argv", [
    ["census", "--table", "TABLE", "--rule", "plurality", "-n", "5", "-k", "9"],
    ["census", "--table", "TABLE", "--rule", "borda"],
    ["distance", "--table", "TABLE", "-n", "2"],
    ["influences", "--table", "TABLE", "-k", "3"],
    [*FIBERS, "--gamma", "1/3", "--epsilon", "1/4"],
], ids=["table-rule-n-k", "table-rule", "table-n", "table-k", "gamma-epsilon"])
def test_a_call_refuses_an_option_it_would_not_use(monkeypatch, tmp_path, capsys, argv):
    # The report echoes -n, -k, --rule and --epsilon, which a table file or
    # --gamma would override: refused before the file is read or a table built.
    path = tmp_path / "t.json"
    dump_scf_table(scf.Borda(2, 3), path)

    def refuse(*args, **kwargs):
        raise AssertionError("the SCF was read")

    monkeypatch.setattr(scf, "load_scf_table", refuse)
    monkeypatch.setattr(scf.Borda, "_build_table", refuse)
    code, out = run_cli([str(path) if arg == "TABLE" else arg for arg in argv])
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("option", ["--table", "-o"])
def test_a_directory_path_is_one_error_line(tmp_path, capsys, option):
    argv = ["distance", "--table", str(tmp_path)] if option == "--table" else [
        "census", "--rule", "plurality", "-n", "2", "-k", "3", "-o", str(tmp_path)]
    code, out = run_cli(argv)
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [[1, 2], "x"], ids=["list", "string"])
def test_a_table_file_that_is_not_an_object_is_one_error_line(tmp_path, capsys, doc):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["census", "--table", str(path)])
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: table file needs a JSON object") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["hypercontractivity", "--bits", "3", "--rho", "1/0"],
    ["fibers", "--rule", "borda", "-n", "2", "-k", "3", "--pair", "1,2", "--coordinate", "1",
     "--gamma", "1/0"],
    ["fibers", "--rule", "borda", "-n", "2", "-k", "3", "--pair", "1,2", "--coordinate", "1",
     "--epsilon", "2/0"],
    ["verify", "--thm", "2.1", "--rule", "borda", "-n", "2", "-k", "3", "--epsilon", "1/0"],
    ["verify", "--thm", "1.5", "--rule", "borda", "-n", "2", "-k", "3", "--alpha", "0/0"],
], ids=["rho", "gamma", "fibers-epsilon", "verify-epsilon", "alpha"])
def test_a_fraction_option_over_zero_is_one_error_line(capsys, argv):
    # Fraction("1/0") raises ZeroDivisionError, which is not a ValueError.
    code, out = run_cli(argv)
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-2]} wants a rational p/q") and err.count("\n") == 1


def test_distance_splits_each_coordinate_by_rank_once(monkeypatch):
    # Both families read the rank counts that the SCF caches per coordinate;
    # a rank split of voter i has k! singleton classes for voter i and whole
    # classes for the n - 1 - i voters after it.
    splits = []
    split = rankings.class_tables

    def counted(table, k, classes):
        if classes and len(classes[0]) == 6:
            splits.append(3 - len(classes))
        return split(table, k, classes)

    monkeypatch.setattr(rankings, "class_tables", counted)
    code, doc = run_json(["distance", "--rule", "random:0", "-n", "3", "-k", "3"])
    assert code == 0 and set(doc["result"]) == {"nonmanip", "nonmanip_bar"}
    assert sorted(splits) == [0, 1, 2]
