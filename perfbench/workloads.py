"""The benchmark's workloads: fixed lists of CLI calls and the checks on their reports.

One iteration of a workload is its list of ``votemanip`` CLI calls, each
building its own table as a separate CLI run would. The seed argument of the
benchmark is the only input that varies between runs: it picks the random
table (``--rule random:SEED``), the random-table sweep and the sampler stream.
``exact-borda`` does not depend on the seed.

``size="smoke"`` shrinks every call so that the smoke test finishes in seconds;
the pinned report digests exist for the full size only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial


@dataclass(frozen=True)
class Call:
    label: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tasks: int
    seeded: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-borda",
            "Borda n=4 k=4 census, distance and refined influences: the table is "
            "built rule by rule and most profiles scan every census window",
            tasks=2, seeded=False,
        ),
        Workload(
            "exact-random",
            "random table n=4 k=4 through census, distance, fibers, local "
            "dictators and gs-classify: most profiles leave the census at width 2",
            tasks=1, seeded=True,
        ),
        Workload(
            "sweep-sample",
            "thousands of 36-entry tables in verify plus a Borda sampler that "
            "builds no table: per-call and pool-chunking overhead dominate",
            tasks=2, seeded=True,
        ),
    )
}

# (n, k) of the exact workloads' profile space, per size.
_EXACT_SHAPE = {"full": (4, 4), "smoke": (3, 3)}
# verify --random COUNT on n=2 k=3, and sample SAMPLES on (n, k), per size.
_SWEEP = {
    "full": {"random": 4000, "sample_shape": (4, 5), "samples": 300000},
    "smoke": {"random": 40, "sample_shape": (2, 4), "samples": 5000},
}
_SWEEP_TABLE_SHAPE = (2, 3)
_EXHAUSTIVE_K = 3


def calls(name: str, seed: int, size: str = "full") -> list[Call]:
    """The CLI calls of one iteration."""
    if name == "exact-borda":
        n, k = _EXACT_SHAPE[size]
        rule = ["--rule", "borda", "-n", str(n), "-k", str(k)]
        return [
            Call("census", ("census", *rule)),
            Call("distance", ("distance", *rule)),
            Call("influences", ("influences", "--refined", *rule)),
        ]
    if name == "exact-random":
        n, k = _EXACT_SHAPE[size]
        rule = ["--rule", f"random:{seed}", "-n", str(n), "-k", str(k)]
        pair = ["--pair", "1,2", "--coordinate", "1"]
        return [
            Call("census", ("census", *rule)),
            Call("distance", ("distance", *rule)),
            Call("fibers", ("fibers", *rule, *pair, "--epsilon", "1/4")),
            Call("local-dictators", ("local-dictators", *rule, *pair)),
            Call("gs-classify", ("gs-classify", *rule)),
        ]
    if name == "sweep-sample":
        plan = _SWEEP[size]
        n, k = _SWEEP_TABLE_SHAPE
        sn, sk = plan["sample_shape"]
        return [
            Call("verify-random", ("verify", "--thm", "1.2", "--random", str(plan["random"]),
                                   "--seed", str(seed), "-n", str(n), "-k", str(k))),
            Call("verify-exhaustive", ("verify", "--thm", "1.4", "--exhaustive",
                                       "-k", str(_EXHAUSTIVE_K))),
            Call("sample", ("sample", "--rule", "borda", "-n", str(sn), "-k", str(sk),
                            "--samples", str(plan["samples"]), "--seed", str(seed))),
        ]
    raise KeyError(f"unknown workload {name!r}")


def entries(name: str, size: str = "full") -> int:
    """Profiles one iteration enumerates: table entries, plus sampler draws.

    Each exact subcommand walks the whole (k!)^n table at least once; the
    sweep counts every entry of every verified table and every sampled profile.
    """
    if name in ("exact-borda", "exact-random"):
        n, k = _EXACT_SHAPE[size]
        return len(calls(name, 0, size)) * factorial(k) ** n
    plan = _SWEEP[size]
    n, k = _SWEEP_TABLE_SHAPE
    one_voter_functions = _EXHAUSTIVE_K ** factorial(_EXHAUSTIVE_K)
    return (plan["random"] * factorial(k) ** n
            + one_voter_functions * factorial(_EXHAUSTIVE_K)
            + plan["samples"])


def sweep_counts(size: str = "full") -> tuple[int, int]:
    """(instances in the verify --random call, draws in the sample call)."""
    plan = _SWEEP[size]
    return plan["random"], plan["samples"]


# ---------------------------------------------------------------------------
# Report checks that hold for every seed. Pinned digests cover the rest.


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ValueError(f"{what} check failed")


def _frac(text: str) -> Fraction:
    value = Fraction(text)
    if not 0 <= value <= 1:
        raise ValueError(f"{text} is not a probability")
    return value


def _argv_int(argv, flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _check_census(argv, result):
    n, k = _argv_int(argv, "-n"), _argv_int(argv, "-k")
    total = result["total_profiles"]
    _require(total == factorial(k) ** n, "total_profiles")
    counts = [result["counts"][r] for r in sorted(result["counts"], key=int)]
    _require(counts == sorted(counts) and counts[-1] <= total, "census counts")
    for r, count in result["counts"].items():
        key = f"M_{r}"
        if key in result["fractions"]:
            _require(_frac(result["fractions"][key]) == Fraction(count, total), key)


def _check_distance(argv, result):
    d = _frac(result["nonmanip"]["value"])
    d_bar = _frac(result["nonmanip_bar"]["value"])
    # The nonmanipulable family lies inside the nonmanip-bar family.
    _require(d_bar <= d, "distance ordering")


def _check_influences(argv, result):
    _require(len(result["coordinates"]) == _argv_int(argv, "-n"), "coordinates")
    for row in result["coordinates"].values():
        _frac(row["total"])
        for group in ("target", "pairs", "refined_same_pair", "refined_all_transpositions"):
            for value in row[group].values():
                _frac(value)


def _check_fibers(argv, result):
    _require(result["large"] + result["small"] == len(result["records"]), "fiber split")


def _check_local_dictators(argv, result):
    _require(0 <= len(result["profiles"]) <= result["count"], "local dictators")


def _check_gs_classify(argv, result):
    _require(result["verdict"] in ("manipulable", "nonmanipulable"), "verdict")


def _check_verify(argv, result):
    _require(result["holds"] and result["passed"] == result["total"], "verification")
    if "--random" in argv:
        _require(result["total"] == _argv_int(argv, "--random"), "instances")
    else:
        k = _argv_int(argv, "-k")
        _require(result["total"] == k ** factorial(k), "one-voter functions")


def _check_sample(argv, result):
    _require(result["samples"] == _argv_int(argv, "--samples"), "samples")
    _require(0 <= result["successes"] <= result["samples"], "successes")


_CHECKS = {
    "census": _check_census,
    "distance": _check_distance,
    "influences": _check_influences,
    "fibers": _check_fibers,
    "local-dictators": _check_local_dictators,
    "gs-classify": _check_gs_classify,
    "verify": _check_verify,
    "sample": _check_sample,
}


def check_report(argv, text: str) -> str | None:
    """None if the report is well formed and self-consistent, else the reason."""
    try:
        doc = json.loads(text)
        _require(doc["command"] == argv[0], "command")
        _CHECKS[argv[0]](argv, doc["result"])
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return f"{argv[0]}: {type(exc).__name__}: {exc}"
    return None


def check_iteration(reports: dict[str, str]) -> str | None:
    """Cross-call checks on one iteration's reports (label -> report text)."""
    if "census" in reports and "gs-classify" in reports:
        manipulable = Fraction(json.loads(reports["census"])["result"]["fractions"]["M"]) > 0
        verdict = json.loads(reports["gs-classify"])["result"]["verdict"]
        if manipulable != (verdict == "manipulable"):
            return "census and gs-classify disagree on manipulability"
    if "census" in reports and "distance" in reports:
        manipulable = Fraction(json.loads(reports["census"])["result"]["fractions"]["M"]) > 0
        d = Fraction(json.loads(reports["distance"])["result"]["nonmanip"]["value"])
        if manipulable != (d > 0):
            return "census and distance disagree on manipulability"
    return None
