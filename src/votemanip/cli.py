"""Command-line driver emitting machine-readable JSON reports.

Exact-mode reports contain integers and "p/q" rational strings only; Monte
Carlo reports carry sample counts and standard errors and are never presented
as exact. Reports are byte-identical for a fixed config and seed regardless
of the task count, so the execution task count is not echoed.

Exit codes: 0 success, 1 invalid configuration, 2 enumeration cap exceeded,
3 a verification reported holds=false (a counterexample bundle is written).
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import engine, fibers, graphs, manip, metrics, rankings, scf, verify
from .errors import CapExceededError
from .metrics import frac_str

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_rule(rule: str, n: int, k: int, cap: int) -> scf.SCF:
    name, _, rest = rule.partition(":")
    if name == "plurality":
        return scf.Plurality(n, k, cap=cap)
    if name == "borda":
        return scf.Borda(n, k, cap=cap)
    if name == "constant":
        return scf.Constant(n, k, int(rest) - 1, cap=cap)
    if name == "top":
        voter, _, subset = rest.partition(":")
        members = [int(x) - 1 for x in subset.split(",")] if subset else list(range(k))
        return scf.TopHDictator(n, k, int(voter) - 1, members, cap=cap)
    if name == "random":
        return scf.random_table_scf(n, k, int(rest), cap)
    if name == "monotone-random":
        return scf.random_monotone_two_valued(n, k, int(rest), cap)
    raise ConfigError(f"unknown rule {rule!r}")


def _build_scf(args) -> scf.SCF:
    if getattr(args, "table", None):
        if args.rule or args.voters is not None or args.alternatives is not None:
            raise ConfigError("--table gives the SCF and its shape: drop --rule, -n and -k")
        return scf.load_scf_table(args.table, cap=args.cap)
    if not getattr(args, "rule", None):
        raise ConfigError("an SCF is required: pass --rule or --table")
    if args.voters is None or args.alternatives is None:
        raise ConfigError("--rule needs -n and -k")
    return _parse_rule(args.rule, args.voters, args.alternatives, args.cap)


def _pair(text: str, k: int) -> tuple[int, int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 2 or parts[0] == parts[1]:
        raise ConfigError(f"--pair wants two distinct 1-based ids, got {text!r}")
    a, b = parts[0] - 1, parts[1] - 1
    if not (0 <= a < k and 0 <= b < k):
        raise ConfigError(f"pair {text!r} out of range for k={k}")
    return a, b


def _fraction(text: str, option: str) -> Fraction:
    """The rational value of a ``p/q`` option; the report echoes ``text`` itself."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{option} wants a rational p/q, got {text!r}") from None


# Report config key -> parsed option, echoed when the subcommand has the option
# and it is set. The keys are kept as they are for byte-stable reports; they
# are not every option that shapes a report (--pair, --thm and --r-values are
# not echoed).
_CONFIG_KEYS = {"n": "voters", "k": "alternatives", "rule": "rule", "table": "table",
                "epsilon": "epsilon", "seed": "seed", "samples": "samples",
                "enumeration_cap": "cap"}


def _emit(args, result: dict) -> None:
    config = {"command": args.subcommand}
    for key, option in _CONFIG_KEYS.items():
        if getattr(args, option, None) is not None:
            config[key] = getattr(args, option)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": args.subcommand,
        "config": config,
        "result": result,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers. Each returns the process exit code.


def _cmd_census(args) -> int:
    try:
        requested = sorted({int(x) for x in args.r_values.split(",")})
    except ValueError:
        raise ConfigError(
            f"--r-values wants comma-separated integers, got {args.r_values!r}") from None
    f = _build_scf(args)
    rs = sorted(set(requested) | {max(f.k, 2)})
    cen = manip.census(f, rs)
    fractions = {f"M_{r}": frac_str(cen.fraction(r)) for r in requested}
    fractions["M"] = frac_str(cen.manipulable_fraction())
    result = {
        "total_profiles": cen.total_profiles,
        "counts": {str(r): cen.count(r) for r in rs},
        "fractions": fractions,
    }
    _emit(args, result)
    return 0


def _cmd_distance(args) -> int:
    f = _build_scf(args)
    result = {
        "nonmanip": metrics.distance_to_nonmanip(f).describe(),
        "nonmanip_bar": metrics.distance_to_nonmanip_bar(f).describe(),
    }
    _emit(args, result)
    return 0


def _cmd_influences(args) -> int:
    """One transition-count pass per coordinate, plus one refined-edge pass with
    --refined: each is made on the first read of its kind. The refined pass's
    swap table is refused over the cap before the SCF is built, or with
    --table, whose file gives k, once it is read."""
    k = None if args.table else args.alternatives
    if args.refined and k is not None and k >= 1:  # a bad shape is the SCF's to refuse
        rankings.check_window_moves(k, 2, args.cap)
    f = _build_scf(args)
    if args.refined and args.table:
        rankings.check_window_moves(f.k, 2, f.cap)
    table = {}
    for i in range(f.n):
        inf = graphs.CoordinateInfluences(f, i)
        target = [inf.influence(a) for a in range(f.k)]
        row = {
            "total": frac_str(sum(target)),
            "target": {str(a + 1): frac_str(x) for a, x in enumerate(target)},
            "pairs": {
                f"{a + 1}-{b + 1}": frac_str(inf.influence(a, b))
                for a in range(f.k) for b in range(f.k) if a != b
            },
        }
        if args.refined:
            pairs = [(a, b) for a in range(f.k) for b in range(a + 1, f.k)]
            for key, kind in (("refined_same_pair", graphs.GraphKind.SWAP),
                              ("refined_all_transpositions", graphs.GraphKind.REFINED)):
                row[key] = {f"{a + 1}-{b + 1}": frac_str(inf.influence(a, b, kind))
                            for a, b in pairs}
        table[str(i + 1)] = row
    _emit(args, {"coordinates": table})
    return 0


def _resolve_gamma(args, f) -> Fraction:
    if args.gamma is not None:
        return _fraction(args.gamma, "--gamma")
    if args.epsilon is None:
        raise ConfigError("fibers needs --gamma or --epsilon for the preset")
    preset = "gamma-refined" if args.variant == "refined" else "gamma-coarse"
    return verify.bound_value(
        preset, verify.BoundParams(n=f.n, k=f.k, epsilon=_fraction(args.epsilon, "--epsilon"))
    )


def _cmd_fibers(args) -> int:
    if args.gamma is not None and args.epsilon is not None:
        raise ConfigError("pass one of --gamma and --epsilon")
    f = _build_scf(args)
    pair = _pair(args.pair, f.k)
    variant = fibers.FiberVariant(args.variant)
    gamma = _resolve_gamma(args, f)
    records = fibers.fiber_sweep(f, args.coordinate - 1, pair, variant, gamma)
    result = {
        "gamma": frac_str(gamma),
        "records": [rec.describe() for rec in records],
        "large": sum(1 for rec in records if rec.large),
        "small": sum(1 for rec in records if not rec.large),
    }
    _emit(args, result)
    return 0


def _cmd_local_dictators(args) -> int:
    if args.max_list < 0:
        raise ConfigError("--max-list must be >= 0")
    f = _build_scf(args)
    pair = _pair(args.pair, f.k)
    found = fibers.local_dictator_sets(f, args.coordinate - 1, pair)
    # Index order is the lexicographic order of the profiles' order tuples.
    listed = [[[x + 1 for x in order] for order in rankings.decode_profile(f.n, f.k, index)]
              for index in found[:args.max_list]]
    result = {"count": len(found), "profiles": listed}
    _emit(args, result)
    return 0


def _cmd_gs_classify(args) -> int:
    f = _build_scf(args)
    result = manip.gs_classify(f).describe()
    _emit(args, result)
    return 0


def _cmd_sample(args) -> int:
    f = _build_scf(args)
    rep = manip.sample_success(f, args.samples, args.seed, args.width, args.tasks)
    _emit(args, rep.describe())
    return 0


def _cmd_isoperimetry(args) -> int:
    report = graphs.verify_lindsey(
        args.alternatives, args.copies, exhaustive=not args.lex_only
    )
    _emit(args, report.describe())
    return 0 if report.holds else 3


def _cmd_hypercontractivity(args) -> int:
    if not 1 <= args.bits <= verify.MAX_CUBE_BITS:
        raise CapExceededError(f"--bits {args.bits} outside the supported range "
                               f"[1, {verify.MAX_CUBE_BITS}]")
    if args.pairs < 1:
        raise ConfigError(f"--pairs must be >= 1, got {args.pairs}")
    rho = _fraction(args.rho, "--rho")
    size = 1 << args.bits
    if args.b1 or args.b2:
        B1 = [int(x) for x in args.b1.split(",")] if args.b1 else []
        B2 = [int(x) for x in args.b2.split(",")] if args.b2 else []
        report = verify.verify_reverse_hypercontractivity(args.bits, rho, B1, B2)
        _emit(args, report.describe())
        return 0 if report.holds else 3
    sample_rows = []
    for t in range(args.pairs):
        rng = random.Random(engine.derive_stream_seed(args.seed, t))
        bits1, bits2 = rng.getrandbits(size), rng.getrandbits(size)
        B1 = [m for m in range(size) if bits1 >> m & 1]
        B2 = [m for m in range(size) if bits2 >> m & 1]
        report = verify.verify_reverse_hypercontractivity(args.bits, rho, B1, B2)
        if not report.holds:
            sample_rows.append(report.describe())
    result = {
        "pairs_checked": args.pairs,
        "violations": len(sample_rows),
        "holds": not sample_rows,
        "failing_reports": sample_rows[:10],
    }
    _emit(args, result)
    return 3 if sample_rows else 0


def _check_verify_options(args) -> None:
    """Refuse an option the call would not use, since the report echoes it."""
    sweep = args.exhaustive or args.random is not None
    if args.exhaustive and args.random is not None:
        raise ConfigError("pass one of --exhaustive and --random")
    if sweep and (args.rule or args.table):
        raise ConfigError("the sweeps build their own SCFs: drop --rule and --table")
    if args.exhaustive and args.voters is not None:
        raise ConfigError("--exhaustive sweeps one-voter SCFs: drop -n")
    override = verify.STATEMENTS.get(args.thm, (None, None, None))[2]
    if args.epsilon is not None and (sweep or override != "epsilon"):
        raise ConfigError("--epsilon applies only to --thm 2.1, 5.3 or 6.1 on one SCF")
    if args.alpha is not None and (sweep or override != "alpha"):
        raise ConfigError("--alpha applies only to --thm 1.5 on one SCF")
    if args.seed is not None and args.random is None:
        raise ConfigError("--seed applies only to --random")


def _verify_run(args, tasks: int):
    """(report body, failed reports, SCF or None) of one ``verify`` call."""
    _check_verify_options(args)
    if args.seed is None:
        args.seed = 0  # the report echoes seed 0 when none is given
    if args.exhaustive:
        if args.thm != "1.4":
            raise ConfigError("--exhaustive sweeps support --thm 1.4")
        if args.alternatives is None:
            raise ConfigError("--exhaustive needs -k")
        sweep = verify.sweep_one_voter(args.alternatives, tasks, args.cap)
        name = "1.4-sweep"
    elif args.random is not None:
        if args.thm != "1.2":
            raise ConfigError("--random sweeps support --thm 1.2 (checked with 2.1 and 1.5)")
        if args.voters is None or args.alternatives is None:
            raise ConfigError("--random needs -n and -k")
        sweep = verify.sweep_random_tables(
            args.voters, args.alternatives, args.random, args.seed, tasks, args.cap
        )
        name = "random-sweep"
    else:
        if args.thm not in verify.STATEMENTS:
            raise ConfigError(f"unknown statement {args.thm!r}")
        if args.rule and not args.table and None not in (args.voters, args.alternatives):
            verify.check_statement(args.thm, args.voters, args.alternatives)
        option = verify.STATEMENTS[args.thm][2]  # _check_verify_options refused any other
        text = option and getattr(args, option)
        value = None if text is None else _fraction(text, f"--{option}")
        f = _build_scf(args)
        report = verify.verify_statement(verify.Measurements(f), args.thm, value)
        return {"reports": [report.describe()]}, [] if report.holds else [report], f
    failed = [] if sweep.holds else [verify.VerificationReport(
        name, None, None, False, witnesses={"failures": sweep.failures})]
    return sweep.describe(), failed, None


def _cmd_verify(args) -> int:
    result, failed, f = _verify_run(args, args.tasks)
    _emit(args, result)
    if failed:
        verify.write_counterexample(failed[0], f, args.bundle_dir)
        return 3
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_common(parser: argparse.ArgumentParser, with_scf: bool = True) -> None:
    parser.add_argument("--tasks", type=int, default=None,
                        help="task count (MANIP_TASKS overrides; results never depend on it)")
    parser.add_argument("-o", "--output", default=None, help="report path (default stdout)")
    if with_scf:
        parser.add_argument("--cap", type=int, default=scf.DEFAULT_TABLE_CAP,
                            help="enumeration cap on (k!)^n table entries")
        parser.add_argument("--rule", default=None,
                            help="plurality | borda | constant:A | top:I[:H,H,...] | "
                                 "random:SEED | monotone-random:SEED (ids 1-based)")
        parser.add_argument("--table", default=None, help="SCF table file (JSON)")
        parser.add_argument("-n", "--voters", type=int, default=None)
        parser.add_argument("-k", "--alternatives", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="votemanip",
                     description="Exact desk-scale manipulability analysis of voting rules")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("census", help="exact r-manipulation census")
    _add_common(p)
    p.add_argument("--r-values", default="2,3,4",
                   help="comma list of r values (k, or 2 when k = 1, is always added)")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("distance", help="distances to both nonmanipulable families")
    _add_common(p)
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("influences", help="full influence table")
    _add_common(p)
    p.add_argument("--refined", action="store_true", help="add adjacent-transposition influences")
    p.set_defaults(handler=_cmd_influences)

    p = sub.add_parser("fibers", help="large/small classification sweep for a pair")
    _add_common(p)
    p.add_argument("--pair", required=True, help="two 1-based ids, e.g. 1,2")
    p.add_argument("--coordinate", type=int, required=True, help="1-based voter")
    p.add_argument("--variant", choices=["plain", "refined"], default="plain")
    p.add_argument("--gamma", default=None, help="threshold as p/q")
    p.add_argument("--epsilon", default=None, help="epsilon p/q for the gamma preset")
    p.set_defaults(handler=_cmd_fibers)

    p = sub.add_parser("local-dictators", help="profiles locally dictated on a pair")
    _add_common(p)
    p.add_argument("--pair", required=True)
    p.add_argument("--coordinate", type=int, required=True)
    p.add_argument("--max-list", type=int, default=20)
    p.set_defaults(handler=_cmd_local_dictators)

    p = sub.add_parser("verify", help="verify a statement id against brute force")
    _add_common(p)
    p.add_argument("--thm", required=True,
                   help="statement id: " + ", ".join(verify.STATEMENTS))
    p.add_argument("--exhaustive", action="store_true",
                   help="sweep every one-voter SCF (with --thm 1.4)")
    p.add_argument("--random", type=int, default=None, metavar="COUNT",
                   help="sweep seeded random table SCFs (with --thm 1.2; checks statements "
                        "1.2 + 2.1 + 1.5)")
    p.add_argument("--seed", type=int, default=None, help="seed of --random (default 0)")
    p.add_argument("--epsilon", default=None, help="override measured epsilon (p/q)")
    p.add_argument("--alpha", default=None, help="override measured alpha (p/q)")
    p.add_argument("--bundle-dir", default="counterexamples")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sample", help="random-window manipulation sampler (Monte Carlo)")
    _add_common(p)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=4, choices=[3, 4],
                   help="window width (3 fits the one-voter setting)")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("gs-classify", help="manipulation witness or nonmanipulable twin")
    _add_common(p)
    p.set_defaults(handler=_cmd_gs_classify)

    p = sub.add_parser("isoperimetry", help="edge-isoperimetry check on K_k^n")
    _add_common(p, with_scf=False)
    p.add_argument("-k", "--alternatives", type=int, required=True,
                   help="complete graph size")
    p.add_argument("--copies", type=int, required=True, help="number of factors")
    p.add_argument("--lex-only", action="store_true",
                   help="check lexicographic segments instead of all subsets")
    p.set_defaults(handler=_cmd_isoperimetry)

    p = sub.add_parser("hypercontractivity", help="correlated-cube overlap check")
    _add_common(p, with_scf=False)
    p.add_argument("--bits", type=int, required=True, help="cube dimension")
    p.add_argument("--rho", default="1/3", help="correlation as p/q")
    p.add_argument("--pairs", type=int, default=200, help="seeded random set pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--b1", default=None, help="explicit comma list of masks")
    p.add_argument("--b2", default=None)
    p.set_defaults(handler=_cmd_hypercontractivity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.tasks = engine.effective_tasks(args.tasks)
        if getattr(args, "seed", None) is not None:
            engine.check_seed(args.seed)
        return args.handler(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
