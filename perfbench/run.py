"""Benchmark of the votemanip CLI: time to solution, memory, set-up and layer times.

    python3 perfbench/run.py --workload exact-borda --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each measured phase runs in a fresh process (``worker.py``) that calls
``votemanip.cli.main`` in-process for whole iterations of the workload's CLI
calls; this script times nothing itself except set-up. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run (see
``README.md`` in this directory). The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary, and the full record, host state included,
goes to ``perfbench/out/``.

Every report is checked: exit code, well-formedness, cross-call consistency,
identical bytes across iterations and task counts, and, where
``digests.json`` pins the seed, the sha256 of the seed commit's report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = HERE / "out"
DIGESTS = HERE / "digests.json"
# A single run must end within 180 s; workers are stopped at this deadline.
DEADLINE_S = 170.0
SETUP_PROBES = 10
SETUP_PASSES = 20
# setup_s counts one reference pass as this many seconds (see README.md).
NOMINAL_PASS_S = 5e-4

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "wall_s": "s",
    "us_per_entry": "us",
    **{f"cli.{sub}_s": "s" for sub in (
        "census", "distance", "influences", "fibers", "local_dictators",
        "gs_classify", "verify", "sample")},
    "scf.table_s": "s",
    "scf.entries_built": "count",
    "scf.random_table_s": "s",
    "manip.census_s": "s",
    "manip.census_profiles": "count",
    "manip.census_width2_share": "ratio",
    "manip.sample_s": "s",
    "manip.samples": "count",
    "manip.gs_classify_s": "s",
    "metrics.distance_s": "s",
    "metrics.distance_bar_s": "s",
    "metrics.mincut_s": "s",
    "metrics.mincut_calls": "count",
    "metrics.influence_s": "s",
    "metrics.histogram_passes": "count",
    "graphs.boundary_s": "s",
    "graphs.boundary_calls": "count",
    "fibers.sweep_s": "s",
    "fibers.local_dictators_s": "s",
    "verify.self_s": "s",
    "verify.instances": "count",
    "engine.map_chunks_s": "s",
    "engine.serial_s": "s",
    "engine.chunks": "count",
    "engine.pool_fallbacks": "count",
    "instances_per_s": "1/s",
    "samples_per_s": "1/s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# Probe run in a fresh interpreter: import the CLI and parse the first argv,
# then time reference passes to read the machine's speed at that moment.
_SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import votemanip.cli as cli\n"
    "cli.build_parser().parse_args(sys.argv[1:])\n"
    "elapsed = time.perf_counter() - t\n"
    "from worker import reference_pass\n"
    f"print(elapsed, *(reference_pass() for _ in range({SETUP_PASSES})))\n"
)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Processes.


def _child_env(tasks: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["MANIP_TASKS"] = str(tasks)
    env.pop("PYTHONOPTIMIZE", None)  # report checks must not be compiled away
    return env


def _run(cmd: list[str], env: dict, deadline: float) -> str:
    """Run a child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1:3]} did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return out


def measure_setup(argv, tasks: int, count: int, deadline: float) -> list[tuple[float, float]]:
    """(import-plus-parse seconds, reference pass rate) in ``count`` fresh interpreters."""
    cmd = [sys.executable, "-c", _SETUP_PROBE, *argv]
    env = _child_env(tasks)
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    probes = []
    for _ in range(count):
        elapsed, *passes = (float(x) for x in _run(cmd, env, deadline).split())
        probes.append((elapsed, fmean(1 / p for p in passes)))
    return probes


def run_phase(workload: str, seed: int, seconds: float, tasks: int, size: str,
              traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--size", size]
    if traced:
        spans = OUT_DIR / f"{workload}-seed{seed}-tasks{tasks}.spans.jsonl"
        cmd += ["--trace", "--spans", str(spans)]
    out = _run(cmd, _child_env(tasks), deadline)
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Host state, recorded so that a noisy run can be recognised.


def _cpu_ticks() -> tuple[int, int]:
    """(steal ticks, all ticks) from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice]; guest
    # time is already inside user and nice.
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def host_state() -> dict:
    steal, total = _cpu_ticks()
    return {"loadavg": list(os.getloadavg()), "steal_ticks": steal, "cpu_ticks": total}


def host_info() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "votemanip").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Correctness.


def _pins(workload: str, seed: int, size: str):
    if size != "full" or not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text())["workloads"].get(workload, {})
    return table.get(str(seed) if workloads.WORKLOADS[workload].seeded else "any")


def judge(phases: list[dict], pins) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every iteration of every phase.

    An iteration fails on a nonzero exit, a failed report check, a digest
    different from the pinned one, or bytes that differ from the run's first
    iteration (another iteration or another task count).
    """
    attempted = failed = 0
    reference = None
    problems = []
    for phase in phases:
        for index, it in enumerate(phase["iterations"]):
            attempted += 1
            issues = list(it["problems"])
            digests = {label: [c["rc"], c["sha256"]] for label, c in it["calls"].items()}
            if pins is not None and digests != pins:
                bad = sorted(label for label in digests if digests[label] != pins.get(label))
                issues.append(f"report digest differs from the pinned one: {', '.join(bad)}")
            if reference is None:
                reference = digests
            elif digests != reference:
                issues.append("reports differ between iterations or task counts")
            if issues:
                failed += 1
                where = f"tasks={phase['tasks']} traced={phase['traced']} iteration {index}"
                problems += [f"{where}: {msg}" for msg in issues]
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Metrics.


def _call_median(phase: dict, label: str) -> float:
    return median([it["calls"][label]["wall_s"] for it in phase["iterations"]])


def _rates(phase: dict, workload: str, size: str) -> dict:
    """instances_per_s and samples_per_s of sweep-sample's verify --random and sample calls."""
    if workload != "sweep-sample":
        return {"instances_per_s": 0.0, "samples_per_s": 0.0}
    instances, samples = workloads.sweep_counts(size)
    return {"instances_per_s": instances / _call_median(phase, "verify-random"),
            "samples_per_s": samples / _call_median(phase, "sample")}


def wall_ref(phase: dict) -> float:
    """Median iteration time in reference passes (see ``worker._run_iterations``)."""
    return median(it["wall_ref"] for it in phase["iterations"])


def _wall(phase: dict, workload: str, size: str) -> dict:
    wall = median([it["wall_s"] for it in phase["iterations"]])
    return {"wall_s": wall, "us_per_entry": wall * 1e6 / workloads.entries(workload, size)}


def end_to_end(phase: dict, setup: list[float]) -> dict:
    rss = phase["peak_rss_kib"]
    return {
        "wall_ref": wall_ref(phase),
        "peak_rss_mib": (rss["self"] + rss["largest_child"]) / 1024,
        # Import time in reference passes, read at NOMINAL_PASS_S per pass.
        "setup_s": median(elapsed * rate * NOMINAL_PASS_S for elapsed, rate in setup),
    }


def per_layer(untraced: dict, traced: dict, serial: dict, workload: str, size: str) -> dict:
    """Layer metrics from the traced phase at the workload's task count and at 1 task.

    ``serial`` (1 task) sees the work that pool workers do at 2 tasks, so the
    self times and counters come from it; the CLI span times, the parent-side
    pool time and the chunk count come from ``traced``.
    """
    def layer_median(phase, name):
        return median([it["layers"].get(name, 0.0) for it in phase["iterations"]])

    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        if name.startswith("cli."):
            out[name] = layer_median(traced, name)
    for name in (*tracing.SELF_TIME_METRICS, *tracing.CALL_COUNT_METRICS):
        out[name] = layer_median(serial, name)
    counters = serial["iterations"][0]["counters"]
    for name in ("scf.entries_built", "manip.census_profiles", "manip.samples",
                 "verify.instances"):
        out[name] = counters.get(name, 0.0)
    width2_base = counters.get("census_width2_profiles", 0.0)
    if width2_base:
        out["manip.census_width2_share"] = counters["census_width2_hits"] / width2_base
    out["engine.map_chunks_s"] = layer_median(traced, "engine.map_chunks_s")
    out["engine.serial_s"] = layer_median(serial, "engine.map_chunks_s")
    out["engine.chunks"] = traced["iterations"][0]["counters"].get("engine.chunks", 0.0)
    out["engine.pool_fallbacks"] = max(
        it["pool_fallbacks"] for phase in (untraced, traced) for it in phase["iterations"])
    out.update(_rates(untraced, workload, size))
    out.update(_wall(untraced, workload, size))
    # Traced minus untraced time, compared in reference passes so that host
    # speed swings between the phases cancel, then read in untraced seconds.
    out["trace.overhead_s"] = (wall_ref(traced) / wall_ref(untraced) - 1) * out["wall_s"]
    out["trace.unattributed_s"] = median([
        it["wall_s"] - sum(it["layers"][name] for name in tracing.SELF_TIME_METRICS)
        for it in serial["iterations"]])
    return out


# ---------------------------------------------------------------------------
# One workload.


def bench_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                   info: dict) -> dict:
    spec = workloads.WORKLOADS[workload]
    if spec.tasks > info["nproc"]:
        raise BenchError(f"{workload} needs MANIP_TASKS={spec.tasks}, above nproc={info['nproc']}")
    deadline = time.monotonic() + DEADLINE_S
    before = host_state()
    setup: list[tuple[float, float]] = []
    if not trace:
        # Half the set-up probes run before the phase and half after it, so
        # that the median spans the run; the first one only warms the caches.
        argv = workloads.calls(workload, seed, size)[0].argv
        half = SETUP_PROBES // 2
        setup = measure_setup(argv, spec.tasks, 1 + half, deadline)[1:]
        phases = [run_phase(workload, seed, seconds, spec.tasks, size, False, deadline)]
        setup += measure_setup(argv, spec.tasks, SETUP_PROBES - half, deadline)
    else:
        # Untraced, traced at the workload's task count, and traced at 1 task
        # when that differs; the phases share the run's seconds.
        counts = [spec.tasks] if spec.tasks == 1 else [spec.tasks, 1]
        share = seconds / (1 + len(counts))
        phases = [run_phase(workload, seed, share, spec.tasks, size, False, deadline)]
        phases += [run_phase(workload, seed, share, tasks, size, True, deadline)
                   for tasks in counts]
    after = host_state()

    attempted, failed, problems = judge(phases, _pins(workload, seed, size))
    if trace:
        metrics = per_layer(phases[0], phases[1], phases[-1], workload, size)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(phases[0], setup)
        units = END_TO_END_UNITS
    ticks = after["cpu_ticks"] - before["cpu_ticks"]
    record = {
        "workload": workload,
        "why": spec.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "tasks": spec.tasks,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "iteration_wall_s": [it["wall_s"] for it in phases[0]["iterations"]],
        "call_median_s": {label: _call_median(phases[0], label)
                          for label in phases[0]["iterations"][0]["calls"]},
        "rates": _rates(phases[0], workload, size),
        "wall": _wall(phases[0], workload, size),
        "setup_probes": [{"seconds": elapsed, "pass_rate": rate} for elapsed, rate in setup],
        "pool_fallbacks": sum(it["pool_fallbacks"] for p in phases for it in p["iterations"]),
        "host": {**info, "before": before, "after": after,
                 "steal_share": (after["steal_ticks"] - before["steal_ticks"]) / ticks
                 if ticks > 0 else 0.0},
        "phases": phases,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}" + ("" if size == "full" else f"-{size}")
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def summary(record: dict) -> str:
    walls = record["iteration_wall_s"]
    host = record["host"]
    lines = [
        f"{record['workload']}: seed {record['seed']}, trace {int(record['trace'])}, "
        f"MANIP_TASKS={record['tasks']}, {len(walls)} untraced iterations, size {record['size']}",
    ]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    if not record["trace"]:
        raw = {**record["wall"], **(record["rates"] if record["workload"] == "sweep-sample" else {})}
        raw = [(name, value, PER_LAYER_UNITS[name]) for name, value in raw.items()]
        raw.append(("setup_raw_s", median(p["seconds"] for p in record["setup_probes"]), "s"))
        for name, value, unit in raw:
            lines.append(f"  {name:28s} {value:14.6g} {unit}  (raw, not normalised)")
    lines.append(f"  {'wall_max_s':28s} {max(walls):14.6g} s  (tail: max of {len(walls)})")
    lines.append(f"  {'fail_ratio':28s} {record['failed']}/{record['attempted']}")
    lines.append("  calls: " + ", ".join(f"{label} {secs:.3f} s"
                                         for label, secs in record["call_median_s"].items()))
    lines.append(
        f"  host: nproc {host['nproc']}, load {host['before']['loadavg'][0]:.2f} -> "
        f"{host['after']['loadavg'][0]:.2f}, steal {100 * host['steal_share']:.1f}%, "
        f"pool fallbacks {record['pool_fallbacks']}, python {host['python']}, "
        f"numpy {host['numpy']}, commit {host['commit']}, source {host['source_sha256'][:12]}")
    lines += [f"  FAILED {p}" for p in record["problems"][:20]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke shrinks every call; no digests are pinned for it")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "votemanip" / "cli.py").is_file():
        print(f"error: no votemanip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    info = host_info()
    try:
        records = [bench_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.size, info) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print(summary(record))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in records for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
