"""One measured phase of a workload, run in a fresh process by ``run.py``.

Imports ``votemanip`` from the checkout's ``src``, runs whole iterations of the
workload's CLI calls in-process through ``votemanip.cli.main`` until the phase's
seconds are used (at least one iteration), checks every report, and prints one
JSON document on stdout. With ``--trace`` the package's public functions are
wrapped first (see ``tracing.py``) and the spans are written to ``--spans``.

MANIP_TASKS is set by ``run.py``; the worker reads it only through the package.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import signal
import struct
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import fmean

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from votemanip import cli  # noqa: E402

POOL_FALLBACK = "process pool unavailable"

# Fixed pure-Python work in the style of the package's table scans (list
# indexing, divmod, histogram updates). A timer runs one pass every
# PROBE_INTERVAL_S in this process and in every forked pool worker, and keeps
# the pass's thread CPU time: on a shared host, contention slows every
# instruction, so this is the speed the calls ran at, sampled during the calls.
_REFERENCE_TABLE = [(i * 2654435761) % 24 for i in range(1 << 12)]
PROBE_INTERVAL_S = 0.05
MIN_PROBES = 10
# pool worker pid, perf_counter at the end, CPU seconds, wall seconds
_SAMPLE = struct.Struct("<iddd")


def reference_pass() -> float:
    """CPU seconds of one pass."""
    cpu = time.thread_time()
    hist = [[0] * 24 for _ in range(24)]
    for p, a in enumerate(_REFERENCE_TABLE):
        hi, rem = divmod(p, 24)
        hist[hi % 24][a] += rem & 1
    return time.thread_time() - cpu


def _waiting_on_pool(frame) -> bool:
    """True while the main thread waits for pool workers."""
    while frame is not None:
        name = frame.f_code.co_filename
        if "concurrent" in name or "multiprocessing" in name:
            return True
        frame = frame.f_back
    return False


class SpeedProbe:
    """Times reference passes on a wall-clock timer, here and in pool workers.

    In this process a pass delays the call being timed by the pass's wall
    time, which ``busy_s`` accumulates so that call times can exclude it.
    While this process waits for pool workers it runs no pass; each worker,
    forked with the timer restarted, runs its own passes and sends them
    through a pipe, and their wall time is taken out of the pool call
    afterwards. ``pools`` holds the wall interval of every
    ``engine.map_chunks`` call that used a pool.
    """

    def __init__(self):
        self.slices: list[float] = []
        self.worker_samples: list[tuple[int, float, float, float]] = []
        self.pools: list[tuple[float, float]] = []
        self.busy_s = 0.0
        self._parent = os.getpid()
        self._active = False
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)
        os.register_at_fork(after_in_child=self._start_in_child)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.drain()
        os.close(self._read)
        os.close(self._write)

    def time_pools(self, engine) -> None:
        """Record the interval of every ``engine.map_chunks`` call that uses a pool.

        Without ``engine.map_chunks`` nothing is recorded, and pool work, if
        any, is scaled by this process's own pass rate.
        """
        map_chunks = getattr(engine, "map_chunks", None)
        if map_chunks is None:
            return

        @functools.wraps(map_chunks)
        def timed(worker, chunk_args, tasks=1):
            start = time.perf_counter()
            try:
                return map_chunks(worker, chunk_args, tasks)
            finally:
                if tasks > 1 and len(chunk_args) > 1:
                    self.pools.append((start, time.perf_counter()))

        engine.map_chunks = timed

    def drain(self) -> None:
        while True:
            try:
                data = os.read(self._read, _SAMPLE.size * 1024)
            except BlockingIOError:
                return
            self.worker_samples.extend(_SAMPLE.iter_unpack(data))

    def _start_in_child(self):
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _on_alarm(self, signum, frame):
        if os.getpid() != self._parent:
            wall = time.perf_counter()
            cpu = reference_pass()
            end = time.perf_counter()
            with contextlib.suppress(BlockingIOError):  # a full pipe drops the sample
                os.write(self._write, _SAMPLE.pack(os.getpid(), end, cpu, end - wall))
            return
        if _waiting_on_pool(frame):
            self.drain()
            return
        wall = time.perf_counter()
        self.slices.append(reference_pass())
        self.busy_s += time.perf_counter() - wall

    def _pools_in(self, window: tuple[float, float]):
        """(wall seconds, pass seconds, slowest worker's pass rate or None) per pool call.

        Only pool calls that start in ``window`` count. The pass seconds are
        those of the worker that passed longest: the call ends with its
        workers, so that is how much the passes delayed it.
        """
        for start, end in self.pools:
            if not window[0] <= start < window[1]:
                continue
            rates = defaultdict(list)
            passes = defaultdict(float)
            for pid, t, cpu, wall in self.worker_samples:
                if start <= t <= end:
                    rates[pid].append(1 / cpu)
                    passes[pid] += wall
            worker_rates = [fmean(r) for r in rates.values() if len(r) >= 2]
            yield (end - start, max(passes.values(), default=0.0),
                   min(worker_rates) if worker_rates else None)

    def pool_pass_s(self, window: tuple[float, float]) -> float:
        """Seconds that pool workers' passes added to the calls in ``window``."""
        return sum(passes for _wall, passes, _rate in self._pools_in(window))

    def wall_ref(self, wall: float, window: tuple[float, float], slices: list[float]) -> float:
        """Wall time in reference passes: each stretch times the pass rate seen during it.

        ``wall`` excludes every pass. Time outside pools uses this process's
        rate, from ``slices`` or, when they are fewer than MIN_PROBES, from
        every pass of the phase. A pool call uses the rate of its slowest
        worker, since the call ends with that worker.
        """
        if len(slices) < MIN_PROBES:
            slices = self.slices or [cpu for _pid, _t, cpu, _wall in self.worker_samples]
        if not slices:  # a phase too short for the timer
            slices = [reference_pass() for _ in range(MIN_PROBES)]
        own_rate = fmean(1 / x for x in slices)
        total = 0.0
        pooled = 0.0
        for pool_wall, passes, rate in self._pools_in(window):
            total += (pool_wall - passes) * (rate or own_rate)
            pooled += pool_wall - passes
        return total + max(0.0, wall - pooled) * own_rate


def run_call(argv, tracer=None, probe=None) -> dict:
    """Run one CLI call in-process; time it and keep its report and exit code.

    With a tracer the call is the root span ``cli.<subcommand>``. The speed
    probe's passes in this process are taken out of the call's time here;
    those in pool workers are taken out by ``finish``.
    """
    out, err = io.StringIO(), io.StringIO()
    probe_start = probe.busy_s if probe else 0.0
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                name = "cli." + argv[0].replace("-", "_")
                rc = tracer.span(name, cli.main, list(argv))
        except SystemExit as exc:  # argparse rejected the argv, or the CLI called exit
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed call, not a harness error
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = "exception"
    end = time.perf_counter()
    wall = end - start - ((probe.busy_s - probe_start) if probe else 0.0)
    report = out.getvalue()
    return {
        "rc": rc,
        "wall_s": wall,
        "window": (start, end),
        "report": report,
        "sha256": hashlib.sha256(report.encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def _run_iterations(args, calls, tracer, probe) -> list[dict]:
    """Whole iterations until the phase's seconds are used, at least one."""
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < args.seconds:
        index = len(iterations)
        if tracer is not None:
            tracer.iteration = index
        first_slice = len(probe.slices)
        window_start = time.perf_counter()
        results = {}
        for call in calls:
            gc.collect()  # the previous call's garbage is not this call's cost
            results[call.label] = run_call(call.argv, tracer, probe)
        problems = []
        for call in calls:
            res = results[call.label]
            if res["rc"] != 0:
                problems.append(f"{call.label}: exit code {res['rc']}: {res['stderr'].strip()}")
            else:
                reason = workloads.check_report(call.argv, res["report"])
                if reason:
                    problems.append(reason)
        if not problems:
            reason = workloads.check_iteration({c: r["report"] for c, r in results.items()})
            if reason:
                problems.append(reason)
        record = {
            "calls": {label: {"rc": r["rc"], "wall_s": r["wall_s"], "window": r["window"],
                              "sha256": r["sha256"]}
                      for label, r in results.items()},
            "pool_fallbacks": sum(r["stderr"].count(POOL_FALLBACK) for r in results.values()),
            "problems": problems,
        }
        record["window"] = (window_start, time.perf_counter())
        record["probe_slices_s"] = probe.slices[first_slice:]
        if tracer is not None:
            record["layers"] = tracer.iteration_metrics(index)
            record["counters"] = tracer.take_counters()
        iterations.append(record)
    return iterations


def finish(iterations: list[dict], probe: SpeedProbe) -> None:
    """Take pool workers' passes out of the call times; add each iteration's wall_ref."""
    for it in iterations:
        for call in it["calls"].values():
            call["wall_s"] -= probe.pool_pass_s(call.pop("window"))
        it["wall_s"] = sum(call["wall_s"] for call in it["calls"].values())
        it["wall_ref"] = probe.wall_ref(it["wall_s"], it.pop("window"), it["probe_slices_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full", choices=["full", "smoke"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="JSON-lines span file (with --trace)")
    args = parser.parse_args(argv)

    calls = workloads.calls(args.workload, args.seed, args.size)
    probe = SpeedProbe()
    with contextlib.suppress(ImportError):
        probe.time_pools(importlib.import_module("votemanip.engine"))
    with probe:
        tracer = None
        if args.trace:
            import tracing
            # Spans read a clock that stops while the probe runs.
            tracer = tracing.Tracer(clock=lambda: time.perf_counter() - probe.busy_s)
            tracer.install()
        iterations = _run_iterations(args, calls, tracer, probe)
        if tracer is not None:
            tracer.uninstall()

    finish(iterations, probe)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer is not None and args.spans:
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "tasks": os.environ.get("MANIP_TASKS"),
        "traced": args.trace,
        "iterations": iterations,
        # ru_maxrss is in KiB on Linux; children is the largest pool worker.
        "peak_rss_kib": {"self": own, "largest_child": children},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
