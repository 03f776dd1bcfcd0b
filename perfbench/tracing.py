"""Spans around the package's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function at every binding site: the
module that defines it and every ``votemanip`` module that imported it by name
(``verify`` imports ``census`` and the distance functions, ``metrics`` imports
``boundary_count``). Spans are kept in memory as tuples
``(name, start, end, parent, iteration, self_s)``; a span's self time is its
duration minus the time its child spans cover. ``engine.map_chunks`` spans are
transparent: their children count as children of the caller, so a census or a
boundary count keeps the chunk scans it runs serially as its own time. Only
the outermost ``engine.map_chunks`` call gets a span and counts its chunks; a
census inside a serial sweep chunk is part of the sweep's pool work.

Work that a process pool runs in forked workers records spans in the workers,
which are lost; the benchmark attributes that work by repeating a 2-task
workload at 1 task.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# Traced functions: (module, attribute, span name). The span name's prefix is
# the layer.
TARGETS = (
    ("scf", "random_table_scf", "scf.random_table"),
    ("manip", "census", "manip.census"),
    ("manip", "sample_success", "manip.sample"),
    ("manip", "gs_classify", "manip.gs_classify"),
    ("metrics", "distance_to_nonmanip", "metrics.distance"),
    ("metrics", "distance_to_nonmanip_bar", "metrics.distance_bar"),
    ("metrics", "nearest_monotone_boolean", "metrics.mincut"),
    ("metrics", "influence_total", "metrics.influence_coarse"),
    ("metrics", "influence_target", "metrics.influence_coarse"),
    ("metrics", "influence_pair", "metrics.influence_coarse"),
    ("metrics", "influence_refined", "metrics.influence_refined"),
    ("metrics", "influence_refined_total", "metrics.influence_refined"),
    ("graphs", "boundary_count", "graphs.boundary"),
    ("fibers", "fiber_sweep", "fibers.sweep"),
    ("fibers", "local_dictator_sets", "fibers.local_dictators"),
    ("verify", "verify_main_theorems", "verify"),
    ("verify", "verify_lemma_influences", "verify"),
    ("verify", "verify_thm_1_5", "verify"),
    ("verify", "sweep_one_voter", "verify"),
    ("verify", "sweep_random_tables", "verify"),
    ("engine", "map_chunks", "engine.map_chunks"),
)
TRANSPARENT = frozenset({"engine.map_chunks"})

# Per-layer time metrics: the sum of the self time of these spans.
SELF_TIME_METRICS = {
    "scf.table_s": ("scf.table",),
    "scf.random_table_s": ("scf.random_table",),
    "manip.census_s": ("manip.census",),
    "manip.sample_s": ("manip.sample",),
    "manip.gs_classify_s": ("manip.gs_classify",),
    "metrics.distance_s": ("metrics.distance",),
    "metrics.distance_bar_s": ("metrics.distance_bar",),
    "metrics.mincut_s": ("metrics.mincut",),
    "metrics.influence_s": ("metrics.influence_coarse", "metrics.influence_refined"),
    "graphs.boundary_s": ("graphs.boundary",),
    "fibers.sweep_s": ("fibers.sweep",),
    "fibers.local_dictators_s": ("fibers.local_dictators",),
    "verify.self_s": ("verify",),
}
# Per-layer call counts.
CALL_COUNT_METRICS = {
    "metrics.mincut_calls": "metrics.mincut",
    "metrics.histogram_passes": "metrics.influence_coarse",
    "graphs.boundary_calls": "graphs.boundary",
}


class Tracer:
    """In-memory span recorder with counters gathered at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.iteration = 0
        self._stack: list[list] = []  # [span id, name, start, covered]
        self._open: dict[str, int] = defaultdict(int)
        self._installed: list[tuple] = []

    def enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([len(self.spans), name, self.clock(), 0.0])
        self.spans.append(None)  # placeholder keeps span ids in start order

    def exit(self) -> None:
        end = self.clock()
        span_id, name, start, covered = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += covered if name in TRANSPARENT else duration
        self.spans[span_id] = (name, start, end, parent[0] if parent else None,
                               self.iteration, duration - covered)

    def span(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site inside ``votemanip``.

        A target the package no longer has is skipped, and its metrics read 0.
        """
        for module_name in {"scf", *(target[0] for target in TARGETS)}:
            with contextlib.suppress(ImportError):
                importlib.import_module(f"votemanip.{module_name}")
        modules = [m for name, m in sys.modules.items()
                   if name == "votemanip" or name.startswith("votemanip.")]
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules.get(f"votemanip.{module_name}"), attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

        scf_class = getattr(sys.modules.get("votemanip.scf"), "SCF", None)
        original_table = getattr(scf_class, "table", None)
        if not callable(original_table):
            return
        tracer = self

        @functools.wraps(original_table)
        def table(scf, *args, **kwargs):
            if getattr(scf, "_table_cache", None) is not None:  # cached: no work, no span
                return original_table(scf, *args, **kwargs)
            result = tracer.span("scf.table", original_table, scf, *args, **kwargs)
            tracer.counters["scf.entries_built"] += len(result)
            return result

        scf_class.table = table
        self._installed.append((scf_class, "table", original_table))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in TRANSPARENT and tracer._open[name]:
                return fn(*args, **kwargs)
            result = tracer.span(name, fn, *args, **kwargs)
            if count is not None:
                count(tracer.counters, result)
            return result

        return traced

    # -- per-iteration metrics ---------------------------------------------

    def iteration_metrics(self, iteration: int) -> dict[str, float]:
        """Self times, counts and counters of one iteration's spans."""
        self_time: dict[str, float] = defaultdict(float)
        total_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, _parent, it, self_s in self.spans:
            if it != iteration:
                continue
            self_time[name] += self_s
            total_time[name] += end - start
            calls[name] += 1
        out = {metric: sum(self_time[n] for n in names)
               for metric, names in SELF_TIME_METRICS.items()}
        out.update({metric: calls[n] for metric, n in CALL_COUNT_METRICS.items()})
        out["engine.map_chunks_s"] = total_time["engine.map_chunks"]
        for name, seconds in total_time.items():
            if name.startswith("cli."):
                out[name + "_s"] = seconds
        return out

    def take_counters(self) -> dict[str, float]:
        counters = dict(self.counters)
        self.counters.clear()
        return counters


def _count_census(counters, result):
    total = getattr(result, "total_profiles", 0)
    counters["manip.census_profiles"] += total
    counts = getattr(result, "counts", {})
    if 2 in counts:
        counters["census_width2_hits"] += counts[2]
        counters["census_width2_profiles"] += total


def _count_sample(counters, result):
    counters["manip.samples"] += getattr(result, "samples", 0)


def _count_sweep(counters, result):
    # sweep_* return one report over many instances; verify_* return others.
    counters["verify.instances"] += getattr(result, "total", 0)


def _count_chunks(counters, result):
    counters["engine.chunks"] += len(result)


_COUNTERS = {
    "manip.census": _count_census,
    "manip.sample": _count_sample,
    "verify": _count_sweep,
    "engine.map_chunks": _count_chunks,
}
