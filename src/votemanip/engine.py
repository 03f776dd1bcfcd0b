"""Deterministic chunked enumeration for the sampler and the verify sweeps.

Sampler blocks and sweep instances are split into contiguous chunks, at most
one per task and per CPU, and reduced in chunk order, so results are
identical for every task count. When ``tasks > 1`` chunks run in a process
pool of at most one worker per chunk and per CPU; if no pool can be created
the chunks run sequentially, which produces the same output by construction.
"""
from __future__ import annotations

import concurrent.futures
import os
import sys

# Fixed Monte Carlo block size: the sampler always splits work into blocks of
# this many draws so that reports never depend on the task count.
SAMPLE_BLOCK = 4096

ENV_TASKS = "MANIP_TASKS"


def effective_tasks(tasks: int | None) -> int:
    """Resolve a task count, honoring the MANIP_TASKS override."""
    env = os.environ.get(ENV_TASKS)
    if env is not None:
        try:
            tasks = int(env)
        except ValueError as exc:
            raise ValueError(f"{ENV_TASKS} must be an integer, got {env!r}") from exc
    if tasks is None:
        tasks = 1
    if tasks < 1:
        raise ValueError("task count must be >= 1")
    return tasks


def split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split range(total) into at most ``parts`` contiguous near-even pieces,
    and at most one per CPU: :func:`map_chunks` runs no more workers, so a
    huge task count allocates no piece per task."""
    parts = max(1, min(parts, total, os.cpu_count() or 1))
    base, extra = divmod(total, parts)
    ranges = []
    start = 0
    for p in range(parts):
        stop = start + base + (1 if p < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def map_chunks(worker, chunk_args: list, tasks: int = 1) -> list:
    """Apply ``worker`` to each args tuple, returning results in input order."""
    workers = min(tasks, len(chunk_args), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(*args) for args in chunk_args]
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker, *args) for args in chunk_args]
            return [fut.result() for fut in futures]
    except OSError as exc:  # no pool available in this env
        print(f"warning: process pool unavailable ({exc}); running chunks inline",
              file=sys.stderr)
        return [worker(*args) for args in chunk_args]


def check_seed(seed: int) -> None:
    """Refuse a negative seed: ``random.Random`` seeds from ``abs(seed)``, so
    seed -s would give the stream of s under another name."""
    if seed < 0:
        raise ValueError(f"a seed must be >= 0, got {seed}")


def derive_stream_seed(seed: int, stream: int) -> int:
    """Per-stream seed ``seed * 2^64 + stream``: distinct pairs with ``seed >= 0``
    and ``0 <= stream < 2^64``, both checked, give distinct nonnegative seeds."""
    check_seed(seed)
    if not 0 <= stream < 1 << 64:
        raise ValueError(f"a stream must lie in [0, 2^64), got {stream}")
    return seed * (1 << 64) + stream
