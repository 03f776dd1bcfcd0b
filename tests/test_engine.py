import concurrent.futures
import os

import pytest

from votemanip import engine
from votemanip.manip import sample_success
from votemanip.scf import Borda
from votemanip.verify import sweep_random_tables


def test_split_ranges_covers_everything():
    for total in (0, 1, 5, 36, 100):
        for parts in (1, 2, 7, 200):
            ranges = engine.split_ranges(total, parts)
            flat = [i for lo, hi in ranges for i in range(lo, hi)]
            assert flat == list(range(total))
            assert len(ranges) <= max(parts, 1)


def test_a_huge_task_count_splits_into_one_chunk_per_cpu(monkeypatch):
    # A chunk per task would allocate a list as long as --tasks; the pool
    # never runs more than one worker per CPU.
    chunk_counts = []

    def inline(worker, chunk_args, tasks=1):
        chunk_counts.append(len(chunk_args))
        return [worker(*args) for args in chunk_args]

    monkeypatch.setattr(engine, "map_chunks", inline)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert engine.split_ranges(100, 50) == [(0, 50), (50, 100)]
    f, samples = Borda(2, 4), 3 * engine.SAMPLE_BLOCK + 5
    assert sample_success(f, samples, 3, tasks=10 ** 9) == sample_success(f, samples, 3)
    assert sweep_random_tables(2, 3, 5, 1, tasks=10 ** 9) == sweep_random_tables(2, 3, 5, 1)
    assert chunk_counts == [2, 1, 2, 1]


def test_effective_tasks_env_override(monkeypatch):
    monkeypatch.delenv(engine.ENV_TASKS, raising=False)
    assert engine.effective_tasks(None) == 1
    assert engine.effective_tasks(4) == 4
    monkeypatch.setenv(engine.ENV_TASKS, "3")
    assert engine.effective_tasks(8) == 3
    monkeypatch.setenv(engine.ENV_TASKS, "zero")
    with pytest.raises(ValueError):
        engine.effective_tasks(1)
    monkeypatch.setenv(engine.ENV_TASKS, "0")
    with pytest.raises(ValueError):
        engine.effective_tasks(1)


def test_stream_seed_disjoint():
    seeds = {engine.derive_stream_seed(s, t) for s in range(3) for t in range(100)}
    assert len(seeds) == 300


def test_stream_seeds_refuse_negative_seeds_and_streams_past_64_bits():
    # Random(s) seeds from abs(s): at -3 the stream would alias seed 3's.
    for seed, stream in ((-3, 0), (0, -1), (0, 1 << 64)):
        with pytest.raises(ValueError):
            engine.derive_stream_seed(seed, stream)
    assert engine.derive_stream_seed(3, (1 << 64) - 1) < engine.derive_stream_seed(4, 0)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_map_chunks_caps_workers(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _InlineExecutor.started = []
    chunks = [(x,) for x in range(5)]
    assert engine.map_chunks(abs, chunks, tasks=64) == list(range(5))
    assert engine.map_chunks(abs, chunks[:1], tasks=64) == [0]
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert engine.map_chunks(abs, chunks[:3], tasks=64) == [0, 1, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert engine.map_chunks(abs, chunks, tasks=8) == list(range(5))
    assert _InlineExecutor.started == [2, 3]


@pytest.mark.parametrize("error", [OSError, PermissionError])
def test_map_chunks_runs_inline_when_no_pool_starts(monkeypatch, capsys, error):
    def unavailable(*args, **kwargs):
        raise error("no semaphores")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unavailable)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    chunks = [(x,) for x in (3, -1, 4, -1, -5)]
    assert engine.map_chunks(abs, chunks, tasks=4) == [3, 1, 4, 1, 5]
    err = capsys.readouterr().err
    assert err.startswith("warning: process pool unavailable (no semaphores)")
    assert err.count("\n") == 1 and err.count("warning:") == 1
