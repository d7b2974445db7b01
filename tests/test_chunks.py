"""The seeded chunk driver: its thread count, and bytes that do not depend on it."""

import numpy as np
import pytest

import spinlight.chunks
from spinlight.chunks import chunk_map


def draw(rng, start, count):
    return rng.standard_normal(count)


@pytest.mark.parametrize("cpus,workers", [(2, 2), (None, 1)])
def test_workers_capped_at_the_cpu_count(monkeypatch, cpus, workers):
    # the pool starts a thread per submit that finds no idle one, so --parallel
    # 5000 would start one per chunk; a stand-in pool records what it is asked for
    serial = np.concatenate(list(chunk_map(draw, 3, 1, seed=5)))
    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(spinlight.chunks, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(spinlight.chunks.os, "cpu_count", lambda: cpus)
    pooled = np.concatenate(list(chunk_map(draw, 3, 1, seed=5, parallel=5000)))
    assert asked == [workers]
    assert pooled.tobytes() == serial.tobytes()
