"""The seeded chunks that both Monte Carlo engines run on.  Chunk i draws only
from SeedSequence(seed, spawn_key=(i,)), so scheduling cannot change a bit."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")


def chunk_map(fn: Callable[[np.random.Generator, int, int], T], n_items: int,
              chunk_size: int, seed: int, parallel: int = 1) -> Iterator[T]:
    """fn(rng, start, count) for each chunk of items, yielded in chunk order.

    numpy's generators release the GIL while drawing, so threads scale.  The
    pool gets 64 chunks per thread at a time, so few results wait; at
    parallel 1 the builtin map runs them inline and no thread starts.
    """
    def run(chunk: int) -> T:
        start = chunk * chunk_size
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        return fn(rng, start, min(chunk_size, n_items - start))

    chunks = range(-(-n_items // chunk_size))
    window = 64 * parallel
    with ThreadPoolExecutor(max_workers=parallel) as pool:
        each = map if parallel == 1 else pool.map
        for first in range(0, len(chunks), window):
            yield from each(run, chunks[first:first + window])
