"""The seeded chunks that both Monte Carlo engines run on.  Chunk i draws only
from the child of the root keyed (*root.spawn_key, i), so the chunk size
alone fixes which numbers each item gets."""

from __future__ import annotations

from typing import Callable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")


def chunk_map(fn: Callable[[np.random.Generator, int, int], T], n_items: int, chunk_size: int,
              root: np.random.SeedSequence) -> Iterator[T]:
    """fn(rng, start, count) for each chunk of items, yielded in chunk order."""
    for chunk, start in enumerate(range(0, n_items, chunk_size)):
        child = np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, chunk))
        yield fn(np.random.default_rng(child), start, min(chunk_size, n_items - start))
