"""Streaming helpers for the execution engine.

The engine never materializes the workload space: workloads flow from the
synthesizer's generator into fixed-size chunks, and only the in-flight chunks
exist at any moment.  Peak memory is O(chunk size x in-flight chunks), not
O(workload space) — the difference between seq-1's hundreds of workloads and
the paper's 3.37M.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, List, TypeVar

T = TypeVar("T")


class TimedIterator(Iterator[T]):
    """Wrap an iterator, accounting time spent producing items.

    With streaming execution, generation interleaves with testing; this
    wrapper attributes the time spent inside the source generator (its
    ``__next__`` calls) so campaigns can still report generation vs. testing
    seconds separately.
    """

    def __init__(self, source: Iterable[T]):
        self._source = iter(source)
        #: accumulated seconds spent pulling from the source
        self.seconds: float = 0.0
        #: number of items pulled so far
        self.count: int = 0
        #: True once the source is exhausted
        self.exhausted: bool = False

    def __iter__(self) -> "TimedIterator[T]":
        return self

    def __next__(self) -> T:
        start = time.perf_counter()
        try:
            item = next(self._source)
        except StopIteration:
            self.exhausted = True
            self.seconds += time.perf_counter() - start
            raise
        self.seconds += time.perf_counter() - start
        self.count += 1
        return item


def chunked(items: Iterable[T], chunk_size: int) -> Iterator[List[T]]:
    """Lazily split ``items`` into lists of at most ``chunk_size``."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    chunk: List[T] = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def chunked_affine(items: Iterable[T], chunk_size: int,
                   key: Callable[[T], object],
                   max_chunk_size: int = 0) -> Iterator[List[T]]:
    """Chunk like :func:`chunked` but cut only at affinity-key boundaries.

    A chunk is flushed once it holds at least ``chunk_size`` items *and* the
    next item starts a new affinity group (``key`` changes between
    consecutive items), so a run of equal-key items — an ACE sibling family,
    whose members re-reach the persistence points a worker's cross-workload
    dedup cache has seen — never spans two chunks.  ``max_chunk_size``
    (default ``4 * chunk_size``) bounds the stretch: a single group larger
    than that is split anyway, trading some dedup for bounded in-flight
    memory.

    Affinity only changes *where* chunk boundaries fall, never the item
    order: concatenating the chunks always reproduces the input stream, so
    serial and pool campaigns test identical workloads in identical order.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if max_chunk_size <= 0:
        max_chunk_size = 4 * chunk_size
    if max_chunk_size < chunk_size:
        raise ValueError("max_chunk_size must be >= chunk_size")
    chunk: List[T] = []
    last_key: object = None
    for item in items:
        item_key = key(item)
        if chunk and (
            len(chunk) >= max_chunk_size
            or (len(chunk) >= chunk_size and item_key != last_key)
        ):
            yield chunk
            chunk = []
        chunk.append(item)
        last_key = item_key
    if chunk:
        yield chunk


