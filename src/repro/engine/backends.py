"""Execution backends.

A backend takes a :class:`HarnessSpec` plus a lazy stream of indexed workload
chunks and yields one :class:`ChunkOutcome` per chunk, in *completion* order.
Two implementations cover the portable and the parallel case:

* :class:`SerialBackend` — one harness, one process.  The harness is built
  once and reused for every chunk (the recorder starts every workload from
  its pristine image, so no state leaks between workloads).
* :class:`ProcessPoolBackend` — the paper's cluster in miniature.  Each worker
  process builds a worker-local harness in its initializer and keeps it for
  the whole run; chunks are dispatched ``imap_unordered``-style with a bounded
  submission window so the workload stream is consumed lazily instead of being
  drained into the pool's task queue.

Per-chunk seconds are measured *inside* the worker (wall clock around the
actual testing), which is what the per-VM statistics report — not a uniform
share of the pool's elapsed time.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Protocol, Set, Tuple

from ..crashmonkey.harness import CrashMonkey
from ..crashmonkey.report import CrashTestResult
from ..workload.workload import Workload
from .spec import HarnessSpec

#: Indexed chunk: (position in the stream, workloads).
IndexedChunk = Tuple[int, List[Workload]]


@dataclass
class ChunkStats:
    """Timing and outcome of one completed chunk (one VM batch's worth).

    What remains of a :class:`ChunkOutcome` once its results have been
    aggregated — everything but the result payload.
    """

    index: int
    workloads: int
    seconds: float
    failing_workloads: int
    worker: str
    #: crash scenarios this chunk skipped via the worker's cross-workload
    #: dedup cache
    cross_deduped_scenarios: int = 0


@dataclass
class ChunkOutcome:
    """Results and real timing of one tested chunk."""

    index: int
    results: List[CrashTestResult]
    #: wall-clock seconds measured around the chunk inside the worker
    seconds: float
    #: identifier of the worker that ran the chunk ("serial" or "pid-<n>")
    worker: str = "serial"

    @property
    def failing_workloads(self) -> int:
        return sum(1 for result in self.results if not result.passed)

    @property
    def cross_deduped_scenarios(self) -> int:
        return sum(result.cross_deduped_scenarios for result in self.results)

    def stats(self) -> ChunkStats:
        """This outcome without its result payload."""
        return ChunkStats(
            index=self.index,
            workloads=len(self.results),
            seconds=self.seconds,
            failing_workloads=self.failing_workloads,
            worker=self.worker,
            cross_deduped_scenarios=self.cross_deduped_scenarios,
        )


class ExecutionBackend(Protocol):
    """Anything that can test a stream of workload chunks."""

    #: True when workers keep testing while the dispatch thread pulls more
    #: workloads from the generator — generation then costs no extra wall
    #: clock and must not be subtracted from the testing time.
    overlaps_generation: bool

    def execute(self, spec: HarnessSpec,
                chunks: Iterable[IndexedChunk]) -> Iterator[ChunkOutcome]:
        """Test every chunk, yielding outcomes as they complete."""
        ...


# --------------------------------------------------------------------------- serial


class SerialBackend:
    """In-process execution with a single long-lived harness."""

    overlaps_generation = False

    def __init__(self, harness: Optional[CrashMonkey] = None):
        self._harness = harness
        self._spec: Optional[HarnessSpec] = None

    def _harness_for(self, spec: HarnessSpec) -> CrashMonkey:
        if self._harness is None or (self._spec is not None and self._spec != spec):
            self._harness = spec.build()
        self._spec = spec
        return self._harness

    def execute(self, spec: HarnessSpec,
                chunks: Iterable[IndexedChunk]) -> Iterator[ChunkOutcome]:
        harness = self._harness_for(spec)
        for index, chunk in chunks:
            harness.begin_chunk(index)
            start = time.perf_counter()
            results = list(harness.test_stream(chunk))
            yield ChunkOutcome(
                index=index,
                results=results,
                seconds=time.perf_counter() - start,
                worker="serial",
            )


# --------------------------------------------------------------------------- pool

#: Worker-local harness, built once per worker process by :func:`_init_worker`.
_WORKER_HARNESS: Optional[CrashMonkey] = None


def _init_worker(spec: HarnessSpec) -> None:
    global _WORKER_HARNESS
    _WORKER_HARNESS = spec.build()


def _run_chunk(indexed_chunk: IndexedChunk) -> ChunkOutcome:
    index, chunk = indexed_chunk
    harness = _WORKER_HARNESS
    if harness is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker harness was not initialized")
    harness.begin_chunk(index)
    start = time.perf_counter()
    results = list(harness.test_stream(chunk))
    return ChunkOutcome(
        index=index,
        results=results,
        seconds=time.perf_counter() - start,
        worker=f"pid-{os.getpid()}",
    )


class ProcessPoolBackend:
    """Parallel execution across worker processes with bounded in-flight work.

    Args:
        processes: number of worker processes (defaults to the CPUs this
            process may use).
        max_inflight: cap on chunks submitted but not yet collected.  Bounds
            both memory and how far ahead of testing the workload generator is
            consumed; defaults to ``2 * processes``.
    """

    overlaps_generation = True

    def __init__(self, processes: Optional[int] = None,
                 max_inflight: Optional[int] = None):
        if processes is None:
            try:
                processes = len(os.sched_getaffinity(0))
            except AttributeError:  # pragma: no cover - non-Linux
                processes = os.cpu_count() or 1
        self.processes = max(1, processes)
        self.max_inflight = max_inflight if max_inflight is not None else 2 * self.processes
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")

    def execute(self, spec: HarnessSpec,
                chunks: Iterable[IndexedChunk]) -> Iterator[ChunkOutcome]:
        source = iter(chunks)
        with ProcessPoolExecutor(
            max_workers=self.processes,
            initializer=_init_worker,
            initargs=(spec,),
        ) as executor:
            pending: Set[Future] = set()
            exhausted = False
            while True:
                # Refill the submission window from the (lazy) chunk stream.
                while not exhausted and len(pending) < self.max_inflight:
                    try:
                        indexed_chunk = next(source)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.add(executor.submit(_run_chunk, indexed_chunk))
                if not pending:
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()


def make_backend(processes: int = 1,
                 harness: Optional[CrashMonkey] = None) -> ExecutionBackend:
    """Pick the natural backend for a process count."""
    if processes <= 1:
        return SerialBackend(harness=harness)
    return ProcessPoolBackend(processes=processes)
