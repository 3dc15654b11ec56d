"""Outside-in spans around the public callables of each repro layer.

The benchmark does not change the program: it wraps public methods and
functions from outside, before the harness is built (the check pipeline
binds each check's ``run`` when it is constructed), and records one span per
call.  Spans are kept in memory in flat arrays and written as JSONL when the
run ends.  Every span carries the name of the workload whose
``CrashMonkey.test_workload`` call was running (``-`` outside one), so the
spans of one workload share that name as their id.

A layer's *self time* is the sum of its spans' durations minus the durations
of their child spans.  ``engine.dispatch_s`` is the traced wall clock minus
the time covered by any layer span; it is computed from the union of span
intervals, independently of the self times, so ``closure_error`` -- the
share by which self times plus dispatch miss the wall clock -- exposes
overlapping or mis-parented spans instead of being zero by construction.
Closure cannot see a call that no wrapper caught (its time just lands in
dispatch), so :func:`telemetry_misses` also compares each phase's span total
with the program's own timer for that phase.
"""

from __future__ import annotations

import json
from array import array
from contextlib import ExitStack
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Name of the span around each ``CrashMonkey.test_workload`` call.  It is
#: not a layer: its self time is harness bookkeeping, counted in dispatch.
WORKLOAD_SPAN = "harness.test_workload"

#: Span name -> per-layer metric its self time is added to.
LAYER_OF_SPAN: Dict[str, str] = {
    "ace.generate": "ace.generate_s",
    "recorder.profile": "recorder.profile_s",
    "replayer.generate_scenarios": "replayer.construct_s",
    "fs.mount": "fs.mount_s",
    "fs.fsck.repair": "fs.fsck_s",
    "checks.read": "checks.read_s",
    "checks.write": "checks.write_s",
    "checks.hardlink": "checks.hardlink_s",
    "checks.directory": "checks.directory_s",
    "checks.xattr": "checks.xattr_s",
    "service.register_chunks": "service.census_s",
    "service.claim_chunk": "service.census_s",
    "service.ingest_outcome": "service.ingest_s",
    "core.grouped_reports": "core.postprocess_s",
    "core.unique_reports": "core.postprocess_s",
}
#: Checks without a metric of their own (mount, atomicity, any added later).
OTHER_CHECKS = "checks.other_s"
#: Every self-time metric, in report order.
LAYER_METRICS: Tuple[str, ...] = tuple(dict.fromkeys(
    [*LAYER_OF_SPAN.values(), OTHER_CHECKS]
))


def layer_metric(span_name: str) -> Optional[str]:
    """The self-time metric a span counts towards (None for workload spans)."""
    metric = LAYER_OF_SPAN.get(span_name)
    if metric is None and span_name.startswith("checks."):
        return OTHER_CHECKS
    return metric


class Tracer:
    """In-memory span recorder; records nothing until :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        #: id stamped on new spans: the running workload's name, or ``-``
        self.workload_id = "-"
        self.names: List[str] = []
        self.ids: List[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        #: 1 where the call raised (mount failures, the end of an iterator)
        self.raised = bytearray()
        self._open: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.names)
        self.names.append(name)
        self.ids.append(self.workload_id)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self.raised.append(0)
        self._open.append(index)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.raised[index] = 1
            raise
        finally:
            self.ends[index] = perf_counter()
            self._open.pop()

    # ------------------------------------------------------------ analysis

    def count(self, name: str, raised: Optional[bool] = None) -> int:
        """Spans named ``name`` (only those that did / did not raise, if given)."""
        return sum(
            1 for index, span_name in enumerate(self.names)
            if span_name == name and (raised is None or bool(self.raised[index]) == raised)
        )

    def total(self, name: str, parent: Optional[str] = None) -> float:
        """Summed duration of the spans named ``name``.

        With ``parent``, only spans whose direct parent span is named so.
        """
        return sum(
            self.ends[index] - self.starts[index]
            for index, span_name in enumerate(self.names)
            if span_name == name and (
                parent is None
                or (self.parents[index] >= 0 and self.names[self.parents[index]] == parent))
        )

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer metric (every metric present, 0.0 if unused)."""
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        totals = {metric: 0.0 for metric in LAYER_METRICS}
        for index, name in enumerate(self.names):
            metric = layer_metric(name)
            if metric is not None:
                totals[metric] += self.ends[index] - self.starts[index] - child_time[index]
        return totals

    def layer_coverage(self) -> float:
        """Seconds covered by the union of every layer span's interval."""
        intervals = sorted(
            (self.starts[index], self.ends[index])
            for index, name in enumerate(self.names)
            if layer_metric(name) is not None
        )
        covered = 0.0
        current_start = current_end = None
        for start, end in intervals:
            if current_end is None or start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = start, end
            elif end > current_end:
                current_end = end
        if current_end is not None:
            covered += current_end - current_start
        return covered

    def write_jsonl(self, path: str, origin: float) -> None:
        """One JSON object per span, times in seconds since ``origin``."""
        with open(path, "w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                out.write(json.dumps({
                    "span": index,
                    "parent": self.parents[index],
                    "name": name,
                    "id": self.ids[index],
                    "start": round(self.starts[index] - origin, 9),
                    "end": round(self.ends[index] - origin, 9),
                    "raised": bool(self.raised[index]),
                }, separators=(",", ":")))
                out.write("\n")


def closure(self_times: Dict[str, float], dispatch: float, wall: float) -> float:
    """Share of the wall clock by which self times plus dispatch miss it."""
    if wall <= 0.0:
        return 0.0
    return abs(sum(self_times.values()) + dispatch - wall) / wall


def telemetry_misses(tracer: Tracer, results) -> Dict[str, float]:
    """Per phase, the share by which span totals miss the program's own timers.

    ``results`` are the campaign's ``CrashTestResult`` objects.  Their
    ``profile_seconds``, ``mount_seconds`` (crash-state mounts, made inside a
    ``generate_scenarios`` pull), ``fsck_seconds`` and ``check_seconds`` are
    timed inside the program, so a call path that bypasses a wrapped callable
    leaves its phase's spans short of them.  The checks are compared as one
    phase: a single check takes a few microseconds, about the tracer's own
    cost per span, which the program's timers also count.
    """
    check_spans = sum(tracer.total(name) for name in set(tracer.names)
                      if name.startswith("checks."))
    pairs = {
        "recorder.profile": (tracer.total("recorder.profile"),
                             sum(r.profile_seconds for r in results)),
        "fs.mount": (tracer.total("fs.mount", parent="replayer.generate_scenarios"),
                     sum(r.mount_seconds for r in results)),
        "fs.fsck.repair": (tracer.total("fs.fsck.repair"),
                           sum(r.fsck_seconds for r in results)),
        "checks": (check_spans, sum(r.check_seconds for r in results)),
    }
    return {
        phase: abs(spanned - timed) / timed if timed > 0.0 else float(spanned > 0.0)
        for phase, (spanned, timed) in pairs.items()
    }


class TracedIterator(Iterator):
    """An iterator whose every ``next`` is a span."""

    def __init__(self, tracer: Tracer, name: str, inner: Iterator):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self) -> "TracedIterator":
        return self

    def __next__(self):
        return self._tracer.call(self._name, next, self._inner)


_MISSING = object()


def patch(stack: ExitStack, owner: object, attr: str, value: object) -> None:
    """Set ``owner.attr`` to ``value`` until ``stack`` is closed.

    An attribute ``owner`` inherited is deleted again on close, so the
    inherited one shows through.  (``unittest.mock.patch.object`` does the
    same, but importing it pulls in ``asyncio``: ~4 MB of RSS and ~0.1 s of
    set-up in every measured process.)
    """
    original = vars(owner).get(attr, _MISSING)
    setattr(owner, attr, value)
    if original is _MISSING:
        stack.callback(delattr, owner, attr)
    else:
        stack.callback(setattr, owner, attr, original)


def _spanned(tracer: Tracer, name: str, original: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        return tracer.call(name, original, *args, **kwargs)
    wrapper.__wrapped__ = original
    return wrapper


def _spanned_iterator(tracer: Tracer, name: str, original: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        return TracedIterator(tracer, name, original(*args, **kwargs))
    wrapper.__wrapped__ = original
    return wrapper


def install(tracer: Tracer, fs_class: type, stack: ExitStack) -> None:
    """Wrap every traced layer's public callables (before the harness is built).

    The wrappers stay in place until ``stack`` is closed.
    """
    from repro.ace.synthesizer import AceSynthesizer
    from repro.core.results import CampaignResult
    from repro.crashmonkey.checks import DEFAULT_REGISTRY
    from repro.crashmonkey.recorder import WorkloadRecorder
    from repro.crashmonkey.replayer import CrashStateGenerator
    from repro.fs import fsck
    from repro.service.statedb import CampaignStateDB

    patch(stack, AceSynthesizer, "generate",
          _spanned_iterator(tracer, "ace.generate", AceSynthesizer.generate))
    patch(stack, WorkloadRecorder, "profile",
          _spanned(tracer, "recorder.profile", WorkloadRecorder.profile))
    patch(stack, CrashStateGenerator, "generate_scenarios",
          _spanned_iterator(tracer, "replayer.generate_scenarios",
                            CrashStateGenerator.generate_scenarios))
    patch(stack, fs_class, "mount", _spanned(tracer, "fs.mount", fs_class.mount))
    patch(stack, fsck, "repair", _spanned(tracer, "fs.fsck.repair", fsck.repair))
    for check in DEFAULT_REGISTRY:
        check_class = type(check)
        patch(stack, check_class, "run",
              _spanned(tracer, f"checks.{check.name}", check_class.run))
    for method in ("register_chunks", "claim_chunk", "ingest_outcome"):
        patch(stack, CampaignStateDB, method,
              _spanned(tracer, f"service.{method}", getattr(CampaignStateDB, method)))
    for method in ("grouped_reports", "unique_reports"):
        patch(stack, CampaignResult, method,
              _spanned(tracer, f"core.{method}", getattr(CampaignResult, method)))
