"""One benchmark repetition: run one campaign in this fresh process.

``run.py`` starts this script once per repetition, so every peak-RSS figure
comes from a process that ran only that workload, and writes what it measured
to ``--out`` as JSON.  Nothing is printed on standard output.

    python3 perfbench/rep.py --workload NAME --offset N --spawned-at T \
        --out rep.json [--trace-out spans.jsonl]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux).  Set-up time runs
from there to the first ``CrashMonkey.test_workload`` call, so it covers
interpreter start, imports, the harness build, the ACE fileset and, on the
durable workload, state-db creation.

An untraced repetition also measures the speed of the host while it runs:
after every ``test_workload`` call it times one *calibration slice*, a fixed
piece of pure-Python work that never touches the program.  The slices are
spread over the whole campaign, so their mean time divided by
:data:`CALIBRATION_REFERENCE_S` is how much slower than the reference host
this host ran the campaign (its ``slowdown``).  The slices are benchmark
overhead: their time is taken out of the campaign wall clock.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS, CampaignCell  # noqa: E402

#: Time of one calibration slice on the reference host, a shared 2-vCPU Xeon
#: VM; it sets only the scale of the reported times, not their spread.
CALIBRATION_REFERENCE_S = 100e-6
_SLICE_KEYS = [f"k{i}" for i in range(64)]
_SLICE_BLOCK = bytes(range(256)) * 4
_SLICE_TABLE = dict.fromkeys(_SLICE_KEYS, b"")


def calibration_slice() -> int:
    """Fixed pure-Python work, ~0.1 ms: dict updates and bytes slicing.

    It shares no state with the program and allocates no object the garbage
    collector tracks, so it never sets off a collection of the program's
    objects and its time does not depend on the program's heap.
    """
    table = _SLICE_TABLE
    total = 0
    for i in range(160):
        key = _SLICE_KEYS[i & 63]
        table[key] = table[key][-16:] + _SLICE_BLOCK[i:i + 48]
        total += len(table[key]) ^ i
    return total


@dataclass
class Timings:
    """What the ``test_workload`` wrapper records, one entry per call."""

    #: time of each ``test_workload`` call, in ms
    ms: List[float] = field(default_factory=list)
    #: name of the workload each call tested
    names: List[str] = field(default_factory=list)
    #: time of the calibration slice after each call, in s (untraced only)
    slices: List[float] = field(default_factory=list)
    #: ``time.monotonic()`` of the first call: the first workload dispatched
    first_dispatch: Optional[float] = None

    def slowdown(self) -> float:
        """Mean slice time over the reference's: >1 means a slower host."""
        return sum(self.slices) / len(self.slices) / CALIBRATION_REFERENCE_S


def is_failed(test_result) -> bool:
    """A workload fails when its result carries a harness-error mismatch."""
    from repro.crashmonkey.report import HARNESS_ERROR

    return any(
        mismatch.consequence == HARNESS_ERROR
        for report in test_result.bug_reports
        for mismatch in report.mismatches
    )


def raised_result(harness, workload, exc: BaseException):
    """The result recorded for a ``test_workload`` call that raised.

    It carries a harness-error report, so the workload counts as failed and
    can never pass, and the campaign's findings no longer match the
    reference.
    """
    from repro.crashmonkey.report import HARNESS_ERROR, BugReport, CrashTestResult, Mismatch

    mismatch = Mismatch(
        check="harness",
        consequence=HARNESS_ERROR,
        path="",
        expected="CrashMonkey.test_workload returns a result",
        actual=f"raised {type(exc).__name__}: {exc}",
    )
    report = BugReport(
        workload=workload,
        fs_type=harness.fs_name,
        fs_model=harness.fs_model,
        checkpoint_id=-1,
        crash_point="test_workload raised",
        mismatches=[mismatch],
    )
    return CrashTestResult(workload=workload, fs_type=harness.fs_name,
                           fs_model=harness.fs_model, bug_reports=[report])


def install_timer(timings: Timings, tracer: Optional[tracing.Tracer],
                  stack: ExitStack, calibrate: bool = False) -> None:
    """Time every ``CrashMonkey.test_workload`` call; a raise becomes a failure.

    With ``calibrate``, a calibration slice is timed after each call.
    """
    from repro.crashmonkey.harness import CrashMonkey

    original = CrashMonkey.test_workload

    def test_workload(harness, workload):
        if timings.first_dispatch is None:
            timings.first_dispatch = time.monotonic()
        start = time.perf_counter()
        try:
            if tracer is None:
                return original(harness, workload)
            tracer.workload_id = workload.name
            return tracer.call(tracing.WORKLOAD_SPAN, original, harness, workload)
        except Exception as exc:  # the campaign must go on and count it
            traceback.print_exc(file=sys.stderr)
            return raised_result(harness, workload, exc)
        finally:
            end = time.perf_counter()
            timings.ms.append((end - start) * 1000.0)
            timings.names.append(workload.name)
            if tracer is not None:
                tracer.workload_id = "-"
            if calibrate:
                calibration_slice()
                timings.slices.append(time.perf_counter() - end)

    tracing.patch(stack, CrashMonkey, "test_workload", test_workload)


def findings(result) -> Dict[str, object]:
    """What the findings gate compares: a digest of ``canonical_dict()``."""
    payload = json.dumps(result.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return {
        "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "workloads": result.workloads_tested,
        "invalid_workloads": result.invalid_workloads,
        "raw_reports": len(result.all_reports()),
        "report_groups": len(result.grouped_reports()),
    }


def counts(result) -> Dict[str, int]:
    """Per-layer work counts, from the public ``CrashTestResult`` fields."""
    results = result.results
    return {
        "tested": len(results),
        "failed": sum(1 for test_result in results if is_failed(test_result)),
        "prefix_hits": result.prefix_hits,
        "replay_hits": result.replay_hits,
        "recorded_writes": sum(r.recorded_requests - r.prefix_writes_reused for r in results),
        "replayed_writes": result.replayed_write_requests,
        "scenarios_tested": sum(r.scenarios_tested for r in results),
        "scenarios_planned": sum(r.scenarios_tested + r.deduped_scenarios
                                 + r.cross_deduped_scenarios for r in results),
        "failing_states": sum(len(r.bug_reports) for r in results),
        "peak_overlay_bytes": max((r.crash_state_overlay_bytes for r in results), default=0),
        "spine_peak_resident_bytes": result.spine_peak_resident_bytes,
        "raw_reports": len(result.all_reports()),
        "report_groups": len(result.grouped_reports()),
    }


def prepare(cell: CampaignCell, offset: int, workdir: str) -> Tuple[Callable, Callable]:
    """Set the campaign up; return the calls that run it and release it."""
    from repro.ace.bounds import seq2_bounds
    from repro.core.campaign import B3Campaign, CampaignConfig

    if cell.sampled:
        from repro.service.runner import DurableCampaignRunner

        config = CampaignConfig(fs_name=cell.fs_name, bounds=seq2_bounds(),
                                crash_plan=cell.crash_plan, max_workloads=cell.workloads,
                                sample=True, processes=1)
        runner = DurableCampaignRunner(config, os.path.join(workdir, "state.sqlite"),
                                       campaign_id="perfbench")
        return runner.run, runner.close

    from repro.ace.synthesizer import AceSynthesizer

    campaign = B3Campaign(CampaignConfig(fs_name=cell.fs_name, bounds=seq2_bounds(),
                                         crash_plan=cell.crash_plan, processes=1))
    campaign.harness  # build the pristine image now, not on the first workload
    stream = AceSynthesizer(campaign.bounds).generate()
    for _ in itertools.islice(stream, offset):
        pass
    return lambda: campaign.run(itertools.islice(stream, cell.workloads)), lambda: None


def db_bytes(workdir: str) -> int:
    """Bytes of the durable state database (and its write-ahead log)."""
    return sum(
        os.path.getsize(os.path.join(workdir, name))
        for name in os.listdir(workdir)
        if name.startswith("state.sqlite") and os.path.isfile(os.path.join(workdir, name))
    )


def run_rep(workload: str, offset: int, spawned_at: float,
            trace_out: Optional[str] = None) -> Dict[str, object]:
    """Run one campaign; return its measurements."""
    cell = WORKLOADS[workload]
    from repro.fs.registry import get_fs_class

    timings = Timings()
    tracer = tracing.Tracer() if trace_out else None
    with ExitStack() as stack:
        install_timer(timings, tracer, stack, calibrate=tracer is None)
        if tracer is not None:
            tracing.install(tracer, get_fs_class(cell.fs_name), stack)
        workdir = stack.enter_context(tempfile.TemporaryDirectory(prefix="perfbench-db-"))
        run_campaign, close_campaign = prepare(cell, offset, workdir)
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        result = run_campaign()
        result.grouped_reports()
        result.unique_reports()
        wall = time.perf_counter() - start - sum(timings.slices)
        if tracer is not None:
            tracer.active = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        close_campaign()
        state_db_bytes = db_bytes(workdir) if cell.sampled else 0

    measured: Dict[str, object] = {
        "workload": workload,
        "offset": offset,
        "traced": tracer is not None,
        "setup_s": timings.first_dispatch - spawned_at,
        "wall_s": wall,
        "test_ms": timings.ms,
        "test_names": timings.names,
        "slowdown": timings.slowdown() if timings.slices else None,
        "peak_rss_mb": peak_rss_mb,
        "db_bytes": state_db_bytes,
        "counts": counts(result),
        "findings": findings(result),
    }
    if tracer is not None:
        self_times = tracer.self_times()
        dispatch = wall - tracer.layer_coverage()
        measured["trace"] = {
            "self_s": self_times,
            "dispatch_s": dispatch,
            "closure_error": tracing.closure(self_times, dispatch, wall),
            "telemetry_misses": tracing.telemetry_misses(tracer, result.results),
            "spans": len(tracer),
            "ace_pulls": tracer.count("ace.generate", raised=False),
            "mounts": tracer.count("fs.mount"),
            "failed_mounts": tracer.count("fs.mount", raised=True),
        }
        tracer.write_jsonl(trace_out, origin=start)
    return measured


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--offset", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    measured = run_rep(args.workload, args.offset, args.spawned_at, args.trace_out)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(measured, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
