"""Self-tests of the benchmark: failure accounting, the findings gate, trace closure.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import shutil
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import pytest

import rep
import run
import tracing

HERE = Path(__file__).resolve().parent


def _campaign(fail_names=(), raise_names=()):
    """Run ten seq-1 workloads with the benchmark's timer, injecting failures."""
    from repro.ace.bounds import seq1_bounds
    from repro.ace.synthesizer import AceSynthesizer
    from repro.core.campaign import B3Campaign, CampaignConfig
    from repro.crashmonkey.harness import CrashMonkey

    workloads = list(itertools.islice(AceSynthesizer(seq1_bounds()).generate(), 10))
    original = CrashMonkey.test_workload

    def faulty(harness, workload):
        if workload.name in raise_names:
            raise RuntimeError("injected")
        result = original(harness, workload)
        if workload.name in fail_names:
            result.bug_reports.append(rep.raised_result(harness, workload, ValueError("x"))
                                      .bug_reports[0])
        return result

    timings = rep.Timings()
    with ExitStack() as stack:
        tracing.patch(stack, CrashMonkey, "test_workload", faulty)
        rep.install_timer(timings, None, stack, calibrate=True)
        result = B3Campaign(CampaignConfig(fs_name="logfs", bounds=seq1_bounds())).run(workloads)
    assert CrashMonkey.test_workload is original
    assert timings.first_dispatch is not None
    return workloads, result, timings


def test_harness_errors_and_raises_count_as_failed_never_passed():
    workloads, clean, _ = _campaign()
    assert rep.counts(clean)["failed"] == 0
    broken = workloads[3].name
    raising = workloads[6].name
    _, result, timings = _campaign(fail_names={broken}, raise_names={raising})

    assert len(timings.ms) == len(workloads) == result.workloads_tested
    assert timings.names == [workload.name for workload in workloads]
    assert len(timings.slices) == len(workloads) and timings.slowdown() > 0.0
    assert rep.counts(result)["failed"] == 2
    by_name = {test_result.workload.name: test_result for test_result in result.results}
    for name in (broken, raising):
        assert rep.is_failed(by_name[name])
        assert not by_name[name].passed
    # A failure changes the findings, so the gate refuses to score the run.
    with pytest.raises(run.BenchmarkError, match="digest"):
        run.check_findings({"findings": rep.findings(result)}, rep.findings(clean))
    run.check_findings({"findings": rep.findings(clean)}, rep.findings(clean))


def test_times_are_scaled_by_each_repetitions_host_slowdown():
    def measured(slowdown, test_ms, names=("a", "b")):
        return {"slowdown": slowdown, "test_ms": test_ms, "test_names": list(names),
                "wall_s": 2.0 * slowdown, "setup_s": 0.5 * slowdown,
                "peak_rss_mb": 30.0, "counts": {"tested": 2}}

    # The same campaign on a host running 2x and 4x slower than the reference.
    metrics = run.end_to_end([measured(2.0, [2.0, 8.0]), measured(4.0, [4.0, 20.0])])
    assert metrics["workloads_per_s"] == 1.0
    assert metrics["setup_s"] == 0.5
    assert metrics["workload_ms_p50"] == 1.0
    # p99 is taken over each workload's best scaled time: min(4, 5) = 4.
    assert metrics["workload_ms_p99"] == 4.0
    with pytest.raises(run.BenchmarkError, match="different workload sequences"):
        run.end_to_end([measured(1.0, [1.0, 1.0]), measured(1.0, [1.0, 1.0], ("b", "a"))])

    reference = rep.CALIBRATION_REFERENCE_S
    assert rep.Timings(slices=[reference, 3 * reference]).slowdown() == pytest.approx(2.0)


def test_self_times_and_dispatch_close_on_the_wall_clock():
    tracer = tracing.Tracer()
    tracer.active = True

    def busy(seconds, inner=None):
        end = time.perf_counter() + seconds
        if inner is not None:
            tracer.call("fs.mount", busy, inner)
        while time.perf_counter() < end:
            pass

    start = time.perf_counter()
    for _ in range(3):
        tracer.call(tracing.WORKLOAD_SPAN, tracer.call, "recorder.profile", busy, 0.002, 0.001)
        busy(0.001)
    wall = time.perf_counter() - start
    self_times = tracer.self_times()
    dispatch = wall - tracer.layer_coverage()
    assert self_times["fs.mount_s"] > 0.0 and self_times["recorder.profile_s"] > 0.0
    assert dispatch >= 0.003
    assert tracing.closure(self_times, dispatch, wall) < 1e-9

    # Overlapping sibling spans count twice in self times but once in coverage.
    first, second = [index for index, name in enumerate(tracer.names)
                     if name == "recorder.profile"][:2]
    tracer.starts[second] = tracer.starts[first]
    assert tracing.closure(tracer.self_times(), wall - tracer.layer_coverage(), wall) > 0.1


def _traced_campaign(bypass_mount=False):
    """Trace a small seq-1 campaign; optionally let crash-state mounts escape."""
    from repro.ace.bounds import seq1_bounds
    from repro.ace.synthesizer import AceSynthesizer
    from repro.core.campaign import B3Campaign, CampaignConfig
    from repro.fs.flashfs import FlashFS

    tracer = tracing.Tracer()
    with ExitStack() as stack:
        tracing.install(tracer, FlashFS, stack)
        if bypass_mount:
            # A call path the wrappers miss: the mount runs, no span records it.
            tracing.patch(stack, FlashFS, "mount", vars(FlashFS)["mount"].__wrapped__)
        campaign = B3Campaign(CampaignConfig(fs_name="flashfs", bounds=seq1_bounds(),
                                             crash_plan="torn"))
        workloads = list(itertools.islice(AceSynthesizer(seq1_bounds()).generate(), 40))
        tracer.active = True
        start = time.perf_counter()
        result = campaign.run(workloads)
        wall = time.perf_counter() - start
        tracer.active = False
    self_times = tracer.self_times()
    closure = tracing.closure(self_times, wall - tracer.layer_coverage(), wall)
    return closure, tracing.telemetry_misses(tracer, result.results)


def test_span_totals_agree_with_the_programs_timers():
    closure, misses = _traced_campaign()
    assert closure < 1e-9
    assert set(misses) == {"recorder.profile", "fs.mount", "fs.fsck.repair", "checks"}
    assert max(misses.values()) <= run.TELEMETRY_BOUND


def test_a_call_path_the_wrappers_miss_fails_the_telemetry_check():
    closure, misses = _traced_campaign(bypass_mount=True)
    # Closure alone cannot see it: the missed time just moves into dispatch.
    assert closure < 1e-9
    assert misses["fs.mount"] > run.TELEMETRY_BOUND


def test_tracing_patches_are_undone():
    from repro.crashmonkey.checks import DEFAULT_REGISTRY
    from repro.fs.flashfs import FlashFS

    run_methods = {type(check): vars(type(check))["run"] for check in DEFAULT_REGISTRY}
    with ExitStack() as stack:
        tracing.install(tracing.Tracer(), FlashFS, stack)
        assert "mount" in vars(FlashFS)
    assert "mount" not in vars(FlashFS)
    assert {type(check): vars(type(check))["run"] for check in DEFAULT_REGISTRY} == run_methods


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prefix-logfs-seq2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
