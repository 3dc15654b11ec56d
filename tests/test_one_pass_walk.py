"""The one recording path and the one replay walk, checked against references.

Recording runs every workload from scratch on a copy-on-write device over the
recorder's single pristine image, and crash-state construction walks the
recorded stream once, forking a snapshot at every flush barrier and
checkpoint marker.  Both share state — the image across workloads, the
snapshot chain across checkpoints and scenarios — so each is checked here
against a reference that shares nothing:

* a profile equals the one a brand-new recorder takes of the same workload,
  whatever the recorder profiled before, and the pristine image is never
  written;
* every crash state the walk builds holds exactly the bytes of a plain copy
  of the base image with the recorded writes the scenario keeps applied in
  issue order (torn ones only up to their cut);
* a harness reports the same per-workload results in either testing order.
"""

from __future__ import annotations

import pytest

from repro.ace import AceSynthesizer, seq1_bounds
from repro.crashmonkey import CrashMonkey, CrashStateGenerator, WorkloadRecorder
from repro.crashmonkey.crashplan import make_planner
from repro.fs import BugConfig, get_fs_class
from repro.storage import BlockDevice
from repro.storage.block import SECTOR_SIZE
from repro.storage.io_request import iter_until_checkpoint
from repro.workload import parse_workload

from conftest import SMALL_DEVICE_BLOCKS

FILESYSTEMS = ("flashfs", "logfs", "seqfs", "verifs")
PLANS = ("prefix", "reorder", "torn", "mechanism")


def _seq1_workloads():
    return list(AceSynthesizer(seq1_bounds()).stream())


def _profile_view(profile):
    """Everything a profile records, minus its wall-clock time."""
    return (
        profile.io_log,
        profile.oracles,
        profile.tracker_views,
        profile.num_checkpoints,
        profile.executed_ops,
        profile.skipped_ops,
        profile.recorded_bytes,
        profile.workload_overlay_bytes,
    )


def _pristine_image(fs_name, bugs):
    image = BlockDevice(SMALL_DEVICE_BLOCKS)
    get_fs_class(fs_name).mkfs(image, bugs)
    return image


def _reference_device(profile, checkpoint_id, scenario):
    """A plain copy of the base image with the scenario's surviving writes.

    Writes up to the last flush before the checkpoint are durable; the ones
    after it are in flight, and the scenario drops or tears some of those.
    """
    requests = list(iter_until_checkpoint(profile.io_log, checkpoint_id))
    last_flush = max((i for i, r in enumerate(requests) if r.is_flush), default=-1)
    dropped = set(scenario.dropped_seqs)
    torn = dict(scenario.torn)
    device = profile.base_image.copy()
    reapplied = 0
    for index, request in enumerate(requests):
        if not request.is_write:
            continue
        in_flight = index > last_flush and not scenario.is_baseline
        if in_flight and request.seq in dropped:
            continue
        data = request.data
        if in_flight and request.seq in torn:
            cut = torn[request.seq] * SECTOR_SIZE
            data = data[:cut] + device.read_block(request.block)[cut:]
        device.write_block(request.block, data)
        reapplied += in_flight
    return device, reapplied


@pytest.mark.parametrize("fs_name", FILESYSTEMS)
@pytest.mark.parametrize("variant", ["buggy", "patched"])
def test_profiles_match_a_fresh_recorder_on_full_seq1_space(variant, fs_name):
    bugs = None if variant == "buggy" else BugConfig.none()
    recorder = WorkloadRecorder(fs_name, bugs, device_blocks=SMALL_DEVICE_BLOCKS)
    pristine = _pristine_image(fs_name, recorder.bugs)
    for workload in _seq1_workloads():
        fresh = WorkloadRecorder(fs_name, bugs, device_blocks=SMALL_DEVICE_BLOCKS)
        assert _profile_view(recorder.profile(workload)) == \
            _profile_view(fresh.profile(workload)), workload.name
    # Every profile ran over the one image; none of them wrote to it.
    assert recorder.profile(_seq1_workloads()[0]).base_image.content_equal(pristine)


def test_profiles_share_the_pristine_image_but_not_their_writes():
    recorder = WorkloadRecorder("logfs", BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS)
    first = recorder.profile(parse_workload("creat foo\nwrite foo 0 4096\nfsync foo"))
    second = recorder.profile(parse_workload("mkdir A\ncreat A/bar\nfsync A/bar"))
    assert first.base_image is second.base_image
    # The second workload starts from the empty file system, not from the
    # first one's files.
    assert not any(path.endswith("foo") for path in second.oracles[1].state)
    assert any(path.endswith("bar") for path in second.oracles[1].state)
    assert first.base_image.content_equal(_pristine_image("logfs", BugConfig.none()))


@pytest.mark.parametrize("fs_name", FILESYSTEMS)
@pytest.mark.parametrize("plan", PLANS)
def test_walk_states_match_a_fresh_replay_on_full_seq1_space(plan, fs_name):
    recorder = WorkloadRecorder(fs_name, device_blocks=SMALL_DEVICE_BLOCKS)
    planner = make_planner(plan)
    scenarios = 0
    for workload in _seq1_workloads():
        profile = recorder.profile(workload)
        generator = CrashStateGenerator(profile, planner=planner)
        records = generator._ensure_built()
        writes = sum(1 for request in profile.io_log if request.is_write)
        # The walk applies each recorded write once ...
        assert generator.replayed_write_requests == writes
        expected_reapplied = 0
        for checkpoint_id in profile.checkpoints():
            for scenario in generator.scenario_plan([checkpoint_id]):
                device = generator._scenario_device(records[checkpoint_id], scenario)
                reference, reapplied = _reference_device(profile, checkpoint_id, scenario)
                assert device.content_equal(reference), (workload.name, scenario)
                expected_reapplied += reapplied
                scenarios += 1
        # ... plus, per non-baseline scenario, the window writes it keeps.
        assert generator.replayed_write_requests == writes + expected_reapplied
    assert scenarios > 0


@pytest.mark.parametrize("fs_name", FILESYSTEMS)
def test_extending_a_workload_extends_its_recording(fs_name):
    recorder = WorkloadRecorder(fs_name, device_blocks=SMALL_DEVICE_BLOCKS)
    head = "creat foo\nwrite foo 0 8192\nfsync foo\nlink foo bar\nsync"
    short = recorder.profile(parse_workload(head, name="short"))
    longer = recorder.profile(parse_workload(
        head + "\nrename bar baz\nwrite foo 8192 4096\nfsync foo", name="long"))
    last = short.num_checkpoints
    assert longer.num_checkpoints > last
    assert short.io_log == tuple(iter_until_checkpoint(longer.io_log, last))
    short_states = CrashStateGenerator(short)._ensure_built()
    long_states = CrashStateGenerator(longer)._ensure_built()
    for checkpoint_id in short.checkpoints():
        assert short.oracles[checkpoint_id] == longer.oracles[checkpoint_id]
        assert short.tracker_views[checkpoint_id] == longer.tracker_views[checkpoint_id]
        assert short_states[checkpoint_id].baseline.content_equal(
            long_states[checkpoint_id].baseline)
        assert short_states[checkpoint_id].stable.content_equal(
            long_states[checkpoint_id].stable)


@pytest.mark.parametrize("fs_name", FILESYSTEMS)
def test_harness_results_do_not_depend_on_testing_order(fs_name):
    # The mechanism planner is the one piece of planner state a harness
    # carries from workload to workload: each workload re-attaches its report.
    workloads = _seq1_workloads()
    forward = CrashMonkey(fs_name, device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="mechanism")
    backward = CrashMonkey(fs_name, device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="mechanism")
    ahead = [forward.test_workload(w).canonical_dict() for w in workloads]
    behind = [backward.test_workload(w).canonical_dict() for w in reversed(workloads)]
    assert ahead == behind[::-1]
    assert any(result["bug_reports"] for result in ahead) or fs_name == "verifs"
