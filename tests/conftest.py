"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.crashmonkey import CrashMonkey
from repro.fs import BugConfig, get_fs_class, resolve_fs_name
from repro.storage import BlockDevice, CowDevice, RecordingDevice
from repro.workload import parse_workload

#: Small (sparse) device used throughout the tests: 16 MiB.
SMALL_DEVICE_BLOCKS = 4096


def hold_write_lock(path: str, seconds: float) -> threading.Timer:
    """Take the write lock on the sqlite database at ``path`` for ``seconds``.

    Stands in for a concurrent process that opened the same database first.
    Returns the timer that commits and releases the lock; join it to wait.
    """
    holder = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
    holder.execute("BEGIN IMMEDIATE")

    def release():
        holder.execute("COMMIT")
        holder.close()

    timer = threading.Timer(seconds, release)
    timer.start()
    return timer


@pytest.fixture
def device_blocks():
    return SMALL_DEVICE_BLOCKS


def make_mounted_fs(fs_name: str, bugs=None, device_blocks: int = SMALL_DEVICE_BLOCKS):
    """Format a device, mount a file system on a recording wrapper, return both.

    Returns (fs, recording_device, base_image).  The base image is the copy of
    the freshly formatted device, which crash states replay onto.
    """
    fs_class = get_fs_class(resolve_fs_name(fs_name))
    pristine = BlockDevice(device_blocks)
    fs_class.mkfs(pristine, bugs)
    base_image = pristine.copy()
    recording = RecordingDevice(CowDevice(base_image))
    fs = fs_class(recording, bugs)
    fs.mount()
    return fs, recording, base_image


def run_workload_text(fs_name: str, text: str, bugs=None, name: str = "test",
                      device_blocks: int = SMALL_DEVICE_BLOCKS, **harness_kwargs):
    """Run a workload (given in the workload language) through CrashMonkey."""
    harness = CrashMonkey(fs_name, bugs=bugs, device_blocks=device_blocks, **harness_kwargs)
    workload = parse_workload(text, name=name)
    return harness.test_workload(workload)


@pytest.fixture
def mounted_logfs():
    fs, recording, base = make_mounted_fs("logfs", BugConfig.none())
    return fs


@pytest.fixture
def mounted_logfs_buggy():
    fs, recording, base = make_mounted_fs("logfs")
    return fs


@pytest.fixture
def mounted_seqfs():
    fs, recording, base = make_mounted_fs("seqfs", BugConfig.none())
    return fs


@pytest.fixture(params=["logfs", "seqfs", "flashfs", "verifs"])
def any_patched_fs(request):
    fs, recording, base = make_mounted_fs(request.param, BugConfig.none())
    return fs
