"""Workload profiler (CrashMonkey phase 1).

Profiling runs the workload once on a freshly formatted file system mounted
on the recording wrapper device.  It produces everything the later phases
need:

* the base disk image (the initial file-system state),
* the recorded block I/O stream with checkpoint markers after every
  persistence operation,
* an oracle per persistence point,
* the persisted-set tracker views per persistence point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fs.bugs import BugConfig
from ..fs.registry import get_fs_class, models, resolve_fs_name
from ..storage.block import DEFAULT_DEVICE_BLOCKS
from ..storage.block_device import BlockDevice
from ..storage.cow_device import CowDevice
from ..storage.record_device import RecordingDevice
from ..workload.executor import WorkloadExecutor
from ..workload.workload import Workload
from .oracle import Oracle
from .tracker import PersistenceTracker, TrackerView


@dataclass
class WorkloadProfile:
    """Everything recorded while profiling one workload."""

    workload: Workload
    fs_name: str
    fs_model: str
    bugs: BugConfig
    base_image: BlockDevice
    io_log: tuple
    oracles: Dict[int, Oracle] = field(default_factory=dict)
    tracker_views: Dict[int, TrackerView] = field(default_factory=dict)
    num_checkpoints: int = 0
    profile_seconds: float = 0.0
    executed_ops: int = 0
    skipped_ops: int = 0
    recorded_bytes: int = 0
    workload_overlay_bytes: int = 0

    def checkpoints(self) -> List[int]:
        return sorted(self.oracles)


class WorkloadRecorder:
    """Profiles workloads on a given (simulated) file system."""

    def __init__(self, fs_name: str, bugs: Optional[BugConfig] = None,
                 device_blocks: int = DEFAULT_DEVICE_BLOCKS, strict: bool = False):
        self.fs_name = resolve_fs_name(fs_name)
        self.fs_class = get_fs_class(self.fs_name)
        self.fs_model = models(self.fs_name)
        self.bugs = bugs if bugs is not None else BugConfig.all_for(self.fs_name)
        self.device_blocks = device_blocks
        self.strict = strict
        # The initial file-system state is the same for every workload (B3's
        # fourth bound): a small, freshly formatted image, created once.  It
        # is the base of every profile run and of every crash state built
        # from one; CowDevice never writes through to its base, so a single
        # image serves the whole campaign.
        self._base_image = self._make_pristine_image()

    def _make_pristine_image(self) -> BlockDevice:
        device = BlockDevice(self.device_blocks, name=f"{self.fs_name}-base")
        self.fs_class.mkfs(device, self.bugs)
        return device

    # ------------------------------------------------------------------ public API

    def profile(self, workload: Workload) -> WorkloadProfile:
        """Run ``workload`` once, recording I/O, oracles, and persisted sets."""
        start = time.perf_counter()
        recording_device = RecordingDevice(CowDevice(self._base_image, name="workload-cow"))
        fs = self.fs_class(recording_device, self.bugs)
        fs.mount()

        tracker = PersistenceTracker(fs)
        oracles: Dict[int, Oracle] = {}
        executor = WorkloadExecutor(fs, strict=self.strict)

        def on_persistence(op, index):
            checkpoint_id = recording_device.mark_checkpoint()
            tracker.on_persistence(op, index, checkpoint_id)
            oracles[checkpoint_id] = Oracle.capture(fs, checkpoint_id, op.describe())

        executor.run(workload, on_persistence=on_persistence,
                     before_operation=tracker.before_operation)
        # Stop recording before the safe unmount: the unmount's I/O is not part
        # of any crash state (every crash point precedes it).
        recording_device.pause()
        if fs.mounted:
            fs.unmount(safe=True)
        return WorkloadProfile(
            workload=workload,
            fs_name=self.fs_name,
            fs_model=self.fs_model,
            bugs=self.bugs,
            base_image=self._base_image,
            io_log=tuple(recording_device.log),
            oracles=oracles,
            tracker_views=tracker.views(),
            num_checkpoints=recording_device.num_checkpoints,
            profile_seconds=time.perf_counter() - start,
            executed_ops=executor.executed,
            skipped_ops=executor.skipped,
            recorded_bytes=recording_device.recorded_bytes(),
            workload_overlay_bytes=recording_device.target.overlay_bytes(),
        )
