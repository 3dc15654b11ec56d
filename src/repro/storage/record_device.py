"""Recording wrapper device.

The paper's first kernel module is a wrapper block device mounted under the
target file system: it records every write (data and metadata), and inserts a
special empty *checkpoint* request into the recorded stream whenever a
persistence operation completes, so that the low-level I/O stream can be
correlated with the workload's persistence points.

``RecordingDevice`` plays that role here.  The file system under test writes
through it; the CrashMonkey harness calls :meth:`mark_checkpoint` right after
every fsync/fdatasync/sync/msync in the workload returns.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .block import BLOCK_SIZE, pad_block
from .io_request import IOFlag, IOKind, IORequest


class RecordingDevice:
    """Wraps any block device and records the write stream issued to it."""

    def __init__(self, target, name: str = "wrapper0"):
        self.target = target
        self.name = name
        self.num_blocks = target.num_blocks
        self._log: List[IORequest] = []
        self._seq = 0
        self._checkpoints = 0
        self.recording = True

    # -- pass-through I/O ----------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.num_blocks * BLOCK_SIZE

    def read_block(self, block: int) -> bytes:
        return self.target.read_block(block)

    def write_block(self, block: int, data, *, metadata: bool = False,
                    fua: bool = False, tag: str = "") -> None:
        """Write a block through to the target, recording the request.

        ``fua`` marks a forced-unit-access write: durable when it completes,
        so the crash planners never treat it as in-flight.
        """
        if not self.recording:
            self.target.write_block(block, data)
            return
        # Pad the payload exactly once and share the same object between the
        # target's overlay and the recorded request: re-reading it back from
        # the target would issue a spurious device read per recorded write,
        # and padding twice (here and in the CoW overlay) would allocate two
        # block-sized copies per recorded write.
        payload = pad_block(data)
        self.target.write_block(block, payload)
        flags: Tuple[IOFlag, ...] = (IOFlag.METADATA,) if metadata else (IOFlag.DATA,)
        if fua:
            flags = flags + (IOFlag.FUA,)
        self._seq += 1
        self._log.append(
            IORequest(
                seq=self._seq,
                kind=IOKind.WRITE,
                block=block,
                data=payload,
                flags=flags,
                tag=tag,
            )
        )

    def discard_block(self, block: int) -> None:
        self.target.discard_block(block)

    def flush(self, *, sync: bool = False) -> None:
        """Record a flush/barrier request and forward it to the target."""
        self.target.flush()
        if not self.recording:
            return
        flags: Tuple[IOFlag, ...] = (IOFlag.SYNC,) if sync else tuple()
        self._seq += 1
        self._log.append(IORequest(seq=self._seq, kind=IOKind.FLUSH, flags=flags))

    # -- checkpointing ---------------------------------------------------------

    def mark_checkpoint(self) -> int:
        """Insert a checkpoint marker after a persistence operation completed.

        Returns the 1-based checkpoint id assigned to the marker.
        """
        self._checkpoints += 1
        self._seq += 1
        self._log.append(
            IORequest(
                seq=self._seq,
                kind=IOKind.CHECKPOINT,
                checkpoint_id=self._checkpoints,
                flags=(IOFlag.SYNC,),
            )
        )
        return self._checkpoints

    # -- recording control ------------------------------------------------------

    def pause(self) -> None:
        """Stop recording (reads/writes still pass through)."""
        self.recording = False

    def resume(self) -> None:
        self.recording = True

    def clear_log(self) -> None:
        self._log.clear()
        self._seq = 0
        self._checkpoints = 0

    # -- introspection -----------------------------------------------------------

    @property
    def log(self) -> Sequence[IORequest]:
        """The recorded request stream, in issue order."""
        return tuple(self._log)

    @property
    def num_checkpoints(self) -> int:
        return self._checkpoints

    def writes_between_checkpoints(self) -> List[int]:
        """Number of write requests preceding each checkpoint marker.

        Contract: exactly one count per checkpoint marker, in marker order —
        ``counts[i]`` is the number of writes between marker ``i`` and its
        predecessor (or the start of the log for the first marker).  Zero
        counts are kept.  Writes after the last marker belong to no
        persistence point (e.g. the paused unmount) and are never counted;
        previously a *non-empty* tail was appended as a phantom interval
        while an empty one was silently dropped.

        Used by the resource-accounting benchmarks: it shows how much I/O
        each persistence point generates.
        """
        counts: List[int] = []
        current = 0
        for request in self._log:
            if request.is_checkpoint:
                counts.append(current)
                current = 0
            elif request.is_write:
                current += 1
        return counts

    def recorded_bytes(self) -> int:
        """Total payload bytes recorded (write requests only)."""
        return sum(request.size_bytes() for request in self._log)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RecordingDevice(name={self.name!r}, requests={len(self._log)}, "
            f"checkpoints={self._checkpoints})"
        )
