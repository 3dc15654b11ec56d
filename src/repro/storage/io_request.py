"""Block I/O request records.

The paper's wrapper block device records every bio issued by the file system
together with its metadata (sector, size, flags) and injects special
*checkpoint* requests into the stream whenever a persistence operation
(fsync/fdatasync/sync/msync) completes.  The replay phase later replays the
recorded stream up to a chosen checkpoint to construct a crash state.

``IORequest`` is the Python equivalent of one recorded bio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple


class IOKind(str, Enum):
    """Kind of recorded request."""

    WRITE = "write"
    FLUSH = "flush"
    CHECKPOINT = "checkpoint"


class IOFlag(str, Enum):
    """Flags carried by a request, mirroring bio flags the paper records."""

    METADATA = "metadata"
    DATA = "data"
    SYNC = "sync"
    FUA = "fua"


@dataclass(frozen=True)
class IORequest:
    """One recorded block I/O request.

    Attributes:
        seq: monotonically increasing sequence number within a recording.
        kind: write, flush, or checkpoint marker.
        block: target block number (``None`` for flush/checkpoint).
        data: payload for writes (exactly one block of ``bytes``), ``None``
            otherwise.
        flags: tuple of :class:`IOFlag` values.
        checkpoint_id: for checkpoint markers, the 1-based persistence-point
            index this marker corresponds to.
        tag: free-form annotation (e.g. "superblock", "log", "data") used only
            for debugging and reports; the replayer ignores it.
    """

    seq: int
    kind: IOKind
    block: Optional[int] = None
    data: Optional[bytes] = None
    flags: Tuple[IOFlag, ...] = field(default_factory=tuple)
    checkpoint_id: Optional[int] = None
    tag: str = ""

    @property
    def is_checkpoint(self) -> bool:
        return self.kind is IOKind.CHECKPOINT

    @property
    def is_write(self) -> bool:
        return self.kind is IOKind.WRITE

    @property
    def is_flush(self) -> bool:
        return self.kind is IOKind.FLUSH

    @property
    def is_fua(self) -> bool:
        """Forced-unit-access write: durable on completion, never in-flight."""
        return IOFlag.FUA in self.flags

    @property
    def is_metadata(self) -> bool:
        return IOFlag.METADATA in self.flags

    def size_bytes(self) -> int:
        """Payload size of the request in bytes (0 for markers and flushes)."""
        return len(self.data) if self.data is not None else 0

    def describe(self) -> str:
        """Human-readable one-line description used in bug reports."""
        if self.kind is IOKind.CHECKPOINT:
            return f"#{self.seq} CHECKPOINT {self.checkpoint_id}"
        if self.kind is IOKind.FLUSH:
            return f"#{self.seq} FLUSH"
        flagstr = ",".join(flag.value for flag in self.flags) or "-"
        return f"#{self.seq} WRITE block={self.block} flags={flagstr} tag={self.tag or '-'}"


def count_checkpoints(requests) -> int:
    """Number of checkpoint markers in a recorded stream."""
    return sum(1 for request in requests if request.is_checkpoint)


def split_at_checkpoint(requests, checkpoint_id: int):
    """Return the prefix of ``requests`` up to and including ``checkpoint_id``.

    Raises ``ValueError`` if the stream does not contain that checkpoint.
    """
    return list(iter_until_checkpoint(requests, checkpoint_id))


def iter_until_checkpoint(requests, checkpoint_id: int):
    """Yield requests up to and including the ``checkpoint_id`` marker.

    Streaming counterpart of :func:`split_at_checkpoint`: consumers that only
    need one pass (the replayer constructing a crash state) avoid
    materializing a copy of the recorded log per crash state.  Raises
    ``ValueError`` — from the consuming iteration — if the stream ends
    without that checkpoint.
    """
    for request in requests:
        yield request
        if request.is_checkpoint and request.checkpoint_id == checkpoint_id:
            return
    raise ValueError(f"recorded stream has no checkpoint {checkpoint_id}")
