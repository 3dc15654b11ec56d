"""Block-device substrate for the B3 reproduction.

Provides the three devices the paper's CrashMonkey relies on:

* :class:`BlockDevice` — an in-memory backing store,
* :class:`CowDevice` — fast writable snapshots (base image + overlay),
* :class:`RecordingDevice` — the wrapper device that records block writes and
  checkpoint markers,

plus :class:`IORequest` records and the replay helpers that turn a recorded
stream into a crash state.
"""

from .block import (
    BLOCK_SIZE,
    DEFAULT_DEVICE_BLOCKS,
    SECTOR_SIZE,
    SECTORS_PER_BLOCK,
    blocks_needed,
    compose_torn_block,
    pad_block,
    split_blocks,
)
from .block_device import BlockDevice
from .cow_device import CowDevice
from .io_request import (
    IOFlag,
    IOKind,
    IORequest,
    count_checkpoints,
    iter_until_checkpoint,
    split_at_checkpoint,
)
from .record_device import RecordingDevice
from .replay import replay_requests, replay_until_checkpoint

__all__ = [
    "BLOCK_SIZE",
    "DEFAULT_DEVICE_BLOCKS",
    "SECTOR_SIZE",
    "SECTORS_PER_BLOCK",
    "blocks_needed",
    "compose_torn_block",
    "pad_block",
    "split_blocks",
    "BlockDevice",
    "CowDevice",
    "RecordingDevice",
    "IORequest",
    "IOKind",
    "IOFlag",
    "count_checkpoints",
    "iter_until_checkpoint",
    "split_at_checkpoint",
    "replay_requests",
    "replay_until_checkpoint",
]
