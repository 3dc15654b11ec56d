"""On-disk layout shared by the simulated file systems.

The layout is deliberately simple but has the structure that matters for
crash consistency:

* block 0 — superblock (committed atomically; names the active checkpoint
  area and the current transaction generation),
* two alternating checkpoint areas — a checkpoint is a full serialization of
  the file-system metadata; it only becomes visible when the superblock is
  rewritten to point at it (so a torn checkpoint is ignored),
* a log area — fsync/fdatasync append self-describing log entries tagged with
  the generation they belong to; recovery replays entries of the current
  generation in order,
* a data area — file data blocks, allocated by a simple bump allocator whose
  state is part of the checkpoint.

All metadata is serialized as JSON (this is a simulator; readability of the
on-disk image is worth more than compactness).  File *data* is stored raw in
data blocks and never embedded in the metadata JSON.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import CorruptionError, FsNoSpaceError
from ..storage.block import BLOCK_SIZE, SECTOR_SIZE

SUPERBLOCK_MAGIC = "B3-REPRO-FS"
CHECKPOINT_MAGIC = "B3-CKPT"
LOG_MAGIC = "B3-LOG"
SEGMENT_MAGIC = "B3-SEG"
SEGMENT_SUMMARY_MAGIC = "B3-SEG-SUM"

SUPERBLOCK_BLOCK = 0
CHECKPOINT_AREA_BLOCKS = 256  # 1 MiB per checkpoint area
CHECKPOINT_A_START = 1
CHECKPOINT_B_START = CHECKPOINT_A_START + CHECKPOINT_AREA_BLOCKS
LOG_START = CHECKPOINT_B_START + CHECKPOINT_AREA_BLOCKS
LOG_BLOCKS = 1024  # 4 MiB of log space
# Log-structured-write (LSW) segment area: append-only records carrying a
# monotonic sequence tag (lsn) in their header sector.  Recovery scans the
# area to the last valid record, so only record-boundary suffix loss is
# observable after a crash.
SEGMENT_START = LOG_START + LOG_BLOCKS
SEGMENT_BLOCKS = 255  # ~1 MiB of segment space
#: segment-usage summary (the LFS/F2FS "SSA" analogue): a cache of what the
#: segment scan would find, written lazily *after* the sealing flush and
#: therefore outside the fsync durability contract.  Recovery never reads
#: it — a mount rebuilds segment usage from the record scan — so a crash
#: that drops or tears it is unobservable.
SEGMENT_SUMMARY_BLOCK = SEGMENT_START + SEGMENT_BLOCKS - 1
#: second copy of the superblock (2-way replicated metadata; newest wins)
REPLICA_SUPERBLOCK_BLOCK = SEGMENT_START + SEGMENT_BLOCKS
DATA_START = REPLICA_SUPERBLOCK_BLOCK + 1


@dataclass
class Superblock:
    """Contents of block 0."""

    magic: str = SUPERBLOCK_MAGIC
    fs_type: str = ""
    generation: int = 0
    checkpoint_area: str = "A"  # "A" or "B"
    checkpoint_blocks: int = 0
    clean_unmount: bool = True
    data_start: int = DATA_START

    def to_json(self) -> dict:
        return {
            "magic": self.magic,
            "fs_type": self.fs_type,
            "generation": self.generation,
            "checkpoint_area": self.checkpoint_area,
            "checkpoint_blocks": self.checkpoint_blocks,
            "clean_unmount": self.clean_unmount,
            "data_start": self.data_start,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Superblock":
        if payload.get("magic") != SUPERBLOCK_MAGIC:
            raise CorruptionError("superblock magic mismatch (device not formatted?)")
        return cls(
            magic=payload["magic"],
            fs_type=payload.get("fs_type", ""),
            generation=int(payload.get("generation", 0)),
            checkpoint_area=payload.get("checkpoint_area", "A"),
            checkpoint_blocks=int(payload.get("checkpoint_blocks", 0)),
            clean_unmount=bool(payload.get("clean_unmount", True)),
            data_start=int(payload.get("data_start", DATA_START)),
        )


def _write_json_block(device, block: int, payload: dict, *, metadata: bool = True,
                      fua: bool = False, tag: str = "") -> None:
    raw = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(raw) > BLOCK_SIZE:
        raise CorruptionError(f"metadata payload of {len(raw)} bytes does not fit in one block")
    try:
        device.write_block(block, raw, metadata=metadata, fua=fua, tag=tag)
    except TypeError:
        # Plain devices (BlockDevice, CowDevice) take no annotation keywords.
        device.write_block(block, raw)


def _decode_json_bytes(raw: bytes) -> Optional[dict]:
    raw = raw.rstrip(b"\x00")
    if not raw:
        return None
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def _read_json_block(device, block: int) -> Optional[dict]:
    return _decode_json_bytes(device.read_block(block))


# -- superblock -----------------------------------------------------------------


def write_superblock(device, superblock: Superblock) -> None:
    # The superblock is the commit record of the layout: real file systems
    # write it with FUA so it is durable the moment the write completes.
    _write_json_block(device, SUPERBLOCK_BLOCK, superblock.to_json(), fua=True, tag="superblock")


def read_superblock(device) -> Superblock:
    payload = _read_json_block(device, SUPERBLOCK_BLOCK)
    if payload is None:
        raise CorruptionError("device has no superblock (not formatted)")
    return Superblock.from_json(payload)


# -- checkpoints ------------------------------------------------------------------


def _chunk_payload(payload: dict, magic: str, generation: int) -> List[dict]:
    """Serialize a payload into self-describing block-sized chunk envelopes."""
    raw = json.dumps(payload, sort_keys=True)
    # Room for the per-block envelope, halved because the payload slice is
    # embedded as a JSON *string*: serializing the envelope escapes every
    # quote and backslash in the slice (at worst doubling it), and a chunk
    # that fits unescaped can otherwise overflow the block once escaped.
    chunk_size = (BLOCK_SIZE - 256) // 2
    chunks = [raw[offset:offset + chunk_size] for offset in range(0, len(raw), chunk_size)] or [""]
    envelopes = []
    for index, chunk in enumerate(chunks):
        envelopes.append(
            {
                "magic": magic,
                "generation": generation,
                "index": index,
                "total": len(chunks),
                "payload": chunk,
            }
        )
    return envelopes


def _reassemble_chunks(raw_blocks: List[Optional[dict]], magic: str, generation: Optional[int] = None) -> Optional[dict]:
    if not raw_blocks or raw_blocks[0] is None:
        return None
    header = raw_blocks[0]
    if header.get("magic") != magic or header.get("index") != 0:
        return None
    if generation is not None and header.get("generation") != generation:
        return None
    total = int(header.get("total", 1))
    pieces = []
    for index in range(total):
        if index >= len(raw_blocks) or raw_blocks[index] is None:
            return None
        block = raw_blocks[index]
        if block.get("magic") != magic or block.get("index") != index:
            return None
        if generation is not None and block.get("generation") != generation:
            return None
        pieces.append(block.get("payload", ""))
    try:
        return json.loads("".join(pieces))
    except json.JSONDecodeError:
        return None


def checkpoint_area_start(area: str) -> int:
    return CHECKPOINT_A_START if area == "A" else CHECKPOINT_B_START


#: The chunk envelope is serialized with sorted keys, so ``generation``,
#: ``index`` and ``magic`` always occupy the first bytes of the block — well
#: inside the first (atomically-persisted) sector, before the payload.  This
#: is what lets recovery validate a chunk's identity even when the payload
#: tail of the block was torn by a mid-write power failure.
_CHUNK_HEADER_RE = re.compile(
    rb'^\{"generation": (\d+), "index": (\d+), "magic": "([^"]*)"'
)


def parse_chunk_header(raw: bytes) -> Optional[dict]:
    """Parse a chunk envelope's identity fields from a block's first sector.

    Returns ``{"generation", "index", "magic"}`` or ``None`` when the sector
    does not start with a chunk envelope at all (stale content of an earlier
    generation still parses — its header simply carries the old generation).
    """
    match = _CHUNK_HEADER_RE.match(raw[:SECTOR_SIZE])
    if match is None:
        return None
    return {
        "generation": int(match.group(1)),
        "index": int(match.group(2)),
        "magic": match.group(3).decode("utf-8", "replace"),
    }


def write_checkpoint(device, payload: dict, generation: int, area: str, *, tag: str = "checkpoint") -> int:
    """Write a checkpoint into the given area; returns the number of blocks used."""
    envelopes = _chunk_payload(payload, CHECKPOINT_MAGIC, generation)
    if len(envelopes) > CHECKPOINT_AREA_BLOCKS:
        raise FsNoSpaceError(
            f"checkpoint of {len(envelopes)} blocks exceeds the checkpoint area "
            f"({CHECKPOINT_AREA_BLOCKS} blocks)"
        )
    start = checkpoint_area_start(area)
    for offset, envelope in enumerate(envelopes):
        _write_json_block(device, start + offset, envelope, tag=tag)
    return len(envelopes)


def read_checkpoint(device, superblock: Superblock) -> Optional[dict]:
    """Read the checkpoint named by the superblock.

    Distinguishes the two ways a checkpoint can be unreadable, because
    recovery reacts differently to each:

    * ``None`` — some chunk never reached the platter at all: its first
      sector still holds stale content (an earlier generation's envelope, or
      nothing).  The commit this superblock describes was incomplete;
      recovery may fall back to the previous checkpoint.
    * :class:`CorruptionError` — every chunk's header sector identifies it as
      part of this checkpoint, but the payload does not reassemble: a write
      was torn mid-block.  The checkpoint claims validity it does not have
      (there is no checksum to catch the tear), so recovery fails.
    """
    if superblock.checkpoint_blocks == 0:
        return None
    start = checkpoint_area_start(superblock.checkpoint_area)
    # One device read per block: the header pre-check and the payload decode
    # both work from the same raw bytes (re-reading would double the device's
    # read accounting on every mount).
    raw_blocks = []
    for offset in range(superblock.checkpoint_blocks):
        raw = device.read_block(start + offset)
        header = parse_chunk_header(raw)
        if (
            header is None
            or header["magic"] != CHECKPOINT_MAGIC
            or header["generation"] != superblock.generation
            or header["index"] != offset
        ):
            return None
        raw_blocks.append(_decode_json_bytes(raw))
    payload = _reassemble_chunks(raw_blocks, CHECKPOINT_MAGIC, superblock.generation)
    if payload is None:
        raise CorruptionError(
            "checkpoint torn mid-block: chunk headers are valid but the payload "
            "does not reassemble"
        )
    return payload


def read_checkpoint_area(device, area: str, generation: int) -> Optional[Tuple[dict, int]]:
    """Read a whole checkpoint of ``generation`` from ``area``, if one exists.

    Used by fallback recovery, which has no superblock pointing at the area
    and therefore discovers the chunk count from the first envelope.  Returns
    ``(payload, blocks)`` or ``None``; a torn fallback checkpoint is also
    ``None`` — there is nothing older to fall back to.
    """
    start = checkpoint_area_start(area)
    first = _read_json_block(device, start)
    if first is None or first.get("magic") != CHECKPOINT_MAGIC:
        return None
    if first.get("generation") != generation or first.get("index") != 0:
        return None
    total = int(first.get("total", 1))
    if total < 1 or total > CHECKPOINT_AREA_BLOCKS:
        return None
    raw_blocks = [_read_json_block(device, start + offset) for offset in range(total)]
    payload = _reassemble_chunks(raw_blocks, CHECKPOINT_MAGIC, generation)
    if payload is None:
        return None
    return payload, total


# -- log ---------------------------------------------------------------------------


def write_log_entry(device, entry: dict, generation: int, seq: int, next_log_block: int, *, tag: str = "log") -> int:
    """Append a log entry starting at ``next_log_block``.

    Returns the next free log block after the entry.  Raises
    :class:`FsNoSpaceError` if the log area is exhausted (callers typically
    force a checkpoint in that case).
    """
    payload = {"seq": seq, "entry": entry}
    envelopes = _chunk_payload(payload, LOG_MAGIC, generation)
    end_block = next_log_block + len(envelopes)
    if end_block > LOG_START + LOG_BLOCKS:
        raise FsNoSpaceError("log area exhausted; a checkpoint is required")
    for offset, envelope in enumerate(envelopes):
        _write_json_block(device, next_log_block + offset, envelope, tag=tag)
    return end_block


def read_log_entries(device, generation: int) -> List[dict]:
    """Scan the log area and return entries of ``generation`` in append order.

    The scan stops at the first block that is not a valid log chunk of the
    requested generation, which is exactly how recovery after an unclean
    shutdown discovers how much of the log is valid.
    """
    entries: List[Tuple[int, dict]] = []
    block = LOG_START
    while block < LOG_START + LOG_BLOCKS:
        header = _read_json_block(device, block)
        if header is None or header.get("magic") != LOG_MAGIC:
            break
        if header.get("generation") != generation:
            break
        total = int(header.get("total", 1))
        raw_blocks = [_read_json_block(device, block + offset) for offset in range(total)]
        payload = _reassemble_chunks(raw_blocks, LOG_MAGIC, generation)
        if payload is None:
            break
        entries.append((int(payload.get("seq", 0)), payload.get("entry", {})))
        block += total
    entries.sort(key=lambda item: item[0])
    return [entry for _, entry in entries]


# -- LSW segment area ---------------------------------------------------------------


#: Segment record envelopes are serialized with sorted keys, so ``index``,
#: ``lsn`` and ``magic`` occupy the first bytes of the block — inside the
#: first (atomically-persisted) sector.  The lsn is the monotonic sequence
#: tag of the log-structured-write contract: recovery scans forward and
#: stops at the first record that is missing, malformed, or non-monotonic,
#: so a crash can only manifest as record-boundary suffix loss.
_SEGMENT_HEADER_RE = re.compile(
    rb'^\{"index": (\d+), "lsn": (\d+), "magic": "([^"]*)"'
)


def parse_segment_header(raw: bytes) -> Optional[dict]:
    """Parse a segment envelope's identity fields from a block's first sector."""
    match = _SEGMENT_HEADER_RE.match(raw[:SECTOR_SIZE])
    if match is None:
        return None
    return {
        "index": int(match.group(1)),
        "lsn": int(match.group(2)),
        "magic": match.group(3).decode("utf-8", "replace"),
    }


def _segment_envelopes(payload: dict, lsn: int) -> List[dict]:
    raw = json.dumps(payload, sort_keys=True)
    chunk_size = (BLOCK_SIZE - 256) // 2
    chunks = [raw[offset:offset + chunk_size] for offset in range(0, len(raw), chunk_size)] or [""]
    return [
        {
            "magic": SEGMENT_MAGIC,
            "lsn": lsn,
            "index": index,
            "total": len(chunks),
            "payload": chunk,
        }
        for index, chunk in enumerate(chunks)
    ]


def write_segment_record(device, entry: dict, generation: int, lsn: int,
                         next_block: int, *, tag: str = "segment") -> int:
    """Append one segment record starting at ``next_block``.

    Returns the next free segment block.  Raises :class:`FsNoSpaceError`
    when the segment area is exhausted (callers force a checkpoint, which
    resets the area).
    """
    payload = {"generation": generation, "lsn": lsn, "entry": entry}
    envelopes = _segment_envelopes(payload, lsn)
    end_block = next_block + len(envelopes)
    if end_block > SEGMENT_SUMMARY_BLOCK:
        raise FsNoSpaceError("segment area exhausted; a checkpoint is required")
    for offset, envelope in enumerate(envelopes):
        _write_json_block(device, next_block + offset, envelope, tag=tag)
    return end_block


def read_segment_records(device, generation: int) -> List[dict]:
    """Scan the segment area to the last valid record of ``generation``.

    This is the LSW recovery contract: the scan stops at the first record
    that is missing, torn, of a foreign generation, or whose lsn is not
    strictly greater than its predecessor's.  Everything before the stop
    point is replayed; everything after it is suffix loss.
    """
    entries: List[dict] = []
    block = SEGMENT_START
    last_lsn = 0
    while block < SEGMENT_SUMMARY_BLOCK:
        first = _read_json_block(device, block)
        if first is None or first.get("magic") != SEGMENT_MAGIC or first.get("index") != 0:
            break
        lsn = int(first.get("lsn", 0))
        if lsn <= last_lsn:
            break
        total = int(first.get("total", 1))
        if total < 1 or block + total > SEGMENT_SUMMARY_BLOCK:
            break
        raw_blocks = [_read_json_block(device, block + offset) for offset in range(total)]
        if any(chunk is None or chunk.get("lsn") != lsn for chunk in raw_blocks):
            break
        payload = _reassemble_chunks(raw_blocks, SEGMENT_MAGIC)
        if payload is None or int(payload.get("lsn", -1)) != lsn:
            break
        if int(payload.get("generation", -1)) != generation:
            break
        entries.append(payload.get("entry", {}))
        last_lsn = lsn
        block += total
    return entries


def write_segment_summary(device, generation: int, records: int,
                          next_block: int) -> None:
    """Write the segment-usage summary block (lazily, never flushed).

    The summary caches what :func:`read_segment_records` would find — how
    many records the current generation has appended and where the next one
    goes — for the cleaner's benefit.  It is written *after* the sealing
    flush of the records it describes, so it rides the device cache: crash
    recovery must never depend on it, and :func:`read_segment_records`
    deliberately does not read it (a mount rebuilds segment usage from the
    record scan).
    """
    payload = {
        "magic": SEGMENT_SUMMARY_MAGIC,
        "generation": generation,
        "records": records,
        "next_block": next_block,
    }
    _write_json_block(device, SEGMENT_SUMMARY_BLOCK, payload, tag="segment_summary")


# -- replicated superblock ----------------------------------------------------------


def write_superblock_pair(device, superblock: Superblock, *, fua: bool = True) -> None:
    """Write both copies of a 2-way replicated superblock.

    Both copies carry the same generation; recovery reads whichever copies
    parse and picks the newest.  ``fua=False`` models a buggy commit path
    that trusts the mirror instead of forcing either copy to media.
    """
    payload = superblock.to_json()
    for block in (SUPERBLOCK_BLOCK, REPLICA_SUPERBLOCK_BLOCK):
        _write_json_block(device, block, payload, fua=fua, tag="superblock")


def read_superblock_pair(device) -> Superblock:
    """Newest-wins recovery over the replicated superblock pair."""
    candidates = []
    for block in (SUPERBLOCK_BLOCK, REPLICA_SUPERBLOCK_BLOCK):
        payload = _read_json_block(device, block)
        if payload is not None and payload.get("magic") == SUPERBLOCK_MAGIC:
            candidates.append(Superblock.from_json(payload))
    if not candidates:
        raise CorruptionError("device has no readable superblock replica (not formatted?)")
    return max(candidates, key=lambda sb: sb.generation)


# -- data blocks --------------------------------------------------------------------


class DataAllocator:
    """Bump allocator for data blocks; its cursor is checkpointed."""

    def __init__(self, device_blocks: int, next_block: int = DATA_START):
        self.device_blocks = device_blocks
        self.next_block = max(next_block, DATA_START)

    def allocate(self, count: int = 1) -> List[int]:
        if self.next_block + count > self.device_blocks:
            raise FsNoSpaceError(
                f"device full: cannot allocate {count} data blocks "
                f"(next={self.next_block}, device={self.device_blocks})"
            )
        blocks = list(range(self.next_block, self.next_block + count))
        self.next_block += count
        return blocks

    def to_json(self) -> dict:
        return {"next_block": self.next_block}

    @classmethod
    def from_json(cls, device_blocks: int, payload: Optional[dict]) -> "DataAllocator":
        next_block = DATA_START if not payload else int(payload.get("next_block", DATA_START))
        return cls(device_blocks, next_block)
