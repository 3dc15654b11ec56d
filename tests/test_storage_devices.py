"""Unit tests for the block device stack (RAM device, CoW snapshots, recorder)."""

import pytest

from repro.errors import InvalidBlockError
from repro.storage import (
    BLOCK_SIZE,
    BlockDevice,
    CowDevice,
    IOKind,
    RecordingDevice,
    count_checkpoints,
    replay_requests,
    replay_until_checkpoint,
    split_at_checkpoint,
)


class TestBlockDevice:
    def test_unwritten_blocks_read_as_zero(self):
        device = BlockDevice(16)
        assert device.read_block(3) == bytes(BLOCK_SIZE)

    def test_write_then_read_round_trips(self):
        device = BlockDevice(16)
        device.write_block(5, b"hello")
        assert device.read_block(5)[:5] == b"hello"

    def test_out_of_range_access_raises(self):
        device = BlockDevice(4)
        with pytest.raises(InvalidBlockError):
            device.read_block(4)
        with pytest.raises(InvalidBlockError):
            device.write_block(-1, b"x")

    def test_requires_at_least_one_block(self):
        with pytest.raises(ValueError):
            BlockDevice(0)

    def test_discard_makes_block_zero_again(self):
        device = BlockDevice(8)
        device.write_block(2, b"data")
        device.discard_block(2)
        assert device.read_block(2) == bytes(BLOCK_SIZE)
        assert device.used_blocks() == 0

    def test_copy_is_independent(self):
        device = BlockDevice(8)
        device.write_block(1, b"one")
        clone = device.copy()
        clone.write_block(1, b"two")
        assert device.read_block(1)[:3] == b"one"
        assert clone.read_block(1)[:3] == b"two"

    def test_content_equal_ignores_representation(self):
        left = BlockDevice(8)
        right = BlockDevice(8)
        left.write_block(1, b"same")
        right.write_block(1, b"same")
        right.write_block(2, b"")  # an explicit zero block equals an absent one
        assert left.content_equal(right)

    def test_accounting_counters(self):
        device = BlockDevice(8)
        device.write_block(0, b"a")
        device.write_block(1, b"b")
        device.read_block(0)
        device.flush()
        assert device.writes == 2
        assert device.reads == 1
        assert device.flushes == 1
        assert device.used_bytes() == 2 * BLOCK_SIZE


class TestCowDevice:
    def test_reads_fall_through_to_base(self):
        base = BlockDevice(8)
        base.write_block(3, b"base")
        snap = CowDevice(base)
        assert snap.read_block(3)[:4] == b"base"

    def test_writes_do_not_touch_the_base(self):
        base = BlockDevice(8)
        base.write_block(3, b"base")
        snap = CowDevice(base)
        snap.write_block(3, b"snap")
        assert base.read_block(3)[:4] == b"base"
        assert snap.read_block(3)[:4] == b"snap"

    def test_reset_reverts_to_base_image(self):
        base = BlockDevice(8)
        snap = CowDevice(base)
        snap.write_block(1, b"tmp")
        snap.reset()
        assert snap.read_block(1) == bytes(BLOCK_SIZE)
        assert snap.overlay_blocks() == 0

    def test_snapshot_of_snapshot_is_independent(self):
        base = BlockDevice(8)
        first = CowDevice(base)
        first.write_block(1, b"first")
        second = first.snapshot()
        second.write_block(1, b"second")
        assert first.read_block(1)[:5] == b"first"
        assert second.read_block(1)[:6] == b"second"

    def test_materialize_produces_equivalent_plain_device(self):
        base = BlockDevice(8)
        base.write_block(0, b"zero")
        snap = CowDevice(base)
        snap.write_block(1, b"one")
        flat = snap.materialize()
        assert flat.read_block(0)[:4] == b"zero"
        assert flat.read_block(1)[:3] == b"one"
        assert snap.content_equal(flat)

    def test_overlay_bytes_tracks_modified_blocks_only(self):
        base = BlockDevice(64)
        snap = CowDevice(base)
        for block in range(5):
            snap.write_block(block, b"x")
        assert snap.overlay_bytes() == 5 * BLOCK_SIZE

    def test_discard_shadows_base_content(self):
        base = BlockDevice(8)
        base.write_block(2, b"keep")
        snap = CowDevice(base)
        snap.discard_block(2)
        assert snap.read_block(2) == bytes(BLOCK_SIZE)
        assert base.read_block(2)[:4] == b"keep"

    def test_materialize_keeps_an_explicitly_written_zero_block(self):
        # A zero block the snapshot wrote is a modification, not an absence:
        # converting it to a discard would make the flattened device's
        # used_blocks() disagree with the snapshot's own accounting.
        base = BlockDevice(8)
        base.write_block(2, b"old")
        snap = CowDevice(base)
        snap.write_block(2, b"")       # explicit all-zeroes write
        snap.write_block(3, b"")
        flat = snap.materialize()
        assert flat.read_block(2) == bytes(BLOCK_SIZE)
        assert dict(flat.written_blocks()).keys() >= {2, 3}
        assert flat.used_blocks() == snap.used_blocks()
        assert snap.content_equal(flat)

    def test_chain_compaction_preserves_contents_and_accounting(self):
        from repro.storage.cow_device import CHAIN_COMPACT_THRESHOLD

        base = BlockDevice(CHAIN_COMPACT_THRESHOLD + 16)
        base.write_block(0, b"base")
        snap = CowDevice(base)
        expected = {}
        # Each fork freezes one single-block layer; crossing the threshold
        # must collapse the chain without changing the visible contents.
        for i in range(CHAIN_COMPACT_THRESHOLD + 8):
            payload = f"layer-{i}".encode()
            snap.write_block(i % 8 + 1, payload)
            expected[i % 8 + 1] = payload
            snap = snap.snapshot(name=f"fork-{i}")
        assert snap.overlay_layers() <= CHAIN_COMPACT_THRESHOLD + 1
        assert snap.overlay_blocks() == len(expected)
        for block, payload in expected.items():
            assert snap.read_block(block)[: len(payload)] == payload
        assert snap.read_block(0)[:4] == b"base"

    def test_write_sectors_composes_with_the_visible_prior_content(self):
        from repro.storage import SECTOR_SIZE

        base = BlockDevice(8)
        base.write_block(1, bytes([7]) * BLOCK_SIZE)
        snap = CowDevice(base)
        # Tear over base content.
        snap.write_sectors(1, bytes([9]) * BLOCK_SIZE, 2)
        torn = snap.read_block(1)
        assert torn[: 2 * SECTOR_SIZE] == bytes([9]) * (2 * SECTOR_SIZE)
        assert torn[2 * SECTOR_SIZE :] == bytes([7]) * (BLOCK_SIZE - 2 * SECTOR_SIZE)
        # Tear over chain content (after a fork) and over the top overlay.
        fork = snap.snapshot()
        fork.write_sectors(1, bytes([5]) * BLOCK_SIZE, 1)
        reread = fork.read_block(1)
        assert reread[:SECTOR_SIZE] == bytes([5]) * SECTOR_SIZE
        assert reread[SECTOR_SIZE : 2 * SECTOR_SIZE] == bytes([9]) * SECTOR_SIZE

    def test_write_sectors_does_not_count_a_device_read(self):
        base = BlockDevice(8)
        snap = CowDevice(base)
        before = snap.reads
        snap.write_sectors(1, b"payload", 3)
        assert snap.reads == before
        assert snap.writes == 1

    def test_reads_return_padded_block_sized_payloads(self):
        device = CowDevice(BlockDevice(num_blocks=8))
        device.write_block(3, b"tiny")
        payload = device.read_block(3)
        assert len(payload) == BLOCK_SIZE
        assert payload[:4] == b"tiny"
        assert payload[4:] == b"\x00" * (BLOCK_SIZE - 4)

    def test_deep_chains_read_through_the_merged_index(self):
        device = CowDevice(BlockDevice(num_blocks=8))
        device.write_block(0, b"layer-0")
        fork = device
        for n in range(1, 6):
            fork = fork.snapshot(name=f"layer-{n}")
            fork.write_block(n % 4, f"layer-{n}".encode())
        assert fork.read_block(1)[:7] == b"layer-5"
        assert fork.read_block(0)[:7] == b"layer-4"
        # Blocks never written still come from the base.
        assert fork.read_block(7) == b"\x00" * BLOCK_SIZE


class TestRecordingDevice:
    def _recorder(self):
        base = BlockDevice(16)
        return RecordingDevice(CowDevice(base))

    def test_writes_are_recorded_in_order(self):
        recorder = self._recorder()
        recorder.write_block(1, b"a")
        recorder.write_block(2, b"b", metadata=True)
        log = recorder.log
        assert [request.block for request in log] == [1, 2]
        assert log[0].is_write and not log[0].is_metadata
        assert log[1].is_metadata

    def test_checkpoint_markers_are_numbered(self):
        recorder = self._recorder()
        recorder.write_block(1, b"a")
        first = recorder.mark_checkpoint()
        recorder.write_block(2, b"b")
        second = recorder.mark_checkpoint()
        assert (first, second) == (1, 2)
        assert count_checkpoints(recorder.log) == 2

    def test_pause_stops_recording_but_not_io(self):
        recorder = self._recorder()
        recorder.write_block(1, b"a")
        recorder.pause()
        recorder.write_block(2, b"b")
        assert len(recorder.log) == 1
        assert recorder.read_block(2)[:1] == b"b"

    def test_flush_is_recorded(self):
        recorder = self._recorder()
        recorder.flush(sync=True)
        assert recorder.log[0].kind is IOKind.FLUSH

    def test_writes_between_checkpoints(self):
        recorder = self._recorder()
        recorder.write_block(1, b"a")
        recorder.write_block(2, b"b")
        recorder.mark_checkpoint()
        recorder.write_block(3, b"c")
        recorder.mark_checkpoint()
        assert recorder.writes_between_checkpoints() == [2, 1]

    def test_writes_between_checkpoints_keeps_zero_intervals_and_drops_the_tail(self):
        # Contract: one count per marker, in marker order; zero-write
        # intervals are kept and writes after the last marker belong to no
        # persistence point (they are never counted as a phantom interval).
        recorder = self._recorder()
        recorder.mark_checkpoint()                 # zero writes before marker 1
        recorder.write_block(1, b"a")
        recorder.mark_checkpoint()
        recorder.mark_checkpoint()                 # zero writes between markers
        recorder.write_block(2, b"b")              # trailing writes: no marker
        assert recorder.writes_between_checkpoints() == [0, 1, 0]

    def test_recorded_write_payload_is_captured_without_a_device_read(self):
        recorder = self._recorder()
        target_reads = recorder.target.reads
        recorder.write_block(1, b"payload")
        assert recorder.target.reads == target_reads, (
            "recording a write must not issue a spurious read on the target"
        )
        request = recorder.log[0]
        assert request.data == b"payload" + bytes(BLOCK_SIZE - 7)
        assert recorder.read_block(1) == request.data

    def test_recorded_bytes(self):
        recorder = self._recorder()
        recorder.write_block(1, b"a")
        recorder.mark_checkpoint()
        assert recorder.recorded_bytes() == BLOCK_SIZE


class TestReplay:
    def test_replay_until_checkpoint_reconstructs_prefix_state(self):
        base = BlockDevice(16)
        recorder = RecordingDevice(CowDevice(base))
        recorder.write_block(1, b"first")
        cp1 = recorder.mark_checkpoint()
        recorder.write_block(1, b"second")
        recorder.write_block(2, b"third")
        cp2 = recorder.mark_checkpoint()

        crash1 = replay_until_checkpoint(base, recorder.log, cp1)
        crash2 = replay_until_checkpoint(base, recorder.log, cp2)
        assert crash1.read_block(1)[:5] == b"first"
        assert crash1.read_block(2) == bytes(BLOCK_SIZE)
        assert crash2.read_block(1)[:6] == b"second"
        assert crash2.read_block(2)[:5] == b"third"

    def test_replay_does_not_modify_base(self):
        base = BlockDevice(16)
        recorder = RecordingDevice(CowDevice(base))
        recorder.write_block(1, b"data")
        cp = recorder.mark_checkpoint()
        replay_until_checkpoint(base, recorder.log, cp)
        assert base.read_block(1) == bytes(BLOCK_SIZE)

    def test_unknown_checkpoint_raises(self):
        base = BlockDevice(16)
        recorder = RecordingDevice(CowDevice(base))
        recorder.write_block(1, b"data")
        with pytest.raises(ValueError):
            split_at_checkpoint(list(recorder.log), 1)

    def test_replay_requests_ignores_markers(self):
        base = BlockDevice(16)
        recorder = RecordingDevice(CowDevice(base))
        recorder.flush()
        recorder.write_block(4, b"x")
        recorder.mark_checkpoint()
        snapshot = replay_requests(base, recorder.log)
        assert snapshot.read_block(4)[:1] == b"x"
