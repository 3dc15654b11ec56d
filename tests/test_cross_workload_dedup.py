"""Cross-workload dedup over ACE sibling families.

ACE emits *sibling families*: workloads that share every operation but the
placement of their persistence points.  Siblings re-reach the same crash
states, so a harness with ``cross_workload_dedup`` skips a checkpoint whose
states and expectations an earlier workload already tested.  These tests pin
that dedup is sound (a sibling with new expectations is never skipped, a
correct file system stays silent), that the engine's family-affine chunking
keeps a family on one worker without reordering the stream, and that the
adapter surfaces every invalid workload it drops.
"""

import pytest

from repro.ace import AceSynthesizer, CrashMonkeyAdapter, group_siblings, seq1_bounds
from repro.core import B3Campaign, CampaignConfig
from repro.crashmonkey import CrashMonkey, CrossWorkloadCache
from repro.engine import HarnessSpec, chunked_affine, run_campaign
from repro.fs import BugConfig
from repro.workload import parse_workload
from repro.workload.operations import creat, write

from conftest import SMALL_DEVICE_BLOCKS

#: Sibling pair sharing the prefix "creat foo; write foo 0 8192; fsync foo".
SIBLING_A = "creat foo\nwrite foo 0 8192\nfsync foo\ncreat bar\nfsync bar"
SIBLING_B = "creat foo\nwrite foo 0 8192\nfsync foo\nlink foo baz\nfsync baz"


class TestCrossWorkloadDedup:
    def _harness(self, fs_name="logfs", bugs=None, dedup=True, **kwargs):
        return CrashMonkey(fs_name, bugs=bugs, device_blocks=SMALL_DEVICE_BLOCKS,
                           cross_workload_dedup=dedup, **kwargs)

    def test_sibling_repeat_checkpoints_are_skipped_once(self):
        harness = self._harness()
        first = harness.test_workload(parse_workload(SIBLING_A, name="A"))
        second = harness.test_workload(parse_workload(SIBLING_B, name="B"))
        assert first.cross_deduped_scenarios == 0
        # B's checkpoint 1 is byte-identical to A's checkpoint 1 (same prefix,
        # same expectations): skipped, counted, never re-constructed.
        assert second.cross_deduped_scenarios == 1
        assert second.checkpoints_tested == 2
        assert harness.cross_cache.hits == 1

    def test_sibling_with_new_expectations_after_the_prefix_is_never_skipped(self):
        # The falloc after the shared prefix changes the oracle without any
        # block I/O (the buggy fdatasync skip path): the sibling's new
        # checkpoint must still be constructed and must still find the bug.
        bugs = BugConfig.only("falloc_keep_size_fdatasync")
        prefix = "creat foo\nwrite foo 0 8192\nfsync foo"
        sibling = prefix + "\nfalloc foo 8192 8192 keep_size\nfdatasync foo"
        for dedup in (True, False):
            harness = self._harness("seqfs", bugs=bugs, dedup=dedup)
            harness.test_workload(parse_workload(prefix, name="prefix"))
            result = harness.test_workload(parse_workload(sibling, name="sibling"))
            assert not result.passed, f"dedup={dedup}"
            assert {r.checkpoint_id for r in result.bug_reports} == {2}
        # Only the shared checkpoint was skipped, never the new one.
        assert result.cross_deduped_scenarios == 0

    def test_dedup_counts_add_up_to_the_full_enumeration(self):
        with_dedup = self._harness(dedup=True)
        without = self._harness(dedup=False)
        texts = [(SIBLING_A, "A"), (SIBLING_B, "B"), (SIBLING_A, "A2")]
        total_tested = total_skipped = total_full = 0
        for text, name in texts:
            result = with_dedup.test_workload(parse_workload(text, name=name))
            full = without.test_workload(parse_workload(text, name=name))
            total_tested += result.scenarios_tested
            total_skipped += result.cross_deduped_scenarios
            total_full += full.scenarios_tested
        assert total_skipped > 0
        assert total_tested + total_skipped == total_full

    def test_identical_recurring_states_are_counted_once_not_re_reported(self):
        # A repeated failing workload re-reports every bug without the cache
        # and reports it exactly once with it.
        workload_text = "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar"
        deduped = self._harness(dedup=True)
        first = deduped.test_workload(parse_workload(workload_text, name="w1"))
        second = deduped.test_workload(parse_workload(workload_text, name="w2"))
        assert not first.passed
        assert second.scenarios_tested == 0
        assert not second.bug_reports
        assert second.cross_deduped_scenarios == first.scenarios_tested

    @pytest.mark.parametrize("fs_name", ["logfs", "seqfs", "flashfs", "verifs"])
    def test_patched_full_seq1_space_stays_silent_with_dedup(self, fs_name):
        """Soundness: dedup never invents a report on a correct fs."""
        harness = self._harness(fs_name, bugs=BugConfig.none(), dedup=True,
                                crash_plan="torn", reorder_bound=2, torn_bound=2)
        tested = 0
        for workload in AceSynthesizer(seq1_bounds()).stream():
            result = harness.test_workload(workload)
            assert result.passed, f"{fs_name}: {workload.display_name()}"
            tested += 1
        assert tested > 0
        assert harness.cross_cache.hits > 0

    def test_cache_cap_degrades_to_fewer_hits_never_to_skipping(self):
        cache = CrossWorkloadCache(max_entries=1)
        assert cache.first_sighting(("a",))
        assert cache.first_sighting(("b",))  # over cap: still tested
        assert cache.first_sighting(("b",))  # not remembered -> re-tested
        assert not cache.first_sighting(("a",))
        assert len(cache) == 1


class TestFamilyAffineChunking:
    def test_affine_chunks_preserve_stream_order(self):
        items = [f"{group}-{i}" for group in "abcde" for i in range(7)]
        chunks = list(chunked_affine(iter(items), 4, key=lambda s: s[0]))
        assert [x for chunk in chunks for x in chunk] == items

    def test_groups_are_not_split_below_the_cap(self):
        items = [(group, i) for group in range(5) for i in range(6)]
        chunks = list(chunked_affine(iter(items), 4, key=lambda t: t[0]))
        for chunk in chunks:
            # A group begins mid-chunk only if the whole group fits in it.
            starts = {t[0] for t in chunk}
            for group in starts:
                members = [t for t in items if t[0] == group]
                in_chunk = [t for t in chunk if t[0] == group]
                assert in_chunk == members, "group split across chunks"

    def test_oversized_groups_are_split_at_the_cap(self):
        items = [("g", i) for i in range(30)]
        chunks = list(chunked_affine(iter(items), 4, key=lambda t: t[0]))
        assert max(len(chunk) for chunk in chunks) <= 16  # 4 * chunk_size
        assert [x for chunk in chunks for x in chunk] == items

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            list(chunked_affine([], 0, key=lambda x: x))
        with pytest.raises(ValueError):
            list(chunked_affine([], 4, key=lambda x: x, max_chunk_size=2))

    def test_engine_keeps_each_family_in_one_chunk(self):
        workloads = list(AceSynthesizer(seq1_bounds()).stream(limit=40))
        spec = HarnessSpec(fs_name="btrfs", bugs=BugConfig.none(),
                           device_blocks=SMALL_DEVICE_BLOCKS)
        run = run_campaign(spec, iter(workloads), processes=1, chunk_size=8)
        tested = [result.workload for result in run.result.results]
        assert tested == workloads
        families = [w.family_key() for w in workloads]
        position = 0
        for stats in run.chunks:
            position += stats.workloads
            if position < len(workloads):
                assert families[position - 1] != families[position], \
                    "a chunk boundary split a sibling family"


class TestInvalidWorkloadSurfacing:
    def test_adapt_all_counts_and_records_drops(self):
        adapter = CrashMonkeyAdapter()
        good = parse_workload("creat foo\nfsync foo", name="good")
        from repro.workload.workload import Workload
        bad = Workload(ops=[creat("x")], name="bad")  # no persistence point
        assert adapter.adapt_all([good, bad, good]) == [good, good]
        assert adapter.invalid_workloads == 1
        assert adapter.dropped[0][0] == "bad"
        assert "persistence" in adapter.dropped[0][1]

    def test_campaign_surfaces_dropped_workloads(self):
        from repro.workload.workload import Workload
        good = parse_workload("creat foo\nfsync foo", name="good")
        bad = Workload(ops=[creat("x"), write("x", 0, 10)], name="bad")
        config = CampaignConfig(fs_name="btrfs", bugs=BugConfig.none(),
                                bounds=seq1_bounds(),
                                device_blocks=SMALL_DEVICE_BLOCKS)
        result = B3Campaign(config).run(workloads=[good, bad, good])
        assert result.workloads_tested == 2
        assert result.invalid_workloads == 1
        assert "+1 invalid" in result.summary()

    def test_ace_streams_have_no_invalid_workloads(self):
        config = CampaignConfig(fs_name="btrfs", bugs=BugConfig.none(),
                                bounds=seq1_bounds(), max_workloads=15,
                                device_blocks=SMALL_DEVICE_BLOCKS)
        result = B3Campaign(config).run()
        assert result.invalid_workloads == 0
        assert result.workloads_tested == 15


class TestSiblingGrouping:
    def test_groups_partition_the_stream_in_order(self):
        synthesizer = AceSynthesizer(seq1_bounds())
        flat = [w.display_name() for group in synthesizer.sibling_groups()
                for w in group]
        assert flat == [w.display_name()
                        for w in AceSynthesizer(seq1_bounds()).stream()]

    def test_groups_share_their_family_key(self):
        for group in AceSynthesizer(seq1_bounds()).sibling_groups(limit=60):
            keys = {w.family_key() for w in group}
            assert len(keys) == 1

    def test_grouping_plain_iterables(self):
        a = parse_workload("creat foo\nfsync foo", name="a")
        b = parse_workload("creat foo\nsync", name="b")
        c = parse_workload("creat bar\nfsync bar", name="c")
        groups = list(group_siblings([a, b, c]))
        assert [len(g) for g in groups] == [2, 1]


def test_campaign_result_aggregates_dedup_stats():
    spec = HarnessSpec(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                       cross_workload_dedup=True)
    workloads = [parse_workload(SIBLING_A, name="A"),
                 parse_workload(SIBLING_B, name="B")]
    run = run_campaign(spec, iter(workloads), processes=1, chunk_size=8)
    result = run.result
    assert result.cross_deduped_scenarios == 1
    assert sum(stats.cross_deduped_scenarios for stats in run.chunks) == 1
    assert "1 cross-workload scenarios skipped" in result.describe()


class TestCliFlags:
    def test_campaign_prints_the_dedup_line_once(self, capsys):
        from repro.cli.main import main
        code = main([
            "campaign", "--filesystem", "btrfs", "--preset", "seq-2",
            "--limit", "40", "--patched", "--cross-workload-dedup",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("dedup:") == 1, "summary line exactly once"

    def test_test_command_accepts_dedup_flag(self, tmp_path):
        from repro.cli.main import main
        workload_file = tmp_path / "wl.wl"
        workload_file.write_text("creat foo\nfsync foo\n")
        assert main(["test", str(workload_file), "--filesystem", "btrfs",
                     "--patched", "--cross-workload-dedup"]) == 0
