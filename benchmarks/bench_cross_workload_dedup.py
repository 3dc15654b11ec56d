"""Cross-workload dedup over an ACE sibling family.

ACE's B3 bound emits sibling families: workloads that share every operation
but the placement of their persistence points, so siblings re-reach the same
crash states.  Cross-workload dedup skips a checkpoint whose crash states and
expectations an earlier workload already tested.

This benchmark measures a seq-2 ACE sibling family and asserts:

* dedup skips the family's repeat crash states, with constructed + skipped
  == the full enumeration and the distinct findings (Figure-5 group keys)
  unchanged,
* a campaign-global (sqlite) dedup cache shared by two worker harnesses
  skips strictly more repeat states than the same two workers with private
  in-memory caches (the pool-backend gap the global cache closes).

Runs on tiny bounds so it doubles as a CI regression smoke.
"""

from itertools import islice

from repro.ace import AceSynthesizer, group_siblings, seq2_bounds
from repro.crashmonkey import CrashMonkey

from conftest import BENCH_DEVICE_BLOCKS, print_table

#: How many sibling families of the filtered seq-2 stream to scan for the
#: measured family (the first sufficiently large one is used).
FAMILY_SCAN_LIMIT = 60
MIN_FAMILY_SIZE = 16


def _seq2_family():
    """A seq-2 ACE sibling family with a shared multi-op prefix."""
    stream = AceSynthesizer(seq2_bounds()).stream(required_ops=("link",))
    for family in islice(group_siblings(stream), FAMILY_SCAN_LIMIT):
        if len(family) >= MIN_FAMILY_SIZE:
            return family
    raise AssertionError("no seq-2 link family of the expected size found")


def test_cross_workload_dedup_skips_repeat_states_of_the_family():
    family = _seq2_family()

    def run(dedup):
        harness = CrashMonkey("logfs", device_blocks=BENCH_DEVICE_BLOCKS,
                              cross_workload_dedup=dedup)
        return [harness.test_workload(workload) for workload in family], harness

    full_results, _ = run(dedup=False)
    deduped_results, harness = run(dedup=True)

    constructed = sum(result.scenarios_tested for result in deduped_results)
    skipped = sum(result.cross_deduped_scenarios for result in deduped_results)
    enumerated = sum(result.scenarios_tested for result in full_results)
    print_table(
        "cross-workload dedup over the family",
        [
            ("scenarios enumerated", enumerated),
            ("constructed with dedup", constructed),
            ("skipped as repeats", skipped),
            ("cache hit rate", f"{skipped / enumerated:.0%}"),
        ],
        headers=("metric", "value"),
    )
    assert constructed + skipped == enumerated, "dedup must account for every scenario"
    assert skipped > 0, "a sibling family must re-reach shared crash states"
    assert harness.cross_cache.hits == skipped
    # Dedup drops only duplicate reports of byte-identical states: the set of
    # distinct findings (Figure-5 group keys) is preserved.
    full_groups = {report.group_key()
                   for result in full_results for report in result.bug_reports}
    deduped_groups = {report.group_key()
                      for result in deduped_results for report in result.bug_reports}
    assert deduped_groups == full_groups


def test_global_dedup_cache_skips_more_than_private_worker_caches(tmp_path):
    family = _seq2_family()
    # Round-robin split: the unlucky pool schedule where siblings sharing
    # their persistence points land on different workers.
    halves = (family[0::2], family[1::2])

    def run_split(paths):
        skips = 0
        for half, path in zip(halves, paths):
            harness = CrashMonkey("logfs", device_blocks=BENCH_DEVICE_BLOCKS,
                                  cross_workload_dedup=True,
                                  global_dedup_cache=path)
            skips += sum(harness.test_workload(w).cross_deduped_scenarios
                         for w in half)
        return skips

    # Two private in-memory caches: each worker only ever skips repeats it
    # saw itself — the family's cross-half repeats are re-tested.
    private_skips = run_split((None, None))
    shared_path = str(tmp_path / "sightings.sqlite")
    global_skips = run_split((shared_path, shared_path))

    print_table(
        "cross-workload dedup scope: family split across two workers",
        [
            ("skips with private per-worker caches", private_skips),
            ("skips with the shared sqlite cache", global_skips),
        ],
        headers=("metric", "value"),
    )
    assert global_skips > private_skips, (
        "the campaign-global cache must catch cross-worker repeats"
    )
