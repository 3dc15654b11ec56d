"""JSON round-trips for reports and results (the state store's wire format)."""

import dataclasses
import json

import pytest

from repro.ace import AceSynthesizer, seq2_bounds
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.crashmonkey.report import BugReport, CrashTestResult, Mismatch
from repro.workload import parse_workload

from conftest import run_workload_text

FIGURE1 = "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n"


def _failing_result() -> CrashTestResult:
    result = run_workload_text("btrfs", FIGURE1)
    assert result.bug_reports, "figure-1 workload must reproduce on buggy btrfs"
    return result


def test_scalar_fields_match_the_dataclass():
    # Every dataclass field is either structured (handled explicitly by
    # to_dict) or listed in SCALAR_FIELDS — a new counter that is neither
    # would silently vanish in the state store, so fail loudly here instead.
    structured = {"workload", "bug_reports", "check_timings"}
    declared = {f.name for f in dataclasses.fields(CrashTestResult)} - structured
    assert set(CrashTestResult.SCALAR_FIELDS) == declared


def test_session_fields_are_scalar_fields():
    assert set(CrashTestResult.SESSION_FIELDS) <= set(CrashTestResult.SCALAR_FIELDS)


def test_mismatch_round_trip():
    result = _failing_result()
    mismatch = result.bug_reports[0].mismatches[0]
    clone = Mismatch.from_dict(json.loads(json.dumps(mismatch.to_dict())))
    assert clone == mismatch


def test_bug_report_round_trip():
    report = _failing_result().bug_reports[0]
    clone = BugReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert clone.to_dict() == report.to_dict()
    assert clone.workload.prefix_key() == report.workload.prefix_key()
    assert clone.consequence == report.consequence
    assert clone.describe() == report.describe()


def test_crash_test_result_round_trip_is_exact():
    result = _failing_result()
    clone = CrashTestResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert clone.to_dict() == result.to_dict()
    assert clone.passed == result.passed
    assert clone.consequences() == result.consequences()
    assert clone.check_timings == result.check_timings


def test_crash_test_result_round_trip_of_a_passing_result():
    result = run_workload_text("btrfs", "creat foo\nfsync foo\n")
    assert result.passed
    clone = CrashTestResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert clone.to_dict() == result.to_dict()


def test_canonical_dict_drops_session_telemetry():
    result = _failing_result()
    canonical = result.canonical_dict()
    for name in CrashTestResult.SESSION_FIELDS:
        assert name not in canonical
    assert "check_timings" not in canonical
    # What was tested stays.
    assert canonical["scenarios_tested"] == result.scenarios_tested
    assert len(canonical["bug_reports"]) == len(result.bug_reports)


def test_result_payload_with_retired_sharing_fields_still_loads():
    # State stores written before the recording/replay sharing was removed
    # hold results carrying its telemetry; they load, and the fields are
    # neither kept nor written back.
    result = _failing_result()
    payload = json.loads(json.dumps(result.to_dict()))
    retired = {
        "prefix_shared": True, "prefix_ops_reused": 3, "prefix_writes_reused": 7,
        "prefix_seconds_saved": 0.5, "replay_shared": True,
        "replay_writes_reused": 11, "replay_seconds_saved": 0.25,
        "spine_resident_bytes": 4096, "spine_peak_resident_bytes": 8192,
        "spine_spilled_bytes": 4096, "spine_spills": 2, "spine_rehydrations": 1,
    }
    clone = CrashTestResult.from_dict({**payload, **retired})
    assert clone.to_dict() == result.to_dict()
    assert clone.prefix_writes_reused == 0


@pytest.fixture(scope="module")
def campaign_result():
    config = CampaignConfig(fs_name="btrfs", bounds=seq2_bounds(),
                            max_workloads=20, sample=True, chunk_size=8)
    return B3Campaign(config).run()


def test_campaign_result_round_trip(campaign_result):
    from repro.core.results import CampaignResult

    payload = json.loads(json.dumps(campaign_result.to_dict()))
    clone = CampaignResult.from_dict(payload)
    assert clone.to_dict() == campaign_result.to_dict()
    assert clone.describe() == campaign_result.describe()
    # The derived block is advisory: from_dict recomputes it from results.
    payload["derived"]["failing_workloads"] = 10 ** 6
    assert (CampaignResult.from_dict(payload).failing_workloads
            == campaign_result.failing_workloads)


def test_campaign_canonical_dict_is_timing_free(campaign_result):
    canonical = json.dumps(campaign_result.canonical_dict())
    assert "seconds" not in canonical
    assert "replayed_write_requests" not in canonical


def test_workload_survives_the_round_trip(campaign_result):
    # The workload inside each result must stay replayable: same identity
    # keys and the same rendered program.
    from repro.core.results import CampaignResult

    clone = CampaignResult.from_dict(json.loads(json.dumps(campaign_result.to_dict())))
    for original, copied in zip(campaign_result.results, clone.results):
        assert copied.workload.prefix_key() == original.workload.prefix_key()
        assert copied.workload.family_key() == original.workload.family_key()


def test_generated_workload_to_json_round_trip():
    from repro.workload.workload import Workload

    workload = next(iter(AceSynthesizer(seq2_bounds()).generate(limit=1)))
    clone = Workload.from_json(json.loads(json.dumps(workload.to_json())))
    assert clone.prefix_key() == workload.prefix_key()


def test_parsed_workload_to_json_round_trip():
    from repro.workload.workload import Workload

    workload = parse_workload(FIGURE1, name="figure1")
    clone = Workload.from_json(workload.to_json())
    assert clone.prefix_key() == workload.prefix_key()


@pytest.mark.parametrize("owner, name", [
    ("campaign", "prefix_hits"),
    ("campaign", "replay_hits"),
    ("campaign", "spine_peak_resident_bytes"),
    ("result", "prefix_writes_reused"),
])
def test_benchmark_reader_counters_read_zero(campaign_result, owner, name):
    # perfbench/rep.py still reads these four; they are read-only zeros and
    # never part of a serialized payload.
    target = campaign_result if owner == "campaign" else campaign_result.results[0]
    assert getattr(target, name) == 0
    with pytest.raises(AttributeError):
        setattr(target, name, 1)
    assert name not in json.dumps(target.to_dict())
