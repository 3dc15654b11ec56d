"""The campaign state store: chunk lifecycle, recovery, dedup-at-write."""

import sqlite3

import pytest

from repro.crashmonkey.report import CrashTestResult
from repro.engine.backends import ChunkOutcome
from repro.service import CampaignStateDB
from repro.service import api
from repro.workload import parse_workload

from conftest import hold_write_lock


@pytest.fixture
def db(tmp_path):
    with CampaignStateDB(str(tmp_path / "state.sqlite")) as store:
        yield store


CONFIG = {"fs_name": "btrfs", "bounds": {"seq_length": 1}}


def _result(name: str, reports: int = 0) -> CrashTestResult:
    workload = parse_workload("creat foo\nfsync foo\n", name=name)
    result = CrashTestResult(workload=workload, fs_type="btrfs", fs_model="btrfs-sim")
    result.checkpoints_tested = 1
    result.scenarios_tested = 2
    result.deduped_scenarios = 1
    result.profile_seconds = 0.01
    for _ in range(reports):
        from repro.crashmonkey.report import BugReport, Mismatch

        result.bug_reports.append(BugReport(
            workload=workload, fs_type="btrfs", fs_model="btrfs-sim",
            checkpoint_id=0, crash_point="cp",
            mismatches=[Mismatch(check="content", consequence="data loss",
                                 path="/foo", expected="x", actual="")],
        ))
    return result


def _outcome(index: int, names, reports: int = 0) -> ChunkOutcome:
    return ChunkOutcome(index=index, results=[_result(n, reports) for n in names],
                        seconds=0.5, worker="test-worker")


# ------------------------------------------------------------------ campaigns

def test_create_campaign_is_idempotent(db):
    assert db.create_campaign("c1", CONFIG) is True
    assert db.create_campaign("c1", CONFIG) is False
    assert db.campaign_exists("c1")
    assert db.load_config("c1") == CONFIG


def test_create_campaign_rejects_config_drift(db):
    db.create_campaign("c1", CONFIG)
    with pytest.raises(ValueError, match="different"):
        db.create_campaign("c1", {"fs_name": "ext4"})


def test_unknown_campaign_raises(db):
    with pytest.raises(KeyError):
        db.load_config("ghost")
    with pytest.raises(KeyError):
        db.campaign_row("ghost")


def test_set_status_validates(db):
    db.create_campaign("c1", CONFIG)
    db.set_status("c1", api.RUNNING)
    assert db.campaign_row("c1")["status"] == api.RUNNING
    with pytest.raises(ValueError):
        db.set_status("c1", "exploded")


def test_next_campaign_id_counts_per_tenant(db):
    assert db.next_campaign_id("alice") == "alice-c1"
    db.create_campaign("alice-c1", CONFIG, tenant="alice")
    assert db.next_campaign_id("alice") == "alice-c2"
    assert db.next_campaign_id("bob") == "bob-c1"
    # A colliding handed-out name is skipped, not reused.
    db.create_campaign("alice-c2", CONFIG, tenant="alice")
    db.create_campaign("alice-c3", CONFIG, tenant="alice")
    assert db.next_campaign_id("alice") == "alice-c4"


# --------------------------------------------------------------------- chunks

def test_chunk_lifecycle(db):
    db.create_campaign("c1", CONFIG)
    assert db.register_chunks("c1", [(0, "k0", 4), (1, "k1", 4)]) == 2
    assert db.register_chunks("c1", [(0, "k0", 4), (1, "k1", 4)]) == 0  # idempotent
    assert db.claim_chunk("c1", 0) is True
    assert db.claim_chunk("c1", 0) is False  # already processing
    assert db.ingest_outcome("c1", _outcome(0, ["a", "b"])) is True
    assert db.done_chunk_indices("c1") == {0}
    states = db.chunk_states("c1")
    assert states[api.CHUNK_DONE] == (1, 4)
    assert states[api.PENDING] == (1, 4)


def test_register_chunks_detects_stream_drift(db):
    db.create_campaign("c1", CONFIG)
    db.register_chunks("c1", [(0, "k0", 4)])
    with pytest.raises(ValueError, match="no longer the one"):
        db.register_chunks("c1", [(0, "DIFFERENT", 4)])


def test_recover_from_crash_resets_processing_chunks(db):
    db.create_campaign("c1", CONFIG)
    db.register_chunks("c1", [(0, "k0", 4), (1, "k1", 4), (2, "k2", 4)])
    db.claim_chunk("c1", 0)
    db.claim_chunk("c1", 1)
    db.ingest_outcome("c1", _outcome(1, ["a"]))  # chunk 1 completed before the crash
    assert db.recover_from_crash("c1") == 1  # only chunk 0 was orphaned
    assert db.claim_chunk("c1", 0) is True  # claimable again
    assert db.done_chunk_indices("c1") == {1}  # done work untouched


def test_recover_from_crash_can_sweep_the_whole_store(db):
    for cid in ("c1", "c2"):
        db.create_campaign(cid, CONFIG)
        db.register_chunks(cid, [(0, "k0", 2)])
        db.claim_chunk(cid, 0)
    assert db.recover_from_crash() == 2


def test_ingest_refuses_double_counting(db):
    db.create_campaign("c1", CONFIG)
    db.register_chunks("c1", [(0, "k0", 2)])
    db.claim_chunk("c1", 0)
    assert db.ingest_outcome("c1", _outcome(0, ["a", "b"], reports=1)) is True
    # A retried chunk (late worker racing a recovered session) is refused.
    assert db.ingest_outcome("c1", _outcome(0, ["a", "b"], reports=1)) is False
    result = db.campaign_result("c1")
    assert result.workloads_tested == 2
    assert len(result.all_reports()) == 2  # one per workload, not doubled
    assert db.status("c1").raw_reports == 2


def test_ingest_of_unregistered_chunk_raises(db):
    db.create_campaign("c1", CONFIG)
    with pytest.raises(KeyError, match="never registered"):
        db.ingest_outcome("c1", _outcome(7, ["a"]))


def test_campaign_result_reconstructs_in_stream_order(db):
    db.create_campaign("c1", CONFIG, fs_name="btrfs", fs_model="btrfs-sim",
                       label="seq-1")
    db.register_chunks("c1", [(0, "k0", 2), (1, "k1", 1)])
    # Completion order (chunk 1 first) must not leak into the result order.
    db.claim_chunk("c1", 1)
    db.ingest_outcome("c1", _outcome(1, ["w2"]))
    db.claim_chunk("c1", 0)
    db.ingest_outcome("c1", _outcome(0, ["w0", "w1"]))
    result = db.campaign_result("c1")
    assert [r.workload.name for r in result.results] == ["w0", "w1", "w2"]
    assert result.label == "seq-1"
    assert sum(r.scenarios_tested for r in result.results) == 6


# ---------------------------------------------------------------------- views

def test_status_view(db):
    db.create_campaign("c1", CONFIG, tenant="alice", label="seq-1")
    db.register_chunks("c1", [(0, "k0", 2), (1, "k1", 2)])
    status = db.status("c1")
    assert (status.chunks_done, status.chunks_total) == (0, 2)
    assert not status.complete
    db.claim_chunk("c1", 0)
    db.ingest_outcome("c1", _outcome(0, ["a", "b"], reports=1))
    status = db.status("c1")
    assert (status.chunks_done, status.workloads_done) == (1, 2)
    assert status.raw_reports == 2
    assert "alice" in status.describe()
    db.claim_chunk("c1", 1)
    db.ingest_outcome("c1", _outcome(1, ["c", "d"]))
    # `complete` follows the campaign lifecycle flag (the runner flips it
    # once every chunk is done), not the raw chunk counts.
    assert not db.status("c1").complete
    db.set_status("c1", api.DONE)
    assert db.status("c1").complete


def test_statuses_filter_by_tenant(db):
    db.create_campaign("a1", CONFIG, tenant="alice")
    db.create_campaign("b1", CONFIG, tenant="bob")
    assert [s.campaign_id for s in db.statuses()] == ["a1", "b1"]
    assert [s.campaign_id for s in db.statuses("bob")] == ["b1"]


def test_runnable_by_tenant_excludes_done(db):
    db.create_campaign("a1", CONFIG, tenant="alice")
    db.create_campaign("a2", CONFIG, tenant="alice")
    db.create_campaign("b1", CONFIG, tenant="bob")
    db.set_status("a1", api.DONE)
    assert db.runnable_by_tenant() == {"alice": ["a2"], "bob": ["b1"]}


def test_tenant_usage_sums_done_chunks_only(db):
    db.create_campaign("a1", CONFIG, tenant="alice")
    db.register_chunks("a1", [(0, "k0", 2), (1, "k1", 2)])
    db.claim_chunk("a1", 0)
    db.ingest_outcome("a1", _outcome(0, ["a", "b"], reports=1))
    db.create_campaign("b1", CONFIG, tenant="bob")  # no chunks done
    usage = {u.tenant: u for u in db.tenant_usage()}
    alice, bob = usage["alice"], usage["bob"]
    assert (alice.campaigns, alice.chunks, alice.workloads) == (1, 1, 2)
    assert alice.raw_reports == 2
    assert alice.scenarios_tested == 4
    assert alice.worker_seconds > 0
    assert (bob.campaigns, bob.chunks, bob.workloads) == (1, 0, 0)
    assert "alice" in alice.describe()


def test_store_reopens_from_disk(tmp_path):
    path = str(tmp_path / "state.sqlite")
    with CampaignStateDB(path) as store:
        store.create_campaign("c1", CONFIG)
        store.register_chunks("c1", [(0, "k0", 1)])
        store.claim_chunk("c1", 0)
        store.ingest_outcome("c1", _outcome(0, ["a"]))
    with CampaignStateDB(path) as store:
        assert store.done_chunk_indices("c1") == {0}
        assert store.campaign_result("c1").workloads_tested == 1


def test_store_opens_while_another_connection_holds_the_write_lock(tmp_path):
    path = str(tmp_path / "state.sqlite")
    release = hold_write_lock(path, 0.2)
    with CampaignStateDB(path, timeout=10.0) as store:
        release.join()
        assert store.create_campaign("c1", CONFIG) is True


#: the ``chunks`` table as state stores created before the recording/replay
#: sharing was removed define it, with its two hit-count columns
_CHUNKS_WITH_HIT_COLUMNS = """
CREATE TABLE chunks (
    campaign_id   TEXT NOT NULL,
    chunk_index   INTEGER NOT NULL,
    chunk_key     TEXT NOT NULL,
    workloads     INTEGER NOT NULL,
    status        TEXT NOT NULL DEFAULT 'pending',
    seconds       REAL NOT NULL DEFAULT 0,
    worker        TEXT NOT NULL DEFAULT '',
    failing       INTEGER NOT NULL DEFAULT 0,
    raw_reports   INTEGER NOT NULL DEFAULT 0,
    crash_points  INTEGER NOT NULL DEFAULT 0,
    scenarios     INTEGER NOT NULL DEFAULT 0,
    deduped       INTEGER NOT NULL DEFAULT 0,
    cross_deduped INTEGER NOT NULL DEFAULT 0,
    prefix_hits   INTEGER NOT NULL DEFAULT 0,
    replay_hits   INTEGER NOT NULL DEFAULT 0,
    cpu_seconds   REAL NOT NULL DEFAULT 0,
    PRIMARY KEY (campaign_id, chunk_index)
)
"""


def test_store_with_the_old_chunk_hit_columns_still_works(tmp_path):
    path = str(tmp_path / "state.sqlite")
    old = sqlite3.connect(path)
    old.execute(_CHUNKS_WITH_HIT_COLUMNS)
    old.commit()
    old.close()
    with CampaignStateDB(path) as store:
        store.create_campaign("c1", CONFIG, tenant="alice")
        store.register_chunks("c1", [(0, "k0", 2)])
        store.claim_chunk("c1", 0)
        assert store.ingest_outcome("c1", _outcome(0, ["a", "b"], reports=1))
        assert store.done_chunk_indices("c1") == {0}
        assert store.campaign_result("c1").workloads_tested == 2
        (usage,) = store.tenant_usage()
        assert (usage.tenant, usage.chunks, usage.workloads) == ("alice", 1, 2)
        assert usage.raw_reports == 2
