"""Crash-state generator (CrashMonkey phase 2).

A crash state is a storage state a crash could leave behind at a persistence
point: the base disk image plus some crash-plan-chosen portion of the recorded
write stream.  Mounting the crash state runs the file system's own recovery
code (log/journal replay); if that fails, the crash state is un-mountable and
``fsck`` is consulted, exactly as in the paper.

Construction is *incremental*: one cursor walks the recorded stream exactly
once, applying every write to a chained-overlay :class:`CowDevice` and forking
an O(1) snapshot at each flush barrier and checkpoint marker.  Each crash
state then mounts on a private fork, so generating all states of a workload
replays each recorded write once — linear in the log length — instead of
re-scanning the prefix per checkpoint.

Which states exist at a checkpoint is decided by the pluggable crash plan
(:mod:`repro.crashmonkey.crashplan`): the ``prefix`` plan reproduces the
classic one-state-per-checkpoint model byte for byte, while the ``reorder``
plan additionally explores crashes that lose bounded subsets of the in-flight
(post-last-flush, non-FUA) writes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.audit import audit_report
from ..analysis.mechanisms import AnalysisCursor, MechanismReport
from ..errors import HarnessError, UnmountableError
from ..fs import fsck
from ..fs.registry import get_fs_class
from ..storage.cow_device import CowDevice
from ..storage.io_request import IORequest
from .crashplan import CrashPlanner, CrashScenario, CrossWorkloadCache, PrefixPlanner
from .oracle import Oracle
from .recorder import WorkloadProfile
from .tracker import TrackerView


@dataclass
class CrashState:
    """A recovered (or unrecoverable) crash state for one crash scenario."""

    checkpoint_id: int
    crash_point: str
    device: CowDevice
    fs: Optional[object] = None                #: mounted file system, if recovery succeeded
    mount_error: Optional[UnmountableError] = None
    fsck_report: Optional[fsck.FsckReport] = None
    fsck_recovered_fs: Optional[object] = None
    #: the crash-plan scenario this state realizes (None = plain prefix state)
    scenario: Optional[CrashScenario] = None
    #: phase timing: constructing the device / mounting (recovery) / fsck
    replay_seconds: float = 0.0
    mount_seconds: float = 0.0
    fsck_seconds: float = 0.0
    overlay_bytes: int = 0

    @property
    def mountable(self) -> bool:
        return self.fs is not None

    @property
    def scenario_id(self) -> str:
        """Stable tag of the scenario that produced this state."""
        return self.scenario.scenario_id if self.scenario is not None else "prefix"

    def describe(self) -> str:
        tag = "" if self.scenario_id == "prefix" else f" [{self.scenario_id}]"
        if self.mountable:
            return (
                f"crash state @ {self.checkpoint_id}{tag}: mounted, "
                f"recovery ran={self.fs.recovery_ran}"
            )
        detail = str(self.mount_error) if self.mount_error else "unknown mount failure"
        return f"crash state @ {self.checkpoint_id}{tag}: UNMOUNTABLE ({detail})"


@dataclass(frozen=True)
class _CheckpointRecord:
    """Forks and in-flight window captured at one checkpoint marker."""

    checkpoint_id: int
    #: every recorded write up to the marker applied (the prefix state)
    baseline: CowDevice
    #: state as of the last flush barrier before the marker
    stable: CowDevice
    #: writes issued after that barrier, in issue order (FUA included)
    window: Tuple[IORequest, ...]
    #: running digest of the recorded stream up to the marker (writes and
    #: flushes; markers excluded — they do not change the storage state).
    #: Together with the fixed base image this identifies every crash state
    #: any planner can reach at this checkpoint.  None when no cross-workload
    #: cache is attached (the digest is only needed for its keys).
    state_digest: Optional[str] = None


def _normalized_tracker_view(view: TrackerView) -> Tuple:
    """Tracker view with the checkpoint numbering stripped, for equivalence."""
    files = {ino: replace(f, last_checkpoint=0) for ino, f in view.files.items()}
    dirs = {ino: replace(d, last_checkpoint=0) for ino, d in view.dirs.items()}
    return (files, dirs, view.renames)


def _oracle_digest(oracle: Optional[Oracle]) -> str:
    """Stable content digest of an oracle's expected file-system state."""
    if oracle is None:
        return "no-oracle"
    canonical = repr(sorted(oracle.state.items()))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def _tracker_view_digest(view: Optional[TrackerView]) -> str:
    """Stable content digest of a normalized tracker view.

    Set-valued fields are sorted into tuples first: two views that compare
    equal must digest identically regardless of set iteration order.
    """
    if view is None:
        return "no-view"
    files = tuple(
        (
            ino, f.ftype, tuple(sorted(f.persisted_paths)), f.expected_data,
            f.size, f.nlink, f.allocated_blocks, tuple(f.xattrs),
            f.symlink_target, f.datasync_only,
        )
        for ino, f in sorted(view.files.items())
    )
    dirs = tuple(
        (ino, d.path, tuple(sorted(d.children.items())), tuple(d.xattrs))
        for ino, d in sorted(view.dirs.items())
    )
    renames = tuple((r.src, r.dst, r.ino, r.op_index) for r in view.renames)
    canonical = repr((files, dirs, renames))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


class CrashStateGenerator:
    """Builds and mounts crash states from a workload profile."""

    def __init__(self, profile: WorkloadProfile, run_fsck_on_failure: bool = True,
                 planner: Optional[CrashPlanner] = None,
                 dedup_scenarios: bool = True,
                 cross_cache: Optional[CrossWorkloadCache] = None,
                 analyze: Optional[bool] = None):
        self.profile = profile
        self.fs_class = get_fs_class(profile.fs_name)
        self.run_fsck_on_failure = run_fsck_on_failure
        self.planner = planner if planner is not None else PrefixPlanner()
        #: run the static mechanism analysis during the one-pass build.
        #: ``None`` = auto: on exactly when the planner consumes reports
        #: (``attach_report``); an explicit flag forces it either way (the
        #: overhead benchmark and the ``analyze`` path use this).
        self.analyze = (analyze if analyze is not None
                        else hasattr(self.planner, "attach_report"))
        #: the inferred mechanism report (populated by the build when
        #: :attr:`analyze` is on)
        self.mechanism_report: Optional[MechanismReport] = None
        #: checkpoints planned via an inferred mechanism vs delegated to the
        #: exhaustive fallback (mechanism planner only; deterministic per
        #: workload — counted before any dedup skipping)
        self.mechanism_checkpoints = 0
        self.mechanism_fallback_checkpoints = 0
        #: the subset of fallback checkpoints the contract auditor caused
        #: (windows whose explaining evidence was demoted)
        self.mechanism_demoted_checkpoints = 0
        #: evidence claims the contract auditor demoted for this workload
        self.audit_demotions = 0
        #: skip constructing/checking a checkpoint's scenarios when an earlier
        #: checkpoint provably yields the same states and expectations
        self.dedup_scenarios = dedup_scenarios
        #: campaign-lifetime cache skipping checkpoints whose crash states and
        #: expectations were already tested by an *earlier workload* (ACE
        #: siblings sharing a prefix re-reach the same persistence points)
        self.cross_cache = cross_cache
        #: write requests applied to devices so far (one per recorded write
        #: for the single cursor pass, plus the re-applied window writes of
        #: each non-baseline scenario)
        self.replayed_write_requests = 0
        #: scenarios skipped by cross-checkpoint dedup (each one would have
        #: constructed, mounted and checked a state identical to one already
        #: tested — and double-counted its bug reports)
        self.deduped_scenarios = 0
        #: scenarios skipped because an earlier *workload* already tested the
        #: byte-identical crash states against identical expectations
        self.cross_deduped_scenarios = 0
        #: wall-clock seconds of the one-pass incremental build
        self.build_seconds = 0.0
        self._records: Optional[Dict[int, _CheckpointRecord]] = None

    # ------------------------------------------------------------------ one-pass build

    def _ensure_built(self) -> Dict[int, _CheckpointRecord]:
        """Walk the recorded stream once, forking a snapshot per checkpoint.

        The same pass feeds the cross-workload dedup digest and the static
        mechanism analysis, when either is on.
        """
        if self._records is not None:
            return self._records
        start = time.perf_counter()
        records: Dict[int, _CheckpointRecord] = {}
        cursor = CowDevice(self.profile.base_image, name="replay-cursor")
        stable = cursor.snapshot(name="replay-stable")
        window: List[IORequest] = []
        # Running digest over the storage-changing stream (cross-workload
        # dedup keys); checkpoint markers are skipped so the flush-free
        # repeat of a persistence point digests identically to its twin.
        hasher = hashlib.sha1(
            f"{self.profile.fs_name}:{self.profile.base_image.num_blocks}:".encode("ascii")
        ) if self.cross_cache is not None else None
        analysis = AnalysisCursor() if self.analyze else None
        for request in self.profile.io_log:
            if analysis is not None:
                analysis.feed(request)
            if request.is_write:
                if request.block is None or request.data is None:
                    raise HarnessError(
                        f"malformed write request in recorded stream: {request!r}"
                    )
                cursor.write_block(request.block, request.data)
                self.replayed_write_requests += 1
                window.append(request)
                if hasher is not None:
                    flags = ",".join(flag.value for flag in request.flags)
                    hasher.update(f"w:{request.block}:{flags}:{request.tag}:".encode("utf-8"))
                    hasher.update(request.data)
            elif request.is_flush:
                # Everything before the barrier is durable: fork the stable
                # state and start a fresh in-flight window.
                stable = cursor.snapshot(name="replay-stable")
                window = []
                if hasher is not None:
                    hasher.update(b"f:")
            elif request.is_checkpoint and request.checkpoint_id is not None:
                records[request.checkpoint_id] = _CheckpointRecord(
                    checkpoint_id=request.checkpoint_id,
                    baseline=cursor.snapshot(name=f"crash-{request.checkpoint_id}"),
                    stable=stable,
                    window=tuple(window),
                    state_digest=hasher.hexdigest() if hasher is not None else None,
                )
        self._records = records
        if analysis is not None:
            # Second static pass: the contract auditor re-checks every claim
            # against the stream's actual fence/FUA edges and demotes violated
            # ones before any planner consumes the report.
            report = analysis.finish(self.profile.fs_name)
            self.mechanism_report = audit_report(report, self.profile.io_log)
            self.audit_demotions = self.mechanism_report.demotions
        self.build_seconds = time.perf_counter() - start
        return records

    def _attach_planner_report(self) -> None:
        """Hand the inferred report to a mechanism-aware planner.

        Must run after the build and before enumeration.  The harness tests
        workloads sequentially, so re-attaching per workload keeps one shared
        planner instance correct across a campaign.
        """
        attach = getattr(self.planner, "attach_report", None)
        if attach is not None:
            attach(self.mechanism_report)

    def _count_mechanism_window(self, window: Tuple[IORequest, ...]) -> None:
        classify = getattr(self.planner, "classify_window", None)
        if classify is None:
            return
        kind = classify(window)
        if kind == "demoted":
            # Audit-driven fallback: exhaustive coverage, attributed to the
            # auditor rather than to a failure of attribution.
            self.mechanism_fallback_checkpoints += 1
            self.mechanism_demoted_checkpoints += 1
        elif kind == "exhaustive":
            self.mechanism_fallback_checkpoints += 1
        elif kind != "empty":
            self.mechanism_checkpoints += 1

    def _record_for(self, checkpoint_id: int) -> _CheckpointRecord:
        record = self._ensure_built().get(checkpoint_id)
        if record is None:
            # A recorded stream that promises a persistence point (the oracle
            # exists) but carries no marker is truncated or corrupt: that is
            # a harness failure to surface, never a checkpoint to skip.
            raise HarnessError(f"recorded stream has no checkpoint {checkpoint_id}")
        return record

    # ------------------------------------------------------------------ state construction

    def _scenario_device(self, record: _CheckpointRecord,
                         scenario: Optional[CrashScenario]) -> CowDevice:
        """Fork the device realizing ``scenario`` at ``record``'s checkpoint."""
        if scenario is None or scenario.is_baseline:
            return record.baseline.snapshot(name=f"crash-{record.checkpoint_id}")
        device = record.stable.snapshot(
            name=f"crash-{record.checkpoint_id}-{scenario.scenario_id}"
        )
        dropped = set(scenario.dropped_seqs)
        torn = dict(scenario.torn)
        for request in record.window:
            if not request.is_write or request.seq in dropped:
                continue
            sectors = torn.get(request.seq)
            if sectors is None:
                device.write_block(request.block, request.data)
            else:
                # Torn write: only the first `sectors` sectors of the payload
                # landed; the rest of the block keeps its prior content (the
                # stable state plus any earlier surviving window writes).
                device.write_sectors(request.block, request.data, sectors)
            self.replayed_write_requests += 1
        return device

    def _construct(self, record: _CheckpointRecord,
                   scenario: Optional[CrashScenario]) -> CrashState:
        oracle = self.profile.oracles.get(record.checkpoint_id)
        crash_point = oracle.crash_point if oracle else f"checkpoint {record.checkpoint_id}"

        replay_start = time.perf_counter()
        device = self._scenario_device(record, scenario)
        state = CrashState(
            checkpoint_id=record.checkpoint_id,
            crash_point=crash_point,
            device=device,
            scenario=scenario,
            overlay_bytes=device.overlay_bytes(),
        )
        state.replay_seconds = time.perf_counter() - replay_start

        mount_start = time.perf_counter()
        fs = self.fs_class(device, self.profile.bugs)
        try:
            fs.mount()
            state.fs = fs
            state.mount_seconds = time.perf_counter() - mount_start
        except UnmountableError as exc:
            state.mount_error = exc
            state.mount_seconds = time.perf_counter() - mount_start
            if self.run_fsck_on_failure:
                fsck_start = time.perf_counter()
                repaired_fs, report = fsck.repair(self.fs_class, device, self.profile.bugs)
                state.fsck_report = report
                state.fsck_recovered_fs = repaired_fs
                state.fsck_seconds = time.perf_counter() - fsck_start
        return state

    # ------------------------------------------------------------------ public API

    def generate(self, checkpoint_id: int) -> CrashState:
        """Construct, mount and (if necessary) fsck one prefix crash state."""
        return self._construct(self._record_for(checkpoint_id), None)

    def generate_all(self) -> Iterator[CrashState]:
        """Yield the prefix crash state per persistence point, in order."""
        for checkpoint_id in self.profile.checkpoints():
            yield self.generate(checkpoint_id)

    def generate_scenarios(
        self, checkpoint_ids: Optional[Sequence[int]] = None
    ) -> Iterator[CrashState]:
        """Yield a crash state per planner scenario per persistence point.

        With ``dedup_scenarios`` enabled, a checkpoint that provably repeats
        an earlier one is skipped entirely: when no flush and no write
        intervene, both share the same stable fork and in-flight window, so
        every ``(stable, dropped, torn)`` state the planner enumerates is
        byte-identical to one already constructed — and when the oracle and
        tracker expectations also match, re-mounting and re-checking it can
        only double-count the same bug reports.  Skipped scenarios are
        counted in :attr:`deduped_scenarios`.

        With a :class:`CrossWorkloadCache` attached, the same argument is
        applied *across workloads*: a checkpoint whose recorded stream prefix
        (hence every reachable crash state), oracle and tracker view all
        digest-match one tested by an earlier workload — an ACE sibling
        sharing the prefix — is skipped and counted in
        :attr:`cross_deduped_scenarios`.  A sibling whose divergent suffix
        adds new expectations necessarily changes the digest of its *later*
        checkpoints (new operations mean new recorded writes or a new oracle),
        so only byte-identical re-tests are ever skipped.
        """
        if checkpoint_ids is None:
            checkpoint_ids = self.profile.checkpoints()
        self._ensure_built()
        self._attach_planner_report()
        tested: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        for checkpoint_id in checkpoint_ids:
            record = self._record_for(checkpoint_id)
            self._count_mechanism_window(record.window)
            if self.dedup_scenarios:
                key = (id(record.stable), tuple(r.seq for r in record.window))
                twin = tested.get(key)
                if twin is not None and self._checkpoints_equivalent(twin, checkpoint_id):
                    self.deduped_scenarios += sum(
                        1 for _ in self.planner.scenarios(checkpoint_id, record.window)
                    )
                    continue
                # Remember the *latest* checkpoint tested for this fork/window:
                # expectations drift monotonically with the workload, so the
                # nearest earlier twin is the one a later repeat can match.
                tested[key] = checkpoint_id
            if self.cross_cache is not None and not self._first_cross_sighting(
                record, checkpoint_id
            ):
                self.cross_deduped_scenarios += sum(
                    1 for _ in self.planner.scenarios(checkpoint_id, record.window)
                )
                continue
            for scenario in self.planner.scenarios(checkpoint_id, record.window):
                yield self._construct(record, scenario)

    def _first_cross_sighting(self, record: _CheckpointRecord,
                              checkpoint_id: int) -> bool:
        """Register this checkpoint's content key; False when already tested."""
        key = (
            record.state_digest,
            _oracle_digest(self.profile.oracles.get(checkpoint_id)),
            _tracker_view_digest(self.profile.tracker_views.get(checkpoint_id)),
        )
        return self.cross_cache.first_sighting(key)

    def _checkpoints_equivalent(self, tested_id: int, candidate_id: int) -> bool:
        """Whether checking ``candidate_id`` could find anything new.

        Called only for checkpoints that already share their stable fork and
        window (identical reachable crash states); what remains is whether the
        *expectations* agree: same oracle state and same tracker view (modulo
        checkpoint numbering).  A persistence point that promised new data
        without writing anything (a buggy no-op fsync path) changes the
        oracle, and its states must still be checked against it.
        """
        oracle_a = self.profile.oracles.get(tested_id)
        oracle_b = self.profile.oracles.get(candidate_id)
        if oracle_a is None or oracle_b is None or oracle_a.state != oracle_b.state:
            return False
        view_a = self.profile.tracker_views.get(tested_id)
        view_b = self.profile.tracker_views.get(candidate_id)
        if (view_a is None) != (view_b is None):
            return False
        if view_a is None:
            return True
        return _normalized_tracker_view(view_a) == _normalized_tracker_view(view_b)

    def scenario_plan(
        self, checkpoint_ids: Optional[Sequence[int]] = None
    ) -> Iterator[CrashScenario]:
        """Enumerate the planner's scenarios without constructing any state."""
        if checkpoint_ids is None:
            checkpoint_ids = self.profile.checkpoints()
        self._ensure_built()
        self._attach_planner_report()
        for checkpoint_id in checkpoint_ids:
            record = self._record_for(checkpoint_id)
            yield from self.planner.scenarios(checkpoint_id, record.window)

    def window_kinds(self) -> Dict[str, int]:
        """Classify every persistence point's in-flight window, kind → count.

        Empty for planners without :meth:`classify_window` (prefix, reorder,
        torn).  Like :meth:`scenario_plan`, no crash state is constructed —
        this is the attribution view the ``analyze`` subcommand prints.
        """
        classify = getattr(self.planner, "classify_window", None)
        if classify is None:
            return {}
        self._ensure_built()
        self._attach_planner_report()
        kinds: Dict[str, int] = {}
        for checkpoint_id in self.profile.checkpoints():
            kind = classify(self._record_for(checkpoint_id).window)
            kinds[kind] = kinds.get(kind, 0) + 1
        return kinds
