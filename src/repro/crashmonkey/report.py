"""Bug reports.

The output of CrashMonkey is a bug report per failing crash point: which
workload, which crash point, which file system, what was expected (from the
oracle) and what was actually found in the recovered crash state (paper
Figure 2's "Output").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from ..fs.bugs import Consequence
from ..workload.workload import Workload


class Severity(enum.IntEnum):
    """Public severity ordering over consequence classes.

    Lower values are more severe; ``Severity`` members therefore sort
    most-severe-first, and ``min()`` over mismatch severities picks the
    primary one.  ``HARNESS_ERROR`` outranks everything: it means the
    checker could not do its job, so no conclusion about the crash state
    is trustworthy.
    """

    HARNESS_ERROR = 0
    UNMOUNTABLE = 1
    DIR_UNREMOVABLE = 2
    ATOMICITY = 3
    FILE_MISSING = 4
    DATA_LOSS = 5
    WRONG_SIZE = 6
    CORRUPTION = 7
    DATA_INCONSISTENCY = 8

    @property
    def consequence(self) -> str:
        """The consequence string this severity level ranks."""
        return _SEVERITY_TO_CONSEQUENCE[self]

    @classmethod
    def of(cls, consequence: str) -> "Severity":
        """Severity of a consequence string (raises ``KeyError`` if unknown)."""
        return _CONSEQUENCE_TO_SEVERITY[consequence]

    @classmethod
    def rank_of(cls, consequence: str) -> int:
        """Sort key for a consequence string; unknown strings rank last."""
        severity = _CONSEQUENCE_TO_SEVERITY.get(consequence)
        return int(severity) if severity is not None else len(cls)


#: Consequence class reported when the harness itself failed (e.g. a missing
#: oracle or tracker view); not one of the paper's Table-1 classes.
HARNESS_ERROR = "harness internal error"

_SEVERITY_TO_CONSEQUENCE: Dict[Severity, str] = {
    Severity.HARNESS_ERROR: HARNESS_ERROR,
    Severity.UNMOUNTABLE: Consequence.UNMOUNTABLE,
    Severity.DIR_UNREMOVABLE: Consequence.DIR_UNREMOVABLE,
    Severity.ATOMICITY: Consequence.ATOMICITY,
    Severity.FILE_MISSING: Consequence.FILE_MISSING,
    Severity.DATA_LOSS: Consequence.DATA_LOSS,
    Severity.WRONG_SIZE: Consequence.WRONG_SIZE,
    Severity.CORRUPTION: Consequence.CORRUPTION,
    Severity.DATA_INCONSISTENCY: Consequence.DATA_INCONSISTENCY,
}

_CONSEQUENCE_TO_SEVERITY: Dict[str, Severity] = {
    consequence: severity for severity, consequence in _SEVERITY_TO_CONSEQUENCE.items()
}


@dataclass(frozen=True)
class Mismatch:
    """One failed correctness check."""

    check: str                 #: which checker produced it ("read", "write", "mount", "atomicity")
    consequence: str           #: one of :class:`repro.fs.bugs.Consequence`
    path: str                  #: the path (or entity) the check concerns
    expected: str              #: human-readable expected state
    actual: str                #: human-readable observed state
    #: crash-plan scenario id of the crash state that failed the check
    #: ("prefix" for the classic one-state-per-checkpoint model); stamped by
    #: the harness, empty when the mismatch was produced outside it
    scenario: str = ""

    @property
    def severity(self) -> Optional[Severity]:
        """Severity of this mismatch's consequence (None if unknown)."""
        return _CONSEQUENCE_TO_SEVERITY.get(self.consequence)

    def describe(self) -> str:
        return (
            f"[{self.check}] {self.consequence}: {self.path or '<file system>'}\n"
            f"    expected: {self.expected}\n"
            f"    actual:   {self.actual}"
        )

    # -- serialization (campaign state store / --json-out) -------------------

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "consequence": self.consequence,
            "path": self.path,
            "expected": self.expected,
            "actual": self.actual,
            "scenario": self.scenario,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Mismatch":
        return cls(
            check=payload["check"],
            consequence=payload["consequence"],
            path=payload["path"],
            expected=payload["expected"],
            actual=payload["actual"],
            scenario=payload.get("scenario", ""),
        )


#: Legacy ordering used to pick the "primary" consequence of a report (most
#: severe first).  Kept for backwards compatibility; :class:`Severity` is the
#: public API and this tuple is derived from it.
_SEVERITY = tuple(
    severity.consequence for severity in sorted(Severity)
    if severity is not Severity.HARNESS_ERROR
)


@dataclass
class BugReport:
    """A crash-consistency violation found at one crash point of one workload."""

    workload: Workload
    fs_type: str
    fs_model: str                      #: the real file system the simulator stands in for
    checkpoint_id: int
    crash_point: str                   #: description of the persistence op crashed after
    mismatches: List[Mismatch] = field(default_factory=list)
    kernel_version: str = "4.16"       #: reported for parity with the paper's reports
    #: crash-plan scenario that produced the failing state; grouping and
    #: known-bug matching deliberately ignore it (same skeleton + consequence
    #: found by different plans is the same underlying bug)
    scenario: str = "prefix"
    notes: str = ""

    @property
    def primary(self) -> Optional[Mismatch]:
        """The most severe mismatch (stable: first wins among equals)."""
        if not self.mismatches:
            return None
        return min(self.mismatches, key=lambda m: Severity.rank_of(m.consequence))

    @property
    def consequence(self) -> str:
        """The most severe consequence among the mismatches.

        Consequence strings outside the known :class:`Severity` classes are
        surfaced as-is (they rank last via :meth:`Severity.rank_of`), never
        silently relabelled as corruption — rewriting them would hide new
        consequence classes from grouping and the Figure-5 post-processing.
        """
        primary = self.primary
        if primary is None:
            return Consequence.CORRUPTION
        return primary.consequence

    @property
    def consequences(self) -> Tuple[str, ...]:
        return tuple(sorted({mismatch.consequence for mismatch in self.mismatches}))

    def skeleton(self) -> Tuple[str, ...]:
        return self.workload.skeleton()

    def group_key(self) -> Tuple:
        """Key used by the Figure-5 post-processing (skeleton + consequence)."""
        return (self.skeleton(), self.consequence)

    # -- serialization (campaign state store / --json-out) -------------------

    def to_dict(self) -> dict:
        return {
            "workload": self.workload.to_json(),
            "fs_type": self.fs_type,
            "fs_model": self.fs_model,
            "checkpoint_id": self.checkpoint_id,
            "crash_point": self.crash_point,
            "mismatches": [mismatch.to_dict() for mismatch in self.mismatches],
            "kernel_version": self.kernel_version,
            "scenario": self.scenario,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BugReport":
        return cls(
            workload=Workload.from_json(payload["workload"]),
            fs_type=payload["fs_type"],
            fs_model=payload["fs_model"],
            checkpoint_id=payload["checkpoint_id"],
            crash_point=payload["crash_point"],
            mismatches=[Mismatch.from_dict(m) for m in payload.get("mismatches", [])],
            kernel_version=payload.get("kernel_version", "4.16"),
            scenario=payload.get("scenario", "prefix"),
            notes=payload.get("notes", ""),
        )

    def summary(self) -> str:
        tag = "" if self.scenario == "prefix" else f" [{self.scenario}]"
        return (
            f"{self.fs_model} ({self.fs_type}) workload {self.workload.display_name()} "
            f"crash after #{self.checkpoint_id} {self.crash_point}{tag}: {self.consequence} "
            f"({len(self.mismatches)} failed check(s))"
        )

    def describe(self) -> str:
        lines = [
            "=" * 72,
            f"Bug report: {self.consequence}",
            f"  file system : {self.fs_model} (simulated by {self.fs_type})",
            f"  kernel      : {self.kernel_version}",
            f"  workload    : {self.workload.display_name()}",
            f"  crash point : after persistence op #{self.checkpoint_id} ({self.crash_point})",
        ]
        if self.scenario != "prefix":
            lines.append(f"  crash plan  : {self.scenario}")
        if self.notes:
            lines.append(f"  notes       : {self.notes}")
        lines.append("  workload operations:")
        for op in self.workload.ops:
            lines.append(f"    {op.describe()}")
        lines.append("  failed checks:")
        for mismatch in self.mismatches:
            for text_line in mismatch.describe().splitlines():
                lines.append("    " + text_line)
        lines.append("=" * 72)
        return "\n".join(lines)


@dataclass
class CrashTestResult:
    """Result of running CrashMonkey on one workload."""

    workload: Workload
    fs_type: str
    fs_model: str
    #: persistence points selected for testing (a checkpoint whose scenarios
    #: were all skipped by cross-checkpoint dedup still counts as tested —
    #: its byte-identical states were checked at an earlier checkpoint)
    checkpoints_tested: int = 0
    #: crash scenarios actually constructed and checked; equals
    #: ``checkpoints_tested`` under the prefix plan with dedup disabled,
    #: larger when a reordering plan enumerates several states per
    #: checkpoint, smaller when dedup skips repeat checkpoints
    scenarios_tested: int = 0
    #: scenarios skipped because an earlier checkpoint already tested the
    #: byte-identical state against identical expectations (cross-checkpoint
    #: dedup on flush-free windows); scenarios_tested + deduped_scenarios is
    #: the full planner enumeration
    deduped_scenarios: int = 0
    #: scenarios skipped because an earlier *workload* in the campaign (an
    #: ACE sibling sharing this workload's prefix) already tested the
    #: byte-identical crash states against identical expectations;
    #: scenarios_tested + deduped_scenarios + cross_deduped_scenarios is the
    #: full planner enumeration
    cross_deduped_scenarios: int = 0
    bug_reports: List[BugReport] = field(default_factory=list)
    #: timing breakdown in seconds: profile / replay / mount / fsck / check.
    #: ``replay_seconds`` covers only crash-state *construction* (the paper's
    #: §6.3 replay phase); mounting (recovery) and fsck are attributed
    #: separately instead of being lumped into replay.
    profile_seconds: float = 0.0
    replay_seconds: float = 0.0
    mount_seconds: float = 0.0
    fsck_seconds: float = 0.0
    check_seconds: float = 0.0
    #: write requests replayed onto crash-state devices for this workload
    #: (linear in the recorded log under the incremental builder)
    replayed_write_requests: int = 0
    #: per-check wall-clock attribution, check name -> seconds (summed over
    #: every crash point tested for this workload)
    check_timings: Dict[str, float] = field(default_factory=dict)
    #: resource accounting (paper §6.5)
    recorded_requests: int = 0
    recorded_bytes: int = 0
    crash_state_overlay_bytes: int = 0
    executed_ops: int = 0
    skipped_ops: int = 0
    #: mechanism-planner accounting: checkpoints whose crash window was
    #: collapsed to representative states by an inferred mechanism, and
    #: checkpoints where the planner fell back to the exhaustive torn plan.
    #: Counted from the recorded stream before any dedup decision, so both
    #: are schedule-invariant (canonical) rather than session telemetry.
    mechanism_checkpoints: int = 0
    mechanism_fallback_checkpoints: int = 0
    #: the subset of fallback checkpoints caused by the contract auditor
    #: demoting a reasoner's claim (exhaustive coverage, audit-attributed)
    mechanism_demoted_checkpoints: int = 0
    #: evidence claims the contract auditor demoted for this workload's
    #: report (0 on a correct file system; >= 1 whenever a reference bug
    #: breaks a claimed mechanism contract)
    audit_demotions: int = 0

    # Read only by perfbench/rep.py; always 0 now that recording has no shared prefixes.
    @property
    def prefix_writes_reused(self) -> int:
        return 0

    @property
    def passed(self) -> bool:
        return not self.bug_reports

    @property
    def total_seconds(self) -> float:
        return (self.profile_seconds + self.replay_seconds + self.mount_seconds
                + self.fsck_seconds + self.check_seconds)

    def consequences(self) -> Tuple[str, ...]:
        return tuple(sorted({report.consequence for report in self.bug_reports}))

    # -- serialization (campaign state store / --json-out) -------------------

    #: scalar fields copied verbatim by the JSON round-trip; every field
    #: except the three with structured payloads (workload, bug_reports,
    #: check_timings) must appear here — ``test_report_serialization``
    #: asserts the list matches the dataclass, so adding a counter without
    #: extending the round-trip fails loudly instead of silently dropping it
    SCALAR_FIELDS: ClassVar[Tuple[str, ...]] = (
        "fs_type", "fs_model", "checkpoints_tested", "scenarios_tested",
        "deduped_scenarios", "cross_deduped_scenarios",
        "profile_seconds", "replay_seconds", "mount_seconds", "fsck_seconds",
        "check_seconds", "replayed_write_requests",
        "recorded_requests", "recorded_bytes", "crash_state_overlay_bytes",
        "executed_ops", "skipped_ops",
        "mechanism_checkpoints", "mechanism_fallback_checkpoints",
        "mechanism_demoted_checkpoints", "audit_demotions",
    )

    #: fields that describe *how this session happened to run*, not what was
    #: tested: wall-clock timings, and the replayed-write count, which
    #: cross-workload dedup makes depend on which workloads shared a harness
    #: (chunk -> worker assignment under a pool, session boundaries under a
    #: durable resume).
    #: ``canonical_dict`` drops these so "same campaign" can be compared
    #: across schedules; everything else — reports, scenario and dedup
    #: counts, recorded profiles — is schedule-invariant.
    SESSION_FIELDS: ClassVar[Tuple[str, ...]] = (
        "profile_seconds", "replay_seconds", "mount_seconds", "fsck_seconds",
        "check_seconds", "replayed_write_requests",
    )

    def to_dict(self) -> dict:
        payload = {name: getattr(self, name) for name in self.SCALAR_FIELDS}
        payload["workload"] = self.workload.to_json()
        payload["bug_reports"] = [report.to_dict() for report in self.bug_reports]
        payload["check_timings"] = dict(self.check_timings)
        return payload

    def canonical_dict(self) -> dict:
        """``to_dict`` minus session-dependent telemetry (see SESSION_FIELDS).

        Two runs of the same campaign — uninterrupted, resumed after a
        crash, serial or pooled — agree on this payload.
        """
        payload = self.to_dict()
        for name in self.SESSION_FIELDS:
            payload.pop(name, None)
        payload.pop("check_timings", None)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CrashTestResult":
        result = cls(
            workload=Workload.from_json(payload["workload"]),
            fs_type=payload["fs_type"],
            fs_model=payload["fs_model"],
            bug_reports=[BugReport.from_dict(r) for r in payload.get("bug_reports", [])],
            check_timings=dict(payload.get("check_timings", {})),
        )
        for name in cls.SCALAR_FIELDS:
            if name in ("fs_type", "fs_model"):
                continue
            if name in payload:
                setattr(result, name, payload[name])
        return result

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        scenarios = ""
        if self.scenarios_tested != self.checkpoints_tested:
            scenarios = f" / {self.scenarios_tested} crash scenarios"
        return (
            f"[{status}] {self.fs_model} {self.workload.display_name()} "
            f"({self.checkpoints_tested} crash points{scenarios}, "
            f"{len(self.bug_reports)} bug report(s), {self.total_seconds * 1000:.1f} ms)"
        )
