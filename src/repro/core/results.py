"""Campaign results.

A B3 campaign tests many workloads on one file system; this module aggregates
the per-workload :class:`CrashTestResult` objects into the quantities the
paper reports: how many workloads were tested, how long testing took, how
many bug reports were produced, and (after Figure-5 post-processing) how many
distinct bugs remain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..crashmonkey.report import BugReport, CrashTestResult
from .dedup import KnownBugDatabase, ReportGroup, deduplicate, group_reports


@dataclass
class CampaignResult:
    """Aggregated outcome of one testing campaign."""

    fs_name: str
    fs_model: str
    label: str = ""
    results: List[CrashTestResult] = field(default_factory=list)
    generation_seconds: float = 0.0
    testing_seconds: float = 0.0
    #: generated workloads dropped by the adapter because validation failed
    #: (surfaced, never silently swallowed: tested + invalid = generated)
    invalid_workloads: int = 0

    # -- incremental aggregation -------------------------------------------------

    def ingest_many(self, results: List[CrashTestResult]) -> None:
        """Aggregate a completed chunk's outcomes (streamed in as testing runs).

        The execution engine calls this per completed chunk, so every derived
        quantity below is available mid-campaign for progress reporting.
        """
        self.results.extend(results)

    # -- serialization (campaign state store / --json-out) -----------------------

    def to_dict(self) -> dict:
        """JSON-ready view of the full campaign outcome.

        ``results`` round-trips byte-for-byte via
        :meth:`CrashTestResult.to_dict`; the ``derived`` block repeats the
        headline aggregates for consumers that only read the summary (it is
        ignored by :meth:`from_dict`, which recomputes everything from the
        raw results).
        """
        return {
            "fs_name": self.fs_name,
            "fs_model": self.fs_model,
            "label": self.label,
            "generation_seconds": self.generation_seconds,
            "testing_seconds": self.testing_seconds,
            "invalid_workloads": self.invalid_workloads,
            "results": [result.to_dict() for result in self.results],
            "derived": {
                "workloads_tested": self.workloads_tested,
                "crash_points_tested": self.crash_points_tested,
                "failing_workloads": self.failing_workloads,
                "raw_reports": len(self.all_reports()),
                "report_groups": len(self.grouped_reports()),
                "deduped_scenarios": self.deduped_scenarios,
                "cross_deduped_scenarios": self.cross_deduped_scenarios,
            },
        }

    def canonical_dict(self) -> dict:
        """Schedule-invariant view: what was tested, not how the run went.

        Drops wall-clock timings and the replayed-write count (see
        :attr:`CrashTestResult.SESSION_FIELDS`) — those depend on harness
        lifetimes, so an interrupted-and-resumed campaign or a different
        chunk->worker assignment legitimately reports different values.
        Everything that remains is identical across schedules; the
        crash-resume tests and the CI smoke compare exactly this payload.
        """
        return {
            "fs_name": self.fs_name,
            "fs_model": self.fs_model,
            "label": self.label,
            "invalid_workloads": self.invalid_workloads,
            "results": [result.canonical_dict() for result in self.results],
            "derived": {
                "workloads_tested": self.workloads_tested,
                "crash_points_tested": self.crash_points_tested,
                "failing_workloads": self.failing_workloads,
                "raw_reports": len(self.all_reports()),
                "report_groups": len(self.grouped_reports()),
                "deduped_scenarios": self.deduped_scenarios,
                "cross_deduped_scenarios": self.cross_deduped_scenarios,
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignResult":
        return cls(
            fs_name=payload["fs_name"],
            fs_model=payload["fs_model"],
            label=payload.get("label", ""),
            results=[CrashTestResult.from_dict(r) for r in payload.get("results", [])],
            generation_seconds=payload.get("generation_seconds", 0.0),
            testing_seconds=payload.get("testing_seconds", 0.0),
            invalid_workloads=payload.get("invalid_workloads", 0),
        )

    # -- aggregation ------------------------------------------------------------

    @property
    def workloads_tested(self) -> int:
        return len(self.results)

    @property
    def crash_points_tested(self) -> int:
        return sum(result.checkpoints_tested for result in self.results)

    @property
    def failing_workloads(self) -> int:
        return sum(1 for result in self.results if not result.passed)

    # -- replay / dedup accounting ----------------------------------------------

    # Read only by perfbench/rep.py; always 0 now that recording has no shared prefixes.
    @property
    def prefix_hits(self) -> int:
        return 0

    # Read only by perfbench/rep.py; always 0 now that construction has no shared trail.
    @property
    def replay_hits(self) -> int:
        return 0

    # Read only by perfbench/rep.py; always 0 now that nothing is spilled.
    @property
    def spine_peak_resident_bytes(self) -> int:
        return 0

    @property
    def replayed_write_requests(self) -> int:
        """Write requests actually applied while constructing crash states."""
        return sum(result.replayed_write_requests for result in self.results)

    @property
    def deduped_scenarios(self) -> int:
        """Scenarios skipped by within-workload cross-checkpoint dedup."""
        return sum(result.deduped_scenarios for result in self.results)

    @property
    def cross_deduped_scenarios(self) -> int:
        """Scenarios skipped because an earlier workload already tested them."""
        return sum(result.cross_deduped_scenarios for result in self.results)

    def all_reports(self) -> List[BugReport]:
        reports: List[BugReport] = []
        for result in self.results:
            reports.extend(result.bug_reports)
        return reports

    def grouped_reports(self) -> List[ReportGroup]:
        """Figure-5 grouping of every raw report."""
        return group_reports(self.all_reports())

    def unique_reports(self, database: Optional[KnownBugDatabase] = None) -> List[ReportGroup]:
        """Figure-5 grouping after filtering against a known-bug database."""
        return deduplicate(self.all_reports(), database)

    def consequences(self) -> Dict[str, int]:
        counts: Counter = Counter()
        for report in self.all_reports():
            counts[report.consequence] += 1
        return dict(counts)

    def mean_test_seconds(self) -> float:
        if not self.results:
            return 0.0
        return sum(result.total_seconds for result in self.results) / len(self.results)

    def phase_seconds(self) -> Tuple[float, float, float, float, float]:
        """Total (profile, replay, mount, fsck, check) seconds across all
        workloads — the §6.3 phases, with crash-state construction (replay),
        mounting/recovery, and fsck attributed separately.  The five components
        sum to the CPU time spent testing, summed over workers; under a
        parallel backend that exceeds ``testing_seconds``, which is wall
        clock."""
        profile = sum(result.profile_seconds for result in self.results)
        replay = sum(result.replay_seconds for result in self.results)
        mount = sum(result.mount_seconds for result in self.results)
        fsck = sum(result.fsck_seconds for result in self.results)
        check = sum(result.check_seconds for result in self.results)
        return profile, replay, mount, fsck, check

    def check_timings(self) -> Dict[str, float]:
        """Per-check wall-clock attribution summed across every workload.

        The per-component breakdown of the checking phase: check name ->
        total seconds spent in that check over the whole campaign.
        """
        totals: Dict[str, float] = {}
        for result in self.results:
            for name, seconds in result.check_timings.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def summary(self) -> str:
        groups = self.grouped_reports()
        invalid = (f" (+{self.invalid_workloads} invalid dropped)"
                   if self.invalid_workloads else "")
        return (
            f"campaign {self.label or '-'} on {self.fs_model}: "
            f"{self.workloads_tested} workloads{invalid}, "
            f"{self.crash_points_tested} crash points, "
            f"{self.failing_workloads} failing workloads, {len(self.all_reports())} raw reports, "
            f"{len(groups)} report groups, "
            f"{self.generation_seconds:.2f}s generation + {self.testing_seconds:.2f}s testing"
        )

    def describe(self) -> str:
        lines = [self.summary()]
        if self.cross_deduped_scenarios:
            lines.append(
                f"dedup: {self.deduped_scenarios} within-workload + "
                f"{self.cross_deduped_scenarios} cross-workload scenarios skipped"
            )
        lines.append("report groups:")
        for group in self.grouped_reports():
            lines.append("  " + group.describe())
        return "\n".join(lines)
