"""Harness specification.

Execution backends need to (re)construct :class:`CrashMonkey` harnesses in
other processes, so instead of shipping a live harness (which drags the whole
file-system object graph through pickle) they ship a small, frozen *spec* —
everything needed to build an equivalent harness on the other side.  A worker
builds its harness once from the spec and then reuses it for every workload it
tests; the harness itself starts every workload from the same pristine image
(a fresh copy-on-write overlay over it), which is B3's fixed-initial-state
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..crashmonkey.harness import CrashMonkey
from ..fs.bugs import BugConfig
from ..storage.block import DEFAULT_DEVICE_BLOCKS


@dataclass(frozen=True)
class HarnessSpec:
    """Everything needed to build a :class:`CrashMonkey` in any process."""

    fs_name: str = "btrfs"
    bugs: Optional[BugConfig] = None
    device_blocks: int = DEFAULT_DEVICE_BLOCKS
    only_last_checkpoint: bool = False
    run_write_checks: bool = True
    #: check selection, by registered name (None = every registered check);
    #: plain tuples of strings so the spec stays hashable and pickleable —
    #: pool workers rebuild identical pipelines from their own registry.
    #: Custom checks must therefore be registered at import time of a module
    #: the workers also import; under the ``spawn`` start method a check
    #: registered only in the parent process does not exist in workers
    #: (selecting it by name raises ``KeyError`` there).
    checks: Optional[Tuple[str, ...]] = None
    skip_checks: Tuple[str, ...] = ()
    #: crash-plan selection by name + bounds; workers rebuild an identical
    #: planner from these plain values (planner objects are never pickled)
    crash_plan: str = "prefix"
    reorder_bound: int = 2
    torn_bound: int = 2
    #: skip crash states at a checkpoint that provably repeats an earlier one
    #: (same stable fork, window and expectations — flush-free windows)
    dedup_scenarios: bool = True
    #: skip crash states already tested by an earlier workload of the same
    #: worker harness (byte-identical states and expectations).  The cache is
    #: per harness: campaign-wide under the serial backend, per worker under
    #: a pool — family-affine chunking keeps sibling families on one worker,
    #: so pool runs dedup the same sibling repeats, but counts can differ
    #: from serial when a family is split across workers (unless a
    #: ``global_dedup_cache`` path is set).
    cross_workload_dedup: bool = False
    #: path to a disk-backed sighting database shared by every worker built
    #: from this spec, promoting cross-workload dedup to campaign-global
    #: under a pool backend.  Workers open their own sqlite connection to the
    #: path; only the string crosses process boundaries.
    global_dedup_cache: Optional[str] = None
    #: campaign identifier scoping the disk-backed sighting cache; with
    #: ``global_dedup_cache`` set this stores sightings durably per campaign
    #: (the campaign state database), making resumed cross-workload dedup
    #: independent of interrupt history.  Ignored without a cache path.
    dedup_scope: Optional[str] = None
    #: run the static mechanism analysis over each recorded stream; ``None``
    #: enables it exactly when the crash plan consumes the report (the
    #: ``mechanism`` plan), ``True`` forces it (overhead measurement)
    analyze_mechanisms: Optional[bool] = None
    kernel_version: str = "4.16"

    def build(self) -> CrashMonkey:
        """Construct a harness equivalent to this spec."""
        return CrashMonkey(
            self.fs_name,
            bugs=self.bugs,
            device_blocks=self.device_blocks,
            only_last_checkpoint=self.only_last_checkpoint,
            run_write_checks=self.run_write_checks,
            checks=self.checks,
            skip_checks=self.skip_checks,
            crash_plan=self.crash_plan,
            reorder_bound=self.reorder_bound,
            torn_bound=self.torn_bound,
            dedup_scenarios=self.dedup_scenarios,
            cross_workload_dedup=self.cross_workload_dedup,
            global_dedup_cache=self.global_dedup_cache,
            dedup_scope=self.dedup_scope,
            analyze_mechanisms=self.analyze_mechanisms,
            kernel_version=self.kernel_version,
        )
