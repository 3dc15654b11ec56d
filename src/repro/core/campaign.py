"""B3 campaigns: generate bounded workloads with ACE and test them with CrashMonkey.

This is the top of the stack — the equivalent of the paper's testing strategy
(§5.3): pick bounds, exhaustively generate workloads, run every workload
through CrashMonkey against the target file system, and post-process the
resulting bug reports.

The campaign itself is a thin façade: execution is delegated to the streaming
engine (:mod:`repro.engine`), which pulls workloads lazily from the
synthesizer, dispatches them in chunks to a serial or process-pool backend,
and aggregates results incrementally.  Peak memory is O(in-flight chunk), not
O(workload space).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Sequence

from ..ace.adapter import CrashMonkeyAdapter
from ..ace.bounds import Bounds, seq1_bounds, seq2_bounds
from ..ace.synthesizer import AceSynthesizer
from ..crashmonkey.harness import CrashMonkey
from ..engine.backends import SerialBackend, make_backend
from ..engine.engine import DEFAULT_CHUNK_SIZE, CampaignEngine, EngineRun, ProgressCallback
from ..engine.spec import HarnessSpec
from ..fs.bugs import BugConfig
from ..fs.registry import models, resolve_fs_name
from ..workload.workload import Workload
from .results import CampaignResult


@dataclass
class CampaignConfig:
    """Configuration of one testing campaign."""

    fs_name: str = "btrfs"
    bugs: Optional[BugConfig] = None
    bounds: Optional[Bounds] = None
    #: cap on the number of generated workloads to test (None = exhaustive)
    max_workloads: Optional[int] = None
    #: spread the tested workloads over the whole space instead of taking a prefix
    sample: bool = False
    device_blocks: int = 4096
    only_last_checkpoint: bool = False
    #: consistency checks to run, by registered name (None = all registered)
    checks: Optional[Sequence[str]] = None
    #: consistency checks to skip, by registered name
    skip_checks: Sequence[str] = ()
    #: crash-scenario plan per persistence point ("prefix", "reorder" or "torn")
    crash_plan: str = "prefix"
    #: reorder-plan bound: blocks allowed to deviate per scenario
    reorder_bound: int = 2
    #: torn-plan bound: in-flight writes (metadata-tagged first) torn per checkpoint
    torn_bound: int = 2
    #: skip crash states at checkpoints that provably repeat an earlier one
    dedup_scenarios: bool = True
    #: skip crash states already tested by an earlier workload on the same
    #: worker (byte-identical states + expectations); identical recurring
    #: states are counted once, so raw report counts drop accordingly
    cross_workload_dedup: bool = False
    #: path to a disk-backed sighting database shared by all workers,
    #: promoting cross-workload dedup to campaign-global under a pool backend
    #: (None with processes > 1 auto-provisions a temporary one per run)
    global_dedup_cache: Optional[str] = None
    #: run the static mechanism analysis over every recorded stream; None
    #: enables it exactly when ``crash_plan == "mechanism"``, True forces it
    #: alongside an exhaustive plan (overhead measurement without pruning)
    analyze_mechanisms: Optional[bool] = None
    #: worker processes; 1 = serial in-process, >1 = process-pool backend
    processes: int = 1
    #: workloads per dispatched chunk (None = engine default)
    chunk_size: Optional[int] = None


class B3Campaign:
    """Run the generate → test → post-process pipeline."""

    def __init__(self, config: CampaignConfig):
        self.config = config
        self.fs_name = resolve_fs_name(config.fs_name)
        self.fs_model = models(self.fs_name)
        self.bounds = config.bounds if config.bounds is not None else seq2_bounds()
        self.spec = HarnessSpec(
            fs_name=self.fs_name,
            bugs=config.bugs,
            device_blocks=config.device_blocks,
            only_last_checkpoint=config.only_last_checkpoint,
            checks=tuple(config.checks) if config.checks is not None else None,
            skip_checks=tuple(config.skip_checks),
            crash_plan=config.crash_plan,
            reorder_bound=config.reorder_bound,
            torn_bound=config.torn_bound,
            dedup_scenarios=config.dedup_scenarios,
            cross_workload_dedup=config.cross_workload_dedup,
            global_dedup_cache=config.global_dedup_cache,
            analyze_mechanisms=config.analyze_mechanisms,
        )
        self._harness: Optional[CrashMonkey] = None
        #: engine bookkeeping of the most recent :meth:`run` (chunk stats, wall clock)
        self.last_run: Optional[EngineRun] = None

    @property
    def harness(self) -> CrashMonkey:
        """The campaign's serial-mode harness, built from the spec on demand.

        Pool-mode runs never touch it — workers build their own harness from
        the (pickled) spec.
        """
        if self._harness is None:
            self._harness = self.spec.build()
        return self._harness

    # ------------------------------------------------------------------ workload supply

    def iter_workloads(self) -> Iterator[Workload]:
        """Stream the workloads this campaign will test (never materialized)."""
        synthesizer = AceSynthesizer(self.bounds)
        return synthesizer.stream(limit=self.config.max_workloads,
                                  sample=self.config.sample)

    def generate_workloads(self) -> List[Workload]:
        """Materialize the campaign's workloads (prefer :meth:`iter_workloads`)."""
        return list(self.iter_workloads())

    # ------------------------------------------------------------------ execution

    def _engine(self, progress: Optional[ProgressCallback],
                spec: Optional[HarnessSpec] = None) -> CampaignEngine:
        if self.config.processes <= 1:
            # Reuse the campaign's own harness across the whole run.
            backend = SerialBackend(harness=self.harness)
        else:
            backend = make_backend(self.config.processes)
        chunk_size = (self.config.chunk_size if self.config.chunk_size is not None
                      else DEFAULT_CHUNK_SIZE)
        return CampaignEngine(
            spec if spec is not None else self.spec,
            backend=backend,
            chunk_size=chunk_size,
            progress=progress,
        )

    def _run_spec(self, stack: contextlib.ExitStack) -> HarnessSpec:
        """The spec this run dispatches, with a dedup database provisioned.

        A pool run with cross-workload dedup but no explicit cache path gets
        a temporary campaign-global sqlite database for the duration of the
        run: without it each worker's sightings are private, and a sibling
        family split across workers re-tests states another worker already
        covered.  Serial runs keep the in-memory cache (same scope, no I/O).
        """
        if (self.config.processes <= 1
                or not self.config.cross_workload_dedup
                or self.spec.global_dedup_cache is not None):
            return self.spec
        tmpdir = stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-dedup-")
        )
        return replace(self.spec, global_dedup_cache=os.path.join(tmpdir, "sightings.sqlite"))

    def run(self, workloads: Optional[Iterable[Workload]] = None,
            progress: Optional[ProgressCallback] = None) -> CampaignResult:
        """Run the campaign; workloads are streamed from ACE unless supplied.

        Every workload flows through the CrashMonkey adapter first: invalid
        ones are dropped from testing but surfaced in the result's
        ``invalid_workloads`` count (never silently swallowed), which also
        keeps a bad hand-supplied workload from aborting the whole run.
        """
        source = workloads if workloads is not None else self.iter_workloads()
        adapter = CrashMonkeyAdapter(self.fs_name)
        label = self.bounds.label or f"seq-{self.bounds.seq_length}"
        with contextlib.ExitStack() as stack:
            spec = self._run_spec(stack)
            run = self._engine(progress, spec).run(adapter.adapt_stream(source), label=label)
        run.result.invalid_workloads = adapter.invalid_workloads
        self.last_run = run
        return run.result


def quick_campaign(fs_name: str = "btrfs", seq_length: int = 1,
                   max_workloads: Optional[int] = None,
                   bugs: Optional[BugConfig] = None,
                   sample: bool = False,
                   processes: int = 1) -> CampaignResult:
    """Convenience wrapper: the "single line command to run seq-1 workloads".

    ``quick_campaign()`` with the defaults exhaustively tests every seq-1
    workload against the btrfs-like file system and returns the aggregated
    result — the same entry point the paper advertises for trying the tools.
    Pass ``processes > 1`` to spread testing over a process pool.
    """
    bounds = seq1_bounds() if seq_length == 1 else seq2_bounds()
    if seq_length not in (1, 2):
        bounds = Bounds(seq_length=seq_length, label=f"seq-{seq_length}")
    config = CampaignConfig(
        fs_name=fs_name, bugs=bugs, bounds=bounds,
        max_workloads=max_workloads, sample=sample, processes=processes,
    )
    return B3Campaign(config).run()
