"""The ACE workload synthesizer.

Glues the four generation phases together and exposes the operations a
campaign needs: exhaustive generation, counting, and deterministic sampling
of the bounded workload space (paper §5.2, Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..workload.workload import Workload
from .bounds import Bounds
from .fileset import FileSet, build_fileset
from .phase1 import count_skeletons, generate_skeletons
from .phase2 import count_parameterizations, parameterize
from .phase3 import add_persistence_points, count_persistence_variants
from .phase4 import resolve_dependencies


@dataclass
class GenerationStats:
    """How many workloads each phase produced (the Figure-4 funnel)."""

    skeletons: int = 0
    parameterized: int = 0
    with_persistence: int = 0
    final: int = 0
    discarded_invalid: int = 0

    def describe(self) -> str:
        return (
            f"phase1 skeletons={self.skeletons}, phase2 parameterized={self.parameterized}, "
            f"phase3 with persistence points={self.with_persistence}, "
            f"phase4 final={self.final} (discarded {self.discarded_invalid} invalid)"
        )


class AceSynthesizer:
    """Exhaustively generates workloads within the given bounds."""

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        self.fileset: FileSet = build_fileset(bounds)
        self.stats = GenerationStats()

    # ------------------------------------------------------------------ generation

    def generate(self, required_ops: Optional[Sequence[str]] = None,
                 limit: Optional[int] = None) -> Iterator[Workload]:
        """Yield every workload in the bounded space (optionally capped)."""
        stats = GenerationStats()
        self.stats = stats
        produced = 0
        index = 0
        for skeleton in generate_skeletons(self.bounds, required_ops):
            stats.skeletons += 1
            for core_ops in parameterize(skeleton, self.fileset, self.bounds):
                stats.parameterized += 1
                for ops_with_persistence in add_persistence_points(core_ops, self.bounds):
                    stats.with_persistence += 1
                    full_ops = resolve_dependencies(ops_with_persistence)
                    if full_ops is None:
                        stats.discarded_invalid += 1
                        continue
                    stats.final += 1
                    index += 1
                    label = self.bounds.label or f"seq-{self.bounds.seq_length}"
                    yield Workload(
                        ops=full_ops,
                        name=f"{label}-{index:07d}",
                        seq_length=self.bounds.seq_length,
                        source=f"ace:{label}",
                    )
                    produced += 1
                    if limit is not None and produced >= limit:
                        return

    def sample_stream(self, count: int, stride: Optional[int] = None,
                      required_ops: Optional[Sequence[str]] = None,
                      max_stride: int = 2000) -> Iterator[Workload]:
        """Lazily yield ``count`` workloads deterministically spread over the space.

        Sampling takes every ``stride``-th generated workload; when no stride
        is given one is estimated from the space size so the samples cover the
        whole space rather than just its beginning.  ``max_stride`` bounds the
        generation work for the multi-million-workload seq-3 spaces (a larger
        value spreads the sample wider at the cost of generation time).
        """
        if count <= 0:
            return
        if stride is None:
            estimated = max(self.estimate_count(required_ops), 1)
            stride = min(max(estimated // count, 1), max(max_stride, 1))
        produced = 0
        for position, workload in enumerate(self.generate(required_ops)):
            if position % stride == 0:
                yield workload
                produced += 1
                if produced >= count:
                    return

    def sample(self, count: int, stride: Optional[int] = None,
               required_ops: Optional[Sequence[str]] = None,
               max_stride: int = 2000) -> List[Workload]:
        """Materialized :meth:`sample_stream` (kept for convenience)."""
        return list(self.sample_stream(count, stride=stride,
                                       required_ops=required_ops,
                                       max_stride=max_stride))

    def stream(self, limit: Optional[int] = None, sample: bool = False,
               required_ops: Optional[Sequence[str]] = None) -> Iterator[Workload]:
        """The campaign-facing workload supply, always lazy.

        This is what the execution engine consumes: an iterator over the
        bounded space — exhaustive, prefix-capped (``limit``) or spread over
        the space (``limit`` + ``sample``) — that is pulled chunk by chunk,
        never materialized.

        The stream is *prefix ordered*: generation is a depth-first walk of
        (skeleton, parameterization, persistence placement), so workloads
        sharing an operation prefix — ACE sibling families — come out
        consecutively.  The engine's family-affine chunking relies on
        exactly this adjacency.
        """
        if limit is not None and sample:
            return self.sample_stream(limit, required_ops=required_ops)
        return self.generate(required_ops=required_ops, limit=limit)

    def sibling_groups(self, limit: Optional[int] = None,
                       required_ops: Optional[Sequence[str]] = None
                       ) -> Iterator[List[Workload]]:
        """Lazily group the generated stream into ACE sibling families.

        A family is a maximal run of consecutive workloads with equal
        :meth:`Workload.family_key` — identical core and dependency
        operations, differing only in persistence-point placement.  These are
        the workloads that re-reach each other's crash states, which
        cross-workload dedup skips.  Grouping is a streaming pass over :meth:`stream`
        (depth-first order makes families consecutive), so only one family
        is materialized at a time.
        """
        return group_siblings(self.stream(limit=limit, required_ops=required_ops))

    # ------------------------------------------------------------------ counting

    def count(self, required_ops: Optional[Sequence[str]] = None) -> int:
        """Exact number of final workloads (consumes the generator)."""
        total = 0
        for _ in self.generate(required_ops):
            total += 1
        return total

    def estimate_count(self, required_ops: Optional[Sequence[str]] = None) -> int:
        """Fast analytic estimate (before symmetry elimination and phase-4 drops).

        This is the product of per-position parameter and persistence choices
        summed over skeletons — the quantity §5.2 uses when discussing how the
        workload space grows as bounds are relaxed.
        """
        total = 0
        for skeleton in generate_skeletons(self.bounds, required_ops):
            parameter_count = count_parameterizations(skeleton, self.fileset, self.bounds)
            # Persistence choices depend only on the operation kinds, so use a
            # representative parameterization to count them.
            representative = next(parameterize(skeleton, self.fileset, self.bounds), None)
            if representative is None:
                continue
            persistence_count = count_persistence_variants(representative, self.bounds)
            total += parameter_count * persistence_count
        return total

    def phase_counts(self) -> Dict[str, int]:
        """Per-phase counts for a Figure-4 style funnel (analytic where possible)."""
        skeletons = count_skeletons(self.bounds)
        parameterized = 0
        with_persistence = 0
        for skeleton in generate_skeletons(self.bounds):
            parameter_count = count_parameterizations(skeleton, self.fileset, self.bounds)
            parameterized += parameter_count
            representative = next(parameterize(skeleton, self.fileset, self.bounds), None)
            if representative is None:
                continue
            with_persistence += parameter_count * count_persistence_variants(representative, self.bounds)
        return {
            "phase1_skeletons": skeletons,
            "phase2_parameterized": parameterized,
            "phase3_with_persistence": with_persistence,
        }


def group_siblings(workloads: Iterable[Workload]) -> Iterator[List[Workload]]:
    """Group a workload stream into maximal runs of equal ``family_key``."""
    group: List[Workload] = []
    group_key: Optional[str] = None
    for workload in workloads:
        key = workload.family_key()
        if group and key != group_key:
            yield group
            group = []
        group.append(workload)
        group_key = key
    if group:
        yield group


def generate_workloads(bounds: Bounds, limit: Optional[int] = None) -> List[Workload]:
    """Convenience wrapper: materialize (a prefix of) the bounded space."""
    return list(AceSynthesizer(bounds).generate(limit=limit))
