"""The benchmark's two campaign cells and how a seed selects their inputs.

Each workload is one B3 campaign: a file system x crash plan x slice of the
seq-2 workload space.  They are chosen so that each layer a later change is
likely to optimise does most of the work in one workload and little in
another (see README.md for the per-layer predictions):

* ``prefix-logfs-seq2`` -- recording dominates and ACE siblings are adjacent,
  so the prefix trie and the replay trail do most of their work here.
* ``mechanism-seqfs-seq2-sample`` -- ACE generation dominates (sampling
  enumerates the whole space) together with mount/recovery and the checks,
  siblings are not adjacent, and the campaign runs through the durable
  service (sqlite chunk commits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: A contiguous workload's seed picks one of this many start offsets ...
SEED_OFFSETS = 8
#: ... spaced this many workloads apart in ACE enumeration order.  Every seed
#: tests a different slice, but small shifts keep its cost within ~2% of seed
#: 0's, so the spread across seeds measures the machine, not the input (at a
#: stride of 128 flashfs x torn slices' throughput fell 12% from offset 0 to 896);
#: skipping at most 112 workloads (~1 ms of generation) keeps set-up time
#: seed-independent.
OFFSET_STRIDE = 16


@dataclass(frozen=True)
class CampaignCell:
    """One benchmark workload: the campaign it runs."""

    fs_name: str
    crash_plan: str
    #: workloads tested per campaign (>= 1000, so p99 has >= 10 samples beyond it)
    workloads: int
    #: spread over the whole seq-2 space through the durable runner, instead
    #: of a contiguous slice through ``B3Campaign``
    sampled: bool = False

    def offsets(self) -> Tuple[int, ...]:
        """Every start offset a seed can select (one findings reference each)."""
        if self.sampled:
            return (0,)
        return tuple(k * OFFSET_STRIDE for k in range(SEED_OFFSETS))

    def offset(self, seed: int) -> int:
        """Start offset of this seed's slice in ACE enumeration order.

        The sampled workload ignores the seed: ``AceSynthesizer`` sampling
        takes no seed, so there is only one sample.
        """
        return self.offsets()[seed % len(self.offsets())]


WORKLOADS: Dict[str, CampaignCell] = {
    "prefix-logfs-seq2": CampaignCell("logfs", "prefix", 3000),
    "mechanism-seqfs-seq2-sample": CampaignCell("seqfs", "mechanism", 1000, sampled=True),
}
