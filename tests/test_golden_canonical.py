"""Golden findings: canonical campaign results pinned by digest.

Each cell is one campaign (file system x crash plan x workload slice).  The
test runs it serially and compares the SHA-256 of
``json.dumps(result.canonical_dict(), sort_keys=True)`` plus the workload,
raw-report and report-group counts against ``golden/canonical_digests.json``.
Any change to the recording, crash-state construction, mount or check layers
that alters what a campaign finds fails here, cell by cell.

Digests are stored instead of the canonical payloads themselves, which run
to 0.4-1.9 MB per seq-1 cell.  After a change that is *meant* to alter the
findings, regenerate the file (no options) and review the diff:

    PYTHONPATH=src python tests/test_golden_canonical.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.ace.bounds import seq1_bounds, seq2_bounds, seq3_data_bounds
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.fs.bugs import BugConfig

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "canonical_digests.json"

_FILESYSTEMS = ("flashfs", "logfs", "seqfs", "verifs")
_PLANS = ("prefix", "torn", "mechanism")
_BOUNDS = {"seq-1": seq1_bounds, "seq-2": seq2_bounds, "seq-3-data": seq3_data_bounds}

#: cell name -> (fs, crash plan, bounds label, workload cap or None = full
#: space, variant); the variant adds campaign options: "dedup" turns on
#: cross-workload dedup, "patched" runs the file system with no bugs.
CELLS: Dict[str, tuple] = {
    **{f"{fs}-{plan}-seq-1": (fs, plan, "seq-1", None, "")
       for fs in _FILESYSTEMS for plan in _PLANS},
    **{f"{fs}-reorder-seq-1": (fs, "reorder", "seq-1", None, "")
       for fs in _FILESYSTEMS},
    **{f"{fs}-{plan}-seq-1-dedup": (fs, plan, "seq-1", None, "dedup")
       for fs in _FILESYSTEMS for plan in _PLANS},
    **{f"{fs}-prefix-seq-1-patched": (fs, "prefix", "seq-1", None, "patched")
       for fs in _FILESYSTEMS},
    "flashfs-torn-seq-2-300": ("flashfs", "torn", "seq-2", 300, ""),
    "logfs-mechanism-seq-3-data-300": ("logfs", "mechanism", "seq-3-data", 300, ""),
}


def _variant_options(variant: str) -> Dict[str, object]:
    if variant == "dedup":
        return {"cross_workload_dedup": True}
    if variant == "patched":
        return {"bugs": BugConfig.none()}
    return {}


def cell_findings(fs_name: str, crash_plan: str, bounds_label: str,
                  max_workloads: Optional[int], variant: str = "") -> Dict[str, object]:
    """Run one cell serially; return its canonical digest and counts."""
    config = CampaignConfig(fs_name=fs_name, bounds=_BOUNDS[bounds_label](),
                            crash_plan=crash_plan, max_workloads=max_workloads,
                            processes=1, **_variant_options(variant))
    result = B3Campaign(config).run()
    payload = json.dumps(result.canonical_dict(), sort_keys=True)
    return {
        "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "workloads": result.workloads_tested,
        "raw_reports": len(result.all_reports()),
        "report_groups": len(result.grouped_reports()),
    }


def _golden() -> Dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_cell():
    assert sorted(_golden()) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_canonical_findings_match_golden(cell):
    assert cell_findings(*CELLS[cell]) == _golden()[cell]


def regenerate() -> None:
    """Rewrite the golden file from the current code."""
    golden = {cell: cell_findings(*CELLS[cell]) for cell in sorted(CELLS)}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(golden)} cells to {GOLDEN_PATH}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit("usage: python tests/test_golden_canonical.py  (takes no options)")
    regenerate()
