"""Write ``reference.json``: the findings every benchmark run is checked against.

    python3 perfbench/make_reference.py

Runs every workload once per start offset a seed can select, in a fresh
process as the benchmark does, and records its findings: a digest of
``CampaignResult.canonical_dict()``, the workload count, the invalid-workload
count and the raw-report and report-group counts.  Only a change that defines
or corrects the benchmark regenerates this file; a change that claims a speed
gain must leave findings, and so this file, as they are.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time

from run import OUTPUT_DIR, REFERENCE_FILE, spawn_rep
from workloads import WORKLOADS


def main() -> int:
    references = {}
    OUTPUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reference-", dir=str(OUTPUT_DIR))
    try:
        for name in sorted(WORKLOADS):
            entries = {}
            for offset in WORKLOADS[name].offsets():
                began = time.monotonic()
                measured = spawn_rep(name, offset, scratch, len(entries))
                entries[str(offset)] = measured["findings"]
                print(f"{name} offset {offset}: {measured['findings']} "
                      f"({measured['counts']['tested'] / measured['wall_s']:.1f} workloads/s, "
                      f"{time.monotonic() - began:.1f} s)", flush=True)
            references[name] = entries
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
