"""Campaign benchmark: end-to-end throughput, latency, RSS and set-up time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are defined in
``workloads.py`` and explained in ``README.md``.  Each repetition runs the
whole campaign serially in a fresh process (``rep.py``), one at a time, so a
peak-RSS figure belongs to the one workload that process ran.

``--trace 0`` repeats the campaign until ``--seconds`` are used (at least
twice) and reports the end-to-end metrics: median throughput, p50 of the
per-workload test time over every repetition's samples, p99 of each
workload's best time, median peak RSS and median set-up time.  The times are
scaled to the reference host's speed by each repetition's measured host
slowdown (see ``rep.py``), because the shared host this benchmark runs on
drifts by 20% and more within minutes.  ``--trace 1`` runs the campaign
untraced at least twice, then once with every layer traced, and reports the
per-layer metrics; the spans are written to
``.perfbench/traces/<workload>-seed<N>.jsonl``.

Every repetition's findings (a digest of ``CampaignResult.canonical_dict()``
plus its report counts) must equal the committed reference in
``reference.json``; otherwise the run exits non-zero and reports no number.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Everything the benchmark writes goes under this directory of the checkout.
OUTPUT_DIR = ROOT / ".perfbench"
REFERENCE_FILE = HERE / "reference.json"
#: Untraced repetitions made even when they overrun ``--seconds``.  Two, not
#: three: on a loaded host a sampled repetition takes ~20 s, and three of
#: them would push a 60 s run past its length.
MIN_REPS = 2
#: A traced repetition is assumed to take this many untraced ones.
TRACE_COST = 1.5
#: No repetition starts after this many seconds (each run ends within 180 s).
LAST_START_S = 120.0
REP_TIMEOUT_S = 170.0
#: Layer self times plus dispatch must equal the traced wall clock to this share.
CLOSURE_BOUND = 0.05
#: Each phase's span total must equal the program's own timer to this share.
#: The program's timers also count the tracer's cost per span, which makes the
#: checks' spans ~12% short of ``check_seconds``; the other phases miss by <4%.
TELEMETRY_BOUND = 0.2
#: Layer times that are printed but not declared in BENCHMARK.json.  Each reads
#: exactly 0 s on every run of a workload that never calls the layer (fsck on
#: the prefix workload, the service on the contiguous one), and a declared
#: time that reads the same on every run is refused.  Counts, shares and
#: sizes may be 0 on such a workload, so those are declared.
UNDECLARED_LAYER_TIMES = ("fs.fsck_s", "service.census_s", "service.ingest_s")


class BenchmarkError(Exception):
    """The run cannot produce a trustworthy number."""


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def load_reference(workload: str, offset: int) -> Dict[str, object]:
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        references = json.load(handle)
    try:
        return references[workload][str(offset)]
    except KeyError:
        raise BenchmarkError(
            f"no findings reference for {workload} at offset {offset}") from None


def check_findings(measured: Dict[str, object], reference: Dict[str, object]) -> None:
    """Raise unless a repetition found exactly what the reference records."""
    found = measured["findings"]
    if found != reference:
        differing = sorted(key for key in set(found) | set(reference)
                           if found.get(key) != reference.get(key))
        raise BenchmarkError(
            f"findings differ from the reference in {', '.join(differing)}: "
            f"got {found}, expected {reference}")


def spawn_rep(workload: str, offset: int, scratch: str, number: int,
              trace_out: Optional[str] = None,
              timeout: float = REP_TIMEOUT_S) -> Dict[str, object]:
    """Run one repetition in a fresh process and return what it measured."""
    out = os.path.join(scratch, f"rep-{number}.json")
    env = dict(os.environ, TMPDIR=scratch)
    spawned_at = time.monotonic()
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--offset", str(offset), "--spawned-at", repr(spawned_at), "--out", out]
    if trace_out is not None:
        command += ["--trace-out", trace_out]
    process = subprocess.Popen(command, cwd=str(ROOT), env=env,
                               stdin=subprocess.DEVNULL, stdout=sys.stderr)
    try:
        code = process.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"repetition {number} exceeded {timeout:.0f} s") from None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise BenchmarkError(f"repetition {number} exited with code {code}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload: str, offset: int, seconds: float, traced: bool,
            scratch: str, trace_out: str) -> List[Dict[str, object]]:
    """Untraced repetitions for ``seconds`` (then one traced one, if asked)."""
    reps: List[Dict[str, object]] = []
    durations: List[float] = []
    start = time.monotonic()
    reserve = TRACE_COST if traced else 0.0
    while True:
        elapsed = time.monotonic() - start
        estimate = max(durations, default=0.0)
        if len(reps) >= MIN_REPS and (elapsed + (1.0 + reserve) * estimate > seconds
                                     or elapsed > LAST_START_S):
            break
        began = time.monotonic()
        reps.append(spawn_rep(workload, offset, scratch, len(reps),
                              timeout=REP_TIMEOUT_S - elapsed))
        durations.append(time.monotonic() - began)
    if traced:
        elapsed = time.monotonic() - start
        reps.append(spawn_rep(workload, offset, scratch, len(reps), trace_out=trace_out,
                              timeout=REP_TIMEOUT_S - elapsed))
    return reps


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def scaled_times_ms(untraced: List[Dict[str, object]]) -> List[List[float]]:
    """Each repetition's ``test_workload`` times over its host slowdown.

    Every repetition must have tested the same workloads in the same order.
    """
    names = untraced[0]["test_names"]
    for rep in untraced[1:]:
        if rep["test_names"] != names:
            raise BenchmarkError("repetitions tested different workload sequences")
    return [[ms / rep["slowdown"] for ms in rep["test_ms"]] for rep in untraced]


def end_to_end(untraced: List[Dict[str, object]]) -> Dict[str, float]:
    """Time metrics at the reference host's speed (see ``rep.py``).

    p50 pools every repetition's samples.  p99 takes each workload's fastest
    time over the repetitions first: a one-off stall (a garbage-collector
    pass, a burst of contention from the host) lands on one repetition's
    samples and would otherwise decide the tail.
    """
    scaled = scaled_times_ms(untraced)
    return {
        "workloads_per_s": statistics.median(
            rep["counts"]["tested"] * rep["slowdown"] / rep["wall_s"] for rep in untraced),
        "workload_ms_p50": percentile([ms for times in scaled for ms in times], 0.50),
        "workload_ms_p99": percentile([min(times) for times in zip(*scaled)], 0.99),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
        "setup_s": statistics.median(rep["setup_s"] / rep["slowdown"] for rep in untraced),
    }


def per_layer(traced: Dict[str, object], untraced: List[Dict[str, object]]) -> Dict[str, float]:
    reps = [*untraced, traced]
    counts = traced["counts"]
    trace = traced["trace"]
    tested = counts["tested"]
    metrics = dict(trace["self_s"])
    metrics.update({
        "failed_share": share(sum(rep["counts"]["failed"] for rep in reps),
                              sum(rep["counts"]["tested"] for rep in reps)),
        "ace.enumerated_per_tested": share(trace["ace_pulls"], tested),
        "recorder.write_requests": counts["recorded_writes"],
        "recorder.prefix_hits": counts["prefix_hits"],
        "recorder.prefix_hit_share": share(counts["prefix_hits"], tested),
        "replayer.replayed_writes": counts["replayed_writes"],
        "replayer.trail_hits": counts["replay_hits"],
        "replayer.trail_hit_share": share(counts["replay_hits"], tested),
        "crashplan.scenarios_planned": counts["scenarios_planned"],
        "crashplan.scenarios_tested": counts["scenarios_tested"],
        "crashplan.dedup_share": share(counts["scenarios_planned"] - counts["scenarios_tested"],
                                       counts["scenarios_planned"]),
        "fs.mounts": trace["mounts"],
        "fs.unmountable_share": share(trace["failed_mounts"], trace["mounts"]),
        "checks.failing_state_share": share(counts["failing_states"],
                                            counts["scenarios_tested"]),
        "storage.peak_overlay_bytes": counts["peak_overlay_bytes"],
        "storage.spine_peak_resident_bytes": counts["spine_peak_resident_bytes"],
        "engine.dispatch_s": trace["dispatch_s"],
        "engine.workloads_tested": tested,
        "service.db_bytes": traced["db_bytes"],
        "core.raw_reports": counts["raw_reports"],
        "core.report_groups": counts["report_groups"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - statistics.median(
            rep["wall_s"] for rep in untraced),
        "trace.closure_error": trace["closure_error"],
        "trace.telemetry_miss": max(trace["telemetry_misses"].values()),
        "trace.spans": trace["spans"],
    })
    return metrics


def declared_metrics(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)[kind]
    return {metric["name"]: metric["unit"] for metric in declared}


def report(workload: str, seed: int, offset: int, reps: List[Dict[str, object]],
           metrics: Dict[str, float], units: Dict[str, str]) -> None:
    """Human-readable lines; the JSON result follows them."""
    attempted = sum(rep["counts"]["tested"] for rep in reps)
    failed = sum(rep["counts"]["failed"] for rep in reps)
    first = reps[0]
    untraced = [rep for rep in reps if not rep["traced"]]
    samples = sum(len(rep["test_ms"]) for rep in untraced)
    print(f"workload {workload} seed {seed} (start offset {offset}): "
          f"{len(reps)} repetitions, {samples} untraced test_workload samples")
    print("  host slowdown against the reference, per untraced repetition: "
          + ", ".join(f"{rep['slowdown']:.3f}" for rep in untraced))
    found = first["findings"]
    print(f"  findings match the reference: {found['report_groups']} report groups, "
          f"{found['raw_reports']} raw reports, digest {found['digest'][:16]}")
    tested = first["counts"]["tested"]
    print(f"  sharing: prefix trie {first['counts']['prefix_hits']}/{tested} workloads, "
          f"replay trail {first['counts']['replay_hits']}/{tested} workloads")
    if "failed_share" not in metrics:
        print(f"  {'failed_share':<36} {share(failed, attempted):>14.6g} share  "
              f"({failed}/{attempted})")
    if "trace" in reps[-1]:
        misses = reps[-1]["trace"]["telemetry_misses"]
        print("  span totals vs the program's timers: " + ", ".join(
            f"{phase} {miss:.1%}" for phase, miss in misses.items()))
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")


def run(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {ROOT / 'src'}")
    offset = WORKLOADS[workload].offset(seed)
    reference = load_reference(workload, offset)
    (OUTPUT_DIR / "traces").mkdir(parents=True, exist_ok=True)
    trace_out = str(OUTPUT_DIR / "traces" / f"{workload}-seed{seed}.jsonl")
    scratch = tempfile.mkdtemp(prefix="run-", dir=str(OUTPUT_DIR))
    try:
        reps = measure(workload, offset, seconds, traced, scratch, trace_out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for rep in reps:
        check_findings(rep, reference)
    untraced = [rep for rep in reps if not rep["traced"]]
    if traced:
        metrics = per_layer(reps[-1], untraced)
        if metrics["trace.closure_error"] > CLOSURE_BOUND:
            raise BenchmarkError(
                f"layer self times plus dispatch miss the traced wall clock by "
                f"{metrics['trace.closure_error']:.1%} (bound {CLOSURE_BOUND:.0%})")
        if metrics["trace.telemetry_miss"] > TELEMETRY_BOUND:
            raise BenchmarkError(
                f"span totals miss the program's own phase timers by up to "
                f"{metrics['trace.telemetry_miss']:.1%} (bound {TELEMETRY_BOUND:.0%}): "
                f"{reps[-1]['trace']['telemetry_misses']}")
        declared = declared_metrics("per_layer")
        units = {**declared, **{name: "s" for name in UNDECLARED_LAYER_TIMES}}
    else:
        metrics = end_to_end(untraced)
        declared = units = declared_metrics("end_to_end")
    missing = sorted(set(units) ^ set(metrics))
    if missing:
        raise BenchmarkError(f"metrics measured and declared differ: {', '.join(missing)}")
    report(workload, seed, offset, reps, metrics, units)
    return {
        "correct": True,
        "attempted": sum(rep["counts"]["tested"] for rep in reps),
        "failed": sum(rep["counts"]["failed"] for rep in reps),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
