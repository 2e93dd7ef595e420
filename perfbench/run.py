"""The ncburgers benchmark.

    python3 perfbench/run.py --workload {proofs,commute-oracle,properties}
                             --seed N --seconds S --trace {0,1}

Every timed pass runs in a fresh Python process (``child.py``), one at a
time, so no module-level cache of the engine survives from one pass to the
next: a command-line user pays the cold cost on every call.  The number of
passes follows from ``--seconds`` and the workload (``pass_count``), never
from the speed measured.  With ``--trace 0`` the end-to-end metrics are
reported, with ``--trace 1`` the per-layer metrics of ``tracing.py``; both
are defined in README.md.  The last line of standard output is one JSON
object; the exit code is 1 if any item failed or the traced counts of two
passes differ, and 2 if a pass could not run or the passes did not fit in
``TIME_LIMIT_S``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SPANS_DIR = ROOT / ".perfbench"
WORKLOADS = ("proofs", "commute-oracle", "properties")
SETUP_SAMPLES = 12
TAIL_BEYOND = 10
TIME_LIMIT_S = 170.0
# Seconds of ``--seconds`` that one pass is given, sized from a pass's time in
# a typical phase of the host plus its share of the set-up samples.  The
# count must not depend on the speed measured, so that two commits compared
# take the same statistic over the same number of passes.
PASS_BUDGET_S = {"proofs": 24.0, "commute-oracle": 19.0, "properties": 9.5}
# Printed, but left out of the result's metrics so that no bound applies.
# The item percentiles: on ``proofs`` each is a single short claim that one
# spike of the host can cover in every pass.  The raw times: the host's
# speed drifts too far for any allowed bound (``baseline.json``).
PRINTED_ONLY = ("item_p50_ms", "item_tail_ms", "setup_raw_s", "wall_raw_s")
# ``child.reference``'s typical time beside the items on the machine the
# baseline was measured on.  The host's speed drifts by up to 2x over
# minutes, for the reference as much as for the engine, so every time is
# taken as a multiple of the reference time measured beside it and reported
# in seconds at this speed.
REFERENCE_S = 0.0065
# how far before and after an item its reference samples may lie
REFERENCE_REACH_S = 1.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "setup_raw_s": "s",
    "wall_raw_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class PassFailed(Exception):
    """A child process exited abnormally or printed no result."""


def run_child(workload: str, seed: int, deadline: float, trace: int = 0,
              setup_only: bool = False, spans: str = "") -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    # a fixed hash seed makes set and dict layouts, and so the work, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed("%s pass exceeded the time limit" % workload) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed("%s pass exited with %d: %s"
                         % (workload, proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_call"] - spawned - result.get("reference_spent_s", 0.0)
    return result


def tail(latencies):
    """(value, percentile) of the highest item percentile with at least
    TAIL_BEYOND items beyond it; the smallest item if there are too few."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_BUDGET_S[workload]))


def adjusted(p: dict) -> list:
    """A pass's item times in seconds at reference speed.  Each is divided
    by the mean of the reference samples taken while the item ran or within
    ``REFERENCE_REACH_S`` of it, and one more on each side, then multiplied
    by ``REFERENCE_S``."""
    at, took = p["sample_at"], p["sample_s"]
    out = []
    for t, (t0, t1) in zip(p["latencies_s"], p["item_spans"]):
        lo = max(0, bisect.bisect_left(at, t0 - REFERENCE_REACH_S) - 1)
        hi = bisect.bisect_right(at, t1 + REFERENCE_REACH_S) + 1
        out.append(t * REFERENCE_S / statistics.fmean(took[lo:hi]))
    return out


def end_to_end(workload, seed, seconds, deadline):
    setups = [run_child(workload, seed, deadline, setup_only=True)
              for _ in range(SETUP_SAMPLES)]
    passes = [run_child(workload, seed, deadline)
              for _ in range(pass_count(workload, seconds))]
    # The reference takes out the host's drift, so what is left is noise on
    # either side: the pass's wall time is its median over the run's passes,
    # and each item's time its median, for the item percentiles.  Every pass
    # runs the same items in the same order from a cold process, so the
    # times are comparable item by item.
    times = [adjusted(p) for p in passes]
    items = [statistics.median(item) for item in zip(*times)]
    tail_s, percentile = tail(items)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * REFERENCE_S / s["reference_s"] for s in setups),
        "wall_s": statistics.median(sum(t) for t in times),
        "setup_raw_s": statistics.median(s["setup_s"] for s in setups),
        "wall_raw_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_ms": 1e3 * statistics.median(items),
        "item_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = ["passes: %d, setup samples: %d" % (len(passes), len(setups)),
             "reference: median %.4f ms in the set-up processes, %.4f ms beside the items"
             % (1e3 * statistics.median(s["reference_s"] for s in setups),
                1e3 * statistics.median(r for p in passes for r in p["sample_s"])),
             "item_tail_ms is p%.1f of %d items per pass" % (percentile, len(items))]
    report = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    return passes, report, notes


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def per_layer(workload, seed, seconds, deadline):
    SPANS_DIR.mkdir(exist_ok=True)
    spans = str(SPANS_DIR / ("spans-%s-seed%d.tsv.gz" % (workload, seed)))

    def pair():
        plain = run_child(workload, seed, deadline)
        traced = run_child(workload, seed, deadline, trace=1, spans=spans)
        return plain, traced

    pairs = [pair() for _ in range(max(1, pass_count(workload, seconds) // 2))]
    plains = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    layers = [t["layers"] for t in traced]
    report = {}
    for name in layers[0]:
        values = [l[name] for l in layers]
        value = statistics.median(values) if name.endswith("_s") else values[0]
        report[name] = (value, _layer_unit(name))
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    report["trace.wall_s"] = (traced_wall, "s")
    report["trace.overhead_s"] = (traced_wall - statistics.median(p["wall_s"] for p in plains), "s")
    notes = ["traced passes: %d, spans of the last one: %d in %s"
             % (len(traced), traced[-1]["spans"], os.path.relpath(spans, ROOT))]
    counts_agree = all(
        l[name] == layers[0][name] for l in layers for name in l if not name.endswith("_s")
    )
    if not counts_agree:
        notes.append("traced counts differ between passes")
    return plains + traced, report, notes, counts_agree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ncburgers benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if args.trace:
            passes, report, notes, consistent = per_layer(
                args.workload, args.seed, args.seconds, deadline)
        else:
            passes, report, notes = end_to_end(args.workload, args.seed, args.seconds, deadline)
            consistent = True
    except PassFailed as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for name, (value, unit) in report.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    print("  %-40s %14.6g ratio (%d of %d items)"
          % ("failed_ratio", len(failures) / attempted, len(failures), attempted))
    for note in notes:
        print("  " + note)
    for f in failures[:20]:
        print("  FAILED %(item)s: expected %(expected)s, observed %(observed)s" % f)
    correct = not failures and consistent
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items() if name not in PRINTED_ONLY},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
