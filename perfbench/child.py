"""One pass of a workload in a fresh Python process.

    python3 perfbench/child.py --workload NAME --seed N [--trace 0|1]
                               [--setup-only] [--spans PATH]

Imports ``ncburgers`` from the checkout's ``src``, builds the workload's
inputs (set-up), then runs its items one after another, each starting only
after the previous verdict (a closed loop with one client).  Prints one JSON
object as its last line: the monotonic time of the first timed call (the
parent turns it into ``setup_s``), the pass's wall time, each item's
latency and span, the reference samples taken beside them (``Sampler``),
the items that failed and the process's peak RSS.  With
``--trace 1`` the public functions of every layer are wrapped first and the
per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# wall time between two reference samples in a timed pass
REFERENCE_EVERY_S = 0.25
# samples a set-up-only process takes before its set-up, and again after
SETUP_REFERENCE_SAMPLES = 3
# the reference's operands: every word of length <= 3 over three letters,
# each with a small rational coefficient
_REF_TERMS = {
    word: Fraction(i % 7 - 3 or 1, i % 3 + 1)
    for i, word in enumerate(w for n in range(4) for w in itertools.product("abc", repeat=n))
}


def import_engine() -> None:
    """Import ncburgers from this checkout and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ncburgers

    if not Path(ncburgers.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("ncburgers was imported from %s, not from %s" % (ncburgers.__file__, SRC))


def reference() -> float:
    """Seconds for a fixed piece of work shaped like the engine's inner
    loop (the product of two dicts from word tuples to Fractions), the
    faster of two tries.  It never calls the engine, so a change to the
    engine leaves it alone, while a slow phase of the host slows it as much
    as the engine.  The garbage collector is off while it runs: a collection
    walks the whole heap, so its cost would follow the engine's state."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            out: dict = {}
            for wa, ca in _REF_TERMS.items():
                for wb, cb in _REF_TERMS.items():
                    w = wa + wb
                    out[w] = out.get(w, 0) + ca * cb
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class Sampler:
    """Takes a reference sample every ``REFERENCE_EVERY_S`` of wall time from
    a SIGALRM handler, so that a long item is sampled while it runs, and
    once on entry and on exit.  ``spent`` is the time spent sampling, which
    is kept out of the items' times."""

    def __init__(self):
        self.at, self.took, self.spent = [], [], 0.0

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.took.append(reference())
        self.at.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def run_items(items, sample: bool = True) -> dict:
    """Run items in order; an answer that differs from the expected one, or
    an exception, counts as failed.  With ``sample``, reference samples are
    taken throughout (``Sampler``) and returned with their times."""
    latencies, spans, failed = [], [], []
    clock = time.perf_counter
    sampler = Sampler()
    with sampler if sample else contextlib.nullcontext():
        for item in items:
            # this order can only leave a sample in an item's time, never
            # take one out that was not in it
            t0 = clock()
            spent0 = sampler.spent
            try:
                observed = item.run()
            except Exception as exc:  # a raised error is a failed item, not a crash
                observed = "error: %s: %s" % (type(exc).__name__, exc)
            spent = sampler.spent - spent0
            t1 = clock()
            latencies.append(t1 - t0 - spent)
            spans.append((t0, t1))
            if observed != item.expected:
                failed.append({"item": item.name, "expected": repr(item.expected), "observed": repr(observed)})
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "item_spans": spans,
        "sample_at": sampler.at,
        "sample_s": sampler.took,
        "attempted": len(items),
        "failed": failed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop before the first timed call")
    ap.add_argument("--spans", help="gzip TSV file for the traced pass's spans")
    args = ap.parse_args(argv)

    if args.setup_only:
        # samples on both sides of the set-up; the parent takes their time
        # out of the set-up time
        t0 = time.monotonic()
        before = [reference() for _ in range(SETUP_REFERENCE_SAMPLES)]
        spent = time.monotonic() - t0
    import_engine()
    import workloads

    items = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    first_call = time.monotonic()
    if args.setup_only:
        samples = before + [reference() for _ in range(SETUP_REFERENCE_SAMPLES)]
        print(json.dumps({"first_call": first_call, "reference_s": sum(samples) / len(samples),
                          "reference_spent_s": spent}))
        return 0

    # a traced pass's times are its spans, so nothing may interrupt them
    out = run_items(items, sample=not args.trace)
    out["first_call"] = first_call
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if args.spans:
            out["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
