"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. Items whose expected answer is deliberately wrong are counted as failed,
   for every kind of answer the workloads check (a claim's status, matrix
   equality, matrix difference, a property), while the same items with
   their true answer pass; and ``run.py`` then exits with code 1 and
   ``"correct": false``.
2. Two traced passes of each workload give exactly the same counts, so
   later changes can cite them.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from dataclasses import replace

import child
import run

child.import_engine()
import workloads  # noqa: E402  (needs the engine on the path)

# cheap items of each workload, with an answer each one does not give
WRONG = {
    "proofs": {
        "strong-symmetry[mirror] of r r": workloads.PROVED,
        "hereditary[direct] at depth 1": workloads.PROVED,
        "cole-hopf[mirror] (6 identities)": (workloads.PROVED,) * 5 + (workloads.NONZERO,),
    },
    "commute-oracle": {
        "flow-commutation[mirror, m=1, n=2]": workloads.NONZERO,
        "derivatives[mirror, m=1, n=2]": "nonlocal",
        "oracle[mirror, m=1, n=2] scene 1 x0=-8": workloads.DIFFER,
        "derivatives[mirror, K2 against r r]": "nonlocal",
        "oracle[mirror, K2 against r r] scene 1 x0=-8": workloads.EQUAL,
    },
    "properties": {
        "leibniz[mirror] #0": "violated",
        "normal-idempotent #0": "violated",
        "print-parse #0": "violated",
        "frechet-dual #0": "violated",
    },
}


def check_wrong_answers_fail() -> list:
    problems = []
    passes = []
    for name, wrong in WRONG.items():
        items = {item.name: item for item in workloads.build(name, 0)}
        missing = set(wrong) - set(items)
        if missing:
            problems.append("%s has no items %s" % (name, sorted(missing)))
            continue
        # in build order, so a derivatives item runs before its comparisons
        chosen = [item for item in items.values() if item.name in wrong]
        # the true answers pass
        truth = child.run_items(chosen)
        if truth["failed"]:
            problems.append("%s: true answers failed: %s" % (name, truth["failed"]))
        flipped = [replace(i, expected=wrong[i.name]) for i in chosen]
        result = child.run_items(flipped)
        failed = sorted(f["item"] for f in result["failed"])
        if failed != sorted(wrong):
            problems.append("%s: wrong answers counted as failed: %s, expected %s"
                            % (name, failed, sorted(wrong)))
        result["first_call"] = 0.0
        result["peak_rss_mb"] = 1.0
        passes.append(result)

    # the command reports the failures and exits 1
    proofs = dict(passes[0], setup_s=0.1)
    setup = {"setup_s": 0.1, "reference_s": run.REFERENCE_S}
    real_run_child = run.run_child
    run.run_child = lambda *a, setup_only=False, **k: setup if setup_only else proofs
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "proofs", "--seconds", "0"])
    finally:
        run.run_child = real_run_child
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    if code != 1 or last["correct"] or last["failed"] != len(WRONG["proofs"]):
        problems.append("run.py did not report the failures: exit %d, %s" % (code, last))
    return problems


def check_counts_repeat() -> list:
    problems = []
    for name in run.WORKLOADS:
        deadline = time.monotonic() + run.TIME_LIMIT_S
        layers = [run.run_child(name, 0, deadline, trace=1)["layers"] for _ in range(2)]
        diff = [m for m in layers[0] if not m.endswith("_s") and layers[0][m] != layers[1][m]]
        if diff:
            problems.append("%s: traced counts differ: %s" % (name, diff))
        print("%s: %d counts compared" % (name, sum(1 for m in layers[0] if not m.endswith("_s"))))
    return problems


def main() -> int:
    problems = check_wrong_answers_fail()
    print("wrong expected answers: %s" % ("counted as failed" if not problems else "NOT detected"))
    problems += check_counts_repeat()
    for p in problems:
        print("PROBLEM: " + p)
    print("selftest %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
