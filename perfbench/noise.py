"""Machine noise probe: a fixed ``Fraction`` loop timed in fresh processes.

    python3 perfbench/noise.py

Prints each process's time and the spread (interquartile range over the
median).  The engine's own arithmetic is ``Fraction`` arithmetic, so this
shows how far the machine alone moves the benchmark's times.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

LOOP = """
import time
from fractions import Fraction
t = time.perf_counter()
s = Fraction(0)
for i in range(1, 60000):
    s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
print(time.perf_counter() - t)
"""

PROCESSES = 10


def main() -> int:
    times = []
    for _ in range(PROCESSES):
        out = subprocess.run([sys.executable, "-c", LOOP], capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    q = statistics.quantiles(times, n=4)
    print("fixed Fraction loop, %d fresh processes: %s" % (PROCESSES, " ".join("%.3f" % t for t in times)))
    print("min %.3f  median %.3f  max %.3f  iqr/median %.3f"
          % (min(times), statistics.median(times), max(times), (q[2] - q[0]) / statistics.median(times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
