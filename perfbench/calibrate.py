"""A fixed CPU kernel, independent of limpprob, that times the machine itself.

Usage::

    python perfbench/calibrate.py [THREADS]

It prints the kernel's own wall time; ``run.py`` takes the rest of the
process's wall time as the start-up time.  ``run.py`` starts it beside every
iteration, because the host the benchmark was tuned on changes speed by
20-45% within seconds to minutes as other tenants come and go, and process
start-up and computation slow down by different amounts.  The kernel mixes
what the workloads compute: 64-bit integer mixing on large and on small
numpy arrays, and Python bytecode.  With THREADS > 1 it runs in that many
threads at once, which, like ``--workers``, also measures how they share the
interpreter lock and the free cores.
"""

import sys
import threading
import time

import numpy as np

MIX = np.uint64(0xBF58476D1CE4E5B9)
SHIFT = np.uint64(31)


def kernel() -> int:
    z = np.arange(100_000, dtype=np.uint64)
    for _ in range(90):
        z = (z ^ (z >> SHIFT)) * MIX
    small = np.arange(64, dtype=np.uint64)
    for _ in range(12_000):
        small = (small ^ (small >> SHIFT)) * MIX
    total = 0
    for i in range(900_000):
        total += i * i & 0xFF
    return int(z[-1] ^ small[-1]) ^ total


if __name__ == "__main__":
    with np.errstate(over="ignore"):
        threads = [threading.Thread(target=kernel) for _ in range(int(sys.argv[1]) if len(sys.argv) > 1 else 1)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        print(time.perf_counter() - start)
