"""The reference loop: a fixed pure-Python workload that calls no ``repro``
code, timed to tell how fast the host runs the interpreter at a moment.

On a shared VM that speed changes by up to 2x for seconds at a time.  The
benchmark times this loop on the same CPU right around every job and every
set-up probe and divides by it, which cancels the host's speed and keeps the
program's own work: a change to the program moves the job, not the loop.

The loop has two halves because neither alone tracks every workload: an
integer spin follows the SAT-heavy jobs best, the object half (tuple-keyed
dicts, frozensets, a keyed sort, set unions) the search-heavy ones.
"""

from __future__ import annotations

import time

#: the loop's typical time on the 2-vCPU Xeon KVM guest the benchmark was
#: tuned on; ``setup_s`` is the set-up time scaled to a host this fast
NOMINAL_S = 0.007


def reference() -> float:
    """Seconds for one pass of the reference loop (~7 ms)."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    table = {}
    for i in range(6000):
        table[i & 511, str(i & 63)] = frozenset((i & 31, i & 7))
    union: set = set()
    for _, members in sorted(table.items(), key=lambda item: (len(item[1]), item[0])):
        union |= members
    return time.perf_counter() - start
