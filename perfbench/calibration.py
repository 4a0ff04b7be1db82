"""Machine-speed calibration for the timed metrics.

The machines this benchmark runs on are shared, and their speed drifts: a
command can run a third slower for a second or for minutes, and its user
CPU time slows with it.  A fixed pure-Python job in the style of the
program's hot loops (tuple keys, dict memo lookups, small-int arithmetic,
frozenset hashing) is timed in the benchmark process before and after every
measured child, and each sample is scaled to the machine speed at which
the job takes REFERENCE_S.  The job is part of the benchmark, not of
polycell, so a change to the program moves the scaled times and a change of
machine speed mostly does not.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.15


def _job() -> int:
    # small working set: a child's ru_maxrss includes this process's peak
    rows = [[(i * 31 + s) % 181 for s in range(4)] for i in range(181)]
    total = 0
    for rep in range(12):
        memo: dict[tuple[int, int], int] = {}
        for w in range(181):
            row = rows[w]
            for v in range(181):
                key = (v, w + rep)
                x = memo.get(key)
                if x is None:
                    x = memo[key] = row[v & 3] ^ rows[v][w & 3]
                total += x
    seen = set()
    for i in range(15000):
        seen.add(frozenset((i % 97, i % 89, i % 83)))
    return total + len(seen)


def calibrate() -> float:
    """Seconds the fixed job takes now."""
    start = time.perf_counter()
    _job()
    return time.perf_counter() - start
