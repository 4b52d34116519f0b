"""A fixed reference task that gauges how fast the machine runs right now.

On a shared host the same work can run 20-70% slower for seconds to
minutes, because other tenants contend for the core and its caches.  The
runner times this task between workload calls and scales each call's wall
time by ``REF_S`` over the reference time measured around it, which gives
the call's time at the reference speed.  The task is pure Python and uses
nothing from the library: a breadth-first walk that builds a dict of tuple
keys and a set, the kind of work the library's automaton constructions do,
so a slowdown hits both alike.  A change to the library cannot move it.
"""

from __future__ import annotations

import statistics
import time

NODES = 500
REPEATS = 3

#: The reference task's wall time on a quiet core of the machine the
#: benchmark was built on (Intel Xeon, 2.1 GHz).  Scaled times are stated at
#: this speed; the constant sets only their scale, not how two runs compare.
REF_S = 0.00048


def reference_task() -> int:
    n = NODES
    adj = {i: ((i * 7 + 1) % n, (i * 13 + 5) % n, (i * 31 + 2) % n)
           for i in range(n)}
    seen, todo, hits = {0}, [0], {}
    while todo:
        x = todo.pop()
        for y in adj[x]:
            key = (x, y)
            hits[key] = hits.get(key, 0) + 1
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(hits)


def time_reference() -> float:
    """The median wall time of REPEATS runs of the reference task, in
    seconds; the median drops a run that an interruption lengthened."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
