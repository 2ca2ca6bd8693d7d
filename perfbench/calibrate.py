"""Host-speed reference for the end-to-end times.

The benchmark host is a shared virtual machine whose speed drifts by up
to about +/-25% over tens of seconds, in CPU time as much as in wall time,
which is wider than any useful regression bound.  A fixed reference
kernel, made of the same kinds of work as the program (attribute access
over a pool of frozen records, scalar ``math`` calls, three-element and
65-element numpy arrays, float ``repr``, JSON and CSV text) but calling
nothing in ``hetcycle``, is timed between ops.  Its
median time over a run, against ``KERNEL_REF_MS``, gives the host-speed
factor by which the run's times are scaled: the reported times are what
the run would have taken at the reference speed.  A change to the program
cannot move the kernel, so the factor cancels host drift only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Median kernel time on the host where the benchmark was defined; it
#: only fixes the scale of the reported times.
KERNEL_REF_MS = 1.8

#: Time the kernel again after this much op time (keeps its cost ~7%).
INTERVAL_NS = 20_000_000


@dataclass(frozen=True)
class _Record:
    a: float
    b: float
    c: float
    d: float


_rng = random.Random(7)
#: A pool larger than the caches of one op, walked with a wide stride,
#: so the kernel feels cache contention from other tenants as the
#: program does.
_POOL = tuple(_Record(_rng.random(), _rng.random(), _rng.random(),
                      _rng.random()) for _ in range(4000))
_ROWS = [{"t": i * 0.1, "x": [math.sin(i), math.cos(i), i * 1e-3],
          "name": f"row{i}"} for i in range(40)]


class Kernel:
    """The reference computation; each call continues the pool walk."""

    def __init__(self):
        self.pos = 0

    def __call__(self) -> int:
        s = 0.0
        i = self.pos
        for _ in range(120):
            p = _POOL[i]
            i = (i + 997) % len(_POOL)
            s += math.sqrt(abs(p.a * p.a - 4.0 * p.b * p.c))
            s += math.atan2(p.d, p.a + 1.0)
            v = np.array([p.a, p.b, p.c])
            s += float(v @ v)
        self.pos = i
        rows = []
        for j in range(60):
            x = j * 0.01
            v = np.array([math.cos(x), math.sin(x), math.exp(-x)])
            s += float(np.linalg.norm(v))
            rows.append(repr(s))
        ts = np.linspace(0.0, 1.0, 65)
        xs = np.column_stack([np.sin(ts), np.cos(ts), ts])
        gaps = np.linalg.norm(np.diff(xs, axis=0), axis=1)
        ts = np.sort(np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:])[gaps > 0.01]]))
        back = json.loads(json.dumps(_ROWS, indent=2))
        buf = io.StringIO()
        writer = csv.writer(buf)
        for r in back[:20]:
            writer.writerow([repr(r["t"])] + [repr(v) for v in r["x"]]
                            + [r["name"]])
        return len(rows) + len(ts) + len(buf.getvalue())


def time_kernel(kernel: Kernel) -> int:
    """One timed kernel run, in ns."""
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


def speed_factor(samples_ns) -> float:
    """Host-speed factor: > 1 when the host ran slower than the reference
    (divide times by it, multiply rates by it)."""
    return statistics.median(samples_ns) / 1e6 / KERNEL_REF_MS
