"""Host-speed references for the timed metrics.

The cores this benchmark was written on are shared, and their speed
drifts: each switches every few seconds between a fast state and one
1.6-2x slower, and over minutes the share of slow time moves too.  Raw
wall times of one run therefore depend on when it ran.  Two fixed kernels
that do not touch fockladder are timed right before and right after each
op, on the same core, and the op's time is scaled by
``REFERENCE_S[kind] / mean(kernel before, kernel after)``: it is reported
at the speed the core had when that kernel took ``REFERENCE_S[kind]``.

The host does not slow everything alike, so there are two kernels:

- ``interpreter``: calls of small closures, ``math.sqrt``, dict traffic
  and indexing into a small numpy array, all in cache.  It tracks the
  bulk of the in-process ops.
- ``memory``: maps fresh anonymous memory, writes all of it and unmaps
  it, so it pays page faults and memory bandwidth.  It tracks process
  start and import (every ``cli-cold`` op) and the large dense products.

``host`` scales an op by the geometric mean of the two kernels'
factors.  run.py reports each timed metric at ``host`` or ``memory``
speed (``METRIC_TIME``, README.md "Host speed") and keeps every version.
"""

from __future__ import annotations

import math
import mmap
import time

import numpy as np

KINDS = ("interpreter", "memory")
# every op time is kept in each of these versions
TIMES = ("raw",) + KINDS + ("host",)
# kernel times in the fast state of the 2-core machine the benchmark was
# written on
REFERENCE_S = {"interpreter": 0.0005, "memory": 0.0015}
# small enough that a worker's peak RSS grows by at most this much
MEMORY_BYTES = 2 << 20


def _interpreter_kernel() -> float:
    fns = [(lambda n, a=a: math.sqrt(n + a)) for a in range(8)]
    acc = 0.0
    arr = np.zeros(64, dtype=complex)
    for n in range(300):
        for f in fns:
            acc += f(n)
        arr[n % 64] += acc
        d = {n: acc}
        acc -= d[n] * 1e-9
    return acc + float(np.vdot(arr, arr).real)


def _memory_kernel() -> None:
    buf = mmap.mmap(-1, MEMORY_BYTES)
    view = np.frombuffer(buf, dtype=np.uint8)
    view.fill(1)
    del view
    buf.close()


def sample() -> dict[str, float]:
    """Wall time of one run of each kernel.  The interpreter kernel runs
    once untimed first, to warm the caches the previous op may have
    evicted; the memory kernel works on fresh pages each time."""
    _interpreter_kernel()
    start = time.perf_counter()
    _interpreter_kernel()
    middle = time.perf_counter()
    _memory_kernel()
    return {"interpreter": middle - start, "memory": time.perf_counter() - middle}


def scaled(duration: float, before: dict, after: dict) -> dict[str, float]:
    """An op's wall time, raw, at each kernel's reference speed and at
    the host's (their geometric mean), from the kernel samples taken just
    before and just after it."""
    times = {"raw": duration}
    for kind in KINDS:
        times[kind] = duration * REFERENCE_S[kind] / ((before[kind] + after[kind]) / 2.0)
    times["host"] = math.sqrt(times["interpreter"] * times["memory"])
    return times
