"""Host speed, measured next to every timed call.

The benchmark runs on shared hosts whose speed drifts with the load of
other tenants: on a shared 2-CPU VM the same ``repro.clean()`` call
takes anywhere from 1.3 to 2.2 s within a few minutes, and the median of
a 20-second run moves by a quarter from one run to the next, while
the process's CPU time tracks its wall time to within a few percent.
Such a drift hits every piece of Python code alike, so the benchmark
times a fixed pure-Python kernel (string building, tuple hashing, dict
updates and sorts: the interpreter work a clean call is made of) right
before and right after every timed call and set-up, and rescales each
time to a host on which the kernel takes :data:`NOMINAL_S`:

    normalised seconds = measured seconds × NOMINAL_S / kernel seconds

with the mean of the two kernel runs; a run reports the median over its
calls.  The kernel is the benchmark's own code and imports nothing of
the program, so a change to the program cannot move it; it runs with
the collector off, so the program's heap cannot move it either.
"""

from __future__ import annotations

import gc
import time
from operator import itemgetter
from typing import List, Sequence

#: Rounds of the kernel's loop.
KERNEL_ROUNDS = 6_000

#: About the kernel's time on the shared 2-CPU VM (Intel Xeon, Python
#: 3.11) the benchmark was tuned on, when that VM is quiet, so that
#: normalised seconds read close to measured ones there.  It only sets
#: their scale; any fixed value would do.
NOMINAL_S = 0.07

_WORDS = ("select", "from", "where", "and", "objid", "ra", "dec", "photoobj")


def _kernel(rounds: int) -> int:
    counts = {}
    for i in range(rounds):
        text = " ".join(_WORDS[(i + k) % 8] for k in range(6)) + str(i % 977)
        key = tuple(text.split())
        counts[key] = counts.get(key, 0) + len(text)
        if i % 50 == 0:
            sorted(counts.items(), key=itemgetter(1))[:10]
    return len(counts)


def kernel_seconds(rounds: int = KERNEL_ROUNDS) -> float:
    """Wall seconds of one kernel run, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel(rounds)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def normalised(seconds: Sequence[float], kernels: Sequence[float]) -> List[float]:
    """Each of ``seconds`` rescaled by the kernel run paired with it."""
    if len(seconds) != len(kernels):
        raise ValueError("need one kernel time per measured time")
    return [s * NOMINAL_S / k for s, k in zip(seconds, kernels)]
