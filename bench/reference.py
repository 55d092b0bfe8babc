"""A fixed pure-Python reference loop: how fast this machine is right now.

The harness samples this loop for about 10 ms after every chunk of
simulator work.  A run's machine speed is the 90th percentile of its
samples, and its simulator time is made of each chunk's fastest
repeat; their product is the run's time on a nominal machine, so a run
made while the host was slow (another tenant busy, a lower clock) is
not read as a slower simulator.  The loop body mixes the operations the
simulator's hot paths are made of: method calls, attribute and dict
access, tuple building, list append/pop and integer arithmetic.

Normalised seconds are seconds on a machine that runs
``NOMINAL_RATE`` reference ops per second.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator

#: Reference ops per second of the nominal machine.
NOMINAL_RATE = 1e7

#: Reference ops (one per loop iteration) in one timed batch.
_BATCH = 20_000

#: Seconds of reference loop after each chunk of simulator work.
SAMPLE_S = 0.01


class _Node:
    __slots__ = ("when", "count")

    def __init__(self) -> None:
        self.when = 0
        self.count = 0

    def step(self, delay: int) -> int:
        self.when += delay
        self.count += 1
        return self.when


def _batch(iterations: int) -> int:
    node = _Node()
    table = {}
    queue = []
    acc = 0
    for i in range(iterations):
        when = node.step(i & 7)
        entry = (when, i, node)
        queue.append(entry)
        table[i & 63] = entry
        if len(queue) > 4:
            acc += queue.pop(0)[1]
        acc = (acc + table.get(i & 31, entry)[0]) & 0xFFFFFF
    return acc


def reference_rate(seconds: float = SAMPLE_S) -> float:
    """Reference ops per second, timed over whole batches for *seconds*."""
    done = 0
    started = time.perf_counter()
    while True:
        _batch(_BATCH)
        done += _BATCH
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return done / elapsed


def normalised(wall_s: float, rate: float) -> float:
    """*wall_s* seconds at *rate* ref ops/s, as seconds on the nominal machine."""
    return wall_s * rate / NOMINAL_RATE


@contextmanager
def on_fastest_cpu() -> Iterator[None]:
    """Run the block pinned to the allowed CPU where the loop runs fastest now.

    On a shared host one vCPU is often slowed for seconds at a time by
    work on its hardware sibling; a pass (or a process started inside the
    block, which inherits the pinning) on the quieter one measures the
    code, not the neighbour.  Without CPU affinity support it does nothing.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    rates = {}
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        rates[cpu] = reference_rate()
    os.sched_setaffinity(0, {max(rates, key=rates.__getitem__)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
