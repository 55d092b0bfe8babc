"""Overload protection and end-to-end conservation accounting.

This package bounds the queueing hops of both driver paths and
provides the run-level bookkeeping that proves no packet is ever
silently lost:

* :mod:`repro.health.bounded` -- the bounded-queue primitive (socket
  receive backlog, the open-loop XDMA job queue), which tail-drops and
  counts under a named reason, plus :func:`apply_overload_bounds`,
  which walks a booted testbed and installs the configured bound at
  each hop;
* :mod:`repro.health.monitor` -- :class:`ConservationMonitor`, a
  per-run ledger asserting that every admitted packet is exactly-once
  accounted as delivered or dropped-with-reason, frozen into a
  :class:`HealthReport` next to the fault subsystem's
  ``ReliabilityReport``;
* :mod:`repro.health.experiments` -- E-O1 (graceful-degradation curve)
  and E-S1 (overload + fault soak), deliberately *not* imported here:
  it sits above :mod:`repro.exec`, which this package must stay below.
"""

from repro.health.bounded import BoundedQueue, apply_overload_bounds
from repro.health.monitor import ConservationMonitor, HealthReport

__all__ = [
    "BoundedQueue",
    "apply_overload_bounds",
    "ConservationMonitor",
    "HealthReport",
]
