"""Discrete-event simulation kernel.

Public surface:

* :class:`Simulator` -- the event loop (integer-picosecond time).
* :class:`Event`, :class:`Timeout`, :class:`AnyOf` -- synchronization
  primitives.
* :class:`Process` -- generator-based coroutine processes.
* :class:`Resource`, :class:`Mutex` -- semaphores with deterministic
  FIFO wake-up.
* :class:`Component` -- named hierarchy base class for model blocks.
* :class:`LatencyModel` -- nominal + lognormal body + Pareto tail latency
  distributions.
* :mod:`repro.sim.time` helpers (``ns``, ``us``, ``Frequency`` ...).
"""

from repro.sim.component import Component
from repro.sim.event import AnyOf, Event, EventError, Timeout
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import Process, ProcessError
from repro.sim.random import LatencyModel
from repro.sim.resource import Mutex, Resource
from repro.sim.time import (
    FPGA_FABRIC_CLOCK,
    HOST_TIMER_RESOLUTION,
    HW_COUNTER_RESOLUTION,
    Frequency,
    SimTime,
    ms,
    ns,
    ps,
    seconds,
    to_ms,
    to_ns,
    to_seconds,
    to_us,
    us,
)
from repro.sim.trace import NULL_TRACER, TraceRecord, Tracer

__all__ = [
    "AnyOf",
    "Component",
    "Event",
    "EventError",
    "FPGA_FABRIC_CLOCK",
    "Frequency",
    "HOST_TIMER_RESOLUTION",
    "HW_COUNTER_RESOLUTION",
    "LatencyModel",
    "Mutex",
    "NULL_TRACER",
    "Process",
    "ProcessError",
    "Resource",
    "SimTime",
    "SimulationError",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "ms",
    "ns",
    "ps",
    "seconds",
    "to_ms",
    "to_ns",
    "to_seconds",
    "to_us",
    "us",
]
