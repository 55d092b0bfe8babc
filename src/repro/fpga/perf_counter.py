"""Hardware performance counters.

Section III-B3: "The PCIe IP and the VirtIO controller both include
hardware performance counters to measure latency between different
events on the FPGA. The FPGA designs used for testing are running at
125MHz. Therefore, the hardware performance counters provide a
resolution of 8ns."

A :class:`PerfCounterBank` provides named interval counters clocked at
the fabric frequency: ``start(name)`` latches the current cycle,
``stop(name)`` records the elapsed *whole cycles* (so measured durations
are multiples of 8 ns, exactly like the hardware).  The experiment layer
drains recorded intervals per packet to build the Fig. 4/5 hardware
component.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.sim.component import Component
from repro.sim.time import FPGA_FABRIC_CLOCK, Frequency, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class CounterError(RuntimeError):
    """Protocol misuse (stop without start, nested start)."""


class PerfCounterBank(Component):
    """A bank of named start/stop interval counters.

    Measured intervals are quantized to whole fabric-clock cycles at
    *stop* time -- the counter increments on clock edges, so a duration
    straddling N edges reads N cycles.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str = "perf",
        parent: Optional[Component] = None,
        clock: Frequency = FPGA_FABRIC_CLOCK,
    ) -> None:
        super().__init__(sim, name, parent=parent)
        self.clock = clock
        self._open: Dict[str, SimTime] = {}
        self._intervals: Dict[str, List[SimTime]] = {}

    def start(self, counter: str) -> None:
        """Latch the start edge for *counter*."""
        if counter in self._open:
            raise CounterError(f"counter {counter!r} started twice without stop")
        self._open[counter] = self.sim.now

    def stop(self, counter: str) -> SimTime:
        """Record and return the elapsed interval, cycle-quantized (ps)."""
        started = self._open.pop(counter, None)
        if started is None:
            raise CounterError(f"counter {counter!r} stopped without start")
        cycles = self.clock.time_to_cycles(self.sim.now - started)
        interval = self.clock.cycles_to_time(cycles)
        self._intervals.setdefault(counter, []).append(interval)
        self.trace("perf-interval", counter=counter, cycles=cycles)
        return interval

    def is_running(self, counter: str) -> bool:
        return counter in self._open

    def intervals_array(self, counter: str) -> np.ndarray:
        """Recorded intervals as an int64 array (vectorized statistics)."""
        return np.asarray(self._intervals.get(counter, []), dtype=np.int64)

    def last(self, counter: str) -> SimTime:
        """Most recent interval for *counter*."""
        values = self._intervals.get(counter)
        if not values:
            raise CounterError(f"counter {counter!r} has no recorded intervals")
        return values[-1]

    def clear(self) -> None:
        """Drop recorded intervals (open intervals keep running)."""
        self._intervals.clear()
