"""Blocking synchronization resources built on events.

These model shared units:

:class:`Resource`
    Counting semaphore; models units with limited concurrency (a DMA
    engine channel, the PCIe link arbiter).
:class:`Mutex`
    A ``Resource`` with one slot.

All wake-ups are FIFO-ordered, which keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Resource:
    """Counting semaphore with FIFO grant order."""

    def __init__(self, sim: "Simulator", slots: int = 1, name: str = "") -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        self.sim = sim
        self.slots = slots
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Request a slot; the event fires when granted."""
        granted = Event(name=f"{self.name}.acquire")
        if self._in_use < self.slots:
            self._in_use += 1
            self.sim.schedule(0, granted.trigger, None)
        else:
            self._waiters.append(granted)
        return granted

    def release(self) -> None:
        """Return a slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Slot passes directly to the next waiter; _in_use unchanged.
            waiter = self._waiters.popleft()
            self.sim.schedule(0, waiter.trigger, None)
        else:
            self._in_use -= 1

    def __repr__(self) -> str:
        return f"<Resource {self.name!r} {self._in_use}/{self.slots} waiters={len(self._waiters)}>"


class Mutex(Resource):
    """A single-slot resource."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        super().__init__(sim, slots=1, name=name)
