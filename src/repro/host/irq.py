"""Host interrupt delivery.

MSI-X messages posted by devices land in the root complex, which hands
(address, data) to this controller.  Devices are programmed (by the
modeled drivers) with ``data = vector index``; the controller dispatches
to the registered handler with realistic entry/exit costs, and offers a
softirq deferral facility for the NAPI half of network receive.

Handlers are *generator factories*: each delivery spawns a fresh
process, so a slow handler naturally delays (FIFO-serializes) subsequent
work the way a real CPU servicing back-to-back interrupts does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, Optional

from repro.sim.component import Component
from repro.sim.resource import Mutex

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.kernel import HostKernel
    from repro.sim.kernel import Simulator

HandlerFactory = Callable[[], Generator]


class InterruptController(Component):
    """Vector -> handler dispatch with IRQ path costs."""

    def __init__(self, sim: "Simulator", kernel: "HostKernel",
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, "irqc", parent=parent)
        self.kernel = kernel
        self._handlers: Dict[int, HandlerFactory] = {}
        #: One CPU services interrupts at a time (single-core IRQ path;
        #: the measured host pins the workload while idle otherwise).
        self._cpu = Mutex(sim, name="irq-cpu")
        self._next_vector = 0
        self.delivered = 0
        self.spurious = 0
        #: Handler decorator installed by :class:`repro.guest.Vmm`:
        #: ``wrap(vector, factory) -> factory`` charging injection costs
        #: before the guest handler runs.  Applied at registration time
        #: so dispatch (spawn names, unregister-by-vector) is untouched.
        self.inject_wrap: Optional[Callable[[int, HandlerFactory], HandlerFactory]] = None

    def allocate_vector(self) -> int:
        """Allocate a system-unique interrupt vector (the model's
        analogue of ``pci_irq_vector``): drivers program it as the MSI
        message *data* so multiple devices never collide."""
        vector = self._next_vector
        self._next_vector += 1
        return vector

    def register(self, vector: int, handler: HandlerFactory) -> None:
        if vector in self._handlers:
            raise ValueError(f"vector {vector} already has a handler")
        if self.inject_wrap is not None:
            handler = self.inject_wrap(vector, handler)
        self._handlers[vector] = handler

    def unregister(self, vector: int) -> None:
        self._handlers.pop(vector, None)

    def deliver_msi(self, address: int, data: int) -> None:
        """Root-complex callback: an MSI write arrived."""
        vector = data & 0xFF
        handler = self._handlers.get(vector)
        if handler is None:
            self.spurious += 1
            self.trace("spurious-msi", vector=vector, address=address)
            return
        self.delivered += 1
        self.trace("msi", vector=vector)
        self.spawn(self._dispatch(handler), name=f"irq{vector}")

    def _dispatch(self, handler: HandlerFactory):
        yield self._cpu.acquire()
        try:
            yield self.kernel.cpu("irq_entry")
            yield from handler()
            yield self.kernel.cpu("irq_exit")
        finally:
            self._cpu.release()

    def raise_softirq(self, body: Generator, name: str = "softirq") -> None:
        """Defer *body* to softirq context (NET_RX style): it runs after
        the softirq transition cost, outside the hard-IRQ lock."""
        self.spawn(self._softirq(body), name=name)

    def _softirq(self, body: Generator):
        yield self.kernel.cpu("softirq_schedule")
        yield from body
