"""Driver-bypass host-memory interface for user logic.

Section III-A: "To enable application offloading to be done
independently of the VirtIO drivers, we have (here) implemented an
additional interface on the VirtIO controller that allows the user
logic to request data transfers to/from host memory bypassing the
VirtIO driver."

:class:`HostBypassPort` gives user logic read/write access to arbitrary
host physical addresses through the same XDMA engines the virtqueue
machinery uses; transfers arbitrate FIFO with ring traffic at the
engines' bypass FIFOs.  The SmartNIC example uses this to fetch offload
rule tables and spill flow state to host memory without any virtqueue
involvement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.component import Component
from repro.sim.event import Event
from repro.virtio.controller.dma_port import ControllerDmaPort

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class HostBypassPort(Component):
    """User-logic-facing host DMA interface."""

    def __init__(
        self,
        sim: "Simulator",
        dma_port: ControllerDmaPort,
        name: str = "bypass",
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(sim, name, parent=parent)
        self.dma_port = dma_port
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def read(self, host_addr: int, length: int) -> Event:
        """Read host memory; the event fires with the bytes."""
        self.reads += 1
        self.bytes_read += length
        self.trace("bypass-read", addr=host_addr, length=length)
        return self.dma_port.host_read(host_addr, length)

    def write(self, host_addr: int, data: bytes) -> Event:
        """Write host memory; the event fires at TLP delivery."""
        self.writes += 1
        self.bytes_written += len(data)
        self.trace("bypass-write", addr=host_addr, length=len(data))
        return self.dma_port.host_write(host_addr, data)

    @property
    def stats(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }
