"""The VirtIO controller's host-memory access port.

Fig. 2 of the paper: "The VirtIO controller implements the virtqueue
functionality and controls the DMA engine of the XDMA IP."  All of the
controller's host-memory traffic -- ring index reads, descriptor
fetches, payload movement, used-ring writes -- goes through the XDMA
engines' **descriptor-bypass** ports, staged through on-chip BRAM:

* ``host_read``: an H2C bypass transfer lands host bytes in a BRAM
  staging slot; the engine's event fires with the bytes.
* ``host_write``: data is staged in BRAM and a C2H bypass transfer
  pushes it to host memory; the event fires when the last write TLP is
  delivered (so a subsequent interrupt is correctly ordered behind it).

Both engines execute their bypass FIFOs in submission order, which is
what serializes concurrent controller FSMs onto the single data mover
per direction -- the same arbitration the RTL design needs.  A write
slot stays owned until its transfer completes: a write whose slot is
still owned is staged, and submitted, only when that transfer
completes, so a deep write pipeline never overwrites bytes the engine
has not sent yet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.fpga.xdma.core import XdmaCore
from repro.mem.fpga_mem import Bram
from repro.sim.component import Component
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Staging slots per direction.  Reads need no more: an H2C transfer
#: hands its bytes over the moment they land in the slot.  A write's
#: slot is owned until its transfer completes, so with more writes
#: queued than slots a write waits for its slot.
NUM_STAGING_SLOTS = 8
#: Size of one staging slot -- must hold an MTU frame + virtio headers.
STAGING_SLOT_SIZE = 2048


class ControllerDmaPort(Component):
    """Staged host-memory access through the XDMA bypass ports."""

    def __init__(
        self,
        sim: "Simulator",
        xdma: XdmaCore,
        bram: Bram,
        staging_base: int,
        name: str = "dma-port",
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(sim, name, parent=parent)
        self.xdma = xdma
        self.bram = bram
        self.staging_base = staging_base
        needed = 2 * NUM_STAGING_SLOTS * STAGING_SLOT_SIZE
        if staging_base + needed > bram.size:
            raise ValueError(
                f"staging area [{staging_base:#x}, +{needed:#x}) exceeds BRAM of {bram.size:#x}"
            )
        self._h2c = xdma.h2c[0]
        self._c2h = xdma.c2h[0]
        self._read_slot = 0
        self._write_slot = 0
        self._write_base = staging_base + NUM_STAGING_SLOTS * STAGING_SLOT_SIZE
        #: The completion event of the write that owns each C2H slot.
        self._write_owners: List[Optional[Event]] = [None] * NUM_STAGING_SLOTS
        self.reads_issued = 0
        self.writes_issued = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Shared-bandwidth arbiter for SR-IOV functions (None on
        #: single-function devices -- the default path is untouched).
        self.arbiter = None
        self._arbiter_port = -1

    def attach_arbiter(self, arbiter, weight: int = 1) -> None:
        """Route this port's transfers through a shared
        :class:`~repro.virtio.controller.arbiter.DmaBandwidthArbiter`
        (one per physical SR-IOV device)."""
        if self.arbiter is not None:
            raise RuntimeError(f"{self.path}: arbiter already attached")
        self.arbiter = arbiter
        self._arbiter_port = arbiter.register(weight)

    def _read_slot_addr(self) -> int:
        addr = self.staging_base + self._read_slot * STAGING_SLOT_SIZE
        self._read_slot = (self._read_slot + 1) % NUM_STAGING_SLOTS
        return addr

    def host_read(self, addr: int, length: int) -> Event:
        """Read *length* bytes of host memory; fires with the bytes."""
        if length <= 0 or length > STAGING_SLOT_SIZE:
            raise ValueError(f"host_read length {length} outside (0, {STAGING_SLOT_SIZE}]")
        slot = self._read_slot_addr()
        self.reads_issued += 1
        self.bytes_read += length
        if self.arbiter is None:
            done = self._h2c.submit_bypass(addr, slot, length)
        else:
            done = self.arbiter.submit(
                self._arbiter_port, self._h2c.submit_bypass, addr, slot, length
            )
        if self.tracer.enabled:
            self.trace("host-read", addr=addr, length=length)
        return done

    def host_write(self, addr: int, data: bytes) -> Event:
        """Write *data* to host memory; fires at TLP delivery."""
        if not data or len(data) > STAGING_SLOT_SIZE:
            raise ValueError(f"host_write length {len(data)} outside (0, {STAGING_SLOT_SIZE}]")
        index = self._write_slot
        self._write_slot = (index + 1) % NUM_STAGING_SLOTS
        slot = self._write_base + index * STAGING_SLOT_SIZE
        self.writes_issued += 1
        self.bytes_written += len(data)
        if self.tracer.enabled:
            self.trace("host-write", addr=addr, length=len(data))
        owner = self._write_owners[index]
        if owner is None or owner.triggered:
            done = self._send(slot, addr, data)
        else:
            # The slot still holds the bytes of a write the engine has
            # not sent: stage this one once that write completes.
            done = Event() if self.arbiter is None else self.arbiter.completion()
            owner.on_trigger(lambda _owner: self._send(slot, addr, data, done))
        self._write_owners[index] = done
        return done

    def _send(self, slot: int, addr: int, data: bytes, done: Optional[Event] = None) -> Event:
        """Stage *data* in *slot* and submit its C2H transfer."""
        self.bram.write(slot, data)
        if self.arbiter is None:
            return self._c2h.submit_bypass(slot, addr, len(data), done)
        return self.arbiter.submit(
            self._arbiter_port, self._c2h.submit_bypass, slot, addr, len(data), done
        )

    @property
    def stats(self) -> dict:
        return {
            "reads_issued": self.reads_issued,
            "writes_issued": self.writes_issued,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }
