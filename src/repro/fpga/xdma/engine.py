"""XDMA H2C/C2H DMA engine finite-state machines.

Each engine supports the two operating modes of the real IP:

**SGDMA mode** (used by the reference XDMA driver): the driver places
descriptors in host memory, programs the SGDMA descriptor-pointer
registers, and sets the Run bit.  The engine then *fetches* each
descriptor over PCIe (a non-posted read round trip), executes it, and
finally sets status bits, optionally writes back the completed count,
and raises its channel interrupt.

**Descriptor-bypass mode** (used by the VirtIO controller, per the
paper's Fig. 2: "The VirtIO controller ... controls the DMA engine of
the XDMA IP"): fabric logic feeds descriptors directly through the
bypass port; no host-resident descriptor, no fetch round trip.  Each
submission completes with an event the controller chains on.

Execution timing = descriptor processing cycles + PCIe transfer
(request segmentation, serialization, completion reassembly -- all from
:mod:`repro.pcie`) + AXI-side memory access time.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from repro.faults.plan import KIND_DESC_ERROR, SITE_XDMA_ENGINE
from repro.fpga.xdma.descriptor import DescriptorError, XdmaDescriptor
from repro.fpga.xdma.regs import (
    CTRL_IE_DESC_COMPLETED,
    CTRL_IE_DESC_STOPPED,
    CTRL_POLLMODE_WB_ENABLE,
    CTRL_RUN,
    STAT_BUSY,
    STAT_DESC_COMPLETED,
    STAT_DESC_ERROR,
    STAT_DESC_STOPPED,
)
from repro.sim.component import Component
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.fpga.xdma.core import XdmaCore
    from repro.sim.kernel import Simulator


class Direction(enum.Enum):
    """Transfer direction, named from the host's point of view."""

    H2C = "h2c"  # host to card
    C2H = "c2h"  # card to host


#: Fabric cycles to decode a descriptor and set up the data mover.
#: The byte-serial data path parses the 32-byte descriptor one byte per
#: cycle and reloads the mover's address/length registers, hence the
#: multi-tens-of-cycles setup.
DESC_PROCESS_CYCLES = 40
#: Fabric cycles from final beat to status/writeback emission.
COMPLETION_CYCLES = 4


class DmaEngine(Component):
    """One DMA channel (direction + index) of the XDMA IP."""

    def __init__(
        self,
        sim: "Simulator",
        core: "XdmaCore",
        direction: Direction,
        channel: int,
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(sim, f"{direction.value}{channel}", parent=parent)
        self.core = core
        self.direction = direction
        self.channel = channel
        # Fixed fabric-time costs (the clock never changes after build).
        self._desc_process_time = core.clock.cycles_to_time(DESC_PROCESS_CYCLES)
        self._bypass_event_name = f"{self.path}.bypass"
        self._completion_time = core.clock.cycles_to_time(COMPLETION_CYCLES)
        # Register state (mirrored by the register file hooks).
        self.control = 0
        self.status = STAT_DESC_STOPPED
        self.completed_count = 0
        self.desc_lo = 0
        self.desc_hi = 0
        self.desc_adjacent = 0
        self.poll_wb_lo = 0
        self.poll_wb_hi = 0
        # Bypass mode.
        self._bypass_fifo: Deque[Tuple[XdmaDescriptor, Event]] = deque()
        self._bypass_busy = False
        # Statistics.
        self.descriptors_executed = 0
        self.last_descriptor_length = 0
        #: Optional fabric-side hook invoked when an SGDMA run finishes
        #: (the A1 ablation's "user logic monitoring the engine's status
        #: signals" wires this to a user interrupt).
        self.completion_hook: Optional[callable] = None

    # -- register hooks ---------------------------------------------------------

    @property
    def descriptor_address(self) -> int:
        return (self.desc_hi << 32) | self.desc_lo

    @property
    def poll_wb_address(self) -> int:
        return (self.poll_wb_hi << 32) | self.poll_wb_lo

    @property
    def busy(self) -> bool:
        return bool(self.status & STAT_BUSY)

    def control_write(self, value: int) -> None:
        """Control register write hook (Run bit edge starts SGDMA)."""
        was_running = bool(self.control & CTRL_RUN)
        self.control = value
        now_running = bool(value & CTRL_RUN)
        if now_running and not was_running and not self.busy:
            self.trace("sgdma-start", desc_addr=self.descriptor_address)
            self.spawn(self._run_sgdma(), name="sgdma")

    def status_read(self) -> int:
        return self.status

    def completed_count_read(self) -> int:
        return self.completed_count

    # -- SGDMA mode --------------------------------------------------------------

    def _run_sgdma(self):
        """Process body: fetch-execute descriptor chain until STOP."""
        self.status = STAT_BUSY
        perf = self.core.perf
        perf.start(self._perf_name())
        injector = self.core.injector
        addr = self.descriptor_address
        while True:
            raw = yield self.core.endpoint.dma_read(addr, 32)
            if injector is not None:
                if injector.fire(SITE_XDMA_ENGINE, KIND_DESC_ERROR) is not None:
                    # The fetch returned garbage: zero the control dword
                    # so the magic check fails, as a real bit error would.
                    raw = b"\x00\x00\x00\x00" + raw[4:]
                try:
                    desc = XdmaDescriptor.decode(raw)
                except DescriptorError as err:
                    yield self._completion_time
                    self.status = STAT_DESC_STOPPED | STAT_DESC_ERROR
                    perf.stop(self._perf_name())
                    self.trace("sgdma-desc-error", error=str(err))
                    # PG195 halts the engine with the error status bit
                    # set and raises no completion; the host driver must
                    # notice via its request timeout.
                    return
            else:
                desc = XdmaDescriptor.decode(raw)
            yield from self._execute(desc)
            self.completed_count += 1
            if desc.stop or not (self.control & CTRL_RUN):
                break
            addr = desc.next_addr
        yield self._completion_time
        self.status = STAT_DESC_STOPPED | STAT_DESC_COMPLETED
        perf.stop(self._perf_name())
        if self.control & CTRL_POLLMODE_WB_ENABLE and self.poll_wb_address:
            wb = self.completed_count.to_bytes(4, "little")
            yield self.core.endpoint.dma_write(self.poll_wb_address, wb)
        if self.control & (CTRL_IE_DESC_STOPPED | CTRL_IE_DESC_COMPLETED):
            self.core.raise_channel_irq(self)
        if self.completion_hook is not None:
            self.completion_hook()
        self.trace("sgdma-done", completed=self.completed_count)

    def _perf_name(self) -> str:
        return f"{self.direction.value}{self.channel}_dma"

    # -- descriptor bypass mode ------------------------------------------------------

    def submit_bypass(self, desc: XdmaDescriptor) -> Event:
        """Feed a descriptor through the bypass port.

        Returns an event fired when the data movement for this
        descriptor is complete.  Descriptors execute in submission
        order, one at a time (the engine has a single data mover).
        """
        done = Event(name=self._bypass_event_name)
        self._bypass_fifo.append((desc, done))
        if not self._bypass_busy:
            self._bypass_busy = True
            self.spawn(self._run_bypass(), name="bypass")
        return done

    def _run_bypass(self):
        """Process body: drain the bypass FIFO."""
        while self._bypass_fifo:
            desc, done = self._bypass_fifo.popleft()
            self.status = STAT_BUSY
            yield from self._execute(desc)
            self.status = STAT_DESC_STOPPED | STAT_DESC_COMPLETED
            done.trigger(None)
        self._bypass_busy = False

    # -- shared data mover ----------------------------------------------------------

    def _execute(self, desc: XdmaDescriptor):
        """Move one descriptor's worth of data."""
        yield self._desc_process_time
        if self.direction is Direction.H2C:
            data = yield self.core.endpoint.dma_read(desc.src_addr, desc.length)
            yield self.core.axi_access_time(desc.dst_addr, desc.length)
            self.core.axi_write(desc.dst_addr, data)
        else:
            yield self.core.axi_access_time(desc.src_addr, desc.length)
            # Snapshot the AXI source: the staging slot may be rewritten
            # while the write TLPs are in flight, so the payload views
            # must reference this private copy.
            data = self.core.axi_read(desc.src_addr, desc.length)
            yield self.core.endpoint.dma_write(desc.dst_addr, memoryview(data))
        self.descriptors_executed += 1
        self.last_descriptor_length = desc.length
        if self.tracer.enabled:
            self.trace(
                "desc-executed",
                direction=self.direction.value,
                length=desc.length,
                src=desc.src_addr,
                dst=desc.dst_addr,
            )
