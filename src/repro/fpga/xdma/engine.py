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
the XDMA IP"): fabric logic feeds a descriptor's fields directly
through the bypass port; no host-resident descriptor, no fetch round
trip.  Each submission completes with an event the controller chains
on.

Both modes feed one data mover per engine: a FIFO of transfer jobs
(source, destination, length, completion event) served one at a time
by scheduled callbacks, so a transfer costs no simulation process.  Execution timing = descriptor
processing cycles + PCIe transfer (request segmentation,
serialization, completion reassembly -- all from :mod:`repro.pcie`) +
AXI-side memory access time.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from repro.faults.plan import KIND_DESC_ERROR, SITE_XDMA_ENGINE
from repro.fpga.xdma.descriptor import (
    MAX_DESCRIPTOR_LENGTH,
    DescriptorError,
    XdmaDescriptor,
)
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

#: A data-mover job: source, destination, length, the event fired when
#: the data has moved, and whether it came through the bypass port
#: (which sets the status bits per descriptor; an SGDMA run sets them
#: at its start and stop).
Job = Tuple[int, int, int, Event, bool]


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
        # The data mover: the head job is the one in flight.
        self._jobs: Deque[Job] = deque()
        self._busy = False
        #: The step after descriptor decode: host read, or AXI read.
        self._decoded = self._h2c_read if direction is Direction.H2C else self._c2h_access
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
            # The run is already executing, so the mover starts at once
            # and leaves the status bits to the run.
            yield self._enqueue(desc.src_addr, desc.dst_addr, desc.length, None, False)
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

    def submit_bypass(
        self, src_addr: int, dst_addr: int, length: int, done: Optional[Event] = None
    ) -> Event:
        """Feed one transfer through the bypass port.

        Takes the fields PG195's bypass port takes.  Returns *done* (a
        fresh event when none is given), fired when the data movement is
        complete: an H2C transfer fires it with the bytes it moved, a
        C2H transfer with ``None``.  Transfers execute in submission
        order, one at a time (the engine has a single data mover), and
        each sets BUSY while it runs and STOPPED|COMPLETED when it ends.
        """
        if not 0 < length <= MAX_DESCRIPTOR_LENGTH:
            raise DescriptorError(f"descriptor length {length} out of range")
        return self._enqueue(src_addr, dst_addr, length, done, True)

    # -- the data mover --------------------------------------------------------------

    def _enqueue(
        self, src: int, dst: int, length: int, done: Optional[Event], bypass: bool
    ) -> Event:
        if done is None:
            done = Event()
        self._jobs.append((src, dst, length, done, bypass))
        if not self._busy:
            self._busy = True
            self._start()
        return done

    def _start(self) -> None:
        """Begin the job at the head of the FIFO: decode the descriptor."""
        if self._jobs[0][4]:
            self.status = STAT_BUSY
        # Inlined ``sim.schedule``, as on the other per-transfer paths.
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._push((sim._now + self._desc_process_time, seq, self._decoded, ()))

    def _h2c_read(self) -> None:
        src, _, length, _, _ = self._jobs[0]
        self.core.endpoint.dma_read(src, length).on_trigger(self._h2c_fetched)

    def _h2c_fetched(self, event: Event) -> None:
        _, dst, length, _, _ = self._jobs[0]
        delay = self.core.axi_access_time(dst, length)
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._push((sim._now + delay, seq, self._h2c_land, (event.value,)))

    def _h2c_land(self, data: bytes) -> None:
        self.core.axi_write(self._jobs[0][1], data)
        self._finish(data)

    def _c2h_access(self) -> None:
        src, _, length, _, _ = self._jobs[0]
        delay = self.core.axi_access_time(src, length)
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._push((sim._now + delay, seq, self._c2h_send, ()))

    def _c2h_send(self) -> None:
        src, dst, length, _, _ = self._jobs[0]
        # Snapshot the AXI source: the staging slot may be rewritten
        # while the write TLPs are in flight, so the payload views must
        # reference this private copy.
        data = self.core.axi_read(src, length)
        self.core.endpoint.dma_write(dst, memoryview(data)).on_trigger(self._c2h_sent)

    def _c2h_sent(self, _event: Event) -> None:
        self._finish(None)

    def _finish(self, value: Optional[bytes]) -> None:
        """The head job moved its data: fire its event, start the next."""
        src, dst, length, done, bypass = self._jobs.popleft()
        self.last_descriptor_length = length
        if self.tracer.enabled:
            self.trace("desc-executed", direction=self.direction.value,
                       length=length, src=src, dst=dst)
        if bypass:
            self.status = STAT_DESC_STOPPED | STAT_DESC_COMPLETED
        done.trigger(value)
        if self._jobs:
            self._start()
        else:
            self._busy = False
