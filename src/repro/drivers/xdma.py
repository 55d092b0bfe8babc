"""XDMA character-device reference driver.

Models Xilinx's ``dma_ip_drivers`` XDMA driver (the paper's legacy
baseline, reference [12]) at the granularity the measurements see:

* per-transfer work: pin the user buffer, build a scatter-gather
  descriptor in host memory, program the SGDMA descriptor-pointer
  registers and the channel control register via MMIO
  (Section IV-A: the driver "configures the DMA engine and initiates
  the DMA transfer" on every ``read()``/``write()``),
* block the caller until the channel's completion interrupt, whose
  handler must issue an MMIO *read* of the engine status to identify
  and acknowledge the source -- a full non-posted round trip inside the
  interrupt path,
* expose the whole thing as a character device (``/dev/xdma0_h2c_0`` /
  ``_c2h_0`` semantics folded into one device for the echo-style test).

The paper's test sequence (Section IV-C) does ``write()`` then
``read()`` back-to-back with no device-originated "data ready"
interrupt between them -- the setup favourable to XDMA.  The
"real use case" variant with a user interrupt + ``poll()`` before the
read is available via :meth:`enable_c2h_notification` (ablation A1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.fpga.xdma import regs
from repro.fpga.xdma.descriptor import XdmaDescriptor
from repro.host.chardev import CharDevice
from repro.host.kernel import HostKernel
from repro.mem.dma import DmaBuffer
from repro.pcie.msi import MSI_ADDRESS_BASE, MSIX_ENTRY_SIZE
from repro.sim.event import AnyOf, Event
from repro.sim.time import ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.pcie.enumeration import DiscoveredFunction

#: MSI-X vectors: channel IRQ indices are H2C channels first, then C2H.
H2C_VECTOR = 0
C2H_VECTOR = 1
USER_VECTOR = 2

#: AXI address the example design's BRAM occupies (data target).
CARD_ADDRESS = 0x0

#: Largest single transfer the driver's bounce/pin window supports.
MAX_TRANSFER = 1 << 20


class XdmaProbeError(RuntimeError):
    """Unexpected identifier registers or missing BARs."""


class XdmaTransferError(RuntimeError):
    """A transfer could not be completed within the retry budget."""


class XdmaBusyError(RuntimeError):
    """Reject-to-caller: the driver's pending-request window is full.

    The chardev analogue of ``-EBUSY`` from a bounded submission queue:
    raised *before* any engine state is touched, so the caller can
    count the rejection and retry or drop under its own policy."""


class XdmaCharDriver(CharDevice):
    """Bound driver for one XDMA function."""

    def __init__(
        self,
        kernel: HostKernel,
        function: "DiscoveredFunction",
        name: str = "xdma0",
    ) -> None:
        super().__init__(name)
        self.kernel = kernel
        self.function = function
        self.reg_base = 0
        self.msix_table_addr = 0
        self.msix_cap_offset = 0
        self._h2c_desc: Optional[DmaBuffer] = None
        self._c2h_desc: Optional[DmaBuffer] = None
        self._h2c_data: Optional[DmaBuffer] = None
        self._c2h_data: Optional[DmaBuffer] = None
        self._h2c_done: Optional[Event] = None
        self._c2h_done: Optional[Event] = None
        # Completion-event names are fixed per channel; building the
        # f-string once avoids per-transfer formatting on the hot path.
        self._done_event_names = {
            "_h2c_done": f"{name}._h2c_done",
            "_c2h_done": f"{name}._c2h_done",
        }
        self._readable = Event(name=f"{name}.readable")
        self._c2h_notify = False
        self.h2c_vector = -1
        self.c2h_vector = -1
        self.user_vector = -1
        # Per-channel transfer locks: the real driver serializes access
        # to each engine (one transfer owns a channel at a time).
        from repro.sim.resource import Mutex

        self._h2c_lock = Mutex(kernel.sim, name=f"{name}.h2c-lock")
        self._c2h_lock = Mutex(kernel.sim, name=f"{name}.c2h-lock")
        self.interrupts = 0
        # Bounded submission window (overload layer): with ``max_pending``
        # set, requests beyond the window are rejected to the caller with
        # :class:`XdmaBusyError` instead of queueing on the channel locks
        # without bound.  None keeps the historical unbounded behaviour.
        self.max_pending: Optional[int] = None
        self.pending = 0
        self.busy_rejects = 0
        # Fault tolerance.  ``injector`` is attached by repro.faults
        # (None in normal runs); when set, transfers wait with a request
        # timeout and retry with bounded exponential backoff -- the
        # chardev analogue of xdma_xfer_submit()'s timeout handling.
        self.injector = None
        self.request_timeout_ns = 2_000_000.0
        self.max_retries = 5
        self.backoff_ns = 200_000.0
        self.fault_timeouts = 0
        self.fault_retries = 0
        self.lost_irq_recoveries = 0
        self.requests_failed = 0
        self.recovery_latencies_ps: list = []

    # -- probe --------------------------------------------------------------------------

    def probe(self) -> Generator[Any, Any, None]:
        """Verify identifiers, set up MSI-X, enable channel interrupts."""
        kernel = self.kernel
        bars = self.function.bars
        if 1 not in bars or 2 not in bars:
            raise XdmaProbeError("XDMA function missing register or MSI-X BAR")
        self.reg_base = bars[1].address

        # Identifier sanity checks, as the real probe does.
        for offset in (
            regs.H2C_CHANNEL_BASE + regs.CHAN_IDENTIFIER,
            regs.C2H_CHANNEL_BASE + regs.CHAN_IDENTIFIER,
            regs.IRQ_BLOCK_BASE + regs.IRQ_IDENTIFIER,
        ):
            raw = yield from kernel.mmio_read(self.reg_base + offset, 4)
            ident = int.from_bytes(raw, "little")
            if ident & 0xFFF0_0000 != regs.IDENTIFIER_MAGIC:
                raise XdmaProbeError(f"bad identifier {ident:#x} at {offset:#x}")

        # MSI-X: find the capability, program one entry per channel.
        # Entry indices (H2C/C2H/USER) are device-local; the message
        # data carries host-allocated, system-unique vectors.
        from repro.pcie.config_space import CAP_ID_MSIX  # local to avoid cycle

        port = self.function.port
        for cap in self.function.capabilities:
            if cap.cap_id == CAP_ID_MSIX:
                self.msix_cap_offset = cap.offset
                raw = bytearray()
                for chunk in range(0, 12, 4):
                    raw += yield port.cfg_read(cap.offset + chunk, 4)
                table = int.from_bytes(raw[4:8], "little")
                self.msix_table_addr = bars[table & 0x7].address + (table & ~0x7)
        if not self.msix_table_addr:
            raise XdmaProbeError("XDMA function lacks MSI-X")
        self.h2c_vector = kernel.irqc.allocate_vector()
        self.c2h_vector = kernel.irqc.allocate_vector()
        self.user_vector = kernel.irqc.allocate_vector()
        entries = (
            (H2C_VECTOR, self.h2c_vector),
            (C2H_VECTOR, self.c2h_vector),
            (USER_VECTOR, self.user_vector),
        )
        for entry, vector in entries:
            base = self.msix_table_addr + entry * MSIX_ENTRY_SIZE
            yield kernel.mmio_write(base, MSI_ADDRESS_BASE.to_bytes(8, "little"))
            yield kernel.mmio_write(base + 8, vector.to_bytes(4, "little"))
            yield kernel.mmio_write(base + 12, (0).to_bytes(4, "little"))
        ctrl_raw = yield port.cfg_read(self.msix_cap_offset + 2, 2)
        ctrl = int.from_bytes(ctrl_raw, "little") | 0x8000
        yield port.cfg_write(self.msix_cap_offset + 2, ctrl.to_bytes(2, "little"))

        # Enable channel interrupts in the IRQ block (both channels),
        # and the first user interrupt line (for the A1 ablation).
        yield kernel.mmio_write(
            self.reg_base + regs.IRQ_BLOCK_BASE + regs.IRQ_CHANNEL_INT_ENABLE,
            (0x3).to_bytes(4, "little"),
        )
        yield kernel.mmio_write(
            self.reg_base + regs.IRQ_BLOCK_BASE + regs.IRQ_USER_INT_ENABLE,
            (0x1).to_bytes(4, "little"),
        )
        # Vector mapping: user irq line 0 -> USER_VECTOR.
        yield kernel.mmio_write(
            self.reg_base + regs.IRQ_BLOCK_BASE + regs.IRQ_USER_VECTOR_BASE,
            USER_VECTOR.to_bytes(4, "little"),
        )

        kernel.irqc.register(self.h2c_vector, self._h2c_interrupt)
        kernel.irqc.register(self.c2h_vector, self._c2h_interrupt)
        kernel.irqc.register(self.user_vector, self._user_interrupt)

        # DMA-coherent descriptor buffers and bounce windows.
        self._h2c_desc = kernel.alloc_dma(32)
        self._c2h_desc = kernel.alloc_dma(32)
        self._h2c_data = kernel.alloc_dma(MAX_TRANSFER, alignment=4096)
        self._c2h_data = kernel.alloc_dma(MAX_TRANSFER, alignment=4096)

    def enable_c2h_notification(self, enabled: bool = True) -> None:
        """A1 ablation: the FPGA raises a user interrupt when response
        data is ready; applications ``poll()`` before ``read()``."""
        self._c2h_notify = enabled

    # -- interrupt handlers ---------------------------------------------------------------------

    def _channel_isr(self, channel_base: int, done_attr: str) -> Generator[Any, Any, None]:
        """Shared ISR body: read engine status (non-posted MMIO round
        trip), then complete the waiting transfer."""
        self.interrupts += 1
        yield self.kernel.cpu("driver_irq_ack")
        # Identify/acknowledge the source and collect progress: status
        # and completed-descriptor count -- two non-posted round trips
        # inside the hard-IRQ path, as engine_service() performs.
        status_addr = self.reg_base + channel_base + regs.CHAN_STATUS
        yield from self.kernel.mmio_read(status_addr, 4)
        count_addr = self.reg_base + channel_base + regs.CHAN_COMPLETED_DESC_COUNT
        yield from self.kernel.mmio_read(count_addr, 4)
        done: Optional[Event] = getattr(self, done_attr)
        if done is not None and not done.triggered:
            setattr(self, done_attr, None)
            done.trigger(None)

    def _h2c_interrupt(self) -> Generator[Any, Any, None]:
        yield from self._channel_isr(regs.H2C_CHANNEL_BASE, "_h2c_done")

    def _c2h_interrupt(self) -> Generator[Any, Any, None]:
        yield from self._channel_isr(regs.C2H_CHANNEL_BASE, "_c2h_done")

    def _user_interrupt(self) -> Generator[Any, Any, None]:
        """Data-ready notification from user logic (A1 ablation)."""
        self.interrupts += 1
        yield self.kernel.cpu("driver_irq_ack")
        if not self._readable.triggered:
            self._readable.trigger(None)

    # -- transfer launch ---------------------------------------------------------------------------

    def _launch(
        self,
        channel_base: int,
        sgdma_base: int,
        descriptor_buf: DmaBuffer,
        descriptor: XdmaDescriptor,
        done_attr: str,
    ) -> Generator[Any, Any, None]:
        """Program and start one engine, then sleep until its IRQ."""
        kernel = self.kernel
        # Build the descriptor (bounce-buffer setup + descriptor fill).
        yield kernel.cpu("driver_descriptor_build")
        descriptor_buf.write(descriptor.encode())
        if self.injector is not None:
            yield from self._launch_with_recovery(
                channel_base, sgdma_base, descriptor_buf, done_attr
            )
            return
        done = Event(name=self._done_event_names[done_attr])
        setattr(self, done_attr, done)
        # Program the SGDMA pointer and start the engine: three posted
        # MMIO writes per transfer (versus VirtIO's single doorbell).
        base = self.reg_base + sgdma_base
        yield kernel.mmio_write(
            base + regs.SGDMA_DESC_LO, (descriptor_buf.addr & 0xFFFF_FFFF).to_bytes(4, "little")
        )
        yield kernel.mmio_write(
            base + regs.SGDMA_DESC_HI, (descriptor_buf.addr >> 32).to_bytes(4, "little")
        )
        control = regs.CTRL_RUN | regs.CTRL_IE_DESC_STOPPED | regs.CTRL_IE_DESC_COMPLETED
        yield kernel.mmio_write(
            self.reg_base + channel_base + regs.CHAN_CONTROL, control.to_bytes(4, "little")
        )
        # Sleep until the completion interrupt wakes us.
        yield from kernel.block_on(done)
        # Clear the run bit so the next transfer sees an idle engine.
        yield kernel.mmio_write(
            self.reg_base + channel_base + regs.CHAN_CONTROL, (0).to_bytes(4, "little")
        )

    def _launch_with_recovery(
        self,
        channel_base: int,
        sgdma_base: int,
        descriptor_buf: DmaBuffer,
        done_attr: str,
    ) -> Generator[Any, Any, None]:
        """Fault-tolerant launch: bounded request timeout per attempt,
        lost-IRQ detection by polling the status register, engine reset
        plus exponential backoff between retries.

        The fault-free path performs exactly the same CPU-cost draws as
        the plain launch (``AnyOf`` + task wakeup mirrors ``block_on``),
        so a zero-rate fault plan leaves latency results bit-identical.
        """
        kernel = self.kernel
        sg_base = self.reg_base + sgdma_base
        control_addr = self.reg_base + channel_base + regs.CHAN_CONTROL
        status_addr = self.reg_base + channel_base + regs.CHAN_STATUS
        control = regs.CTRL_RUN | regs.CTRL_IE_DESC_STOPPED | regs.CTRL_IE_DESC_COMPLETED
        first_timeout_at = None
        for attempt in range(self.max_retries + 1):
            done = Event(name=self._done_event_names[done_attr])
            setattr(self, done_attr, done)
            yield kernel.mmio_write(
                sg_base + regs.SGDMA_DESC_LO,
                (descriptor_buf.addr & 0xFFFF_FFFF).to_bytes(4, "little"),
            )
            yield kernel.mmio_write(
                sg_base + regs.SGDMA_DESC_HI, (descriptor_buf.addr >> 32).to_bytes(4, "little")
            )
            yield kernel.mmio_write(control_addr, control.to_bytes(4, "little"))
            timeout = kernel.sim.timeout(
                ns(self.request_timeout_ns) << attempt, name=f"{self.name}.req-timeout"
            )
            index, _ = yield AnyOf([done, timeout])
            yield kernel.cpu("task_wakeup")
            if index == 0:
                if first_timeout_at is not None:
                    self.recovery_latencies_ps.append(kernel.sim.now - first_timeout_at)
                yield kernel.mmio_write(control_addr, (0).to_bytes(4, "little"))
                return
            # Request timed out: diagnose via the channel status register.
            self.fault_timeouts += 1
            if first_timeout_at is None:
                first_timeout_at = kernel.sim.now
            raw = yield from kernel.mmio_read(status_addr, 4)
            status = int.from_bytes(raw, "little")
            if status & regs.STAT_DESC_COMPLETED:
                # The transfer finished but its interrupt never arrived:
                # recover without retransferring anything.
                self.lost_irq_recoveries += 1
                self.recovery_latencies_ps.append(kernel.sim.now - first_timeout_at)
                yield kernel.mmio_write(control_addr, (0).to_bytes(4, "little"))
                return
            # Engine halted on a descriptor error or is stalled: stop
            # it, back off, and reprogram from scratch.
            yield kernel.mmio_write(control_addr, (0).to_bytes(4, "little"))
            if attempt == self.max_retries:
                break
            self.fault_retries += 1
            yield kernel.sim.timeout(
                ns(self.backoff_ns) << attempt, name=f"{self.name}.backoff"
            )
        self.requests_failed += 1
        raise XdmaTransferError(
            f"{self.name}: transfer did not complete after {self.max_retries + 1} attempts"
        )

    # -- file operations ---------------------------------------------------------------------------------

    def _admit_request(self) -> None:
        """Bounded-window gate for both channels (no-op when unset)."""
        if self.max_pending is not None and self.pending >= self.max_pending:
            self.busy_rejects += 1
            raise XdmaBusyError(
                f"{self.name}: {self.pending} requests pending "
                f"(window {self.max_pending})"
            )
        self.pending += 1

    def dev_write(self, data: bytes) -> Generator[Any, Any, int]:
        """H2C: move *data* to FPGA memory at CARD_ADDRESS."""
        if not data or len(data) > MAX_TRANSFER:
            raise ValueError(f"write of {len(data)}B outside (0, {MAX_TRANSFER}]")
        assert self._h2c_data is not None and self._h2c_desc is not None
        self._admit_request()
        yield self._h2c_lock.acquire()
        try:
            # The user's pinned pages, reachable by the device.
            self._h2c_data.write(data)
            descriptor = XdmaDescriptor(
                src_addr=self._h2c_data.addr,
                dst_addr=CARD_ADDRESS,
                length=len(data),
                stop=True,
                eop=True,
            )
            yield from self._launch(
                regs.H2C_CHANNEL_BASE, regs.H2C_SGDMA_BASE, self._h2c_desc, descriptor,
                "_h2c_done",
            )
        finally:
            self.pending -= 1
            self._h2c_lock.release()
        return len(data)

    def dev_read(self, length: int) -> Generator[Any, Any, bytes]:
        """C2H: move *length* bytes from FPGA memory at CARD_ADDRESS."""
        if length <= 0 or length > MAX_TRANSFER:
            raise ValueError(f"read of {length}B outside (0, {MAX_TRANSFER}]")
        assert self._c2h_data is not None and self._c2h_desc is not None
        self._admit_request()
        yield self._c2h_lock.acquire()
        try:
            descriptor = XdmaDescriptor(
                src_addr=CARD_ADDRESS,
                dst_addr=self._c2h_data.addr,
                length=length,
                stop=True,
                eop=True,
            )
            yield from self._launch(
                regs.C2H_CHANNEL_BASE, regs.C2H_SGDMA_BASE, self._c2h_desc, descriptor,
                "_c2h_done",
            )
            if self._c2h_notify:
                self._readable = Event(name=f"{self.name}.readable")
            data = self._c2h_data.read(0, length)
        finally:
            self.pending -= 1
            self._c2h_lock.release()
        return data

    def poll_readable(self) -> Event:
        return self._readable
