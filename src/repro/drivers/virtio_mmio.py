"""virtio-mmio transport driver (front-end side).

The second VirtIO 1.2 bus binding, as a drop-in
:class:`~repro.virtio.transport.Transport` sibling of
:class:`~repro.drivers.virtio_pci.VirtioPciTransport`: no capability
walk (the register block sits at a fixed offset), no per-structure
windows (everything is one flat page), and -- the performance-relevant
difference -- *one* shared interrupt for all queues and config changes,
demultiplexed by an ``InterruptStatus`` read and retired by an
``InterruptACK`` write.  Where the PCI runtime RX path costs one MSI-X
dispatch, the MMIO path costs the same dispatch *plus* a non-posted
register read and a posted ack write per interrupt: the access-cost
asymmetry experiment E-V1's transport column measures.

The virtqueue traffic itself (descriptor chains, avail/used rings) is
identical between the transports by construction -- both drive the same
:class:`DriverVirtqueue` -- which the transport-equivalence property
test pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.host.kernel import HostKernel
from repro.pcie.config_space import CAP_ID_MSIX
from repro.pcie.enumeration import DiscoveredFunction
from repro.virtio.constants import (
    STATUS_ACKNOWLEDGE,
    STATUS_DRIVER,
    STATUS_DRIVER_OK,
    STATUS_FEATURES_OK,
    VIRTIO_ISR_CONFIG,
    VIRTIO_ISR_QUEUE,
    VIRTIO_PCI_VENDOR_ID,
)
from repro.drivers.virtio_pci import (
    VirtioProbeError,
    enable_msix,
    read_msix_table_addr,
    write_msix_entry,
)
from repro.virtio.features import FeatureSet, negotiate
from repro.virtio.mmio_transport import (
    MMIO_CONFIG,
    MMIO_DEVICE_FEATURES,
    MMIO_DEVICE_FEATURES_SEL,
    MMIO_DEVICE_ID,
    MMIO_DRIVER_FEATURES,
    MMIO_DRIVER_FEATURES_SEL,
    MMIO_INTERRUPT_ACK,
    MMIO_INTERRUPT_STATUS,
    MMIO_MAGIC_VALUE,
    MMIO_QUEUE_DESC_HIGH,
    MMIO_QUEUE_DESC_LOW,
    MMIO_QUEUE_DEVICE_HIGH,
    MMIO_QUEUE_DEVICE_LOW,
    MMIO_QUEUE_DRIVER_HIGH,
    MMIO_QUEUE_DRIVER_LOW,
    MMIO_QUEUE_NOTIFY,
    MMIO_QUEUE_NUM,
    MMIO_QUEUE_NUM_MAX,
    MMIO_QUEUE_READY,
    MMIO_QUEUE_SEL,
    MMIO_STATUS,
    MMIO_VERSION,
    CONFIG_IRQ_ENTRY,
    QUEUE_IRQ_ENTRY,
    VIRTIO_MMIO_MAGIC,
    VIRTIO_MMIO_VERSION,
)
from repro.virtio.controller.device import VIRTIO_MMIO_BAR_INDEX
from repro.virtio.virtqueue import DriverVirtqueue, ring_layout

#: Defensive bound on QueueSel probing (the device reports the end of
#: its queue list with QueueNumMax == 0).
MAX_PROBED_QUEUES = 64


@dataclass
class VirtioMmioTransport:
    """Bound transport state for one function's virtio-mmio window."""

    kernel: HostKernel
    function: DiscoveredFunction
    name: str = "virtio-mmio"
    base: int = 0
    msix_table_addr: int = 0
    msix_cap_offset: int = 0
    device_id: int = 0
    device_features: FeatureSet = field(default_factory=FeatureSet)
    accepted_features: FeatureSet = field(default_factory=FeatureSet)
    virtqueues: List[DriverVirtqueue] = field(default_factory=list)
    #: One host vector services the whole device (the shared line).
    host_vector: int = -1
    _isr_registered: bool = False
    _queue_handlers: Dict[int, Any] = field(default_factory=dict)
    _config_handler: Optional[Any] = None

    # -- register helpers -----------------------------------------------------------

    def _write(self, offset: int, value: int, size: int = 4) -> Generator[Any, Any, None]:
        yield self.kernel.mmio_write(self.base + offset, value.to_bytes(size, "little"))

    def _read(self, offset: int, size: int = 4) -> Generator[Any, Any, int]:
        data = yield from self.kernel.mmio_read(self.base + offset, size)
        return int.from_bytes(data, "little")

    # -- discovery -----------------------------------------------------------------

    def discover(self) -> Generator[Any, Any, None]:
        """Locate the MMIO window and verify the 4.2.2 header (magic,
        version, device id) -- the MMIO analogue of the capability walk,
        plus the MSI-X table the shared line is delivered through."""
        if self.function.vendor_id != VIRTIO_PCI_VENDOR_ID:
            raise VirtioProbeError(
                f"not a VirtIO device: vendor {self.function.vendor_id:#06x}"
            )
        window = self.function.bars.get(VIRTIO_MMIO_BAR_INDEX)
        if window is None:
            raise VirtioProbeError(
                f"no virtio-mmio window (BAR {VIRTIO_MMIO_BAR_INDEX} unimplemented; "
                f"build the device with mmio_window=True)"
            )
        self.base = window.address
        for cap in self.function.capabilities:
            if cap.cap_id == CAP_ID_MSIX:
                self.msix_table_addr = yield from read_msix_table_addr(
                    self.function, cap.offset
                )
                self.msix_cap_offset = cap.offset
        if not self.msix_table_addr:
            raise VirtioProbeError("device lacks MSI-X")
        magic = yield from self._read(MMIO_MAGIC_VALUE)
        if magic != VIRTIO_MMIO_MAGIC:
            raise VirtioProbeError(f"bad virtio-mmio magic {magic:#010x}")
        version = yield from self._read(MMIO_VERSION)
        if version != VIRTIO_MMIO_VERSION:
            raise VirtioProbeError(f"unsupported virtio-mmio version {version}")
        self.device_id = yield from self._read(MMIO_DEVICE_ID)
        if self.device_id == 0:
            raise VirtioProbeError("virtio-mmio placeholder device (ID 0)")

    # -- initialization -------------------------------------------------------------

    def initialize(self, driver_supported: FeatureSet) -> Generator[Any, Any, None]:
        """The 3.1.1 sequence over the 4.2.2 registers."""
        yield from self._write(MMIO_STATUS, 0)
        status = yield from self._read(MMIO_STATUS)
        if status != 0:
            raise VirtioProbeError(f"device did not reset (status={status:#x})")
        yield from self._write(MMIO_STATUS, STATUS_ACKNOWLEDGE)
        yield from self._write(MMIO_STATUS, STATUS_ACKNOWLEDGE | STATUS_DRIVER)

        words = []
        for select in (0, 1):
            yield from self._write(MMIO_DEVICE_FEATURES_SEL, select)
            word = yield from self._read(MMIO_DEVICE_FEATURES)
            words.append((select, word))
        self.device_features = FeatureSet.from_words(words)
        self.accepted_features = negotiate(self.device_features, driver_supported)
        for select in (0, 1):
            yield from self._write(MMIO_DRIVER_FEATURES_SEL, select)
            yield from self._write(MMIO_DRIVER_FEATURES, self.accepted_features.word(select))
        status = STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_FEATURES_OK
        yield from self._write(MMIO_STATUS, status)
        readback = yield from self._read(MMIO_STATUS)
        if not readback & STATUS_FEATURES_OK:
            raise VirtioProbeError("device rejected the negotiated features")

        # One host vector for the whole device: program both table
        # entries the device-side block routes through, then enable.
        # (Platform wiring for the shared line; reprogrammed verbatim
        # across re-initialization, like the PCI config vector.)
        if self.host_vector < 0:
            self.host_vector = self.kernel.irqc.allocate_vector()
        for entry in (CONFIG_IRQ_ENTRY, QUEUE_IRQ_ENTRY):
            yield from write_msix_entry(
                self.kernel, self.msix_table_addr, entry, self.host_vector
            )

        # Queue setup: probe QueueSel until QueueNumMax reads 0.
        for index in range(MAX_PROBED_QUEUES):
            yield from self._write(MMIO_QUEUE_SEL, index)
            max_size = yield from self._read(MMIO_QUEUE_NUM_MAX)
            if max_size == 0:
                break
            size = max_size
            yield from self._write(MMIO_QUEUE_NUM, size)
            _, _, _, total = ring_layout(size)
            buffer = self.kernel.alloc_dma(total, alignment=4096)
            vq = DriverVirtqueue(index, size, buffer, name=f"{self.name}.vq{index}")
            yield from self._write(MMIO_QUEUE_DESC_LOW, vq.addresses.desc_table & 0xFFFF_FFFF)
            yield from self._write(MMIO_QUEUE_DESC_HIGH, vq.addresses.desc_table >> 32)
            yield from self._write(MMIO_QUEUE_DRIVER_LOW, vq.addresses.avail_ring & 0xFFFF_FFFF)
            yield from self._write(MMIO_QUEUE_DRIVER_HIGH, vq.addresses.avail_ring >> 32)
            yield from self._write(MMIO_QUEUE_DEVICE_LOW, vq.addresses.used_ring & 0xFFFF_FFFF)
            yield from self._write(MMIO_QUEUE_DEVICE_HIGH, vq.addresses.used_ring >> 32)
            yield from self._write(MMIO_QUEUE_READY, 1)
            self.virtqueues.append(vq)

        yield from enable_msix(self.function, self.msix_cap_offset)
        yield from self._write(MMIO_STATUS, status | STATUS_DRIVER_OK)
        if not self._isr_registered:
            self.kernel.irqc.register(self.host_vector, self._interrupt)
            self._isr_registered = True

    def reset_runtime_state(self) -> None:
        """Forget per-boot queue state ahead of re-initialization (the
        host vector and its shared ISR survive, like PCI's config
        vector: the line is platform wiring, not queue state)."""
        self.virtqueues.clear()
        self._queue_handlers.clear()

    # -- runtime ----------------------------------------------------------------------

    def notify(self, queue_index: int) -> Generator[Any, Any, None]:
        """Kick a queue: one posted write of the queue index into the
        shared QueueNotify doorbell."""
        yield self.kernel.mmio_write(
            self.base + MMIO_QUEUE_NOTIFY, queue_index.to_bytes(4, "little")
        )

    def queue(self, index: int) -> DriverVirtqueue:
        return self.virtqueues[index]

    def device_config_read(self, offset: int, length: int) -> Generator[Any, Any, bytes]:
        data = yield from self.kernel.mmio_read(self.base + MMIO_CONFIG + offset, length)
        return data

    def read_device_status(self) -> Generator[Any, Any, int]:
        status = yield from self._read(MMIO_STATUS)
        return status

    def isr_read(self) -> Generator[Any, Any, int]:
        """Read *and acknowledge* the interrupt status, matching the
        PCI ISR byte's read-to-clear contract callers rely on."""
        value = yield from self._read(MMIO_INTERRUPT_STATUS)
        if value:
            yield from self._write(MMIO_INTERRUPT_ACK, value)
        return value

    # -- the shared interrupt line -----------------------------------------------------

    def _interrupt(self) -> Generator[Any, Any, None]:
        """Demultiplex the one line: a non-posted InterruptStatus read,
        a posted ack, then every bound source with evidence of work.
        The extra register round trip per interrupt is virtio-mmio's
        intrinsic cost relative to per-queue MSI-X vectors."""
        status = yield from self._read(MMIO_INTERRUPT_STATUS)
        if not status:
            return  # spurious (already serviced by a racing ack)
        yield from self._write(MMIO_INTERRUPT_ACK, status)
        if status & VIRTIO_ISR_QUEUE:
            for index in sorted(self._queue_handlers):
                if index < len(self.virtqueues) and self.virtqueues[index].has_used():
                    yield from self._queue_handlers[index]()
        if status & VIRTIO_ISR_CONFIG and self._config_handler is not None:
            yield from self._config_handler()

    def bind_queue_interrupt(self, index: int, handler: Any) -> None:
        self._queue_handlers[index] = handler

    def unbind_queue_interrupt(self, index: int) -> None:
        self._queue_handlers.pop(index, None)

    def bind_config_interrupt(self, handler: Any) -> None:
        self._config_handler = handler
