"""virtio-pci transport driver (front-end side).

The "native VirtIO driver" layer the paper relies on: it has no
device-specific knowledge -- it discovers the VirtIO structures through
the capability list, runs the status/feature handshake of VirtIO 1.2
section 3.1.1, allocates split virtqueues in host memory, and hands the
device their addresses *once, at initialization* (the design-philosophy
contrast of Section IV-A: "The driver shares the addresses of all the
data structures necessary for virtqueue operation during device
initialization. Therefore, to start a host-to-card (H2C) data transfer,
only a notification using a single I/O write is needed at runtime.").

All device accesses go through MMIO/config transactions on the
simulated link, so initialization exercises the same machinery the
measurements do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.host.kernel import HostKernel
from repro.pcie.config_space import CAP_ID_MSIX, CAP_ID_VENDOR_SPECIFIC
from repro.pcie.enumeration import DiscoveredFunction
from repro.pcie.msi import MSI_ADDRESS_BASE, MSIX_ENTRY_SIZE
from repro.virtio.constants import (
    STATUS_ACKNOWLEDGE,
    STATUS_DRIVER,
    STATUS_DRIVER_OK,
    STATUS_FEATURES_OK,
    VIRTIO_PCI_CAP_COMMON_CFG,
    VIRTIO_PCI_CAP_DEVICE_CFG,
    VIRTIO_PCI_CAP_ISR_CFG,
    VIRTIO_PCI_CAP_NOTIFY_CFG,
    VIRTIO_PCI_VENDOR_ID,
)
from repro.virtio.features import FeatureSet, negotiate
from repro.virtio.pci_transport import COMMON_CFG
from repro.virtio.virtqueue import DriverVirtqueue, ring_layout


class VirtioProbeError(RuntimeError):
    """Device rejected initialization or lacks required structures."""


# -- MSI-X plumbing (shared with the virtio-mmio transport) ---------------------------


def read_msix_table_addr(
    function: DiscoveredFunction, cap_offset: int
) -> Generator[Any, Any, int]:
    """Read the MSI-X capability at *cap_offset* (via config reads on
    the wire) and return the host address of its vector table."""
    raw = bytearray()
    for chunk in range(0, 12, 4):
        raw += yield function.port.cfg_read(cap_offset + chunk, 4)
    table = int.from_bytes(raw[4:8], "little")
    table_bar = table & 0x7
    table_offset = table & ~0x7
    discovered_bar = function.bars.get(table_bar)
    if discovered_bar is None:
        raise VirtioProbeError(f"MSI-X table in unassigned BAR {table_bar}")
    return discovered_bar.address + table_offset


def write_msix_entry(
    kernel: HostKernel, table_addr: int, entry: int, vector: int
) -> Generator[Any, Any, None]:
    """Program and unmask MSI-X table *entry*, with the host-allocated
    *vector* as the message data (the controller's dispatch key), as
    ``pci_alloc_irq_vectors`` + table setup do."""
    base = table_addr + entry * MSIX_ENTRY_SIZE
    yield kernel.mmio_write(base, MSI_ADDRESS_BASE.to_bytes(8, "little"))
    yield kernel.mmio_write(base + 8, vector.to_bytes(4, "little"))
    yield kernel.mmio_write(base + 12, (0).to_bytes(4, "little"))


def enable_msix(function: DiscoveredFunction, cap_offset: int) -> Generator[Any, Any, None]:
    """Set the MSI-X enable bit in message control."""
    port = function.port
    ctrl_raw = yield port.cfg_read(cap_offset + 2, 2)
    ctrl = int.from_bytes(ctrl_raw, "little") | 0x8000
    yield port.cfg_write(cap_offset + 2, ctrl.to_bytes(2, "little"))


@dataclass
class _StructureWindow:
    """Absolute host address of one VirtIO structure."""

    address: int
    length: int
    notify_off_multiplier: int = 0


@dataclass
class VirtioPciTransport:
    """Bound transport state for one VirtIO PCI function."""

    kernel: HostKernel
    function: DiscoveredFunction
    name: str = "virtio-pci"
    windows: Dict[int, _StructureWindow] = field(default_factory=dict)
    msix_table_addr: int = 0
    msix_cap_offset: int = 0
    device_features: FeatureSet = field(default_factory=FeatureSet)
    accepted_features: FeatureSet = field(default_factory=FeatureSet)
    virtqueues: List[DriverVirtqueue] = field(default_factory=list)
    notify_addrs: List[int] = field(default_factory=list)
    queue_vectors_assigned: List[int] = field(default_factory=list)
    msix_vectors_used: int = 0
    config_vector: int = -1

    # -- small MMIO helpers over the common structure -----------------------------

    def _common_addr(self, field_name: str) -> int:
        return self.windows[VIRTIO_PCI_CAP_COMMON_CFG].address + COMMON_CFG.offset_of(field_name)

    def common_write(self, field_name: str, value: int) -> Generator[Any, Any, None]:
        size = COMMON_CFG.size_of(field_name)
        yield self.kernel.mmio_write(self._common_addr(field_name),
                                     value.to_bytes(size, "little"))

    def common_read(self, field_name: str) -> Generator[Any, Any, int]:
        size = COMMON_CFG.size_of(field_name)
        data = yield from self.kernel.mmio_read(self._common_addr(field_name), size)
        return int.from_bytes(data, "little")

    def device_config_read(self, offset: int, length: int) -> Generator[Any, Any, bytes]:
        window = self.windows[VIRTIO_PCI_CAP_DEVICE_CFG]
        if offset + length > window.length:
            raise VirtioProbeError(f"device config read beyond window ({offset}+{length})")
        data = yield from self.kernel.mmio_read(window.address + offset, length)
        return data

    def isr_read(self) -> Generator[Any, Any, int]:
        data = yield from self.kernel.mmio_read(self.windows[VIRTIO_PCI_CAP_ISR_CFG].address, 1)
        return data[0]

    def read_device_status(self) -> Generator[Any, Any, int]:
        status = yield from self.common_read("device_status")
        return status

    # -- capability discovery ---------------------------------------------------------

    def discover(self) -> Generator[Any, Any, None]:
        """Walk the capability list, locating the VirtIO structures and
        the MSI-X capability (all via config reads on the wire)."""
        if self.function.vendor_id != VIRTIO_PCI_VENDOR_ID:
            raise VirtioProbeError(
                f"not a VirtIO device: vendor {self.function.vendor_id:#06x}"
            )
        port = self.function.port
        for cap in self.function.capabilities:
            if cap.cap_id == CAP_ID_VENDOR_SPECIFIC:
                raw = bytearray()
                for chunk in range(0, 20, 4):
                    raw += yield port.cfg_read(cap.offset + chunk, 4)
                cfg_type = raw[3]
                bar = raw[4]
                offset = int.from_bytes(raw[8:12], "little")
                length = int.from_bytes(raw[12:16], "little")
                if cfg_type in self.windows:
                    continue  # first instance wins, per spec
                discovered_bar = self.function.bars.get(bar)
                if discovered_bar is None:
                    raise VirtioProbeError(f"virtio cap references unassigned BAR {bar}")
                window = _StructureWindow(
                    address=discovered_bar.address + offset, length=length
                )
                if cfg_type == VIRTIO_PCI_CAP_NOTIFY_CFG:
                    window.notify_off_multiplier = int.from_bytes(raw[16:20], "little")
                self.windows[cfg_type] = window
            elif cap.cap_id == CAP_ID_MSIX:
                self.msix_table_addr = yield from read_msix_table_addr(
                    self.function, cap.offset
                )
                self.msix_cap_offset = cap.offset
        required = (
            VIRTIO_PCI_CAP_COMMON_CFG,
            VIRTIO_PCI_CAP_NOTIFY_CFG,
            VIRTIO_PCI_CAP_ISR_CFG,
            VIRTIO_PCI_CAP_DEVICE_CFG,
        )
        for cfg_type in required:
            if cfg_type not in self.windows:
                raise VirtioProbeError(f"missing VirtIO structure type {cfg_type}")
        if not self.msix_table_addr:
            raise VirtioProbeError("device lacks MSI-X")

    # -- MSI-X programming --------------------------------------------------------------

    def setup_msix_entry(self, entry: int, vector: int) -> Generator[Any, Any, None]:
        """Program MSI-X table *entry* with *vector*, counting the
        entries in use."""
        yield from write_msix_entry(self.kernel, self.msix_table_addr, entry, vector)
        self.msix_vectors_used = max(self.msix_vectors_used, entry + 1)

    # -- initialization handshake ------------------------------------------------------------

    def initialize(
        self,
        driver_supported: FeatureSet,
        queue_sizes: Optional[Dict[int, int]] = None,
        queue_vectors: Optional[Dict[int, int]] = None,
    ) -> Generator[Any, Any, None]:
        """The 3.1.1 sequence: reset, ACKNOWLEDGE, DRIVER, feature
        negotiation, FEATURES_OK, queue setup, DRIVER_OK."""
        # Reset and wait for the device to report 0.
        yield from self.common_write("device_status", 0)
        status = yield from self.common_read("device_status")
        if status != 0:
            raise VirtioProbeError(f"device did not reset (status={status:#x})")
        yield from self.common_write("device_status", STATUS_ACKNOWLEDGE)
        yield from self.common_write("device_status", STATUS_ACKNOWLEDGE | STATUS_DRIVER)

        # Feature negotiation (two 32-bit windows).
        words = []
        for select in (0, 1):
            yield from self.common_write("device_feature_select", select)
            word = yield from self.common_read("device_feature")
            words.append((select, word))
        self.device_features = FeatureSet.from_words(words)
        self.accepted_features = negotiate(self.device_features, driver_supported)
        for select in (0, 1):
            yield from self.common_write("driver_feature_select", select)
            yield from self.common_write("driver_feature", self.accepted_features.word(select))
        status = STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_FEATURES_OK
        yield from self.common_write("device_status", status)
        readback = yield from self.common_read("device_status")
        if not readback & STATUS_FEATURES_OK:
            raise VirtioProbeError("device rejected the negotiated features")

        # MSI-X entries: entry 0 for config changes, one entry per queue
        # after it.  Entry indices are device-local; the message data is
        # a host-allocated, system-unique vector.
        num_queues = (yield from self.common_read("num_queues"))
        if self.config_vector < 0:
            self.config_vector = self.kernel.irqc.allocate_vector()
        yield from self.setup_msix_entry(0, self.config_vector)
        yield from self.common_write("msix_config", 0)

        # Queue setup.
        notify_window = self.windows[VIRTIO_PCI_CAP_NOTIFY_CFG]
        for index in range(num_queues):
            yield from self.common_write("queue_select", index)
            max_size = yield from self.common_read("queue_size")
            if max_size == 0:
                continue
            size = max_size
            if queue_sizes and index in queue_sizes:
                size = min(max_size, queue_sizes[index])
                yield from self.common_write("queue_size", size)
            _, _, _, total = ring_layout(size)
            buffer = self.kernel.alloc_dma(total, alignment=4096)
            vq = DriverVirtqueue(index, size, buffer, name=f"{self.name}.vq{index}")
            yield from self.common_write("queue_desc", vq.addresses.desc_table)
            yield from self.common_write("queue_driver", vq.addresses.avail_ring)
            yield from self.common_write("queue_device", vq.addresses.used_ring)
            entry = index + 1
            vector = self.kernel.irqc.allocate_vector()
            if queue_vectors and index in queue_vectors:
                vector = queue_vectors[index]
            yield from self.setup_msix_entry(entry, vector)
            yield from self.common_write("queue_msix_vector", entry)
            yield from self.common_write("queue_enable", 1)
            notify_off = yield from self.common_read("queue_notify_off")
            self.notify_addrs.append(
                notify_window.address + notify_off * notify_window.notify_off_multiplier
            )
            self.virtqueues.append(vq)
            self.queue_vectors_assigned.append(vector)

        yield from enable_msix(self.function, self.msix_cap_offset)
        yield from self.common_write("device_status", status | STATUS_DRIVER_OK)

    def reset_runtime_state(self) -> None:
        """Forget the per-boot queue state ahead of a device reset +
        re-initialization (the config vector survives: entry 0 is simply
        reprogrammed with the same host vector)."""
        self.virtqueues.clear()
        self.notify_addrs.clear()
        self.queue_vectors_assigned.clear()
        self.msix_vectors_used = 0

    # -- runtime ------------------------------------------------------------------------------------

    def notify(self, queue_index: int) -> Generator[Any, Any, None]:
        """Kick a queue: the single posted I/O write of the VirtIO
        runtime path."""
        addr = self.notify_addrs[queue_index]
        yield self.kernel.mmio_write(addr, queue_index.to_bytes(2, "little"))

    def queue(self, index: int) -> DriverVirtqueue:
        return self.virtqueues[index]

    def queue_vector(self, index: int) -> int:
        """The MSI-X vector assigned to queue *index* at init."""
        return self.queue_vectors_assigned[index]

    # -- interrupt binding (Transport protocol) ------------------------------------
    #
    # PCI routes each queue's completions to its own host vector, so a
    # binding is a plain vector registration.

    def bind_queue_interrupt(self, index: int, handler: Any) -> None:
        self.kernel.irqc.register(self.queue_vectors_assigned[index], handler)

    def unbind_queue_interrupt(self, index: int) -> None:
        self.kernel.irqc.unregister(self.queue_vectors_assigned[index])

    def bind_config_interrupt(self, handler: Any) -> None:
        self.kernel.irqc.register(self.config_vector, handler)
