"""The VirtIO FPGA device: the paper's core artifact.

:class:`VirtioFpgaDevice` assembles, on top of the simulated XDMA IP:

* a PCIe identity that announces VirtIO vendor/device IDs and carries
  the four VirtIO capabilities (Section II-C requirements i and iii),
* the VirtIO configuration structures as fabric register logic mapped
  into a BAR (requirement ii),
* the device-status initialization FSM with feature negotiation,
* per-queue :class:`DeviceQueueEngine` FSMs driving the XDMA engines
  through descriptor bypass,
* a pluggable :class:`DevicePersonality` (net / console / block --
  "Added support for more VirtIO device types" is one of the paper's
  contributions),
* hardware performance counters around the data-movement sections, read
  by the experiment layer for the Fig. 4 breakdown,
* the driver-bypass port for user-logic-initiated host DMA
  (Section III-A, last paragraph).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.fpga.xdma.core import XdmaCore
from repro.mem.fpga_mem import Bram
from repro.pcie.config_space import ConfigSpace
from repro.pcie.link import PcieLink
from repro.faults.plan import KIND_LOST_NOTIFY, SITE_VIRTIO_CTRL
from repro.virtio.constants import (
    STATUS_DEVICE_NEEDS_RESET,
    STATUS_DRIVER_OK,
    STATUS_FEATURES_OK,
    VIRTIO_ISR_CONFIG,
    VIRTIO_ISR_QUEUE,
    VIRTIO_MSI_NO_VECTOR,
    VIRTIO_PCI_VENDOR_ID,
    pci_device_id,
)
from repro.virtio.controller.config_structs import VirtioConfigBlock
from repro.virtio.controller.dma_port import ControllerDmaPort
from repro.virtio.controller.personality import DevicePersonality
from repro.virtio.controller.queue_engine import DeviceQueueEngine, QueueRole
from repro.virtio.features import FeatureNegotiationError, FeatureSet, validate_accepted
from repro.virtio.pci_transport import VirtioPciLayout
from repro.sim.component import Component
from repro.sim.time import FPGA_FABRIC_CLOCK, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: BAR index carrying the VirtIO structures (0-2 are used by the XDMA
#: core for the AXI window, DMA registers, and MSI-X table).
VIRTIO_BAR_INDEX = 3

#: BAR index carrying the optional virtio-mmio register block (the 4.2
#: flat layout, for guests without PCI enlightenment).  Only present
#: when the device is built with ``mmio_window=True`` -- probing an
#: implemented BAR costs enumeration extra config writes, so the bare
#: PCI boot sequence must not see it.
VIRTIO_MMIO_BAR_INDEX = 4

#: BRAM region reserved for DMA staging (above the packet data area).
STAGING_BASE = 0x8000

#: Maximum size every virtqueue advertises (``queue_size`` reset value).
QUEUE_MAX_SIZE = 256

#: On-fabric BRAM behind AXI window 0: packet data plus DMA staging.
BRAM_SIZE = 64 << 10


class VirtioFpgaDevice(Component):
    """FPGA exposing a VirtIO-compliant interface over PCIe."""

    def __init__(
        self,
        sim: "Simulator",
        link: PcieLink,
        personality: DevicePersonality,
        name: str = "virtio-fpga",
        parent: Optional[Component] = None,
        fsm_cycles: int = 6,
        rx_prefetch: bool = True,
        tracer=None,
        mmio_window: bool = False,
    ) -> None:
        super().__init__(sim, name, parent=parent, tracer=tracer)
        self.personality = personality
        self.queue_max_size = QUEUE_MAX_SIZE
        self.fsm_cycles = fsm_cycles
        self.rx_prefetch = rx_prefetch

        # PCIe identity: VirtIO vendor/device IDs (requirement i).
        config = ConfigSpace(
            vendor_id=VIRTIO_PCI_VENDOR_ID,
            device_id=pci_device_id(personality.device_id),
            class_code=personality.class_code,
            revision_id=0x01,
            subsystem_vendor_id=VIRTIO_PCI_VENDOR_ID,
            subsystem_id=personality.device_id,
        )
        self.layout = VirtioPciLayout(
            bar=VIRTIO_BAR_INDEX, num_queues=personality.num_queues
        )
        # Requirement (iii): VirtIO capabilities in the capability list.
        self.layout.install_capabilities(config)

        # The underlying PCIe IP, with our identity instead of Xilinx's
        # ("achieving items (i) and (iii) may require modifications to
        # the vendor-provided PCIe IPs").
        self.xdma = XdmaCore(
            sim,
            link,
            name="xdma",
            parent=self,  # inherits this device's tracer
            clock=FPGA_FABRIC_CLOCK,
            device_config=config,
            msix_vectors=personality.num_queues + 2,
        )
        self.bram = Bram(BRAM_SIZE, name=f"{name}.bram", clock=FPGA_FABRIC_CLOCK)
        self.xdma.attach_axi(0, self.bram)
        self.dma_port = ControllerDmaPort(
            sim, self.xdma, self.bram, staging_base=STAGING_BASE, parent=self
        )

        # Requirement (ii): the configuration structures in fabric.
        self.config_block = VirtioConfigBlock(self, self.layout)
        self.xdma.endpoint.attach_bar(VIRTIO_BAR_INDEX, self.config_block.regs.as_region())

        # Optional second window: the virtio-mmio register block, over
        # the same queue/ISR/status state (guest transport comparison).
        self.mmio_block = None
        if mmio_window:
            from repro.virtio.mmio_transport import VirtioMmioRegBlock

            self.mmio_block = VirtioMmioRegBlock(self)
            self.xdma.endpoint.attach_bar(
                VIRTIO_MMIO_BAR_INDEX, self.mmio_block.as_region()
            )

        self.device_status = 0
        self.driver_feature_words: Dict[int, int] = {}
        self.engines: Dict[int, DeviceQueueEngine] = {}
        self.perf = self.xdma.perf
        #: Fault injector, attached by repro.faults after boot (None in
        #: normal runs -- every fault hook is gated on this).
        self.injector = None
        self.needs_reset_events = 0

        personality.bind(self)

    # -- properties -------------------------------------------------------------------

    @property
    def fsm_time(self) -> SimTime:
        """Duration of one controller FSM transition."""
        return FPGA_FABRIC_CLOCK.cycles_to_time(self.fsm_cycles)

    @property
    def offered_features(self) -> FeatureSet:
        return self.personality.offered_features()

    @property
    def accepted_features(self) -> FeatureSet:
        return FeatureSet.from_words(self.driver_feature_words.items())

    @property
    def driver_ok(self) -> bool:
        return bool(self.device_status & STATUS_DRIVER_OK)

    # -- config-block callbacks ----------------------------------------------------------

    def set_driver_feature_word(self, select: int, word: int) -> None:
        self.driver_feature_words[select] = word

    def on_status_write(self, new_status: int) -> None:
        if new_status == 0:
            self._reset()
            return
        rising = new_status & ~self.device_status
        self.device_status = new_status
        if rising & STATUS_FEATURES_OK:
            try:
                validate_accepted(self.offered_features, self.accepted_features)
            except FeatureNegotiationError:
                # Reject: clear FEATURES_OK so the driver sees the refusal.
                self.device_status &= ~STATUS_FEATURES_OK
                self.trace("features-rejected", accepted=self.accepted_features.bits)
                return
            self.trace("features-ok", accepted=self.accepted_features.bits)
        if rising & STATUS_DRIVER_OK:
            self._start_engines()
            self.personality.on_driver_ok()
            self.trace("driver-ok")

    def on_queue_enabled(self, index: int) -> None:
        self.trace("queue-enabled", queue=index)

    def on_notify(self, queue_index: int) -> None:
        """Doorbell write landed in the notify region."""
        engine = self.engines.get(queue_index)
        if engine is None:
            self.trace("notify-ignored", queue=queue_index)
            return
        if (
            self.injector is not None
            and self.injector.fire(SITE_VIRTIO_CTRL, KIND_LOST_NOTIFY) is not None
        ):
            # The doorbell write never reaches the queue engine (e.g. a
            # decode glitch in the notify region).
            self.trace("notify-lost", queue=queue_index)
            return
        self.personality.on_notify(queue_index)
        engine.kick()

    def _reset(self) -> None:
        self.device_status = 0
        self.driver_feature_words.clear()
        self.engines.clear()
        self.config_block.reset_queues()
        self.personality.on_reset()
        self.trace("reset")

    def _start_engines(self) -> None:
        for queue in self.config_block.queues:
            if not queue.enabled:
                continue
            role = self.personality.queue_role(queue.index)
            self.engines[queue.index] = DeviceQueueEngine(
                self.sim,
                self,
                queue,
                role,
                prefetch=self.rx_prefetch if role is QueueRole.IN else True,
                parent=self,
            )

    # -- interrupts ----------------------------------------------------------------------------

    def raise_queue_irq(self, queue_index: int) -> None:
        queue = self.config_block.queue(queue_index)
        self.config_block.set_isr(VIRTIO_ISR_QUEUE)
        self.trace("queue-irq", queue=queue_index, vector=queue.msix_vector)
        self.xdma.endpoint.raise_msix(queue.msix_vector)

    def mark_needs_reset(self, reason: str = "") -> None:
        """Latch DEVICE_NEEDS_RESET (spec 2.1.2: "something went wrong
        in the device and it is unable to continue") and raise a
        configuration-change interrupt so the driver learns about it."""
        if self.device_status & STATUS_DEVICE_NEEDS_RESET:
            return  # already latched; the driver reset will clear it
        self.device_status |= STATUS_DEVICE_NEEDS_RESET
        self.needs_reset_events += 1
        self.trace("needs-reset", reason=reason)
        self.config_block.set_isr(VIRTIO_ISR_CONFIG)
        entry = self.config_block.msix_config_entry
        if entry != VIRTIO_MSI_NO_VECTOR:
            self.xdma.endpoint.raise_msix(entry)

    # -- statistics -------------------------------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        out: Dict[str, int] = dict(self.dma_port.stats)
        for index, engine in self.engines.items():
            out[f"q{index}_chains"] = engine.chains_processed
            out[f"q{index}_irqs"] = engine.interrupts_raised
            out[f"q{index}_irqs_suppressed"] = engine.interrupts_suppressed
        return out
