"""Calibration: the parameter set that stands in for the paper's testbed.

The *mechanisms* (which driver performs which MMIO/DMA/IRQ operations)
live in the models; this module only fixes the scalar constants to a
point where the simulated means land in the paper's measured ranges
(Fig. 3-5, Table I) for its hardware: Alinx AX7A200 (Artix-7, PCIe
Gen2 x2, 125 MHz fabric) on a Fedora 37 host.

Every ablation and sensitivity study produces its own profile by
``dataclasses.replace`` on :data:`PAPER_PROFILE` rather than mutating
model internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.host.costs import CostModel, InterferenceModel, default_cost_model
from repro.pcie.link import LinkConfig


@dataclass(frozen=True)
class CalibrationProfile:
    """Everything a testbed builder needs beyond the model code."""

    #: PCIe link parameters (the board negotiates Gen2 x2).
    link: LinkConfig = field(
        default_factory=lambda: LinkConfig(generation=2, lanes=2, propagation_ns=500.0)
    )
    #: Host software cost-model body jitter (lognormal sigma).
    jitter_sigma: float = 0.12
    #: Poisson preemption field (None = default InterferenceModel).
    interference: Optional[InterferenceModel] = None
    #: Disable all software noise (ablation A3).
    noise_enabled: bool = True
    #: VirtIO controller FSM transition cost in fabric cycles; the
    #: dominant knob for the Fig. 4 "hardware" share.
    virtio_fsm_cycles: int = 100
    #: RX descriptor prefetch (ablation A2 turns it off).
    rx_prefetch: bool = True
    #: Host memory read latency serving device DMA reads (ns).
    host_memory_read_ns: float = 75.0
    #: Endpoint completer latency for MMIO reads (ns).
    endpoint_completer_ns: float = 150.0
    #: XDMA C2H "data ready" user interrupt + poll() before read()
    #: (ablation A1; False reproduces the paper's favourable setup).
    xdma_c2h_interrupt: bool = False
    #: virtio-net checksum offload offered by the device.
    offer_csum: bool = False
    #: virtio-net control queue offered by the device (adds a third
    #: virtqueue; exercised by the control-path tests/examples).
    offer_ctrl_vq: bool = False

    def build_cost_model(self) -> CostModel:
        """The host cost model this profile implies."""
        model = default_cost_model(
            jitter_sigma=self.jitter_sigma,
            interference=self.interference,
        )
        if not self.noise_enabled:
            model = model.without_noise()
        return model

    def with_link(self, generation: int, lanes: int) -> "CalibrationProfile":
        """Sensitivity variant: a different link (ablation A4)."""
        return replace(
            self,
            link=replace(self.link, generation=generation, lanes=lanes),
        )

    def without_noise(self) -> "CalibrationProfile":
        """Ablation A3: deterministic software."""
        return replace(self, noise_enabled=False)

    def without_prefetch(self) -> "CalibrationProfile":
        """Ablation A2: per-delivery descriptor fetch."""
        return replace(self, rx_prefetch=False)

    def with_xdma_c2h_interrupt(self) -> "CalibrationProfile":
        """Ablation A1: the 'real use case' XDMA flow."""
        return replace(self, xdma_c2h_interrupt=True)


#: The profile used for all headline reproductions.
PAPER_PROFILE = CalibrationProfile()

#: Network constants of the paper-style test setup.
HOST_IP = 0x0A00_0001  # 10.0.0.1
FPGA_IP = 0x0A00_0002  # 10.0.0.2
HOST_MAC = b"\x02\x00\x00\x00\x00\x01"
FPGA_MAC = b"\x52\x54\x00\xfa\xce\x01"
TEST_SRC_PORT = 47000
TEST_DST_PORT = 7  # echo

#: Bytes added to a UDP payload by the VirtIO path on the PCIe link:
#: virtio_net_hdr (12) + Ethernet (14) + IPv4 (20) + UDP (8).
VIRTIO_WIRE_OVERHEAD = 12 + 14 + 20 + 8

#: Minimum Ethernet payload (frames are padded up to 60B before the
#: virtio_net_hdr is added).
MIN_WIRE_BYTES = 12 + 60


def xdma_transfer_size(udp_payload: int) -> int:
    """The XDMA transfer size matching a VirtIO test's wire bytes.

    Section IV-B: "The buffer sizes ... are set to ensure that the
    amount of data moved over the PCIe link to the FPGA is the same in
    both VirtIO and XDMA tests taking into account the protocol
    headers."  The VirtIO buffer for a UDP payload of ``p`` bytes is
    ``p + VIRTIO_WIRE_OVERHEAD`` (with Ethernet minimum-frame padding),
    so the XDMA test moves exactly that many bytes.
    """
    if udp_payload <= 0:
        raise ValueError(f"payload must be positive, got {udp_payload}")
    return max(udp_payload + VIRTIO_WIRE_OVERHEAD, MIN_WIRE_BYTES)


#: The paper's payload sweep (Section V: 64 B to 1 KB).
PAPER_PAYLOAD_SIZES = (64, 128, 256, 512, 1024)

#: Packets per payload size in the paper (Section III-B3).  Experiment
#: entry points accept smaller counts for CI-speed runs.
PAPER_PACKETS_PER_SIZE = 50_000
