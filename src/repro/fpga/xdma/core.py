"""XDMA IP top level.

Composes the PCIe endpoint, the register file exposed through the DMA
config BAR, the H2C/C2H engines, the IRQ block, and the AXI
memory-mapped master toward FPGA-side memory (BRAM in both of the
paper's designs).

BAR layout matches the paper's XDMA example design:

* **BAR0** -- AXI-MM bypass window: host accesses go straight to the AXI
  address space (the example design wires a BRAM here; Section III-B2).
* **BAR1** -- XDMA DMA/config register space (PG195 layout subset).
* **BAR2** -- MSI-X table/PBA (the real IP embeds it in the DMA BAR; a
  separate BAR keeps decode simple and is driver-invisible since drivers
  locate the table via the MSI-X capability's BIR field).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.mem.region import AddressSpace, MemoryRegion
from repro.pcie.config_space import ConfigSpace
from repro.pcie.device import PcieEndpoint
from repro.pcie.link import PcieLink
from repro.fpga.perf_counter import PerfCounterBank
from repro.fpga.registers import RegisterFile
from repro.fpga.xdma.engine import Direction, DmaEngine
from repro.fpga.xdma.regs import (
    C2H_CHANNEL_BASE,
    C2H_SGDMA_BASE,
    CFG_IDENTIFIER,
    CHAN_COMPLETED_DESC_COUNT,
    CHAN_CONTROL,
    CHAN_IDENTIFIER,
    CHAN_POLL_MODE_WB_HI,
    CHAN_POLL_MODE_WB_LO,
    CHAN_STATUS,
    CHANNEL_STRIDE,
    CONFIG_BLOCK_BASE,
    DMA_BAR_SIZE,
    H2C_CHANNEL_BASE,
    H2C_SGDMA_BASE,
    IRQ_BLOCK_BASE,
    IRQ_CHANNEL_INT_ENABLE,
    IRQ_CHANNEL_VECTOR_BASE,
    IRQ_IDENTIFIER,
    IRQ_USER_INT_ENABLE,
    IRQ_USER_VECTOR_BASE,
    SGDMA_DESC_ADJACENT,
    SGDMA_DESC_HI,
    SGDMA_DESC_LO,
    channel_identifier,
)
from repro.sim.component import Component
from repro.sim.time import FPGA_FABRIC_CLOCK, Frequency, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Xilinx vendor ID and the XDMA example design's device ID.
XILINX_VENDOR_ID = 0x10EE
XDMA_DEVICE_ID = 0x7024

#: Default AXI address where FPGA memory (BRAM) is mapped.
AXI_BRAM_BASE = 0x0000_0000

#: Number of user interrupt lines exposed to fabric logic.
NUM_USER_IRQS = 4


class AxiWindow(MemoryRegion):
    """A BAR window that forwards accesses into the AXI address space
    (the XDMA 'AXI Memory Mapped' bypass interface)."""

    def __init__(self, axi_space: AddressSpace, size: int, name: str = "axi-window") -> None:
        super().__init__(size, name)
        self.axi_space = axi_space

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return self.axi_space.read(offset, length)

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.axi_space.write(offset, data)


class XdmaCore(Component):
    """The DMA/Bridge Subsystem for PCI Express, as one component.

    Parameters
    ----------
    sim, link:
        Simulator and the endpoint link from the root complex.
    h2c_channels / c2h_channels:
        Channel counts (the paper's designs use one of each).
    device_config:
        Optional externally built config space.  The VirtIO FPGA device
        passes its own (VirtIO vendor/device IDs + VirtIO capabilities)
        -- this mirrors the paper's Section II-C: announcing VirtIO IDs
        "may require modifications to the vendor-provided PCIe IPs".
    """

    def __init__(
        self,
        sim: "Simulator",
        link: PcieLink,
        name: str = "xdma",
        parent: Optional[Component] = None,
        h2c_channels: int = 1,
        c2h_channels: int = 1,
        clock: Frequency = FPGA_FABRIC_CLOCK,
        device_config: Optional[ConfigSpace] = None,
        msix_vectors: int = 8,
        axi_bypass_size: int = 1 << 20,
        tracer=None,
    ) -> None:
        super().__init__(sim, name, parent=parent, tracer=tracer)
        self.clock = clock
        config = device_config or ConfigSpace(
            vendor_id=XILINX_VENDOR_ID,
            device_id=XDMA_DEVICE_ID,
            class_code=0x058000,  # memory controller: other
        )
        self.endpoint = PcieEndpoint(sim, link, config, name="ep", parent=self)
        self.perf = PerfCounterBank(sim, name="perf", parent=self, clock=clock)
        #: Fault injector, attached by repro.faults after boot (None in
        #: normal runs -- every fault hook is gated on this).
        self.injector = None

        # AXI-MM master address space toward fabric memories/logic.
        self.axi_space = AddressSpace(name=f"{name}.axi")

        # Engines.
        self.h2c: List[DmaEngine] = [
            DmaEngine(sim, self, Direction.H2C, i, parent=self) for i in range(h2c_channels)
        ]
        self.c2h: List[DmaEngine] = [
            DmaEngine(sim, self, Direction.C2H, i, parent=self) for i in range(c2h_channels)
        ]

        # IRQ block state.
        self.user_int_enable = 0
        self.channel_int_enable = 0
        self.user_vectors = list(range(NUM_USER_IRQS))
        self.channel_vectors = list(range(h2c_channels + c2h_channels))

        # Register file behind BAR1.
        self.regs = RegisterFile(DMA_BAR_SIZE, name=f"{name}.regs")
        self._build_registers()

        # BARs.
        self.endpoint.attach_bar(0, AxiWindow(self.axi_space, axi_bypass_size))
        self.endpoint.attach_bar(1, self.regs.as_region())
        self.endpoint.enable_msix(msix_vectors, bar_index=2)

    # -- register construction ----------------------------------------------------

    def _build_registers(self) -> None:
        for i, engine in enumerate(self.h2c):
            self._build_channel_registers(H2C_CHANNEL_BASE, H2C_SGDMA_BASE, 0, 4, i, engine)
        for i, engine in enumerate(self.c2h):
            self._build_channel_registers(C2H_CHANNEL_BASE, C2H_SGDMA_BASE, 1, 5, i, engine)
        self.regs.reg(
            "cfg_identifier",
            CONFIG_BLOCK_BASE + CFG_IDENTIFIER,
            reset=channel_identifier(3, 0),
            read_only=True,
        )
        self._build_irq_registers()

    def _build_channel_registers(
        self,
        chan_base: int,
        sgdma_base: int,
        target: int,
        sgdma_target: int,
        index: int,
        engine: DmaEngine,
    ) -> None:
        cbase = chan_base + index * CHANNEL_STRIDE
        sbase = sgdma_base + index * CHANNEL_STRIDE
        prefix = f"{engine.direction.value}{index}"
        self.regs.reg(
            f"{prefix}_identifier",
            cbase + CHAN_IDENTIFIER,
            reset=channel_identifier(target, index),
            read_only=True,
        )
        self.regs.reg(
            f"{prefix}_control",
            cbase + CHAN_CONTROL,
            write_hook=engine.control_write,
        )
        self.regs.reg(
            f"{prefix}_status",
            cbase + CHAN_STATUS,
            read_hook=engine.status_read,
            read_only=False,
        )
        self.regs.reg(
            f"{prefix}_completed",
            cbase + CHAN_COMPLETED_DESC_COUNT,
            read_hook=engine.completed_count_read,
            read_only=True,
        )
        self.regs.reg(
            f"{prefix}_poll_wb_lo",
            cbase + CHAN_POLL_MODE_WB_LO,
            write_hook=lambda v, e=engine: setattr(e, "poll_wb_lo", v),
        )
        self.regs.reg(
            f"{prefix}_poll_wb_hi",
            cbase + CHAN_POLL_MODE_WB_HI,
            write_hook=lambda v, e=engine: setattr(e, "poll_wb_hi", v),
        )
        self.regs.reg(
            f"{prefix}_sgdma_identifier",
            sbase + CHAN_IDENTIFIER,
            reset=channel_identifier(sgdma_target, index),
            read_only=True,
        )
        self.regs.reg(
            f"{prefix}_desc_lo",
            sbase + SGDMA_DESC_LO,
            write_hook=lambda v, e=engine: setattr(e, "desc_lo", v),
        )
        self.regs.reg(
            f"{prefix}_desc_hi",
            sbase + SGDMA_DESC_HI,
            write_hook=lambda v, e=engine: setattr(e, "desc_hi", v),
        )
        self.regs.reg(
            f"{prefix}_desc_adjacent",
            sbase + SGDMA_DESC_ADJACENT,
            write_hook=lambda v, e=engine: setattr(e, "desc_adjacent", v),
        )

    def _build_irq_registers(self) -> None:
        base = IRQ_BLOCK_BASE
        self.regs.reg(
            "irq_identifier", base + IRQ_IDENTIFIER, reset=channel_identifier(2, 0), read_only=True
        )
        self.regs.reg(
            "irq_user_int_enable",
            base + IRQ_USER_INT_ENABLE,
            write_hook=lambda v: setattr(self, "user_int_enable", v),
        )
        self.regs.reg(
            "irq_channel_int_enable",
            base + IRQ_CHANNEL_INT_ENABLE,
            write_hook=lambda v: setattr(self, "channel_int_enable", v),
        )
        for i in range(NUM_USER_IRQS):
            self.regs.reg(
                f"irq_user_vector{i}",
                base + IRQ_USER_VECTOR_BASE + 4 * i,
                reset=self.user_vectors[i],
                write_hook=lambda v, i=i: self.user_vectors.__setitem__(i, v & 0x1F),
            )
        for i in range(len(self.channel_vectors)):
            self.regs.reg(
                f"irq_channel_vector{i}",
                base + IRQ_CHANNEL_VECTOR_BASE + 4 * i,
                reset=self.channel_vectors[i],
                write_hook=lambda v, i=i: self.channel_vectors.__setitem__(i, v & 0x1F),
            )

    # -- AXI master -----------------------------------------------------------------

    def attach_axi(self, base: int, region: MemoryRegion) -> None:
        """Map FPGA-side memory or logic at an AXI address."""
        self.axi_space.map(base, region)

    def axi_read(self, addr: int, length: int) -> bytes:
        return self.axi_space.read(addr, length)

    def axi_write(self, addr: int, data: bytes) -> None:
        self.axi_space.write(addr, data)

    def axi_access_time(self, addr: int, length: int) -> SimTime:
        """Access time of the AXI target at *addr* (regions without a
        timing model cost one fabric cycle)."""
        region = self.axi_space.region_at(addr)
        access_time = getattr(region, "access_time", None)
        if access_time is not None:
            return access_time(length)
        return self.clock.period_ps

    # -- interrupts -------------------------------------------------------------------

    def _channel_irq_index(self, engine: DmaEngine) -> int:
        """IRQ-block channel index: H2C channels first, then C2H."""
        if engine.direction is Direction.H2C:
            return engine.channel
        return len(self.h2c) + engine.channel

    def raise_channel_irq(self, engine: DmaEngine) -> None:
        """Channel interrupt request (engine completion path)."""
        index = self._channel_irq_index(engine)
        if not (self.channel_int_enable >> index) & 1:
            self.trace("channel-irq-masked", channel=index)
            return
        vector = self.channel_vectors[index]
        self.trace("channel-irq", channel=index, vector=vector)
        self.endpoint.raise_msix(vector)

    def raise_user_irq(self, index: int) -> None:
        """User interrupt request from fabric logic (usr_irq_req)."""
        if not 0 <= index < NUM_USER_IRQS:
            raise IndexError(f"user irq {index} out of range 0..{NUM_USER_IRQS - 1}")
        if not (self.user_int_enable >> index) & 1:
            self.trace("user-irq-masked", line=index)
            return
        vector = self.user_vectors[index]
        self.trace("user-irq", line=index, vector=vector)
        self.endpoint.raise_msix(vector)
