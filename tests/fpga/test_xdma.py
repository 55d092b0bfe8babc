"""Tests for the XDMA IP model: descriptors, engines, core."""

import pytest

from repro.fpga.xdma import (
    DescriptorError,
    XdmaCore,
    XdmaDescriptor,
    regs,
)
from repro.mem.dma import DmaAllocator
from repro.mem.fpga_mem import Bram
from repro.mem.region import MemoryAccessError
from repro.pcie.enumeration import enumerate_all
from repro.pcie.msi import MSI_ADDRESS_BASE, MSIX_ENTRY_SIZE
from repro.pcie.root_complex import RootComplex
from repro.sim.kernel import Simulator


class TestDescriptor:
    def test_encode_decode_roundtrip(self):
        desc = XdmaDescriptor(
            src_addr=0x1234_5678_9ABC,
            dst_addr=0xDEF0_0000,
            length=4096,
            stop=False,
            eop=True,
            completed_irq=True,
            nxt_adj=3,
            next_addr=0x8888_0000,
        )
        assert XdmaDescriptor.decode(desc.encode()) == desc

    def test_magic_validated(self):
        raw = bytearray(XdmaDescriptor(src_addr=0, dst_addr=0, length=4).encode())
        raw[3] = 0x00  # corrupt the magic
        with pytest.raises(DescriptorError, match="magic"):
            XdmaDescriptor.decode(bytes(raw))

    def test_wrong_size_rejected(self):
        with pytest.raises(DescriptorError):
            XdmaDescriptor.decode(b"short")

    def test_invalid_fields_rejected(self):
        with pytest.raises(DescriptorError):
            XdmaDescriptor(src_addr=0, dst_addr=0, length=0)
        with pytest.raises(DescriptorError):
            XdmaDescriptor(src_addr=-1, dst_addr=0, length=4)
        with pytest.raises(DescriptorError):
            XdmaDescriptor(src_addr=0, dst_addr=0, length=4, nxt_adj=64)


@pytest.fixture
def xdma_system(sim):
    """Enumerated XDMA core with BRAM, MSI-X set up, IRQs enabled."""
    rc = RootComplex(sim)
    msis = []
    rc.set_msi_handler(lambda addr, data: msis.append(data))
    port, link = rc.create_port()
    core = XdmaCore(sim, link)
    core.attach_axi(0, Bram(256 << 10))
    boot = sim.spawn(enumerate_all(rc))
    function = sim.run_until_triggered(boot)[0]
    bar1 = function.bars[1].address
    bar2 = function.bars[2].address

    def setup():
        for vector in range(3):
            base = bar2 + vector * MSIX_ENTRY_SIZE
            rc.mmio_write(base, MSI_ADDRESS_BASE.to_bytes(8, "little"))
            rc.mmio_write(base + 8, vector.to_bytes(4, "little"))
            rc.mmio_write(base + 12, (0).to_bytes(4, "little"))
        cap = next(c for c in function.capabilities if c.cap_id == 0x11)
        yield port.cfg_write(cap.offset + 2, (0x8000).to_bytes(2, "little"))
        rc.mmio_write(
            bar1 + regs.IRQ_BLOCK_BASE + regs.IRQ_CHANNEL_INT_ENABLE,
            (0x3).to_bytes(4, "little"),
        )

    probe = sim.spawn(setup())
    sim.run_until_triggered(probe)
    return dict(sim=sim, rc=rc, core=core, bar1=bar1, msis=msis,
                alloc=DmaAllocator(rc.host_memory))


def start_sgdma(system, sgdma_base, chan_base, desc_addr):
    rc, bar1 = system["rc"], system["bar1"]
    rc.mmio_write(bar1 + sgdma_base + regs.SGDMA_DESC_LO,
                  (desc_addr & 0xFFFFFFFF).to_bytes(4, "little"))
    rc.mmio_write(bar1 + sgdma_base + regs.SGDMA_DESC_HI,
                  (desc_addr >> 32).to_bytes(4, "little"))
    control = regs.CTRL_RUN | regs.CTRL_IE_DESC_STOPPED
    rc.mmio_write(bar1 + chan_base + regs.CHAN_CONTROL, control.to_bytes(4, "little"))


class TestSgdmaMode:
    def test_h2c_moves_data_and_interrupts(self, xdma_system):
        system = xdma_system
        sim, core, alloc = system["sim"], system["core"], system["alloc"]
        desc_buf = alloc.alloc(32)
        src = alloc.alloc(512)
        src.write(bytes(range(256)) * 2)
        desc = XdmaDescriptor(src_addr=src.addr, dst_addr=0x100, length=512)
        desc_buf.write(desc.encode())
        start_sgdma(system, regs.H2C_SGDMA_BASE, regs.H2C_CHANNEL_BASE, desc_buf.addr)
        sim.run()
        assert core.axi_read(0x100, 512) == bytes(range(256)) * 2
        assert system["msis"] == [0]  # channel 0 -> vector 0
        assert core.h2c[0].completed_count == 1

    def test_c2h_moves_data_to_host(self, xdma_system):
        system = xdma_system
        sim, core, alloc, rc = system["sim"], system["core"], system["alloc"], system["rc"]
        core.axi_write(0x200, b"FPGA->host data.")
        dst = alloc.alloc(64)
        desc_buf = alloc.alloc(32)
        desc = XdmaDescriptor(src_addr=0x200, dst_addr=dst.addr, length=16)
        desc_buf.write(desc.encode())
        start_sgdma(system, regs.C2H_SGDMA_BASE, regs.C2H_CHANNEL_BASE, desc_buf.addr)
        sim.run()
        assert dst.read(0, 16) == b"FPGA->host data."
        assert system["msis"] == [1]  # C2H channel -> vector 1

    def test_descriptor_chain(self, xdma_system):
        system = xdma_system
        sim, core, alloc = system["sim"], system["core"], system["alloc"]
        descs = alloc.alloc(64)
        src = alloc.alloc(256)
        src.write(b"A" * 128 + b"B" * 128)
        second = XdmaDescriptor(src_addr=src.addr + 128, dst_addr=0x80, length=128)
        first = XdmaDescriptor(
            src_addr=src.addr, dst_addr=0x0, length=128, stop=False,
            next_addr=descs.addr + 32,
        )
        descs.write(first.encode() + second.encode())
        start_sgdma(system, regs.H2C_SGDMA_BASE, regs.H2C_CHANNEL_BASE, descs.addr)
        sim.run()
        assert core.axi_read(0, 128) == b"A" * 128
        assert core.axi_read(0x80, 128) == b"B" * 128
        assert core.h2c[0].completed_count == 2

    def test_perf_counter_records_run(self, xdma_system):
        system = xdma_system
        sim, core, alloc = system["sim"], system["core"], system["alloc"]
        desc_buf = alloc.alloc(32)
        src = alloc.alloc(64)
        desc_buf.write(XdmaDescriptor(src_addr=src.addr, dst_addr=0, length=64).encode())
        start_sgdma(system, regs.H2C_SGDMA_BASE, regs.H2C_CHANNEL_BASE, desc_buf.addr)
        sim.run()
        assert len(core.perf.intervals_array("h2c0_dma")) == 1
        assert core.perf.last("h2c0_dma") > 0

    def test_masked_channel_raises_nothing(self, xdma_system):
        system = xdma_system
        sim, rc, core, alloc = system["sim"], system["rc"], system["core"], system["alloc"]
        rc.mmio_write(
            system["bar1"] + regs.IRQ_BLOCK_BASE + regs.IRQ_CHANNEL_INT_ENABLE,
            (0).to_bytes(4, "little"),
        )
        sim.run()
        desc_buf = alloc.alloc(32)
        src = alloc.alloc(64)
        desc_buf.write(XdmaDescriptor(src_addr=src.addr, dst_addr=0, length=64).encode())
        start_sgdma(system, regs.H2C_SGDMA_BASE, regs.H2C_CHANNEL_BASE, desc_buf.addr)
        sim.run()
        assert system["msis"] == []


class TestBypassMode:
    def test_bypass_h2c(self, xdma_system, run):
        system = xdma_system
        sim, core, alloc = system["sim"], system["core"], system["alloc"]
        src = alloc.alloc(128)
        src.write(b"bypass" * 20)

        def body():
            yield core.h2c[0].submit_bypass(src.addr, 0x300, 120)

        run(sim, body())
        assert core.axi_read(0x300, 120) == b"bypass" * 20

    def test_bypass_serializes_in_order(self, xdma_system, run):
        system = xdma_system
        sim, core, alloc = system["sim"], system["core"], system["alloc"]
        src = alloc.alloc(64)
        src.write(b"1" * 32 + b"2" * 32)
        order = []
        e1 = core.h2c[0].submit_bypass(src.addr, 0x0, 32)
        e2 = core.h2c[0].submit_bypass(src.addr + 32, 0x20, 32)
        e1.on_trigger(lambda e: order.append(1))
        e2.on_trigger(lambda e: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_h2c_event_carries_moved_bytes(self, xdma_system):
        system = xdma_system
        sim, core, alloc = system["sim"], system["core"], system["alloc"]
        src = alloc.alloc(64)
        src.write(bytes(range(64)))
        done = core.h2c[0].submit_bypass(src.addr, 0x400, 64)
        assert sim.run_until_triggered(done) == bytes(range(64))
        assert core.axi_read(0x400, 64) == bytes(range(64))

    def test_c2h_event_fires_after_delivery(self, xdma_system):
        system = xdma_system
        sim, core, alloc = system["sim"], system["core"], system["alloc"]
        core.axi_write(0x500, b"card bytes")
        dst = alloc.alloc(16)
        done = core.c2h[0].submit_bypass(0x500, dst.addr, 10)
        assert sim.run_until_triggered(done) is None
        assert dst.read(0, 10) == b"card bytes"

    def test_transfers_spawn_no_process(self, xdma_system, monkeypatch):
        """The data mover runs as scheduled callbacks: a bypass transfer
        costs no simulation process in either direction."""
        system = xdma_system
        sim, core, alloc = system["sim"], system["core"], system["alloc"]
        src = alloc.alloc(256)
        src.write(b"h" * 256)
        dst = alloc.alloc(256)
        core.axi_write(0x1000, b"c" * 256)

        def no_spawn(*args, **kwargs):
            raise AssertionError("bypass transfer spawned a process")

        monkeypatch.setattr(Simulator, "spawn", no_spawn)
        reads = [core.h2c[0].submit_bypass(src.addr + 64 * i, 0x600 + 64 * i, 64)
                 for i in range(4)]
        writes = [core.c2h[0].submit_bypass(0x1000 + 64 * i, dst.addr + 64 * i, 64)
                  for i in range(4)]
        sim.run()
        assert all(event.triggered for event in reads + writes)
        assert core.axi_read(0x600, 256) == b"h" * 256
        assert dst.read(0, 256) == b"c" * 256

    def test_status_bits_per_transfer(self, xdma_system):
        system = xdma_system
        sim, core, alloc = system["sim"], system["core"], system["alloc"]
        src = alloc.alloc(32)
        engine = core.h2c[0]
        done = engine.submit_bypass(src.addr, 0x700, 32)
        sim.run(until=sim.now + 1)
        assert engine.status == regs.STAT_BUSY
        sim.run_until_triggered(done)
        assert engine.status == regs.STAT_DESC_STOPPED | regs.STAT_DESC_COMPLETED

    def test_idle_engine_starts_bypass_transfer_at_once(self, xdma_system):
        """An idle mover takes a bypass job when it is submitted, not on
        a later event: BUSY reads set before the simulator runs."""
        system = xdma_system
        sim, core, alloc = system["sim"], system["core"], system["alloc"]
        sim.run()
        engine = core.h2c[0]
        engine.submit_bypass(alloc.alloc(32).addr, 0x700, 32)
        assert engine.status == regs.STAT_BUSY

    @pytest.mark.parametrize("direction", ["h2c", "c2h"])
    def test_unmapped_axi_address_raises_without_completion(self, xdma_system, direction):
        system = xdma_system
        sim, core, alloc = system["sim"], system["core"], system["alloc"]
        host = alloc.alloc(32)
        unmapped = 0x4000_0000  # far past the 256 KiB BRAM at AXI 0
        if direction == "h2c":
            done = core.h2c[0].submit_bypass(host.addr, unmapped, 32)
        else:
            done = core.c2h[0].submit_bypass(unmapped, host.addr, 32)
        with pytest.raises(MemoryAccessError, match="unmapped"):
            sim.run()
        assert not done.triggered

    def test_length_validated(self, xdma_system):
        with pytest.raises(DescriptorError):
            xdma_system["core"].h2c[0].submit_bypass(0, 0, 0)

    def test_user_irq(self, xdma_system):
        system = xdma_system
        sim, rc, core = system["sim"], system["rc"], system["core"]
        rc.mmio_write(
            system["bar1"] + regs.IRQ_BLOCK_BASE + regs.IRQ_USER_INT_ENABLE,
            (0x1).to_bytes(4, "little"),
        )
        rc.mmio_write(
            system["bar1"] + regs.IRQ_BLOCK_BASE + regs.IRQ_USER_VECTOR_BASE,
            (2).to_bytes(4, "little"),
        )
        sim.run()
        core.raise_user_irq(0)
        sim.run()
        assert system["msis"] == [2]

    def test_user_irq_masked(self, xdma_system):
        system = xdma_system
        system["sim"].run()
        system["core"].raise_user_irq(0)  # user ints not enabled
        system["sim"].run()
        assert system["msis"] == []

    def test_user_irq_bounds(self, xdma_system):
        with pytest.raises(IndexError):
            xdma_system["core"].raise_user_irq(99)


class TestRegisterMap:
    def test_identifier_registers(self, xdma_system, run):
        system = xdma_system
        sim, rc, bar1 = system["sim"], system["rc"], system["bar1"]

        def body():
            out = []
            for base in (regs.H2C_CHANNEL_BASE, regs.C2H_CHANNEL_BASE,
                         regs.IRQ_BLOCK_BASE, regs.CONFIG_BLOCK_BASE):
                raw = yield rc.mmio_read(bar1 + base, 4)
                out.append(int.from_bytes(raw, "little"))
            return out

        idents = run(sim, body())
        for ident in idents:
            assert ident & 0xFFF0_0000 == regs.IDENTIFIER_MAGIC

    def test_status_register_readable(self, xdma_system, run):
        system = xdma_system
        sim, rc, bar1 = system["sim"], system["rc"], system["bar1"]

        def body():
            raw = yield rc.mmio_read(bar1 + regs.H2C_CHANNEL_BASE + regs.CHAN_STATUS, 4)
            return int.from_bytes(raw, "little")

        assert run(sim, body()) & regs.STAT_DESC_STOPPED
