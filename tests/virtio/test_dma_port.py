"""Tests for the controller's DMA port (staging, validation, stats)."""

import pytest

from repro.fpga.xdma.core import XdmaCore
from repro.mem.fpga_mem import Bram
from repro.pcie.enumeration import enumerate_all
from repro.pcie.root_complex import RootComplex
from repro.virtio.controller.dma_port import (
    NUM_STAGING_SLOTS,
    STAGING_SLOT_SIZE,
    ControllerDmaPort,
)


@pytest.fixture
def port(sim):
    rc = RootComplex(sim)
    rc.set_msi_handler(lambda a, d: None)
    _, link = rc.create_port()
    core = XdmaCore(sim, link)
    bram = Bram(64 << 10)
    core.attach_axi(0, bram)
    boot = sim.spawn(enumerate_all(rc))
    sim.run_until_triggered(boot)
    dma_port = ControllerDmaPort(sim, core, bram, staging_base=0x8000)
    return dict(sim=sim, rc=rc, port=dma_port)


class TestHostRead:
    def test_reads_host_bytes(self, port, run):
        port["rc"].host_memory.write(0x5000, b"staging test data")

        def body():
            data = yield port["port"].host_read(0x5000, 17)
            return data

        assert run(port["sim"], body()) == b"staging test data"

    def test_slot_rotation_preserves_pipelined_reads(self, port):
        """More outstanding reads than one slot: each completion must
        still see its own data."""
        sim = port["sim"]
        for i in range(NUM_STAGING_SLOTS + 3):
            port["rc"].host_memory.write(0x6000 + i * 64, bytes([i]) * 32)
        results = []
        for i in range(NUM_STAGING_SLOTS + 3):
            ev = port["port"].host_read(0x6000 + i * 64, 32)
            ev.on_trigger(lambda e, i=i: results.append((i, e.value)))
        sim.run()
        for i, data in results:
            assert data == bytes([i]) * 32

    def test_size_limits(self, port):
        with pytest.raises(ValueError):
            port["port"].host_read(0, 0)
        with pytest.raises(ValueError):
            port["port"].host_read(0, STAGING_SLOT_SIZE + 1)


class TestHostWrite:
    def test_writes_host_bytes(self, port, run):
        def body():
            yield port["port"].host_write(0x7000, b"written by fpga")

        run(port["sim"], body())
        assert port["rc"].host_memory.read(0x7000, 15) == b"written by fpga"

    def test_write_order_preserved(self, port, run):
        def body():
            port["port"].host_write(0x8000, b"first!")
            yield port["port"].host_write(0x8000, b"second")

        run(port["sim"], body())
        port["sim"].run()
        assert port["rc"].host_memory.read(0x8000, 6) == b"second"

    def test_slot_rotation_preserves_pipelined_writes(self, port):
        """More outstanding writes than slots: a write whose slot still
        holds a queued write's bytes waits for that write, so each
        address receives its own data."""
        sim = port["sim"]
        done = [
            port["port"].host_write(0x6000 + i * 64, bytes([i]) * 32)
            for i in range(NUM_STAGING_SLOTS + 3)
        ]
        sim.run()
        assert all(event.triggered for event in done)
        for i in range(NUM_STAGING_SLOTS + 3):
            assert port["rc"].host_memory.read(0x6000 + i * 64, 32) == bytes([i]) * 32

    def test_size_limits(self, port):
        with pytest.raises(ValueError):
            port["port"].host_write(0, b"")


class TestAccounting:
    def test_stats(self, port, run):
        def body():
            yield port["port"].host_read(0x100, 8)
            yield port["port"].host_write(0x200, b"12345")

        run(port["sim"], body())
        stats = port["port"].stats
        assert stats["reads_issued"] == 1
        assert stats["writes_issued"] == 1
        assert stats["bytes_read"] == 8
        assert stats["bytes_written"] == 5

    def test_staging_area_bounds_checked(self, sim):
        rc = RootComplex(sim)
        rc.set_msi_handler(lambda a, d: None)
        _, link = rc.create_port()
        core = XdmaCore(sim, link)
        small = Bram(1024)
        core.attach_axi(0, small)
        with pytest.raises(ValueError, match="staging"):
            ControllerDmaPort(sim, core, small, staging_base=0)
