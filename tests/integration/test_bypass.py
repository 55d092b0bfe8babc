"""Tests for the driver-bypass host DMA interface (Section III-A)."""

import pytest

from repro.core.testbed import build_virtio_testbed
from repro.virtio.controller.bypass import HostBypassPort
from repro.virtio.controller.dma_port import STAGING_SLOT_SIZE


@pytest.fixture
def testbed():
    return build_virtio_testbed(seed=31)


@pytest.fixture
def bypass(testbed):
    return HostBypassPort(testbed.sim, testbed.device.dma_port)


class TestBypassPort:
    def test_read_host_memory(self, testbed, bypass, run):
        testbed.kernel.memory.write(0x0200_0000, b"host-resident rule table")

        def logic():
            data = yield bypass.read(0x0200_0000, 24)
            return data

        assert run(testbed.sim, logic()) == b"host-resident rule table"

    def test_write_host_memory(self, testbed, bypass, run):
        def logic():
            yield bypass.write(0x0300_0000, b"flow state spill")

        run(testbed.sim, logic())
        assert testbed.kernel.memory.read(0x0300_0000, 16) == b"flow state spill"

    def test_independent_of_virtqueue_traffic(self, testbed, bypass):
        """Bypass transfers proceed while the echo data path runs --
        offloading 'independently of the VirtIO drivers'."""
        from repro.core.calibration import FPGA_IP, TEST_DST_PORT

        testbed.kernel.memory.write(0x0600_0000, b"A" * 64)
        results = {}

        def logic():
            data = yield bypass.read(0x0600_0000, 64)
            results["bypass"] = data

        def app():
            yield from testbed.socket.sendto(b"ping" * 16, FPGA_IP, TEST_DST_PORT)
            data, _ = yield from testbed.socket.recvfrom()
            results["echo"] = data

        testbed.sim.spawn(logic())
        process = testbed.sim.spawn(app())
        testbed.sim.run_until_triggered(process)
        testbed.sim.run()
        assert results["bypass"] == b"A" * 64
        assert results["echo"] == b"ping" * 16

    def test_stats(self, testbed, bypass, run):
        def logic():
            yield bypass.write(0x0700_0000, b"x" * 10)
            yield bypass.read(0x0700_0000, 10)

        run(testbed.sim, logic())
        assert bypass.stats == {
            "reads": 1, "writes": 1, "bytes_read": 10, "bytes_written": 10,
        }

    def test_oversized_single_op_rejected(self, testbed, bypass):
        with pytest.raises(ValueError):
            bypass.read(0, STAGING_SLOT_SIZE + 1)
