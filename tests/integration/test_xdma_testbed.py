"""End-to-end tests on the booted XDMA example-design testbed."""

import pytest

from repro.core.calibration import PAPER_PROFILE
from repro.core.testbed import build_xdma_testbed
from repro.host.chardev import sys_poll, sys_read, sys_write


@pytest.fixture(scope="module")
def testbed():
    return build_xdma_testbed(seed=13)


def write_read(testbed, data: bytes):
    kernel, driver = testbed.kernel, testbed.driver

    def app():
        written = yield from sys_write(kernel, driver, data)
        out = yield from sys_read(kernel, driver, len(data))
        return written, out

    process = testbed.sim.spawn(app())
    return testbed.sim.run_until_triggered(process)


class TestProbe:
    def test_msix_programmed(self, testbed):
        table = testbed.xdma.endpoint.msix.table
        assert table.enabled

    def test_channel_irqs_enabled(self, testbed):
        assert testbed.xdma.channel_int_enable & 0x3 == 0x3


class TestDataPath:
    def test_write_then_read_roundtrip(self, testbed):
        data = bytes(range(256)) * 2
        written, out = write_read(testbed, data)
        assert written == len(data)
        assert out == data

    def test_data_lands_in_bram(self, testbed):
        write_read(testbed, b"BRAM content")
        assert testbed.xdma.axi_read(0, 12) == b"BRAM content"

    def test_two_interrupts_per_round_trip(self, testbed):
        """One channel interrupt per direction (H2C + C2H)."""
        before = testbed.driver.interrupts
        write_read(testbed, b"x" * 64)
        assert testbed.driver.interrupts == before + 2

    def test_engine_counters_recorded(self, testbed):
        perf = testbed.perf
        perf.clear()
        write_read(testbed, b"x" * 128)
        assert len(perf.intervals_array("h2c0_dma")) == 1
        assert len(perf.intervals_array("c2h0_dma")) == 1

    def test_descriptor_fetched_from_host_per_transfer(self, testbed):
        """The SGDMA engine fetches each descriptor over PCIe -- the
        per-transfer exchange VirtIO avoids (Section IV-A)."""
        h2c_before = testbed.xdma.h2c[0].completed_count
        write_read(testbed, b"x" * 64)
        assert testbed.xdma.h2c[0].completed_count == h2c_before + 1

    def test_sequential_transfers(self, testbed):
        for i in range(10):
            payload = bytes([i]) * 100
            _, out = write_read(testbed, payload)
            assert out == payload


class TestC2hInterruptAblation:
    def test_poll_waits_for_user_irq(self):
        profile = PAPER_PROFILE.with_xdma_c2h_interrupt()
        testbed = build_xdma_testbed(seed=5, profile=profile)
        kernel, driver = testbed.kernel, testbed.driver

        def app():
            yield from sys_write(kernel, driver, b"x" * 64)
            yield from sys_poll(kernel, driver)
            data = yield from sys_read(kernel, driver, 64)
            return data

        process = testbed.sim.spawn(app())
        data = testbed.sim.run_until_triggered(process)
        assert len(data) == 64
        # write interrupt + user "data ready" interrupt + read interrupt
        assert driver.interrupts == 3

    def test_ablation_is_slower_than_paper_setup(self):
        def measure(profile, use_poll):
            testbed = build_xdma_testbed(seed=5, profile=profile)
            kernel, driver = testbed.kernel, testbed.driver

            def app():
                t0 = testbed.sim.now
                yield from sys_write(kernel, driver, b"x" * 64)
                if use_poll:
                    yield from sys_poll(kernel, driver)
                yield from sys_read(kernel, driver, 64)
                return testbed.sim.now - t0

            process = testbed.sim.spawn(app())
            return testbed.sim.run_until_triggered(process)

        favourable = measure(PAPER_PROFILE, use_poll=False)
        realistic = measure(PAPER_PROFILE.with_xdma_c2h_interrupt(), use_poll=True)
        assert realistic > favourable
