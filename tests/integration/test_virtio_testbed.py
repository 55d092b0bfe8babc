"""End-to-end tests on the booted VirtIO network testbed.

These exercise the full path the paper measures: socket -> UDP/IP ->
virtio-net driver -> virtqueue -> doorbell -> FPGA controller -> XDMA
bypass DMA -> user-logic echo -> RX delivery -> MSI-X -> NAPI ->
socket.
"""

import pytest

from repro.core.calibration import FPGA_IP, TEST_DST_PORT
from repro.core.testbed import build_virtio_testbed
from repro.virtio.constants import (
    VIRTIO_F_VERSION_1,
    VIRTIO_NET_F_GUEST_CSUM,
    VIRTIO_NET_F_MAC,
)


@pytest.fixture(scope="module")
def testbed():
    return build_virtio_testbed(seed=11)


def echo_once(testbed, payload: bytes):
    socket = testbed.socket

    def app():
        yield from socket.sendto(payload, FPGA_IP, TEST_DST_PORT)
        data, source = yield from socket.recvfrom()
        return data, source

    process = testbed.sim.spawn(app())
    return testbed.sim.run_until_triggered(process)


class TestBoot:
    def test_device_reached_driver_ok(self, testbed):
        assert testbed.device.driver_ok

    def test_features_negotiated(self, testbed):
        accepted = testbed.device.accepted_features
        assert accepted.has(VIRTIO_F_VERSION_1)
        assert accepted.has(VIRTIO_NET_F_MAC)
        assert accepted.has(VIRTIO_NET_F_GUEST_CSUM)

    def test_netdev_mac_read_from_device_config(self, testbed):
        assert testbed.driver.netdev.mac == testbed.device.personality.mac

    def test_both_queues_have_engines(self, testbed):
        assert set(testbed.device.engines) == {0, 1}

    def test_rx_buffers_posted(self, testbed):
        assert [len(pool) for pool in testbed.driver._rx_pools] == [64]


class TestEchoDatapath:
    def test_payload_echoed_intact(self, testbed):
        payload = bytes(range(200)) + b"tail"
        data, source = echo_once(testbed, payload)
        assert data == payload
        assert source == (FPGA_IP, TEST_DST_PORT)

    def test_various_sizes(self, testbed):
        for size in (1, 17, 64, 512, 1400):
            data, _ = echo_once(testbed, bytes(size))
            assert len(data) == size

    def test_one_doorbell_per_transmit(self, testbed):
        """Section IV-A: 'only a notification using a single I/O write
        is needed at runtime'."""
        before = testbed.driver.tx_kicks
        echo_once(testbed, b"x" * 64)
        assert testbed.driver.tx_kicks == before + 1

    def test_one_rx_interrupt_per_round_trip(self, testbed):
        before = testbed.driver.rx_irqs
        echo_once(testbed, b"x" * 64)
        assert testbed.driver.rx_irqs == before + 1

    def test_tx_interrupts_suppressed(self, testbed):
        """The transmitq completes without interrupting the host."""
        tx_engine = testbed.device.engines[1]
        echo_once(testbed, b"x" * 64)
        assert tx_engine.interrupts_raised == 0
        assert tx_engine.interrupts_suppressed > 0

    def test_back_to_back_packets(self, testbed):
        for i in range(20):
            data, _ = echo_once(testbed, bytes([i]) * 32)
            assert data == bytes([i]) * 32

    def test_perf_counters_cover_each_packet(self, testbed):
        perf = testbed.perf
        perf.clear()
        for _ in range(5):
            echo_once(testbed, b"y" * 64)
        assert len(perf.intervals_array("virtio_h2c")) == 5
        assert len(perf.intervals_array("virtio_c2h")) == 5
        assert len(perf.intervals_array("virtio_resp")) == 5

    def test_hardware_time_nonzero_and_bounded(self, testbed):
        perf = testbed.perf
        perf.clear()
        echo_once(testbed, b"z" * 256)
        from repro.sim.time import us

        hw = perf.last("virtio_h2c") + perf.last("virtio_c2h")
        assert us(2) < hw < us(100)

    def test_rx_buffers_recycled(self, testbed):
        for _ in range(10):
            echo_once(testbed, b"r" * 64)
        assert [len(pool) for pool in testbed.driver._rx_pools] == [64]


class TestDeterminism:
    def test_same_seed_same_latency(self):
        values = []
        for _ in range(2):
            tb = build_virtio_testbed(seed=99)
            t0 = tb.sim.now
            echo_once(tb, b"deterministic")
            values.append(tb.sim.now - t0)
        assert values[0] == values[1]

    def test_different_seed_different_latency(self):
        values = []
        for seed in (1, 2):
            tb = build_virtio_testbed(seed=seed)
            t0 = tb.sim.now
            echo_once(tb, b"stochastic")
            values.append(tb.sim.now - t0)
        assert values[0] != values[1]
