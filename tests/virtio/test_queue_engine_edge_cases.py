"""Edge-case tests for the device-side queue engine, driven through a
booted testbed so ring traffic travels the real DMA path."""

import pytest

from repro.core.calibration import FPGA_IP, PAPER_PROFILE, TEST_DST_PORT
from repro.core.testbed import build_virtio_testbed
from repro.virtio.controller.queue_engine import QueueRole
from repro.virtio.virtqueue import VirtqueueError


def echo(testbed, payload: bytes):
    def app():
        yield from testbed.socket.sendto(payload, FPGA_IP, TEST_DST_PORT)
        data, _ = yield from testbed.socket.recvfrom()
        return data

    process = testbed.sim.spawn(app())
    return testbed.sim.run_until_triggered(process)


class TestBatching:
    def test_burst_of_pending_chains_serviced_in_one_kick(self):
        """Multiple buffers published before the doorbell are all
        consumed by one service pass (the avail-index delta loop)."""
        testbed = build_virtio_testbed(seed=51)
        tx_engine = testbed.device.engines[1]
        socket = testbed.socket
        results = []

        def sender():
            for i in range(4):
                yield from socket.sendto(bytes([i]) * 32, FPGA_IP, TEST_DST_PORT)

        def receiver():
            for _ in range(4):
                data, _ = yield from socket.recvfrom()
                results.append(data[0])

        testbed.sim.spawn(sender())
        process = testbed.sim.spawn(receiver())
        testbed.sim.run_until_triggered(process)
        assert sorted(results) == [0, 1, 2, 3]
        assert tx_engine.chains_processed == 4

    def test_avail_index_wraparound(self):
        """More round trips than the ring size: the 16-bit indices wrap
        and the free-list accounting survives."""
        testbed = build_virtio_testbed(seed=52)
        size = testbed.driver.transport.queue(1).size
        rounds = size + 10
        for i in range(rounds):
            data = echo(testbed, bytes([i & 0xFF]) * 16)
            assert data == bytes([i & 0xFF]) * 16
        assert testbed.device.engines[1].chains_processed == rounds


class TestPrefetchModes:
    def test_prefetch_banks_chains(self):
        testbed = build_virtio_testbed(seed=53)
        rx_engine = testbed.device.engines[0]
        assert rx_engine.prefetch
        assert len(rx_engine._free_chains) > 0  # banked at boot

    def test_on_demand_mode_keeps_no_bank(self):
        testbed = build_virtio_testbed(
            seed=53, profile=PAPER_PROFILE.without_prefetch()
        )
        rx_engine = testbed.device.engines[0]
        assert not rx_engine.prefetch
        assert len(rx_engine._free_chains) == 0
        # The data path still works (fetch happens at delivery time).
        assert echo(testbed, b"on-demand") == b"on-demand"

    def test_on_demand_matches_prefetch_results(self):
        for profile in (PAPER_PROFILE, PAPER_PROFILE.without_prefetch()):
            testbed = build_virtio_testbed(seed=54, profile=profile)
            assert echo(testbed, b"same answer") == b"same answer"


class TestRoleEnforcement:
    def test_deliver_on_out_queue_rejected(self):
        testbed = build_virtio_testbed(seed=55)
        tx_engine = testbed.device.engines[1]
        assert tx_engine.role is QueueRole.OUT
        with pytest.raises(VirtqueueError):
            gen = tx_engine.deliver(b"wrong way")
            next(gen)


class TestInterruptSuppressionAccounting:
    def test_suppressed_completions_counted(self):
        testbed = build_virtio_testbed(seed=56)
        tx_engine = testbed.device.engines[1]
        for _ in range(3):
            echo(testbed, b"s" * 16)
        # TX interrupts are suppressed by the driver for every packet.
        assert tx_engine.interrupts_suppressed == 3
        assert tx_engine.interrupts_raised == 0

    def test_rx_interrupts_raised(self):
        testbed = build_virtio_testbed(seed=57)
        rx_engine = testbed.device.engines[0]
        for _ in range(3):
            echo(testbed, b"r" * 16)
        assert rx_engine.interrupts_raised == 3
