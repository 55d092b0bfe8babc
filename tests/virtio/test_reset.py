"""Device reset and renegotiation (virtio spec 2.1.2 NEEDS_RESET).

Covers the full recovery arc: the device latches
``STATUS_DEVICE_NEEDS_RESET`` and raises a configuration-change
interrupt; the driver resets the device, re-runs the 3.1.1
initialization sequence, restores its queues, and traffic continues at
the paper-claim latency.
"""

import numpy as np
import pytest

from repro.core.calibration import FPGA_IP, TEST_DST_PORT
from repro.core.testbed import build_virtio_testbed
from repro.faults.plan import reset_storm_plan
from repro.virtio.constants import (
    STATUS_DEVICE_NEEDS_RESET,
    VIRTIO_F_VERSION_1,
    VIRTIO_NET_F_MAC,
)

RX_POOL_SIZE = 64


def timed_echo(testbed, payload):
    """One UDP echo; returns (data, rtt_ps)."""
    socket = testbed.socket

    def app():
        yield from socket.sendto(payload, FPGA_IP, TEST_DST_PORT)
        data, _ = yield from socket.recvfrom()
        return data

    start = testbed.sim.now
    process = testbed.sim.spawn(app())
    data = testbed.sim.run_until_triggered(process)
    return data, testbed.sim.now - start


class TestNeedsResetRecovery:
    @pytest.fixture()
    def recovered(self):
        """A testbed taken through traffic -> NEEDS_RESET -> recovery."""
        testbed = build_virtio_testbed(seed=83)
        before = [timed_echo(testbed, bytes([i]) * 64) for i in range(4)]
        testbed.device.mark_needs_reset("test-initiated")
        assert testbed.device.device_status & STATUS_DEVICE_NEEDS_RESET
        testbed.sim.run()  # deliver config IRQ, run the recovery to completion
        return testbed, before

    def test_driver_observes_needs_reset(self, recovered):
        testbed, _ = recovered
        assert testbed.driver.needs_reset_seen == 1
        assert testbed.driver.device_resets == 1

    def test_status_cleared_and_renegotiated(self, recovered):
        testbed, _ = recovered
        device = testbed.device
        assert not device.device_status & STATUS_DEVICE_NEEDS_RESET
        assert device.driver_ok
        accepted = device.accepted_features
        assert accepted.has(VIRTIO_F_VERSION_1)
        assert accepted.has(VIRTIO_NET_F_MAC)

    def test_queues_drained_and_rebuilt(self, recovered):
        testbed, _ = recovered
        driver = testbed.driver
        assert driver._pending == [{}]
        assert driver._tx_counts == [0]
        assert [len(pool) for pool in driver._rx_pools] == [RX_POOL_SIZE]
        assert not driver._recovering

    def test_traffic_resumes_intact(self, recovered):
        testbed, _ = recovered
        for i in range(4):
            payload = bytes([0x80 + i]) * 64
            data, _ = timed_echo(testbed, payload)
            assert data == payload

    def test_latency_restored_to_paper_claim(self, recovered):
        """Post-recovery round trips must match the pre-reset latency
        -- the reset may not leave the stack degraded."""
        testbed, before = recovered
        before_rtt = min(rtt for _, rtt in before)
        after = [timed_echo(testbed, bytes(64))[1] for _ in range(4)]
        assert min(after) <= before_rtt * 1.2

    def test_recovery_latency_recorded(self, recovered):
        testbed, _ = recovered
        assert len(testbed.driver.recovery_latencies_ps) == 1
        assert testbed.driver.recovery_latencies_ps[0] > 0


class TestResetMidTraffic:
    def test_reset_storm_does_not_lose_packets(self):
        """Repeated malformed-chain resets *during* a measurement run:
        every echo still arrives (the run only completes if it does)
        and no request is abandoned."""
        from repro.core.latency import run_payload

        packets = 60
        testbed = build_virtio_testbed(seed=89, fault_plan=reset_storm_plan(15))
        result = run_payload(testbed, 64, packets)
        driver = testbed.driver
        assert result.packets == packets
        assert driver.device_resets >= 2
        assert driver.needs_reset_seen == driver.device_resets
        assert driver.requests_failed == 0
        # End-of-run steady state: nothing in flight beyond the final
        # chain parked completed-but-uncleaned in the used ring.
        (pending,) = driver._pending
        assert len(pending) <= 1
        assert driver._tx_counts == [len(pending)]

    def test_reset_storm_median_latency_stays_calibrated(self):
        """Resets inflate the tail, not the body: the median round trip
        under a sparse reset storm stays close to fault-free."""
        from repro.core.latency import run_payload

        packets = 60
        clean = build_virtio_testbed(seed=91)
        clean_median = np.median(
            run_payload(clean, 64, packets).adjusted_rtt_ps
        )
        stormy = build_virtio_testbed(seed=91, fault_plan=reset_storm_plan(20))
        storm_median = np.median(
            run_payload(stormy, 64, packets).adjusted_rtt_ps
        )
        assert stormy.driver.device_resets >= 1
        assert storm_median <= clean_median * 1.3
