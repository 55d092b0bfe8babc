"""Integration tests: each injection site misbehaves as specified and
the driver stacks recover within their bounded-retry budgets.

The per-kind tests run real traffic on a booted testbed with a
one-shot (``NthEvent``) plan, so the fault lands deterministically and
the assertion can be exact.
"""

import pytest

from repro.core.calibration import FPGA_IP, TEST_DST_PORT
from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.faults.plan import (
    KIND_DESC_ERROR,
    KIND_LOST_NOTIFY,
    KIND_MALFORMED_CHAIN,
    SITE_VIRTIO_CTRL,
    SITE_XDMA_ENGINE,
    FaultPlan,
    FaultSpec,
    NthEvent,
    driver_fault_plan,
)
from repro.host.chardev import sys_read, sys_write


def one_shot(site, kind, n=1) -> FaultPlan:
    return FaultPlan((FaultSpec(site, kind, NthEvent(n)),))


def xdma_round_trip(testbed, size=256):
    """One write+read ping-pong on the XDMA chardev."""
    kernel, driver = testbed.kernel, testbed.driver
    payload = bytes(i & 0xFF for i in range(size))

    def app():
        written = yield from sys_write(kernel, driver, payload)
        data = yield from sys_read(kernel, driver, size)
        return written, data

    process = testbed.sim.spawn(app())
    written, data = testbed.sim.run_until_triggered(process)
    return payload, written, data


def virtio_echo(testbed, payload):
    socket = testbed.socket

    def app():
        yield from socket.sendto(payload, FPGA_IP, TEST_DST_PORT)
        data, _ = yield from socket.recvfrom()
        return data

    process = testbed.sim.spawn(app())
    return testbed.sim.run_until_triggered(process)


class TestXdmaEngineFaults:
    def test_descriptor_error_recovered_by_retry(self):
        """A corrupted SGDMA descriptor halts the engine without an
        interrupt; the chardev request timeout must retry and succeed
        within the bounded budget."""
        testbed = build_xdma_testbed(
            seed=21, fault_plan=one_shot(SITE_XDMA_ENGINE, KIND_DESC_ERROR)
        )
        payload, written, data = xdma_round_trip(testbed)
        assert written == len(payload) and data == payload
        driver = testbed.driver
        assert driver.fault_timeouts >= 1
        assert driver.fault_retries >= 1
        assert driver.requests_failed == 0
        assert driver.recovery_latencies_ps
        assert testbed.injector.total_injected == 1

    def test_lost_channel_irq_recovered_by_status_poll(self):
        """A swallowed channel interrupt: the timeout path reads the
        status register, sees DESC_COMPLETED, and completes without a
        full re-submit.  A zero-rate plan arms the recovery path; the
        H2C channel's interrupt is masked in the IRQ block after probe,
        so the write's completion never interrupts."""
        testbed = build_xdma_testbed(seed=24, fault_plan=driver_fault_plan("xdma", 0.0))
        testbed.xdma.channel_int_enable &= ~1  # H2C channel 0 is IRQ index 0
        payload, written, data = xdma_round_trip(testbed)
        assert written == len(payload) and data == payload
        driver = testbed.driver
        assert driver.lost_irq_recoveries == 1
        assert driver.fault_timeouts == 1
        assert driver.fault_retries == 0
        assert driver.requests_failed == 0
        assert testbed.injector.total_injected == 0


class TestVirtioControllerFaults:
    def test_lost_notification_rekicked_by_watchdog(self):
        """A swallowed doorbell: the TX watchdog detects the stalled
        queue and re-kicks it without a device reset."""
        testbed = build_virtio_testbed(
            seed=51, fault_plan=one_shot(SITE_VIRTIO_CTRL, KIND_LOST_NOTIFY)
        )
        payload = bytes(range(64))
        data = virtio_echo(testbed, payload)
        assert data == payload
        driver = testbed.driver
        assert driver.watchdog_rekicks >= 1
        assert driver.device_resets == 0

    def test_malformed_chain_forces_reset_and_recovers(self):
        """A self-referential descriptor chain latches NEEDS_RESET; the
        driver must reset, renegotiate, replay, and deliver the echo."""
        testbed = build_virtio_testbed(
            seed=53, fault_plan=one_shot(SITE_VIRTIO_CTRL, KIND_MALFORMED_CHAIN)
        )
        payload = bytes(range(64))
        data = virtio_echo(testbed, payload)
        assert data == payload
        driver = testbed.driver
        assert driver.needs_reset_seen == 1
        assert driver.device_resets == 1
        assert driver.recovery_latencies_ps


class TestSustainedFaultTraffic:
    """The acceptance scenarios: sustained traffic under each driver's
    canonical fault completes without hangs or abandoned requests."""

    @pytest.mark.parametrize("driver", ["virtio", "xdma"])
    def test_sustained_traffic_recovers(self, driver):
        from repro.core.latency import run_payload

        build = build_virtio_testbed if driver == "virtio" else build_xdma_testbed
        testbed = build(seed=61, fault_plan=driver_fault_plan(driver, 0.05))
        result = run_payload(testbed, 64, 60)
        assert result.packets == 60
        assert testbed.injector.total_injected >= 1
        assert getattr(testbed.driver, "requests_failed", 0) == 0
