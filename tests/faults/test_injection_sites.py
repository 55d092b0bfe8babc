"""Integration tests: each injection site misbehaves as specified and
the driver stacks recover within their bounded-retry budgets.

Every test runs real traffic on a booted testbed with a one-shot
(``NthEvent``) plan, so the fault lands deterministically and the
assertion can be exact.
"""

import pytest

from repro.core.calibration import FPGA_IP, PAPER_PROFILE, TEST_DST_PORT
from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.faults.plan import (
    KIND_DESC_ERROR,
    KIND_DUP_MSI,
    KIND_ENGINE_STALL,
    KIND_LOST_IRQ,
    KIND_LOST_MSI,
    KIND_LOST_NOTIFY,
    KIND_MALFORMED_CHAIN,
    KIND_SPURIOUS_USR_IRQ,
    KIND_TLP_CORRUPT,
    KIND_TLP_DELAY,
    KIND_TLP_DROP,
    KIND_USED_DELAY,
    SITE_HOST_IRQ,
    SITE_PCIE_UP,
    SITE_VIRTIO_CTRL,
    SITE_XDMA_ENGINE,
    FaultPlan,
    FaultSpec,
    NthEvent,
    PoissonRate,
)
from repro.host.chardev import sys_read, sys_write


def one_shot(site, kind, n=1, delay_ns=0.0) -> FaultPlan:
    return FaultPlan((FaultSpec(site, kind, NthEvent(n), delay_ns),))


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

    def test_short_engine_stall_absorbed(self):
        """A stall shorter than the request timeout just delays the
        transfer; no recovery machinery should trigger."""
        testbed = build_xdma_testbed(
            seed=22,
            fault_plan=one_shot(
                SITE_XDMA_ENGINE, KIND_ENGINE_STALL, delay_ns=100_000.0
            ),
        )
        payload, written, data = xdma_round_trip(testbed)
        assert written == len(payload) and data == payload
        assert testbed.driver.fault_timeouts == 0

    def test_long_engine_stall_recovered(self):
        """A stall longer than the request timeout: the driver times
        out, and the stalled run's late completion unblocks the retry."""
        testbed = build_xdma_testbed(
            seed=23,
            fault_plan=one_shot(
                SITE_XDMA_ENGINE, KIND_ENGINE_STALL, delay_ns=5_000_000.0
            ),
        )
        payload, written, data = xdma_round_trip(testbed)
        assert written == len(payload) and data == payload
        assert testbed.driver.fault_timeouts >= 1
        assert testbed.driver.requests_failed == 0

    def test_lost_channel_irq_recovered_by_status_poll(self):
        """A swallowed channel interrupt: the timeout path reads the
        status register, sees DESC_COMPLETED, and completes without a
        full re-submit."""
        testbed = build_xdma_testbed(
            seed=24, fault_plan=one_shot(SITE_XDMA_ENGINE, KIND_LOST_IRQ)
        )
        payload, written, data = xdma_round_trip(testbed)
        assert written == len(payload) and data == payload
        assert testbed.xdma.irqs_lost == 1
        assert testbed.driver.lost_irq_recoveries == 1
        assert testbed.driver.requests_failed == 0

    def test_spurious_user_irq_harmless(self):
        """A duplicated usr_irq (C2H-notification design) must not
        corrupt the poll/read flow."""
        testbed = build_xdma_testbed(
            seed=25,
            profile=PAPER_PROFILE.with_xdma_c2h_interrupt(),
            fault_plan=one_shot(SITE_XDMA_ENGINE, KIND_SPURIOUS_USR_IRQ),
        )
        from repro.host.chardev import sys_poll

        kernel, driver = testbed.kernel, testbed.driver
        payload = bytes(range(64))

        def app():
            yield from sys_write(kernel, driver, payload)
            yield from sys_poll(kernel, driver)
            data = yield from sys_read(kernel, driver, len(payload))
            return data

        process = testbed.sim.spawn(app())
        data = testbed.sim.run_until_triggered(process)
        assert data == payload
        assert testbed.xdma.spurious_user_irqs == 1


class TestPcieLinkFaults:
    def test_upstream_tlp_drop_recovered(self):
        """Dropping the first upstream posted write (the H2C completion
        MSI) forces the request-timeout path; the transfer must still
        complete."""
        testbed = build_xdma_testbed(
            seed=31, fault_plan=one_shot(SITE_PCIE_UP, KIND_TLP_DROP)
        )
        payload, written, data = xdma_round_trip(testbed)
        assert written == len(payload) and data == payload
        assert testbed.xdma.endpoint.link.upstream.tlps_dropped == 1
        assert testbed.driver.fault_timeouts >= 1
        assert testbed.driver.requests_failed == 0

    def test_upstream_tlp_delay_absorbed(self):
        testbed = build_xdma_testbed(
            seed=32,
            fault_plan=one_shot(SITE_PCIE_UP, KIND_TLP_DELAY, delay_ns=200_000.0),
        )
        payload, written, data = xdma_round_trip(testbed)
        assert written == len(payload) and data == payload
        assert testbed.xdma.endpoint.link.upstream.tlps_delayed == 1

    def test_upstream_tlp_corrupt_counted_and_bounded(self):
        """Payload corruption flips one byte but preserves the TLP
        length invariant; the datapath keeps moving the same byte
        counts."""
        testbed = build_virtio_testbed(
            seed=33, fault_plan=one_shot(SITE_PCIE_UP, KIND_TLP_CORRUPT)
        )
        payload = b"\x5a" * 96
        data = virtio_echo(testbed, payload)
        link = testbed.device.xdma.endpoint.link
        assert link.upstream.tlps_corrupted == 1
        assert len(data) == len(payload)


class TestHostIrqFaults:
    def test_lost_msi_recovered(self):
        """An MSI lost between root complex and interrupt controller is
        indistinguishable from a lost device IRQ: the XDMA timeout path
        must recover."""
        testbed = build_xdma_testbed(
            seed=41, fault_plan=one_shot(SITE_HOST_IRQ, KIND_LOST_MSI)
        )
        payload, written, data = xdma_round_trip(testbed)
        assert written == len(payload) and data == payload
        assert testbed.kernel.irqc.msis_lost == 1
        assert testbed.driver.requests_failed == 0

    def test_duplicated_msi_harmless(self):
        """A doubled MSI triggers one extra NAPI poll that finds
        nothing; the echo must arrive intact exactly once."""
        testbed = build_virtio_testbed(
            seed=42, fault_plan=one_shot(SITE_HOST_IRQ, KIND_DUP_MSI)
        )
        payload = bytes(range(128))
        data = virtio_echo(testbed, payload)
        assert data == payload
        assert testbed.kernel.irqc.msis_duplicated == 1


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

    def test_used_ring_write_delay_absorbed(self):
        testbed = build_virtio_testbed(
            seed=52,
            fault_plan=one_shot(SITE_VIRTIO_CTRL, KIND_USED_DELAY, delay_ns=50_000.0),
        )
        payload = bytes(range(64))
        data = virtio_echo(testbed, payload)
        assert data == payload
        assert testbed.injector.total_injected == 1

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
        from repro.faults.plan import driver_fault_plan

        build = build_virtio_testbed if driver == "virtio" else build_xdma_testbed
        testbed = build(seed=61, fault_plan=driver_fault_plan(driver, 0.05))
        result = run_payload(testbed, 64, 60)
        assert result.packets == 60
        assert testbed.injector.total_injected >= 1
        assert getattr(testbed.driver, "requests_failed", 0) == 0
