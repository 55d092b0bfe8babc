"""Unit tests for the VMM interposer (repro.guest.vmm)."""

import numpy as np
import pytest

from repro.core.latency import run_payload
from repro.guest import GUEST_MODES, Vmm
from repro.topology.builder import build_from_spec
from repro.topology.spec import GuestSpec, TopologySpec


def _build(driver: str, mode: str, transport: str = "pci", seed: int = 7):
    guest = None if mode == "none" else GuestSpec(mode=mode, transport=transport)
    spec = (
        TopologySpec.single_virtio(guest)
        if driver == "virtio"
        else TopologySpec.single_xdma(guest)
    )
    return build_from_spec(spec, seed=seed)


def _mean_rtt(driver: str, mode: str, transport: str = "pci", packets: int = 60):
    testbed = _build(driver, mode, transport)
    result = run_payload(testbed, 64, packets)
    return float(np.mean(result.rtt_ps)), testbed


class TestVmmConstruction:
    def test_modes_tuple(self):
        assert GUEST_MODES == ("bare", "trapped", "vhost")

    def test_bare_is_not_a_vmm_mode(self):
        testbed = _build("virtio", "trapped")
        with pytest.raises(ValueError):
            Vmm(testbed.kernel, "bare")

    def test_unknown_mode_rejected(self):
        testbed = _build("virtio", "trapped")
        with pytest.raises(ValueError):
            Vmm(testbed.kernel, "paravirt")

    def test_double_attach_rejected(self):
        testbed = _build("virtio", "trapped")
        with pytest.raises(RuntimeError):
            Vmm(testbed.kernel, "trapped").attach()

    def test_bare_spec_attaches_no_vmm(self):
        testbed = _build("virtio", "bare")
        assert testbed.vmm is None
        assert testbed.kernel.vmm is None


class TestTrapAccounting:
    def test_trapped_counts_every_access(self):
        testbed = _build("virtio", "trapped")
        boot_exits = testbed.vmm.vmexits
        assert boot_exits > 0  # the probe's register programming trapped
        run_payload(testbed, 64, 5)
        assert testbed.vmm.vmexits > boot_exits
        assert testbed.vmm.irq_injects >= 5  # one RX interrupt per packet
        assert testbed.vmm.vhost_doorbells == 0
        assert testbed.vmm.trap_ps > 0

    def test_vhost_fast_path_bypasses_full_traps(self):
        testbed = _build("virtio", "vhost")
        before = testbed.vmm.vmexits
        run_payload(testbed, 64, 5)
        # Data-path doorbells took the ioeventfd shortcut, not vmexits.
        assert testbed.vmm.vhost_doorbells >= 5
        assert testbed.vmm.vhost_irq_injects >= 5
        assert testbed.vmm.vmexits == before  # no data-path full exits
        assert testbed.vmm.irq_injects == 0

    def test_stats_dict(self):
        testbed = _build("xdma", "vhost")
        stats = testbed.vmm.stats
        for key in (
            "mode", "vmexits", "irq_injects", "vhost_doorbells",
            "vhost_irq_injects", "fast_reads", "trap_us",
        ):
            assert key in stats
        assert stats["mode"] == "vhost"


class TestModeOrdering:
    """Acceptance: trapped > vhost > bare mean RTT, both drivers."""

    @pytest.mark.parametrize("driver", ["virtio", "xdma"])
    def test_rtt_ordering(self, driver):
        bare, _ = _mean_rtt(driver, "bare")
        vhost, _ = _mean_rtt(driver, "vhost")
        trapped, _ = _mean_rtt(driver, "trapped")
        assert trapped > vhost > bare

    def test_mmio_ordering(self):
        bare, _ = _mean_rtt("virtio", "bare", transport="mmio")
        vhost, _ = _mean_rtt("virtio", "vhost", transport="mmio")
        trapped, _ = _mean_rtt("virtio", "trapped", transport="mmio")
        assert trapped > vhost > bare


class TestBareByteIdentity:
    """A GuestSpec(mode='bare') machine is the legacy machine."""

    @pytest.mark.parametrize("driver", ["virtio", "xdma"])
    def test_bare_equals_no_guest(self, driver):
        with_spec = _build(driver, "bare")
        without = _build(driver, "none")
        a = run_payload(with_spec, 64, 10)
        b = run_payload(without, 64, 10)
        assert (a.rtt_ps == b.rtt_ps).all()
        assert (a.hw_ps == b.hw_ps).all()
