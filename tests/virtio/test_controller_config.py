"""Tests for the FPGA-side VirtIO configuration structures.

These poke the controller's register file directly (as MMIO would),
without a host driver, to pin down the register semantics: feature
windows, queue selection, status FSM, notify doorbells, ISR
read-to-clear, device-config rendering.
"""

import pytest

from repro.fpga.user_logic import EchoUserLogic
from repro.pcie.link import LinkConfig, PcieLink
from repro.pcie.root_complex import RootComplex
from repro.virtio.constants import (
    STATUS_ACKNOWLEDGE,
    STATUS_DRIVER,
    STATUS_DRIVER_OK,
    STATUS_FEATURES_OK,
    VIRTIO_F_VERSION_1,
    VIRTIO_ISR_QUEUE,
    VIRTIO_MSI_NO_VECTOR,
    VIRTIO_NET_F_MAC,
    VIRTIO_PCI_VENDOR_ID,
    pci_device_id,
)
from repro.virtio.controller.device import VirtioFpgaDevice
from repro.virtio.controller.net import VirtioNetPersonality
from repro.virtio.pci_transport import COMMON_CFG


@pytest.fixture
def device(sim):
    rc = RootComplex(sim)
    rc.set_msi_handler(lambda a, d: None)
    _, link = rc.create_port(LinkConfig())
    personality = VirtioNetPersonality(EchoUserLogic(sim))
    return VirtioFpgaDevice(sim, link, personality)


def common_write(device, field, value):
    base = device.layout.common_offset
    size = COMMON_CFG.size_of(field)
    device.config_block.regs.mmio_write(
        base + COMMON_CFG.offset_of(field), value.to_bytes(size, "little")
    )


def common_read(device, field):
    base = device.layout.common_offset
    size = COMMON_CFG.size_of(field)
    raw = device.config_block.regs.mmio_read(base + COMMON_CFG.offset_of(field), size)
    return int.from_bytes(raw, "little")


class TestIdentity:
    def test_pci_ids_are_virtio(self, device):
        """Section II-C requirement (i)."""
        assert device.xdma.endpoint.config.vendor_id == VIRTIO_PCI_VENDOR_ID
        assert device.xdma.endpoint.config.device_id == pci_device_id(1)

    def test_capability_list_has_virtio_caps(self, sim):
        """Section II-C requirement (iii)."""
        from repro.pcie.config_space import CAP_ID_VENDOR_SPECIFIC
        from repro.pcie.enumeration import enumerate_all

        rc = RootComplex(sim)
        _, link = rc.create_port(LinkConfig())
        VirtioFpgaDevice(sim, link, VirtioNetPersonality(EchoUserLogic(sim)))
        function = sim.run_until_triggered(sim.spawn(enumerate_all(rc)))[0]
        caps = [c for c in function.capabilities if c.cap_id == CAP_ID_VENDOR_SPECIFIC]
        assert len(caps) == 4


class TestFeatureWindows:
    def test_device_features_windowed(self, device):
        common_write(device, "device_feature_select", 0)
        word0 = common_read(device, "device_feature")
        common_write(device, "device_feature_select", 1)
        word1 = common_read(device, "device_feature")
        assert word0 & (1 << VIRTIO_NET_F_MAC)
        assert word1 & 1  # VIRTIO_F_VERSION_1 is bit 32

    def test_driver_features_accumulate(self, device):
        common_write(device, "driver_feature_select", 0)
        common_write(device, "driver_feature", 1 << VIRTIO_NET_F_MAC)
        common_write(device, "driver_feature_select", 1)
        common_write(device, "driver_feature", 1)
        accepted = device.accepted_features
        assert accepted.has(VIRTIO_NET_F_MAC)
        assert accepted.has(VIRTIO_F_VERSION_1)


class TestQueueRegisters:
    def test_queue_select_switches_state(self, device):
        common_write(device, "queue_select", 0)
        common_write(device, "queue_desc", 0x1000)
        common_write(device, "queue_select", 1)
        common_write(device, "queue_desc", 0x2000)
        assert device.config_block.queue(0).desc_addr == 0x1000
        assert device.config_block.queue(1).desc_addr == 0x2000

    def test_queue_size_readback(self, device):
        common_write(device, "queue_select", 0)
        assert common_read(device, "queue_size") == device.queue_max_size

    def test_queue_size_shrink(self, device):
        common_write(device, "queue_select", 0)
        common_write(device, "queue_size", 64)
        assert device.config_block.queue(0).size == 64

    def test_invalid_queue_size_ignored(self, device):
        common_write(device, "queue_select", 0)
        common_write(device, "queue_size", 100)  # not a power of two
        assert device.config_block.queue(0).size == device.queue_max_size
        common_write(device, "queue_size", 1024)  # above max
        assert device.config_block.queue(0).size == device.queue_max_size

    def test_out_of_range_queue_reads_size_zero(self, device):
        common_write(device, "queue_select", 40)
        assert common_read(device, "queue_size") == 0

    def test_notify_off_equals_queue_index(self, device):
        for q in range(2):
            common_write(device, "queue_select", q)
            assert common_read(device, "queue_notify_off") == q

    def test_msix_vector_programming(self, device):
        common_write(device, "queue_select", 1)
        assert common_read(device, "queue_msix_vector") == VIRTIO_MSI_NO_VECTOR
        common_write(device, "queue_msix_vector", 2)
        assert device.config_block.queue(1).msix_vector == 2

    def test_num_queues(self, device):
        assert common_read(device, "num_queues") == 2

    def test_64bit_ring_addresses(self, device):
        common_write(device, "queue_select", 0)
        common_write(device, "queue_driver", 0x1_2345_6789)
        assert device.config_block.queue(0).driver_addr == 0x1_2345_6789
        assert common_read(device, "queue_driver") == 0x1_2345_6789


class TestStatusFsm:
    def test_handshake_progression(self, device):
        for status in (
            STATUS_ACKNOWLEDGE,
            STATUS_ACKNOWLEDGE | STATUS_DRIVER,
        ):
            common_write(device, "device_status", status)
            assert common_read(device, "device_status") == status

    def test_features_ok_accepted_when_valid(self, device):
        common_write(device, "driver_feature_select", 1)
        common_write(device, "driver_feature", 1)  # VERSION_1
        status = STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_FEATURES_OK
        common_write(device, "device_status", status)
        assert common_read(device, "device_status") & STATUS_FEATURES_OK

    def test_features_ok_rejected_without_version1(self, device):
        status = STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_FEATURES_OK
        common_write(device, "device_status", status)
        assert not common_read(device, "device_status") & STATUS_FEATURES_OK

    def test_features_ok_rejected_for_unoffered(self, device):
        common_write(device, "driver_feature_select", 0)
        common_write(device, "driver_feature", 1 << 7)  # GUEST_TSO4, unoffered
        common_write(device, "driver_feature_select", 1)
        common_write(device, "driver_feature", 1)
        status = STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_FEATURES_OK
        common_write(device, "device_status", status)
        assert not common_read(device, "device_status") & STATUS_FEATURES_OK

    def test_reset_clears_everything(self, device):
        common_write(device, "device_status", STATUS_ACKNOWLEDGE | STATUS_DRIVER)
        common_write(device, "queue_select", 0)
        common_write(device, "queue_desc", 0x1000)
        common_write(device, "queue_enable", 1)
        common_write(device, "device_status", 0)
        assert common_read(device, "device_status") == 0
        assert device.config_block.queue(0).desc_addr == 0
        assert not device.config_block.queue(0).enabled

    def test_driver_ok_starts_engines_for_enabled_queues(self, device, sim):
        common_write(device, "driver_feature_select", 1)
        common_write(device, "driver_feature", 1)
        for q in range(2):
            common_write(device, "queue_select", q)
            common_write(device, "queue_desc", 0x10000 + q * 0x10000)
            common_write(device, "queue_driver", 0x40000 + q * 0x10000)
            common_write(device, "queue_device", 0x80000 + q * 0x10000)
            common_write(device, "queue_enable", 1)
        common_write(
            device,
            "device_status",
            STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_FEATURES_OK | STATUS_DRIVER_OK,
        )
        assert set(device.engines) == {0, 1}

    def test_disabled_queue_gets_no_engine(self, device):
        common_write(device, "driver_feature_select", 1)
        common_write(device, "driver_feature", 1)
        common_write(device, "queue_select", 1)
        common_write(device, "queue_desc", 0x10000)
        common_write(device, "queue_driver", 0x40000)
        common_write(device, "queue_device", 0x80000)
        common_write(device, "queue_enable", 1)
        common_write(
            device,
            "device_status",
            STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_FEATURES_OK | STATUS_DRIVER_OK,
        )
        assert set(device.engines) == {1}


class TestIsrAndDeviceConfig:
    def test_isr_read_to_clear(self, device):
        device.config_block.set_isr(VIRTIO_ISR_QUEUE)
        isr_offset = device.layout.isr_offset
        first = device.config_block.regs.mmio_read(isr_offset, 1)[0]
        second = device.config_block.regs.mmio_read(isr_offset, 1)[0]
        assert first == VIRTIO_ISR_QUEUE
        assert second == 0

    def test_device_config_contains_mac(self, device):
        base = device.layout.device_offset
        mac = device.config_block.regs.mmio_read(base, 6)
        assert mac == device.personality.mac

    def test_device_config_contains_mtu(self, device):
        base = device.layout.device_offset
        mtu = int.from_bytes(device.config_block.regs.mmio_read(base + 10, 2), "little")
        assert mtu == 1500
