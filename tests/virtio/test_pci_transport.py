"""Tests for virtio-pci capability structures and layout discovery."""

import pytest

from repro.drivers.virtio_pci import VirtioPciTransport
from repro.fpga.user_logic import EchoUserLogic
from repro.pcie.config_space import CAP_ID_VENDOR_SPECIFIC, ConfigSpace
from repro.pcie.enumeration import enumerate_all
from repro.pcie.root_complex import RootComplex
from repro.virtio.constants import (
    VIRTIO_PCI_CAP_COMMON_CFG,
    VIRTIO_PCI_CAP_DEVICE_CFG,
    VIRTIO_PCI_CAP_ISR_CFG,
    VIRTIO_PCI_CAP_NOTIFY_CFG,
)
from repro.virtio.controller.device import VIRTIO_BAR_INDEX, VirtioFpgaDevice
from repro.virtio.controller.net import VirtioNetPersonality
from repro.virtio.pci_transport import (
    COMMON_CFG,
    VirtioPciLayout,
    virtio_cap_body,
)


def cap_fields(config, cap_offset):
    """struct virtio_pci_cap (VirtIO 1.2 section 4.1.4) as read from
    config space: cfg_type, bar, offset, length, and the notify
    capability's notify_off_multiplier."""
    raw = config.read(cap_offset, 20)
    return (
        raw[3],
        raw[4],
        int.from_bytes(raw[8:12], "little"),
        int.from_bytes(raw[12:16], "little"),
        int.from_bytes(raw[16:20], "little"),
    )


def discover(sim, extra_caps=()):
    """Enumerate a VirtIO FPGA device (with *extra_caps* appended to its
    capability list) and run the driver's capability discovery; returns
    (device, function, transport)."""
    rc = RootComplex(sim)
    _, link = rc.create_port()
    device = VirtioFpgaDevice(sim, link, VirtioNetPersonality(EchoUserLogic(sim)))
    for body in extra_caps:
        device.xdma.endpoint.config.add_capability(CAP_ID_VENDOR_SPECIFIC, body)
    function = sim.run_until_triggered(sim.spawn(enumerate_all(rc)))[0]
    transport = VirtioPciTransport(kernel=None, function=function)
    sim.run_until_triggered(sim.spawn(transport.discover()))
    return device, function, transport


class TestCommonCfgLayout:
    """Offsets must match VirtIO 1.2 section 4.1.4.3 exactly."""

    @pytest.mark.parametrize(
        "field,offset,size",
        [
            ("device_feature_select", 0x00, 4),
            ("device_feature", 0x04, 4),
            ("driver_feature_select", 0x08, 4),
            ("driver_feature", 0x0C, 4),
            ("msix_config", 0x10, 2),
            ("num_queues", 0x12, 2),
            ("device_status", 0x14, 1),
            ("config_generation", 0x15, 1),
            ("queue_select", 0x16, 2),
            ("queue_size", 0x18, 2),
            ("queue_msix_vector", 0x1A, 2),
            ("queue_enable", 0x1C, 2),
            ("queue_notify_off", 0x1E, 2),
            ("queue_desc", 0x20, 8),
            ("queue_driver", 0x28, 8),
            ("queue_device", 0x30, 8),
        ],
    )
    def test_field_placement(self, field, offset, size):
        assert COMMON_CFG.offset_of(field) == offset
        assert COMMON_CFG.size_of(field) == size

    def test_total_size(self):
        assert COMMON_CFG.size == 0x38


class TestCapabilityCodec:
    def test_roundtrip_through_config_space(self):
        config = ConfigSpace(vendor_id=0x1AF4, device_id=0x1041)
        body = virtio_cap_body(VIRTIO_PCI_CAP_COMMON_CFG, bar=3, offset=0x0, length=0x38)
        cap_offset = config.add_capability(CAP_ID_VENDOR_SPECIFIC, body)
        cfg_type, bar, offset, length, _ = cap_fields(config, cap_offset)
        assert cfg_type == VIRTIO_PCI_CAP_COMMON_CFG
        assert bar == 3
        assert offset == 0
        assert length == 0x38

    def test_notify_carries_multiplier(self):
        config = ConfigSpace(vendor_id=0x1AF4, device_id=0x1041)
        body = virtio_cap_body(
            VIRTIO_PCI_CAP_NOTIFY_CFG, bar=3, offset=0x3000, length=8,
            notify_off_multiplier=4,
        )
        cap_offset = config.add_capability(CAP_ID_VENDOR_SPECIFIC, body)
        assert cap_fields(config, cap_offset)[4] == 4

    def test_notify_requires_multiplier(self):
        with pytest.raises(ValueError):
            virtio_cap_body(VIRTIO_PCI_CAP_NOTIFY_CFG, bar=0, offset=0, length=4)

    def test_non_notify_rejects_multiplier(self):
        with pytest.raises(ValueError):
            virtio_cap_body(VIRTIO_PCI_CAP_ISR_CFG, bar=0, offset=0, length=1,
                            notify_off_multiplier=4)

    def test_invalid_bar_rejected(self):
        with pytest.raises(ValueError):
            virtio_cap_body(VIRTIO_PCI_CAP_ISR_CFG, bar=6, offset=0, length=1)


class TestLayout:
    def test_install_and_discover_roundtrip(self, sim):
        device, function, transport = discover(sim)
        layout = device.layout
        found = transport.windows
        assert set(found) == {
            VIRTIO_PCI_CAP_COMMON_CFG,
            VIRTIO_PCI_CAP_NOTIFY_CFG,
            VIRTIO_PCI_CAP_ISR_CFG,
            VIRTIO_PCI_CAP_DEVICE_CFG,
        }
        bar_address = function.bars[layout.bar].address
        assert found[VIRTIO_PCI_CAP_COMMON_CFG].address == bar_address + layout.common_offset
        assert found[VIRTIO_PCI_CAP_NOTIFY_CFG].notify_off_multiplier == 4

    def test_notify_addresses_distinct_per_queue(self):
        layout = VirtioPciLayout(num_queues=3)
        addrs = {layout.notify_address_offset(q) for q in range(3)}
        assert len(addrs) == 3

    def test_bar_size_covers_structures(self):
        layout = VirtioPciLayout(num_queues=2)
        assert layout.bar_size >= layout.notify_offset + layout.notify_length

    def test_first_instance_wins(self, sim):
        # The device lists its own ISR capability first; a second one,
        # appended after it, points elsewhere in the same BAR.
        second = virtio_cap_body(
            VIRTIO_PCI_CAP_ISR_CFG, bar=VIRTIO_BAR_INDEX, offset=0x100, length=1
        )
        device, function, transport = discover(sim, extra_caps=[second])
        bar_address = function.bars[device.layout.bar].address
        isr = transport.windows[VIRTIO_PCI_CAP_ISR_CFG]
        assert isr.address == bar_address + device.layout.isr_offset
