"""Tests for configuration space, BAR sizing, capability chains."""

import pytest

from repro.pcie.config_space import (
    BAR0_OFFSET,
    CAP_ID_MSIX,
    CAP_ID_VENDOR_SPECIFIC,
    COMMAND_BUS_MASTER,
    COMMAND_MEMORY_SPACE,
    COMMAND_OFFSET,
    BarDefinition,
    ConfigSpace,
)
from repro.pcie.device import PcieEndpoint
from repro.pcie.enumeration import enumerate_all
from repro.pcie.root_complex import RootComplex
from repro.sim.kernel import Simulator


def make_config():
    return ConfigSpace(vendor_id=0x1AF4, device_id=0x1041, class_code=0x020000)


def walked_capabilities(config):
    """(cap_id, offset) of each capability, as enumeration walks the
    chain's pointers with config reads over the link."""
    sim = Simulator(seed=0)
    rc = RootComplex(sim)
    _, link = rc.create_port()
    PcieEndpoint(sim, link, config, name="ep")
    function = sim.run_until_triggered(sim.spawn(enumerate_all(rc)))[0]
    return [(cap.cap_id, cap.offset) for cap in function.capabilities]


class TestIdentity:
    def test_vendor_device_ids(self):
        config = make_config()
        assert config.vendor_id == 0x1AF4
        assert config.device_id == 0x1041

    def test_ids_read_through_raw_interface(self):
        config = make_config()
        assert int.from_bytes(config.read(0, 2), "little") == 0x1AF4

    def test_identity_is_read_only(self):
        config = make_config()
        config.write(0, b"\xff\xff")
        assert config.vendor_id == 0x1AF4

    def test_class_code(self):
        config = make_config()
        # class code at 0x09..0x0B little-endian: prog-if, subclass, class
        assert config.read(0x0B, 1) == b"\x02"


class TestCommand:
    def test_memory_and_bus_master_enable(self):
        config = make_config()
        assert not config.memory_enabled
        config.write(COMMAND_OFFSET, (COMMAND_MEMORY_SPACE | COMMAND_BUS_MASTER).to_bytes(2, "little"))
        assert config.memory_enabled
        assert config.bus_master_enabled


class TestBars:
    def test_sizing_protocol(self):
        config = make_config()
        config.define_bar(BarDefinition(index=0, size=0x10000))
        config.write(BAR0_OFFSET, b"\xff\xff\xff\xff")
        sized = int.from_bytes(config.read(BAR0_OFFSET, 4), "little")
        size = (~(sized & 0xFFFF_FFF0) + 1) & 0xFFFF_FFFF
        assert size == 0x10000

    def test_address_programming(self):
        config = make_config()
        config.define_bar(BarDefinition(index=0, size=0x1000))
        config.write(BAR0_OFFSET, (0xE000_0000).to_bytes(4, "little"))
        assert config.bar_address(0) == 0xE000_0000
        readback = int.from_bytes(config.read(BAR0_OFFSET, 4), "little")
        assert readback & 0xFFFF_FFF0 == 0xE000_0000

    def test_sizing_then_address_restores_read(self):
        config = make_config()
        config.define_bar(BarDefinition(index=0, size=0x1000))
        config.write(BAR0_OFFSET, b"\xff\xff\xff\xff")
        config.write(BAR0_OFFSET, (0xD000_0000).to_bytes(4, "little"))
        readback = int.from_bytes(config.read(BAR0_OFFSET, 4), "little")
        assert readback & 0xFFFF_FFF0 == 0xD000_0000

    def test_64bit_bar(self):
        config = make_config()
        config.define_bar(BarDefinition(index=0, size=0x1000, is_64bit=True))
        config.write(BAR0_OFFSET, (0x8000_0000).to_bytes(4, "little"))
        config.write(BAR0_OFFSET + 4, (0x2).to_bytes(4, "little"))
        assert config.bar_address(0) == 0x2_8000_0000

    def test_undefined_bar_reads_zero(self):
        config = make_config()
        assert config.read(BAR0_OFFSET + 8, 4) == bytes(4)

    def test_bad_definitions_rejected(self):
        with pytest.raises(ValueError):
            BarDefinition(index=0, size=100)  # not a power of two
        with pytest.raises(ValueError):
            BarDefinition(index=6, size=4096)
        with pytest.raises(ValueError):
            BarDefinition(index=5, size=4096, is_64bit=True)
        config = make_config()
        config.define_bar(BarDefinition(index=0, size=4096))
        with pytest.raises(ValueError):
            config.define_bar(BarDefinition(index=0, size=4096))


class TestCapabilities:
    def test_chain_walk(self):
        config = make_config()
        off1 = config.add_capability(CAP_ID_MSIX, bytes(10))
        off2 = config.add_capability(CAP_ID_VENDOR_SPECIFIC, bytes(14))
        walked = walked_capabilities(config)
        assert walked == [(CAP_ID_MSIX, off1), (CAP_ID_VENDOR_SPECIFIC, off2)]

    def test_status_bit_set(self):
        assert walked_capabilities(make_config()) == []
        config = make_config()
        config.add_capability(CAP_ID_MSIX, bytes(10))
        assert len(walked_capabilities(config)) == 1

    def test_find_multiple_of_same_id(self):
        config = make_config()
        offsets = [config.add_capability(CAP_ID_VENDOR_SPECIFIC, bytes(14)) for _ in range(4)]
        walked = walked_capabilities(config)
        assert [off for cap_id, off in walked if cap_id == CAP_ID_VENDOR_SPECIFIC] == offsets

    def test_offsets_dword_aligned(self):
        config = make_config()
        for _ in range(3):
            offset = config.add_capability(CAP_ID_VENDOR_SPECIFIC, bytes(13))
            assert offset % 4 == 0

    def test_overflow_rejected(self):
        config = make_config()
        with pytest.raises(ValueError):
            for _ in range(40):
                config.add_capability(CAP_ID_VENDOR_SPECIFIC, bytes(14))
