"""Tests for MSI-X table, PBA, capability glue."""

import pytest

from repro.pcie.config_space import ConfigSpace
from repro.pcie.msi import (
    MSI_ADDRESS_BASE,
    MSIX_ENTRY_SIZE,
    MsixCapability,
    MsixTable,
    is_msi_address,
)


def program_entry(table: MsixTable, vector: int, addr: int, data: int, masked: bool = False):
    base = vector * MSIX_ENTRY_SIZE
    table.write(base, addr.to_bytes(8, "little"))
    table.write(base + 8, data.to_bytes(4, "little"))
    table.write(base + 12, (1 if masked else 0).to_bytes(4, "little"))


class TestMsixTable:
    def test_entries_power_up_masked(self):
        table = MsixTable(4)
        _, _, masked = table.entry(0)
        assert masked

    def test_compose_when_enabled(self):
        table = MsixTable(4)
        table.enabled = True
        program_entry(table, 1, MSI_ADDRESS_BASE, 0x33)
        message = table.compose(1)
        assert message is not None
        assert message.address == MSI_ADDRESS_BASE
        assert message.data == 0x33
        assert message.vector == 1

    def test_disabled_sets_pending(self):
        table = MsixTable(4)
        program_entry(table, 0, MSI_ADDRESS_BASE, 1)
        assert table.compose(0) is None
        assert table.pending(0)

    def test_masked_entry_sets_pending(self):
        table = MsixTable(4)
        table.enabled = True
        program_entry(table, 2, MSI_ADDRESS_BASE, 1, masked=True)
        assert table.compose(2) is None
        assert table.pending(2)

    def test_take_pending_clears(self):
        table = MsixTable(4)
        program_entry(table, 0, MSI_ADDRESS_BASE, 1)
        table.compose(0)
        assert table.take_pending(0)
        assert not table.pending(0)
        assert not table.take_pending(0)

    def test_pba_read_only(self):
        table = MsixTable(4)
        program_entry(table, 0, MSI_ADDRESS_BASE, 1)
        table.compose(0)  # sets pending bit
        table.write(table.pba_offset, b"\x00")
        assert table.pending(0)  # write was dropped

    def test_vector_bounds(self):
        with pytest.raises(IndexError):
            MsixTable(4).entry(4)
        with pytest.raises(ValueError):
            MsixTable(0)


class TestMsixCapability:
    def test_capability_installed(self):
        config = ConfigSpace(vendor_id=1, device_id=2)
        table = MsixTable(8)
        cap = MsixCapability(config, table, table_bar=2)
        # The chain (pointer at 0x34) holds exactly this capability.
        assert config.read(0x34, 1)[0] == cap.cap_offset
        assert config.read(cap.cap_offset, 2) == bytes([0x11, 0])

    def test_enable_via_config_write(self):
        config = ConfigSpace(vendor_id=1, device_id=2)
        table = MsixTable(8)
        cap = MsixCapability(config, table, table_bar=2)
        lo, _ = cap.control_range()
        config.write(lo, (0x8000).to_bytes(2, "little"))
        cap.sync_from_config()
        assert table.enabled

    def test_refire_pending_on_enable(self):
        config = ConfigSpace(vendor_id=1, device_id=2)
        table = MsixTable(8)
        cap = MsixCapability(config, table, table_bar=2)
        fired = []
        cap.on_refire(fired.append)
        program_entry(table, 3, MSI_ADDRESS_BASE, 3)
        table.compose(3)  # pending while disabled
        lo, _ = cap.control_range()
        config.write(lo, (0x8000).to_bytes(2, "little"))
        cap.sync_from_config()
        assert fired == [3]


class TestMsiAddressWindow:
    def test_msi_window_detection(self):
        assert is_msi_address(0xFEE0_0000)
        assert is_msi_address(0xFEE1_2340)
        assert not is_msi_address(0xE000_0000)
