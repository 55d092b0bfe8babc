"""Tests for memory regions and address-space routing."""

import pytest

from repro.mem.region import AddressSpace, MemoryAccessError, MmioRegion, RamRegion


class TestRamRegion:
    def test_roundtrip(self):
        ram = RamRegion(256)
        ram.write(10, b"abc")
        assert ram.read(10, 3) == b"abc"

    def test_reads_zero_initialized(self):
        assert RamRegion(16).read(0, 16) == bytes(16)

    def test_fill_value(self):
        assert RamRegion(4, fill=0xAB).read(0, 4) == b"\xab" * 4

    def test_bounds_checked(self):
        ram = RamRegion(16)
        with pytest.raises(MemoryAccessError):
            ram.read(10, 8)
        with pytest.raises(MemoryAccessError):
            ram.write(15, b"xx")

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RamRegion(0)


class TestMmioRegion:
    def test_handlers_invoked(self):
        accesses = []

        def read_handler(offset, length):
            accesses.append(("r", offset, length))
            return bytes(length)

        def write_handler(offset, data):
            accesses.append(("w", offset, data))

        mmio = MmioRegion(64, read_handler, write_handler)
        mmio.read(4, 4)
        mmio.write(8, b"\x01\x02")
        assert accesses == [("r", 4, 4), ("w", 8, b"\x01\x02")]

    def test_short_read_from_handler_rejected(self):
        mmio = MmioRegion(64, lambda o, n: b"", lambda o, d: None)
        with pytest.raises(MemoryAccessError):
            mmio.read(0, 4)


class TestAddressSpace:
    def make(self):
        space = AddressSpace("test")
        self.low = RamRegion(0x100, name="low")
        self.high = RamRegion(0x100, name="high")
        space.map(0x1000, self.low)
        space.map(0x2000, self.high)
        return space

    def test_routes_to_correct_region(self):
        space = self.make()
        space.write(0x1010, b"lo")
        space.write(0x2020, b"hi")
        assert self.low.read(0x10, 2) == b"lo"
        assert self.high.read(0x20, 2) == b"hi"

    def test_resolve_returns_offset(self):
        space = self.make()
        region, offset = space.resolve(0x10FF)
        assert region is self.low and offset == 0xFF

    def test_unmapped_address_rejected(self):
        space = self.make()
        with pytest.raises(MemoryAccessError, match="unmapped"):
            space.read(0x3000, 1)
        with pytest.raises(MemoryAccessError):
            space.read(0x1100, 1)  # gap between regions

    def test_overlap_rejected(self):
        space = self.make()
        with pytest.raises(ValueError, match="overlaps"):
            space.map(0x10FF, RamRegion(0x10))

    def test_straddling_access_rejected(self):
        space = self.make()
        with pytest.raises(MemoryAccessError, match="straddles"):
            space.read(0x10F8, 16)

    def test_region_at(self):
        space = self.make()
        assert space.region_at(0x1000) is self.low
        assert space.region_at(0x5000) is None

    def test_mappings_sorted(self):
        # Mapped out of order, each base still resolves to its region.
        space = AddressSpace()
        high, low = RamRegion(16), RamRegion(16)
        space.map(0x2000, high)
        space.map(0x1000, low)
        assert space.resolve(0x1004) == (low, 4)
        assert space.resolve(0x2008) == (high, 8)
