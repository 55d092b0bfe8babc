"""Tests for binary layout helpers."""

import pytest

from repro.mem.layout import (
    StructDef,
    align_up,
    read_u8,
    read_u32,
    read_u64,
    write_u8,
    write_u16,
    write_u32,
    write_u64,
)


class TestScalars:
    def test_little_endian_roundtrip(self):
        buf = bytearray(16)
        write_u32(buf, 4, 0xDEADBEEF)
        assert read_u32(buf, 4) == 0xDEADBEEF
        assert read_u8(buf, 4) == 0xEF  # little-endian: low byte first

    def test_u64_roundtrip(self):
        buf = bytearray(8)
        write_u64(buf, 0, 0x0123456789ABCDEF)
        assert read_u64(buf, 0) == 0x0123456789ABCDEF

    def test_out_of_range_value_rejected(self):
        buf = bytearray(4)
        with pytest.raises(ValueError):
            write_u8(buf, 0, 256)
        with pytest.raises(ValueError):
            write_u16(buf, 0, -1)

    def test_out_of_bounds_rejected(self):
        buf = bytearray(4)
        with pytest.raises(IndexError):
            read_u32(buf, 2)
        with pytest.raises(IndexError):
            write_u32(buf, 2, 0)


class TestStructDef:
    def make(self):
        return StructDef(
            "example",
            [("a", 0, 4), ("b", 4, 2), ("c", 6, 2), ("d", 8, 8)],
        )

    def test_size_from_fields(self):
        assert self.make().size == 16

    def test_offsets(self):
        s = self.make()
        assert s.offset_of("d") == 8
        assert s.size_of("b") == 2

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            StructDef("bad", [("a", 0, 4), ("b", 2, 4)])

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StructDef("bad", [("a", 0, 4), ("a", 4, 4)])

    def test_total_size_too_small_rejected(self):
        with pytest.raises(ValueError):
            StructDef("bad", [("a", 0, 8)], total_size=4)


class TestAlignment:
    def test_align_up(self):
        assert align_up(0, 8) == 0
        assert align_up(1, 8) == 8
        assert align_up(8, 8) == 8
        assert align_up(4097, 4096) == 8192

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            align_up(1, 3)
        with pytest.raises(ValueError):
            align_up(1, 0)
