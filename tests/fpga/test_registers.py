"""Tests for the register-file MMIO semantics."""

import pytest

from repro.fpga.registers import Register, RegisterFile


class TestRegister:
    def test_plain_storage(self):
        reg = Register("r", 0, reset=0x1234)
        assert reg.read() == 0x1234
        reg.write(0x5678)
        assert reg.read() == 0x5678

    def test_read_hook_overrides(self):
        reg = Register("r", 0, read_hook=lambda: 0xAA)
        reg.write(0x11)
        assert reg.read() == 0xAA

    def test_write_hook_sees_value(self):
        seen = []
        reg = Register("r", 0, write_hook=seen.append)
        reg.write(7)
        assert seen == [7]

    def test_read_only_drops_writes(self):
        reg = Register("r", 0, reset=5, read_only=True)
        reg.write(9)
        assert reg.read() == 5

    def test_unaligned_offset_rejected(self):
        with pytest.raises(ValueError):
            Register("r", 2)

    def test_value_masked_to_32bit(self):
        reg = Register("r", 0)
        reg.write(0x1_0000_0001)
        assert reg.read() == 1


class TestRegisterFile:
    def test_mmio_roundtrip(self):
        rf = RegisterFile(0x100)
        rf.reg("a", 0x10)
        rf.mmio_write(0x10, (0xCAFEBABE).to_bytes(4, "little"))
        assert rf.mmio_read(0x10, 4) == (0xCAFEBABE).to_bytes(4, "little")

    def test_sub_word_write_merges(self):
        rf = RegisterFile(0x100)
        rf.reg("a", 0x10, reset=0x11223344)
        rf.mmio_write(0x12, b"\xff")  # byte 2
        assert rf.mmio_read(0x10, 4) == (0x11FF3344).to_bytes(4, "little")

    def test_sub_word_write_fires_hook_with_merged_word(self):
        seen = []
        rf = RegisterFile(0x100)
        rf.reg("a", 0x10, reset=0xAABBCCDD, write_hook=seen.append)
        rf.mmio_write(0x10, b"\x00\x11")  # bytes 0-1
        assert seen == [0xAABB1100]

    def test_sub_word_read(self):
        rf = RegisterFile(0x100)
        rf.reg("a", 0x0, reset=0x11223344)
        assert rf.mmio_read(1, 2) == b"\x33\x22"

    def test_read_spanning_register_and_scratch(self):
        rf = RegisterFile(0x100)
        rf.reg("a", 0x0, reset=0xDDCCBBAA)
        rf.scratch_write(4, b"\x01\x02\x03\x04")
        assert rf.mmio_read(0, 8) == b"\xaa\xbb\xcc\xdd\x01\x02\x03\x04"

    def test_scratch_defaults_to_ram_semantics(self):
        rf = RegisterFile(0x100)
        rf.mmio_write(0x80, b"hello")
        assert rf.mmio_read(0x80, 5) == b"hello"

    def test_by_name(self):
        rf = RegisterFile(0x100)
        reg = rf.reg("target", 0x20)
        assert rf.by_name("target") is reg
        with pytest.raises(KeyError):
            rf.by_name("missing")

    def test_duplicate_offset_rejected(self):
        rf = RegisterFile(0x100)
        rf.reg("a", 0x0)
        with pytest.raises(ValueError):
            rf.reg("b", 0x0)

    def test_register_outside_file_rejected(self):
        rf = RegisterFile(0x10)
        with pytest.raises(ValueError):
            rf.reg("a", 0x10)

    def test_as_region(self):
        rf = RegisterFile(0x100)
        rf.reg("a", 0x0, reset=42)
        region = rf.as_region()
        assert int.from_bytes(region.read(0, 4), "little") == 42
