"""Tests for sparse physical memory, DMA allocation, FPGA memories."""

import pytest

from repro.mem.dma import DmaAllocationError, DmaAllocator
from repro.mem.fpga_mem import Bram, FpgaDram
from repro.mem.physical import PAGE_SIZE, PhysicalMemory
from repro.sim.time import ns


class TestPhysicalMemory:
    def test_untouched_reads_zero(self):
        mem = PhysicalMemory()
        assert mem.read(0x1234_5678, 16) == bytes(16)

    def test_write_read_roundtrip(self):
        mem = PhysicalMemory()
        mem.write(0x1000, b"hello")
        assert mem.read(0x1000, 5) == b"hello"

    def test_cross_page_write(self):
        mem = PhysicalMemory()
        addr = PAGE_SIZE - 3
        mem.write(addr, b"ABCDEF")
        assert mem.read(addr, 6) == b"ABCDEF"
        assert mem.read(addr, 3) == b"ABC"
        assert mem.read(PAGE_SIZE, 3) == b"DEF"

    def test_fill(self):
        mem = PhysicalMemory()
        mem.fill(0x100, 8, 0x5A)
        assert mem.read(0x100, 8) == b"\x5a" * 8
        with pytest.raises(ValueError):
            mem.fill(0, 4, 300)

    def test_bounds(self):
        mem = PhysicalMemory(size=1 << 20)
        with pytest.raises(Exception):
            mem.read((1 << 20) - 1, 2)


class TestDmaAllocator:
    def test_alignment_honoured(self):
        alloc = DmaAllocator(PhysicalMemory())
        buf = alloc.alloc(100, alignment=4096)
        assert buf.addr % 4096 == 0

    def test_allocations_disjoint(self):
        alloc = DmaAllocator(PhysicalMemory())
        a = alloc.alloc(64)
        b = alloc.alloc(64)
        assert a.addr + a.size <= b.addr

    def test_buffer_io(self):
        alloc = DmaAllocator(PhysicalMemory())
        buf = alloc.alloc(32)
        buf.write(b"data", offset=4)
        assert buf.read(4, 4) == b"data"
        buf.zero()
        assert buf.read(0, 32) == bytes(32)

    def test_buffer_bounds(self):
        buf = DmaAllocator(PhysicalMemory()).alloc(16)
        with pytest.raises(IndexError):
            buf.write(b"0123456789abcdefg")
        with pytest.raises(IndexError):
            buf.read(10, 10)

    def test_exhaustion(self):
        alloc = DmaAllocator(PhysicalMemory(), size=4096)
        alloc.alloc(4096)
        with pytest.raises(DmaAllocationError):
            alloc.alloc(1)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            DmaAllocator(PhysicalMemory()).alloc(0)


class TestBram:
    def test_byte_serial_access_time(self):
        """The calibrated designs stream one byte per 8 ns cycle."""
        bram = Bram(1024, width_bytes=1)
        assert bram.access_time(64) == ns(8) * 65  # setup + 64 beats

    def test_wider_port(self):
        bram = Bram(1024, width_bytes=8)
        assert bram.access_time(64) == ns(8) * 9

    def test_zero_length(self):
        assert Bram(64).access_time(0) == ns(8)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Bram(64).access_time(-1)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            Bram(64, width_bytes=3)

    def test_is_ram(self):
        bram = Bram(64)
        bram.write(0, b"ab")
        assert bram.read(0, 2) == b"ab"


class TestFpgaDram:
    def test_activation_plus_stream(self):
        dram = FpgaDram(size=1 << 20, activate_ns=50, bandwidth_bytes_per_s=1e9)
        assert dram.access_time(1000) == ns(50) + ns(1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            FpgaDram(activate_ns=-1)
        with pytest.raises(ValueError):
            FpgaDram(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            FpgaDram().access_time(-1)
