"""Memory substrate: layouts, regions, host RAM, DMA arenas, FPGA memories."""

from repro.mem.dma import DmaAllocationError, DmaAllocator, DmaBuffer
from repro.mem.fpga_mem import Bram, FpgaDram
from repro.mem.layout import (
    Field,
    StructDef,
    align_up,
    read_u8,
    read_u16,
    read_u32,
    read_u64,
    read_uint,
    write_u8,
    write_u16,
    write_u32,
    write_u64,
    write_uint,
)
from repro.mem.physical import PAGE_SIZE, PhysicalMemory
from repro.mem.region import (
    AddressSpace,
    MemoryAccessError,
    MemoryRegion,
    MmioRegion,
    RamRegion,
)

__all__ = [
    "AddressSpace",
    "Bram",
    "DmaAllocationError",
    "DmaAllocator",
    "DmaBuffer",
    "Field",
    "FpgaDram",
    "MemoryAccessError",
    "MemoryRegion",
    "MmioRegion",
    "PAGE_SIZE",
    "PhysicalMemory",
    "RamRegion",
    "StructDef",
    "align_up",
    "read_u8",
    "read_u16",
    "read_u32",
    "read_u64",
    "read_uint",
    "write_u8",
    "write_u16",
    "write_u32",
    "write_u64",
    "write_uint",
]
