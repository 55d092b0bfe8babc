"""DMA buffer allocation.

Kernel drivers allocate DMA-able buffers (descriptor rings, packet
buffers) out of host physical memory.  :class:`DmaAllocator` is a simple
bump allocator with alignment and optional freeing by region reset --
plenty for driver models whose allocations are long-lived rings plus
per-packet buffers recycled by index.

Bus addresses equal physical addresses (identity IOMMU), matching the
paper's bare-metal host (no vIOMMU is involved in the measurements).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.layout import align_up
from repro.mem.physical import PhysicalMemory


class DmaAllocationError(RuntimeError):
    """Arena exhausted."""


@dataclass(frozen=True)
class DmaBuffer:
    """A contiguous DMA-able region of host memory.

    ``addr`` is both the CPU physical and the device bus address
    (identity mapping).
    """

    addr: int
    size: int
    memory: PhysicalMemory

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        if length is None:
            length = self.size - offset
        if offset < 0 or offset + length > self.size:
            raise IndexError(f"read [{offset},{offset + length}) outside buffer of {self.size}")
        return self.memory.read(self.addr + offset, length)

    def view(self, offset: int = 0, length: int | None = None) -> memoryview:
        """Read-only view of the buffer contents (aliases live memory)."""
        if length is None:
            length = self.size - offset
        if offset < 0 or offset + length > self.size:
            raise IndexError(f"view [{offset},{offset + length}) outside buffer of {self.size}")
        return self.memory.view(self.addr + offset, length)

    def write(self, data: bytes, offset: int = 0) -> None:
        if offset < 0 or offset + len(data) > self.size:
            raise IndexError(
                f"write [{offset},{offset + len(data)}) outside buffer of {self.size}"
            )
        self.memory.write(self.addr + offset, data)

    def zero(self) -> None:
        self.memory.fill(self.addr, self.size, 0)


class DmaAllocator:
    """Bump allocator over a window of host physical memory."""

    def __init__(
        self,
        memory: PhysicalMemory,
        base: int = 0x1000_0000,
        size: int = 64 << 20,
        name: str = "dma-arena",
    ) -> None:
        if base < 0 or size <= 0 or base + size > memory.size:
            raise ValueError(f"arena [{base:#x}, {base + size:#x}) outside memory")
        self.memory = memory
        self.base = base
        self.size = size
        self.name = name
        self._next = base

    def alloc(self, size: int, alignment: int = 64) -> DmaBuffer:
        """Allocate *size* bytes aligned to *alignment* (cache line by
        default, as ``dma_alloc_coherent`` would give)."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        addr = align_up(self._next, alignment)
        if addr + size > self.base + self.size:
            raise DmaAllocationError(
                f"arena {self.name!r} exhausted: need {size}B at {addr:#x}, "
                f"end is {self.base + self.size:#x}"
            )
        self._next = addr + size
        buf = DmaBuffer(addr=addr, size=size, memory=self.memory)
        return buf
