"""Memory regions and address-space routing.

A :class:`MemoryRegion` is anything addressable with byte reads/writes.
An :class:`AddressSpace` maps regions at base addresses and routes
accesses to them -- this is how the host physical address space (RAM +
device BARs) and the FPGA-internal AXI address map are both modeled.

Routing is functional (no simulated time); timing is accounted where the
transaction travels (PCIe link model, DMA engines), keeping memory
semantics separate from timing models.
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional, Tuple


class MemoryAccessError(RuntimeError):
    """Out-of-range or unmapped access."""


class MemoryRegion:
    """Abstract byte-addressable region of a fixed size."""

    def __init__(self, size: int, name: str = "") -> None:
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        self.size = size
        self.name = name

    def read(self, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def write(self, offset: int, data: bytes) -> None:
        raise NotImplementedError

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise MemoryAccessError(
                f"access [{offset:#x}, {offset + length:#x}) outside region "
                f"{self.name!r} of size {self.size:#x}"
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} size={self.size:#x}>"


class RamRegion(MemoryRegion):
    """Plain backing-store region (dense bytearray)."""

    def __init__(self, size: int, name: str = "", fill: int = 0) -> None:
        super().__init__(size, name)
        self._data = bytearray([fill]) * size if fill else bytearray(size)

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return bytes(self._data[offset : offset + length])

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self._data[offset : offset + len(data)] = data


ReadHandler = Callable[[int, int], bytes]
WriteHandler = Callable[[int, bytes], None]


class MmioRegion(MemoryRegion):
    """Region whose accesses invoke callbacks (device registers).

    The device model supplies ``read_handler(offset, length) -> bytes``
    and ``write_handler(offset, data)``.  Unlike RAM, MMIO access width
    and offset are semantically meaningful, so handlers receive them
    verbatim.
    """

    def __init__(
        self,
        size: int,
        read_handler: ReadHandler,
        write_handler: WriteHandler,
        name: str = "",
    ) -> None:
        super().__init__(size, name)
        self._read_handler = read_handler
        self._write_handler = write_handler

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        data = self._read_handler(offset, length)
        if len(data) != length:
            raise MemoryAccessError(
                f"MMIO read handler of {self.name!r} returned {len(data)}B, expected {length}B"
            )
        return data

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self._write_handler(offset, bytes(data))


class AddressSpace:
    """Maps regions at base addresses; routes reads/writes.

    Mappings must not overlap.  Accesses that straddle a mapping boundary
    are rejected: real interconnects split such transactions before they
    reach a device, and every producer in this codebase (DMA segmentation,
    TLP formation) already splits at boundaries, so a straddle indicates a
    model bug worth failing on.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._bases: List[int] = []
        self._maps: List[Tuple[int, MemoryRegion]] = []
        # Last successful resolve as (base, end, region): accesses
        # cluster heavily on one region (RAM, a ring, a BAR), so this
        # turns most lookups into two integer compares.
        self._last: Optional[Tuple[int, int, MemoryRegion]] = None

    def map(self, base: int, region: MemoryRegion) -> None:
        """Install *region* at *base*."""
        if base < 0:
            raise ValueError(f"negative base address {base:#x}")
        new_end = base + region.size
        for existing_base, existing in self._maps:
            if base < existing_base + existing.size and existing_base < new_end:
                raise ValueError(
                    f"mapping {region.name!r} at {base:#x} overlaps "
                    f"{existing.name!r} at {existing_base:#x}"
                )
        idx = bisect.bisect_left(self._bases, base)
        self._bases.insert(idx, base)
        self._maps.insert(idx, (base, region))
        self._last = None

    def resolve(self, addr: int) -> Tuple[MemoryRegion, int]:
        """The region containing *addr* and the offset within it."""
        last = self._last
        if last is not None and last[0] <= addr < last[1]:
            return last[2], addr - last[0]
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0:
            base, region = self._maps[idx]
            if addr < base + region.size:
                self._last = (base, base + region.size, region)
                return region, addr - base
        raise MemoryAccessError(f"unmapped address {addr:#x} in space {self.name!r}")

    def region_at(self, addr: int) -> Optional[MemoryRegion]:
        """The region containing *addr*, or ``None``."""
        try:
            return self.resolve(addr)[0]
        except MemoryAccessError:
            return None

    def read(self, addr: int, length: int) -> bytes:
        region, offset = self.resolve(addr)
        if offset + length > region.size:
            raise MemoryAccessError(
                f"read [{addr:#x},{addr + length:#x}) straddles mapping of {region.name!r}"
            )
        return region.read(offset, length)

    def write(self, addr: int, data: bytes) -> None:
        region, offset = self.resolve(addr)
        if offset + len(data) > region.size:
            raise MemoryAccessError(
                f"write [{addr:#x},{addr + len(data):#x}) straddles mapping of {region.name!r}"
            )
        region.write(offset, data)

    def __repr__(self) -> str:
        return f"<AddressSpace {self.name!r} mappings={len(self._maps)}>"
