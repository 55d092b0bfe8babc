"""PCI bus enumeration.

Walks each root port as the kernel's PCI core does at boot: read the
vendor/device ID, size and assign every BAR out of the host MMIO window,
enable memory decoding and bus mastering, then walk the capability list.
The result is a :class:`DiscoveredFunction` that drivers bind against --
the simulation equivalent of a ``struct pci_dev``.

Enumeration runs as a simulation process because each config access is a
real non-posted round trip over the link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List

from repro.mem.layout import align_up
from repro.pcie.config_space import (
    BAR0_OFFSET,
    BAR_TYPE_64BIT,
    CAPABILITIES_POINTER_OFFSET,
    COMMAND_BUS_MASTER,
    COMMAND_MEMORY_SPACE,
    COMMAND_OFFSET,
    DEVICE_ID_OFFSET,
    NUM_BARS,
    STATUS_CAPABILITIES_LIST,
    STATUS_OFFSET,
    VENDOR_ID_OFFSET,
)
from repro.pcie.root_complex import MMIO_WINDOW_BASE, MMIO_WINDOW_SIZE, RootComplex, RootPort


@dataclass
class DiscoveredBar:
    """An assigned BAR as seen by drivers."""

    index: int
    address: int
    size: int
    is_64bit: bool
    prefetchable: bool


@dataclass
class DiscoveredCapability:
    """A capability list entry."""

    cap_id: int
    offset: int


@dataclass
class DiscoveredFunction:
    """Result of enumerating one endpoint function."""

    port: RootPort
    vendor_id: int
    device_id: int
    bars: Dict[int, DiscoveredBar] = field(default_factory=dict)
    capabilities: List[DiscoveredCapability] = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"<DiscoveredFunction {self.vendor_id:04x}:{self.device_id:04x} "
            f"bars={sorted(self.bars)} caps={len(self.capabilities)}>"
        )


class BarAllocator:
    """Assigns BAR addresses from the host MMIO window, naturally
    aligned as the spec requires."""

    def __init__(self, base: int = MMIO_WINDOW_BASE, size: int = MMIO_WINDOW_SIZE) -> None:
        self.base = base
        self.limit = base + size
        self._next = base

    def alloc(self, size: int) -> int:
        addr = align_up(self._next, size)
        if addr + size > self.limit:
            raise RuntimeError(f"MMIO window exhausted allocating {size:#x} bytes")
        self._next = addr + size
        return addr


def enumerate_function(
    rc: RootComplex,
    port: RootPort,
    allocator: BarAllocator,
) -> Generator:
    """Process body: enumerate the endpoint behind *port*.

    Yields simulation events; returns a :class:`DiscoveredFunction`.
    """
    vendor = int.from_bytes((yield port.cfg_read(VENDOR_ID_OFFSET, 2)), "little")
    if vendor == 0xFFFF:
        return None  # no device present
    device = int.from_bytes((yield port.cfg_read(DEVICE_ID_OFFSET, 2)), "little")
    func = DiscoveredFunction(port=port, vendor_id=vendor, device_id=device)

    # -- size and assign BARs -------------------------------------------------
    index = 0
    while index < NUM_BARS:
        bar_offset = BAR0_OFFSET + 4 * index
        original = int.from_bytes((yield port.cfg_read(bar_offset, 4)), "little")
        yield port.cfg_write(bar_offset, b"\xff\xff\xff\xff")
        sized = int.from_bytes((yield port.cfg_read(bar_offset, 4)), "little")
        if sized == 0:
            index += 1
            continue
        is_64bit = bool(original & BAR_TYPE_64BIT)
        prefetch = bool(original & 0x8)
        size_mask = sized & 0xFFFF_FFF0
        if is_64bit:
            upper_offset = bar_offset + 4
            yield port.cfg_write(upper_offset, b"\xff\xff\xff\xff")
            upper_sized = int.from_bytes((yield port.cfg_read(upper_offset, 4)), "little")
            full_mask = (upper_sized << 32) | size_mask
            size = (~full_mask + 1) & ((1 << 64) - 1)
        else:
            size = (~size_mask + 1) & 0xFFFF_FFFF
        address = allocator.alloc(size)
        yield port.cfg_write(bar_offset, (address & 0xFFFF_FFF0).to_bytes(4, "little"))
        if is_64bit:
            yield port.cfg_write(bar_offset + 4, (address >> 32).to_bytes(4, "little"))
        func.bars[index] = DiscoveredBar(
            index=index, address=address, size=size, is_64bit=is_64bit, prefetchable=prefetch
        )
        rc.register_window(address, size, port)
        index += 2 if is_64bit else 1

    # -- enable decoding ------------------------------------------------------
    command = int.from_bytes((yield port.cfg_read(COMMAND_OFFSET, 2)), "little")
    command |= COMMAND_MEMORY_SPACE | COMMAND_BUS_MASTER
    yield port.cfg_write(COMMAND_OFFSET, command.to_bytes(2, "little"))

    # -- capability walk --------------------------------------------------------
    status = int.from_bytes((yield port.cfg_read(STATUS_OFFSET, 2)), "little")
    if status & STATUS_CAPABILITIES_LIST:
        offset = int.from_bytes((yield port.cfg_read(CAPABILITIES_POINTER_OFFSET, 1)), "little")
        seen = set()
        while offset:
            if offset in seen:
                raise RuntimeError(f"capability loop at {offset:#x} during enumeration")
            seen.add(offset)
            cap_id = int.from_bytes((yield port.cfg_read(offset, 1)), "little")
            func.capabilities.append(DiscoveredCapability(cap_id=cap_id, offset=offset))
            offset = int.from_bytes((yield port.cfg_read(offset + 1, 1)), "little")

    return func


def enumerate_all(rc: RootComplex) -> Generator:
    """Process body: enumerate every port; returns the list of
    discovered functions (device-less ports are skipped)."""
    allocator = BarAllocator()
    found: List[DiscoveredFunction] = []
    for port in rc.ports:
        func = yield rc.spawn(enumerate_function(rc, port, allocator), name="enum")
        if func is not None:
            found.append(func)
    return found
