"""PCI configuration space (type-0 header + capability list).

Implements the pieces the paper's flow depends on:

* device/vendor ID readout at enumeration ("announce the correct device
  and vendor IDs at the time of device discovery and PCIe bus
  enumeration" -- Section II-C requirement (i)),
* command register (memory-space enable, bus-master enable),
* BAR registers with the standard sizing protocol (write all-ones, read
  back the size mask),
* a linked capability list ("add the VirtIO capabilities to the device
  capability list" -- requirement (iii)), supporting MSI-X and
  vendor-specific capabilities.

The space is a real 4 KiB bytearray; drivers read it through config TLPs
exactly as a kernel does through the ECAM window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.mem.layout import read_u16, write_u8, write_u16

CONFIG_SPACE_SIZE = 4096

# Standard type-0 header offsets.
VENDOR_ID_OFFSET = 0x00
DEVICE_ID_OFFSET = 0x02
COMMAND_OFFSET = 0x04
STATUS_OFFSET = 0x06
REVISION_ID_OFFSET = 0x08
CLASS_CODE_OFFSET = 0x09  # 3 bytes: prog-if, subclass, class
HEADER_TYPE_OFFSET = 0x0E
BAR0_OFFSET = 0x10
NUM_BARS = 6
SUBSYSTEM_VENDOR_ID_OFFSET = 0x2C
SUBSYSTEM_ID_OFFSET = 0x2E
CAPABILITIES_POINTER_OFFSET = 0x34
INTERRUPT_LINE_OFFSET = 0x3C
INTERRUPT_PIN_OFFSET = 0x3D

# Command register bits.
COMMAND_MEMORY_SPACE = 1 << 1
COMMAND_BUS_MASTER = 1 << 2
COMMAND_INTX_DISABLE = 1 << 10

# Status register bits.
STATUS_CAPABILITIES_LIST = 1 << 4

# Capability IDs.
CAP_ID_POWER_MANAGEMENT = 0x01
CAP_ID_MSI = 0x05
CAP_ID_VENDOR_SPECIFIC = 0x09
CAP_ID_PCIE = 0x10
CAP_ID_MSIX = 0x11

#: First byte available for capabilities in the type-0 layout.
FIRST_CAPABILITY_OFFSET = 0x40

# BAR flag bits.
BAR_IO_SPACE = 0x1
BAR_TYPE_64BIT = 0x2 << 1
BAR_PREFETCHABLE = 1 << 3


@dataclass
class BarDefinition:
    """One memory BAR: size and attribute flags."""

    index: int
    size: int
    prefetchable: bool = False
    is_64bit: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_BARS:
            raise ValueError(f"BAR index {self.index} out of range")
        if self.size < 16 or self.size & (self.size - 1):
            raise ValueError(f"BAR size must be a power of two >= 16, got {self.size}")
        if self.is_64bit and self.index >= NUM_BARS - 1:
            raise ValueError("a 64-bit BAR cannot use the last BAR slot")

    @property
    def flag_bits(self) -> int:
        flags = 0
        if self.is_64bit:
            flags |= BAR_TYPE_64BIT
        if self.prefetchable:
            flags |= BAR_PREFETCHABLE
        return flags


class ConfigSpace:
    """A function's 4 KiB configuration space."""

    def __init__(
        self,
        vendor_id: int,
        device_id: int,
        class_code: int = 0,
        revision_id: int = 0,
        subsystem_vendor_id: int = 0,
        subsystem_id: int = 0,
    ) -> None:
        self._data = bytearray(CONFIG_SPACE_SIZE)
        write_u16(self._data, VENDOR_ID_OFFSET, vendor_id)
        write_u16(self._data, DEVICE_ID_OFFSET, device_id)
        write_u8(self._data, REVISION_ID_OFFSET, revision_id)
        # class_code is the 24-bit (class << 16 | subclass << 8 | prog-if).
        self._data[CLASS_CODE_OFFSET : CLASS_CODE_OFFSET + 3] = class_code.to_bytes(3, "little")
        write_u16(self._data, SUBSYSTEM_VENDOR_ID_OFFSET, subsystem_vendor_id)
        write_u16(self._data, SUBSYSTEM_ID_OFFSET, subsystem_id)
        self._bars: Dict[int, BarDefinition] = {}
        self._bar_sizing: Dict[int, bool] = {}  # index -> last write was all-ones
        self._bar_addrs: Dict[int, int] = {}
        #: Bumped whenever BAR programming or the command register
        #: changes; endpoints key their decoded-BAR caches on it.
        self.generation = 0
        self._next_cap_offset = FIRST_CAPABILITY_OFFSET
        self._last_cap_offset: Optional[int] = None

    # -- identity -----------------------------------------------------------

    @property
    def vendor_id(self) -> int:
        return read_u16(self._data, VENDOR_ID_OFFSET)

    @property
    def device_id(self) -> int:
        return read_u16(self._data, DEVICE_ID_OFFSET)

    @property
    def command(self) -> int:
        return read_u16(self._data, COMMAND_OFFSET)

    @property
    def memory_enabled(self) -> bool:
        return bool(self.command & COMMAND_MEMORY_SPACE)

    @property
    def bus_master_enabled(self) -> bool:
        return bool(self.command & COMMAND_BUS_MASTER)

    # -- BARs ----------------------------------------------------------------

    def define_bar(self, bar: BarDefinition) -> None:
        """Declare a BAR (device build time, before enumeration)."""
        if bar.index in self._bars:
            raise ValueError(f"BAR {bar.index} already defined")
        if bar.is_64bit and (bar.index + 1) in self._bars:
            raise ValueError(f"BAR {bar.index + 1} needed for 64-bit BAR {bar.index}")
        self._bars[bar.index] = bar
        self._bar_addrs[bar.index] = 0
        self.generation += 1

    def bar_address(self, index: int) -> int:
        """The currently programmed base address of a BAR."""
        if index not in self._bars:
            raise KeyError(f"BAR {index} not defined")
        return self._bar_addrs[index]

    def _bar_register_read(self, index: int) -> int:
        bar = self._bars.get(index)
        if bar is None:
            # Also covers the upper half of a 64-bit BAR.
            lower = self._bars.get(index - 1)
            if lower is not None and lower.is_64bit:
                if self._bar_sizing.get(index - 1):
                    size_mask = ~(lower.size - 1) & ((1 << 64) - 1)
                    return (size_mask >> 32) & 0xFFFF_FFFF
                return (self._bar_addrs[index - 1] >> 32) & 0xFFFF_FFFF
            return 0
        if self._bar_sizing.get(index):
            size_mask = ~(bar.size - 1) & ((1 << 64) - 1)
            return (size_mask & 0xFFFF_FFF0) | bar.flag_bits
        return (self._bar_addrs[index] & 0xFFFF_FFF0) | bar.flag_bits

    def _bar_register_write(self, index: int, value: int) -> None:
        bar = self._bars.get(index)
        if bar is None:
            lower = self._bars.get(index - 1)
            if lower is not None and lower.is_64bit:
                if value == 0xFFFF_FFFF:
                    return  # sizing write to upper half; read handled above
                addr = self._bar_addrs[index - 1]
                self._bar_addrs[index - 1] = (addr & 0xFFFF_FFFF) | (value << 32)
                self._bar_sizing[index - 1] = False
                self.generation += 1
            return
        if value == 0xFFFF_FFFF:
            self._bar_sizing[index] = True
            return
        self._bar_sizing[index] = False
        addr = self._bar_addrs[index]
        self._bar_addrs[index] = (addr & ~0xFFFF_FFFF) | (value & 0xFFFF_FFF0)
        self.generation += 1

    # -- capability list -----------------------------------------------------

    def add_capability(self, cap_id: int, body: bytes) -> int:
        """Append a capability; returns its config-space offset.

        *body* is the capability content **after** the two standard bytes
        (cap ID, next pointer), which this method manages.
        """
        total = 2 + len(body)
        offset = (self._next_cap_offset + 3) & ~3  # DWORD align
        if offset + total > 0x100:
            raise ValueError("capability list exceeds standard config space")
        write_u8(self._data, offset, cap_id)
        write_u8(self._data, offset + 1, 0)  # next = end of list
        self._data[offset + 2 : offset + total] = body
        if self._last_cap_offset is None:
            write_u8(self._data, CAPABILITIES_POINTER_OFFSET, offset)
            status = read_u16(self._data, STATUS_OFFSET)
            write_u16(self._data, STATUS_OFFSET, status | STATUS_CAPABILITIES_LIST)
        else:
            write_u8(self._data, self._last_cap_offset + 1, offset)
        self._last_cap_offset = offset
        self._next_cap_offset = offset + total
        return offset

    # -- raw access (config TLP handlers) -------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        """Config read with BAR-register interception."""
        if offset < 0 or offset + length > CONFIG_SPACE_SIZE:
            raise IndexError(f"config read [{offset:#x},{offset + length:#x}) out of range")
        if BAR0_OFFSET <= offset < BAR0_OFFSET + 4 * NUM_BARS and length == 4 and offset % 4 == 0:
            index = (offset - BAR0_OFFSET) // 4
            return self._bar_register_read(index).to_bytes(4, "little")
        return bytes(self._data[offset : offset + length])

    def write(self, offset: int, data: bytes) -> None:
        """Config write with BAR/command-register semantics.

        Read-only identity fields silently drop writes, matching
        hardware.
        """
        length = len(data)
        if offset < 0 or offset + length > CONFIG_SPACE_SIZE:
            raise IndexError(f"config write [{offset:#x},{offset + length:#x}) out of range")
        if BAR0_OFFSET <= offset < BAR0_OFFSET + 4 * NUM_BARS and length == 4 and offset % 4 == 0:
            index = (offset - BAR0_OFFSET) // 4
            self._bar_register_write(index, int.from_bytes(data, "little"))
            return
        if offset == COMMAND_OFFSET and length in (2, 4):
            write_u16(self._data, COMMAND_OFFSET, int.from_bytes(data[:2], "little"))
            self.generation += 1
            return
        if offset < 0x10 or (0x2C <= offset < 0x34):
            return  # read-only identity / subsystem region
        self._data[offset : offset + length] = data

    @property
    def raw(self) -> bytearray:
        """The backing store (for capability implementations that keep
        live state in config space, e.g. MSI-X message control)."""
        return self._data
