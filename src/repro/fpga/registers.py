"""Register file: named 32-bit registers behind an MMIO region.

Hardware blocks (the XDMA IP, the VirtIO controller) declare registers
with optional read/write hooks; the file exposes itself as an
:class:`~repro.mem.region.MmioRegion` for BAR attachment and as a plain
Python attribute-ish API for fabric-side logic.

Registers are 32 bits wide (the access width of both the XDMA register
space and the VirtIO PCI configuration structures for their control
fields; wider VirtIO fields are composed of two registers by the
controller).  Sub-word MMIO access is supported because VirtIO drivers
legitimately issue 1- and 2-byte accesses to config structures.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.mem.region import MmioRegion

ReadHook = Callable[[], int]
WriteHook = Callable[[int], None]


class Register:
    """One 32-bit register with optional hooks.

    ``read_hook`` overrides the stored value on reads (computed/status
    registers); ``write_hook`` observes the new value after storage
    (doorbells, control bits).  ``read_only`` silently drops writes,
    matching typical hardware.
    """

    __slots__ = ("name", "offset", "value", "read_hook", "write_hook", "read_only")

    def __init__(
        self,
        name: str,
        offset: int,
        reset: int = 0,
        read_hook: Optional[ReadHook] = None,
        write_hook: Optional[WriteHook] = None,
        read_only: bool = False,
    ) -> None:
        if offset % 4:
            raise ValueError(f"register {name!r} offset {offset:#x} not dword-aligned")
        if not 0 <= reset <= 0xFFFF_FFFF:
            raise ValueError(f"register {name!r} reset value out of range")
        self.name = name
        self.offset = offset
        self.value = reset
        self.read_hook = read_hook
        self.write_hook = write_hook
        self.read_only = read_only

    def read(self) -> int:
        if self.read_hook is not None:
            self.value = self.read_hook() & 0xFFFF_FFFF
        return self.value

    def write(self, value: int) -> None:
        if self.read_only:
            return
        self.value = value & 0xFFFF_FFFF
        if self.write_hook is not None:
            self.write_hook(self.value)


class RegisterFile:
    """A bank of registers plus backing bytes for unregistered offsets.

    Unregistered offsets behave as scratch RAM -- VirtIO device-specific
    config areas contain byte fields (MAC address) that are simpler to
    keep as raw bytes than as registers.
    """

    def __init__(self, size: int, name: str = "regs") -> None:
        if size % 4:
            raise ValueError(f"register file size {size} not dword-aligned")
        self.size = size
        self.name = name
        self._registers: Dict[int, Register] = {}
        self._shadow = bytearray(size)

    def add(self, register: Register) -> Register:
        if register.offset + 4 > self.size:
            raise ValueError(
                f"register {register.name!r} at {register.offset:#x} outside file of {self.size:#x}"
            )
        if register.offset in self._registers:
            raise ValueError(f"offset {register.offset:#x} already has a register")
        self._registers[register.offset] = register
        return register

    def reg(
        self,
        name: str,
        offset: int,
        reset: int = 0,
        read_hook: Optional[ReadHook] = None,
        write_hook: Optional[WriteHook] = None,
        read_only: bool = False,
    ) -> Register:
        """Declare-and-add convenience."""
        return self.add(
            Register(name, offset, reset, read_hook, write_hook, read_only)
        )

    def by_name(self, name: str) -> Register:
        for reg in self._registers.values():
            if reg.name == name:
                return reg
        raise KeyError(f"no register named {name!r} in {self.name!r}")

    # -- MMIO semantics -------------------------------------------------------

    def mmio_read(self, offset: int, length: int) -> bytes:
        """Read; may span registers and scratch bytes."""
        out = bytearray()
        pos = offset
        end = offset + length
        while pos < end:
            base = pos & ~3
            reg = self._registers.get(base)
            if reg is not None:
                word = reg.read().to_bytes(4, "little")
            else:
                word = bytes(self._shadow[base : base + 4])
            take_from = pos - base
            take = min(4 - take_from, end - pos)
            out += word[take_from : take_from + take]
            pos += take
        return bytes(out)

    def mmio_write(self, offset: int, data: bytes) -> None:
        """Write; sub-word writes to registers read-modify-write the
        stored value (hooks fire with the merged word)."""
        pos = offset
        end = offset + len(data)
        while pos < end:
            base = pos & ~3
            take_from = pos - base
            take = min(4 - take_from, end - pos)
            chunk = data[pos - offset : pos - offset + take]
            reg = self._registers.get(base)
            if reg is not None:
                word = bytearray(reg.value.to_bytes(4, "little"))
                word[take_from : take_from + take] = chunk
                reg.write(int.from_bytes(word, "little"))
            else:
                self._shadow[base + take_from : base + take_from + take] = chunk
            pos += take

    def as_region(self) -> MmioRegion:
        """Wrap as a BAR-attachable MMIO region."""
        return MmioRegion(self.size, self.mmio_read, self.mmio_write, name=self.name)

    # -- scratch access for fabric logic -------------------------------------------

    def scratch_read(self, offset: int, length: int) -> bytes:
        return bytes(self._shadow[offset : offset + length])

    def scratch_write(self, offset: int, data: bytes) -> None:
        self._shadow[offset : offset + len(data)] = data
