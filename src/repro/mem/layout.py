"""Little-endian binary layout helpers.

Everything that crosses the simulated PCIe link -- TLP headers, VirtIO
configuration structures, virtqueue descriptors, XDMA registers, Ethernet
/IP/UDP headers -- is real bytes in simulated memory.  This module gives
the rest of the codebase one well-tested way to encode/decode scalar
fields and to declare packed structures, instead of scattering
``int.from_bytes`` calls everywhere.

VirtIO structures are little-endian by spec ("virtio-endian").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


# -- scalar accessors ---------------------------------------------------------


def read_uint(buf: bytes, offset: int, size: int) -> int:
    """Read a little-endian unsigned integer of *size* bytes at *offset*."""
    if offset < 0 or offset + size > len(buf):
        raise IndexError(f"read of {size}B at {offset} outside buffer of {len(buf)}B")
    return int.from_bytes(buf[offset : offset + size], "little")


def write_uint(buf: bytearray, offset: int, size: int, value: int) -> None:
    """Write a little-endian unsigned integer of *size* bytes at *offset*
    (range-checked)."""
    if offset < 0 or offset + size > len(buf):
        raise IndexError(f"write of {size}B at {offset} outside buffer of {len(buf)}B")
    if value < 0 or value >= 1 << (8 * size):
        raise ValueError(f"value {value:#x} does not fit in {size} bytes")
    buf[offset : offset + size] = value.to_bytes(size, "little")


def read_u8(buf: bytes, offset: int) -> int:
    return read_uint(buf, offset, 1)


def read_u16(buf: bytes, offset: int) -> int:
    return read_uint(buf, offset, 2)


def read_u32(buf: bytes, offset: int) -> int:
    return read_uint(buf, offset, 4)


def read_u64(buf: bytes, offset: int) -> int:
    return read_uint(buf, offset, 8)


def write_u8(buf: bytearray, offset: int, value: int) -> None:
    write_uint(buf, offset, 1, value)


def write_u16(buf: bytearray, offset: int, value: int) -> None:
    write_uint(buf, offset, 2, value)


def write_u32(buf: bytearray, offset: int, value: int) -> None:
    write_uint(buf, offset, 4, value)


def write_u64(buf: bytearray, offset: int, value: int) -> None:
    write_uint(buf, offset, 8, value)


# -- declarative packed structs ------------------------------------------------


@dataclass(frozen=True)
class Field:
    """One scalar field of a packed struct."""

    name: str
    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.size not in (1, 2, 4, 8):
            raise ValueError(f"field {self.name!r}: unsupported size {self.size}")
        if self.offset < 0:
            raise ValueError(f"field {self.name!r}: negative offset")

    @property
    def end(self) -> int:
        return self.offset + self.size


class StructDef:
    """A named packed-struct layout: ordered fields at explicit offsets.

    Explicit offsets (rather than auto-packing) match how hardware specs
    are written and let tests assert offsets against the spec documents.

    Example
    -------
    ``VIRTIO_PCI_COMMON_CFG`` from the VirtIO 1.2 spec::

        COMMON_CFG = StructDef("virtio_pci_common_cfg", [
            ("device_feature_select", 0x00, 4),
            ("device_feature",        0x04, 4),
            ...
        ])
    """

    def __init__(
        self,
        name: str,
        fields: List[Tuple[str, int, int]],
        *,
        total_size: int | None = None,
    ) -> None:
        self.name = name
        self.fields: Dict[str, Field] = {}
        for fname, offset, size in fields:
            if fname in self.fields:
                raise ValueError(f"duplicate field {fname!r} in {name}")
            self.fields[fname] = Field(fname, offset, size)
        self._check_overlap()
        max_end = max((f.end for f in self.fields.values()), default=0)
        self.size = total_size if total_size is not None else max_end
        if self.size < max_end:
            raise ValueError(f"{name}: total_size {self.size} smaller than field extent {max_end}")

    def _check_overlap(self) -> None:
        ordered = sorted(self.fields.values(), key=lambda f: f.offset)
        for a, b in zip(ordered, ordered[1:]):
            if a.end > b.offset:
                raise ValueError(f"{self.name}: fields {a.name!r} and {b.name!r} overlap")

    def offset_of(self, name: str) -> int:
        return self.fields[name].offset

    def size_of(self, name: str) -> int:
        return self.fields[name].size

    def __repr__(self) -> str:
        return f"<StructDef {self.name} size={self.size} fields={len(self.fields)}>"


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to a multiple of *alignment* (a power of two)."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)
