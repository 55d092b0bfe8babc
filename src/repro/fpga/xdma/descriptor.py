"""XDMA scatter-gather descriptor format.

PG195 descriptors are 32 bytes::

    [0]  control: magic (0xAD4B) in [31:16], nxt_adj in [13:8],
         flags in [7:0] (STOP, COMPLETED, EOP)
    [4]  length in bytes (28 bits)
    [8]  src address low
    [12] src address high
    [16] dst address low
    [20] dst address high
    [24] next descriptor address low
    [28] next descriptor address high

For H2C the source is a host address and the destination an AXI (card)
address; for C2H the reverse.  The descriptor-bypass port takes the
same fields (source, destination, length) directly, which is how the
VirtIO controller drives the engines without host-resident descriptor
rings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.layout import read_u32, write_u32

DESCRIPTOR_SIZE = 32
DESCRIPTOR_MAGIC = 0xAD4B
MAX_DESCRIPTOR_LENGTH = (1 << 28) - 1

# Control flag bits.
DESC_STOP = 1 << 0
DESC_COMPLETED = 1 << 1
DESC_EOP = 1 << 4


class DescriptorError(ValueError):
    """Malformed descriptor (bad magic, oversized length)."""


@dataclass(frozen=True)
class XdmaDescriptor:
    """Decoded descriptor."""

    src_addr: int
    dst_addr: int
    length: int
    stop: bool = True
    eop: bool = True
    completed_irq: bool = False
    nxt_adj: int = 0
    next_addr: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.length <= MAX_DESCRIPTOR_LENGTH:
            raise DescriptorError(f"descriptor length {self.length} out of range")
        if self.src_addr < 0 or self.dst_addr < 0 or self.next_addr < 0:
            raise DescriptorError("negative address in descriptor")
        if not 0 <= self.nxt_adj < 64:
            raise DescriptorError(f"nxt_adj {self.nxt_adj} out of range")

    def encode(self) -> bytes:
        """Serialize to the 32-byte wire format."""
        buf = bytearray(DESCRIPTOR_SIZE)
        flags = 0
        if self.stop:
            flags |= DESC_STOP
        if self.completed_irq:
            flags |= DESC_COMPLETED
        if self.eop:
            flags |= DESC_EOP
        control = (DESCRIPTOR_MAGIC << 16) | ((self.nxt_adj & 0x3F) << 8) | flags
        write_u32(buf, 0, control)
        write_u32(buf, 4, self.length)
        write_u32(buf, 8, self.src_addr & 0xFFFF_FFFF)
        write_u32(buf, 12, self.src_addr >> 32)
        write_u32(buf, 16, self.dst_addr & 0xFFFF_FFFF)
        write_u32(buf, 20, self.dst_addr >> 32)
        write_u32(buf, 24, self.next_addr & 0xFFFF_FFFF)
        write_u32(buf, 28, self.next_addr >> 32)
        return bytes(buf)

    @classmethod
    def decode(cls, data: bytes) -> "XdmaDescriptor":
        """Parse the 32-byte wire format (validates the magic)."""
        if len(data) != DESCRIPTOR_SIZE:
            raise DescriptorError(f"descriptor must be {DESCRIPTOR_SIZE}B, got {len(data)}")
        control = read_u32(data, 0)
        if (control >> 16) != DESCRIPTOR_MAGIC:
            raise DescriptorError(f"bad descriptor magic {control >> 16:#x}")
        flags = control & 0xFF
        return cls(
            src_addr=read_u32(data, 8) | (read_u32(data, 12) << 32),
            dst_addr=read_u32(data, 16) | (read_u32(data, 20) << 32),
            length=read_u32(data, 4),
            stop=bool(flags & DESC_STOP),
            eop=bool(flags & DESC_EOP),
            completed_irq=bool(flags & DESC_COMPLETED),
            nxt_adj=(control >> 8) & 0x3F,
            next_addr=read_u32(data, 24) | (read_u32(data, 28) << 32),
        )
