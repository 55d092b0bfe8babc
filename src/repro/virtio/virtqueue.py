"""Split virtqueues (VirtIO 1.2 section 2.7).

A split virtqueue is three driver-allocated areas in host memory:

* **descriptor table** -- 16-byte descriptors (addr, len, flags, next),
* **available ring** -- driver -> device: indices of descriptor chain
  heads the driver has exposed,
* **used ring** -- device -> driver: (head index, written length) pairs
  the device has consumed.

This module provides the byte layouts plus both endpoints' bookkeeping:

* :class:`DriverVirtqueue` -- what the front-end driver keeps in guest
  kernel memory: free-descriptor list, add-buffer/get-used operations.
  It reads/writes the rings through a :class:`~repro.mem.dma.DmaBuffer`,
  i.e. the *real simulated bytes* the device will DMA.
* :class:`VirtqueueAddresses` -- address arithmetic used by the FPGA
  controller to issue its DMA reads/writes; the controller never holds
  Python-object state about ring contents, it works from fetched bytes,
  exactly like the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.mem.dma import DmaBuffer
from repro.mem.layout import (
    align_up,
    read_u16,
    read_u32,
    read_u64,
    write_u16,
    write_u32,
    write_u64,
)

# Descriptor flags.
VIRTQ_DESC_F_NEXT = 1
VIRTQ_DESC_F_WRITE = 2
VIRTQ_DESC_F_INDIRECT = 4

# Available-ring flags.
VIRTQ_AVAIL_F_NO_INTERRUPT = 1
# Used-ring flags.
VIRTQ_USED_F_NO_NOTIFY = 1

DESCRIPTOR_SIZE = 16
AVAIL_HEADER_SIZE = 4  # flags u16 + idx u16
AVAIL_ENTRY_SIZE = 2
USED_HEADER_SIZE = 4
USED_ENTRY_SIZE = 8  # id u32 + len u32

#: Ring sizes must be powers of two, max 32768 (spec 2.7).
MAX_QUEUE_SIZE = 32768


class VirtqueueError(RuntimeError):
    """Ring protocol violation (exhaustion, bad chain, bad index)."""


class VirtqueueFull(VirtqueueError):
    """The queue's configured depth limit refused another chain.

    Distinct from plain descriptor exhaustion so callers can treat it
    as backpressure (count a drop) rather than a protocol violation.
    """


@dataclass(frozen=True)
class VirtqDescriptor:
    """One descriptor-table entry."""

    addr: int
    length: int
    flags: int = 0
    next_index: int = 0

    def encode(self) -> bytes:
        buf = bytearray(DESCRIPTOR_SIZE)
        write_u64(buf, 0, self.addr)
        write_u32(buf, 8, self.length)
        write_u16(buf, 12, self.flags)
        write_u16(buf, 14, self.next_index)
        return bytes(buf)

    @classmethod
    def decode(cls, data: bytes) -> "VirtqDescriptor":
        if len(data) != DESCRIPTOR_SIZE:
            raise VirtqueueError(f"descriptor must be {DESCRIPTOR_SIZE}B, got {len(data)}")
        return cls(
            # Inline int.from_bytes: this decode runs once per descriptor
            # walked and the layout helpers' bounds checks are redundant
            # over a 16-byte view.
            addr=int.from_bytes(data[0:8], "little"),
            length=int.from_bytes(data[8:12], "little"),
            flags=int.from_bytes(data[12:14], "little"),
            next_index=int.from_bytes(data[14:16], "little"),
        )

    @property
    def has_next(self) -> bool:
        return bool(self.flags & VIRTQ_DESC_F_NEXT)

    @property
    def device_writable(self) -> bool:
        return bool(self.flags & VIRTQ_DESC_F_WRITE)


@dataclass(frozen=True)
class VirtqueueAddresses:
    """Host-physical addresses of one split queue's three areas.

    The device receives these through the common-config ``queue_desc`` /
    ``queue_driver`` / ``queue_device`` fields at initialization -- the
    design point the paper contrasts against per-transfer descriptor
    exchange (Section IV-A).
    """

    size: int
    desc_table: int
    avail_ring: int
    used_ring: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.size > MAX_QUEUE_SIZE or self.size & (self.size - 1):
            raise VirtqueueError(f"queue size must be a power of two <= 32768, got {self.size}")

    def desc_addr(self, index: int) -> int:
        """Address of descriptor *index*."""
        return self.desc_table + DESCRIPTOR_SIZE * (index % self.size)

    @property
    def avail_flags_addr(self) -> int:
        return self.avail_ring

    @property
    def avail_idx_addr(self) -> int:
        return self.avail_ring + 2

    def avail_entry_addr(self, slot: int) -> int:
        return self.avail_ring + AVAIL_HEADER_SIZE + AVAIL_ENTRY_SIZE * (slot % self.size)

    @property
    def used_idx_addr(self) -> int:
        return self.used_ring + 2

    def used_entry_addr(self, slot: int) -> int:
        return self.used_ring + USED_HEADER_SIZE + USED_ENTRY_SIZE * (slot % self.size)


def ring_layout(size: int, align: int = 4096) -> Tuple[int, int, int, int]:
    """Offsets of (desc, avail, used, total_bytes) for a single
    contiguous allocation holding all three areas.

    The driver may place the areas anywhere; this helper packs them the
    way Linux's ``vring_init`` does: descriptors, then avail, then used
    aligned up to *align*.
    """
    desc_off = 0
    avail_off = DESCRIPTOR_SIZE * size
    used_off = align_up(avail_off + AVAIL_HEADER_SIZE + AVAIL_ENTRY_SIZE * size + 2, align)
    total = used_off + USED_HEADER_SIZE + USED_ENTRY_SIZE * size + 2
    return desc_off, avail_off, used_off, total


@dataclass(frozen=True)
class UsedElem:
    """One used-ring element as the driver reads it back."""

    head: int
    written: int


class DriverVirtqueue:
    """Front-end driver bookkeeping for one split queue.

    All ring state lives in the :class:`DmaBuffer` (real simulated host
    memory the device DMAs against); this class only tracks free
    descriptor slots and the last-seen used index, as the Linux
    ``vring_virtqueue`` does.
    """

    def __init__(self, index: int, size: int, buffer: DmaBuffer, name: str = "") -> None:
        desc_off, avail_off, used_off, total = ring_layout(size)
        if buffer.size < total:
            raise VirtqueueError(f"queue buffer {buffer.size}B < required {total}B")
        self.index = index
        self.size = size
        self.name = name or f"vq{index}"
        self.buffer = buffer
        self.addresses = VirtqueueAddresses(
            size=size,
            desc_table=buffer.addr + desc_off,
            avail_ring=buffer.addr + avail_off,
            used_ring=buffer.addr + used_off,
        )
        self._desc_off = desc_off
        self._avail_off = avail_off
        self._used_off = used_off
        buffer.zero()
        self._free: List[int] = list(range(size))
        self._avail_idx = 0  # driver's shadow of the published avail idx
        self._last_used_idx = 0
        #: head -> chain length, for freeing on used.
        self._chain_lengths: dict[int, int] = {}
        #: number of buffers currently exposed to the device.
        self.in_flight = 0
        #: Optional avail-ring depth bound: the driver refuses to expose
        #: more than this many chains at once (None = ring-size bound
        #: only).  Installed by the overload-protection layer; chains
        #: beyond it raise :class:`VirtqueueFull`.
        self.depth_limit: Optional[int] = None
        #: Chains refused by the depth limit.
        self.depth_rejects = 0

    # -- descriptor management ----------------------------------------------------

    @property
    def num_free(self) -> int:
        return len(self._free)

    def has_room(self, chains: int = 1) -> bool:
        """Whether *chains* more single-descriptor chains fit under both
        the ring-size and the configured depth bound."""
        if len(self._free) < chains:
            return False
        return self.depth_limit is None or self.in_flight + chains <= self.depth_limit

    def _check_depth(self) -> None:
        if self.depth_limit is not None and self.in_flight >= self.depth_limit:
            self.depth_rejects += 1
            raise VirtqueueFull(
                f"queue {self.name}: depth limit {self.depth_limit} reached "
                f"({self.in_flight} chains in flight)"
            )

    def _write_descriptor(self, index: int, desc: VirtqDescriptor) -> None:
        self.buffer.write(desc.encode(), self._desc_off + DESCRIPTOR_SIZE * index)

    def read_descriptor(self, index: int) -> VirtqDescriptor:
        # View, not copy: the decoder consumes the bytes immediately.
        raw = self.buffer.view(self._desc_off + DESCRIPTOR_SIZE * index, DESCRIPTOR_SIZE)
        return VirtqDescriptor.decode(raw)

    def add_buffer(
        self,
        out_segments: Sequence[Tuple[int, int]],
        in_segments: Sequence[Tuple[int, int]],
    ) -> int:
        """Expose a buffer chain: *out_segments* are driver->device
        (device-readable), *in_segments* device->driver (device-
        writable).  Returns the chain head index.

        This mirrors ``virtqueue_add_sgs``: it writes descriptors and the
        avail-ring entry but does **not** bump the published avail index
        -- call :meth:`publish` (kick path) to make the chain visible,
        allowing batched exposure.
        """
        total = len(out_segments) + len(in_segments)
        if total == 0:
            raise VirtqueueError("buffer chain must have at least one segment")
        self._check_depth()
        if total > len(self._free):
            raise VirtqueueError(
                f"queue {self.name}: need {total} descriptors, {len(self._free)} free"
            )
        indices = [self._free.pop() for _ in range(total)]
        head = indices[0]
        for pos, (addr, length) in enumerate(list(out_segments) + list(in_segments)):
            flags = 0
            if pos >= len(out_segments):
                flags |= VIRTQ_DESC_F_WRITE
            is_last = pos == total - 1
            next_index = 0 if is_last else indices[pos + 1]
            if not is_last:
                flags |= VIRTQ_DESC_F_NEXT
            self._write_descriptor(
                indices[pos],
                VirtqDescriptor(addr=addr, length=length, flags=flags, next_index=next_index),
            )
        # Avail-ring entry at the driver's shadow index.
        slot = self._avail_idx % self.size
        entry_off = self._avail_off + AVAIL_HEADER_SIZE + AVAIL_ENTRY_SIZE * slot
        self.buffer.write(head.to_bytes(2, "little"), entry_off)
        self._avail_idx = (self._avail_idx + 1) & 0xFFFF
        self._chain_lengths[head] = total
        self.in_flight += 1
        return head

    def add_buffer_indirect(
        self,
        out_segments: Sequence[Tuple[int, int]],
        in_segments: Sequence[Tuple[int, int]],
        table: DmaBuffer,
    ) -> int:
        """Expose a chain through one *indirect* descriptor
        (VIRTIO_F_RING_INDIRECT_DESC): the segment descriptors are
        written into *table* (driver-owned DMA memory) and a single
        ring descriptor points at it.

        Costs one ring slot regardless of segment count, and lets the
        device fetch the whole chain in one DMA read.  The caller owns
        *table* until the buffer is used.
        """
        total = len(out_segments) + len(in_segments)
        if total == 0:
            raise VirtqueueError("indirect chain must have at least one segment")
        self._check_depth()
        if table.size < total * DESCRIPTOR_SIZE:
            raise VirtqueueError(
                f"indirect table of {table.size}B cannot hold {total} descriptors"
            )
        if not self._free:
            raise VirtqueueError(f"queue {self.name}: no free descriptors")
        blob = bytearray()
        for position, (addr, length) in enumerate(list(out_segments) + list(in_segments)):
            flags = 0
            if position >= len(out_segments):
                flags |= VIRTQ_DESC_F_WRITE
            if position < total - 1:
                flags |= VIRTQ_DESC_F_NEXT
            next_index = position + 1 if position < total - 1 else 0
            blob += VirtqDescriptor(
                addr=addr, length=length, flags=flags, next_index=next_index
            ).encode()
        table.write(bytes(blob))
        head = self._free.pop()
        self._write_descriptor(
            head,
            VirtqDescriptor(
                addr=table.addr,
                length=total * DESCRIPTOR_SIZE,
                flags=VIRTQ_DESC_F_INDIRECT,
            ),
        )
        slot = self._avail_idx % self.size
        entry_off = self._avail_off + AVAIL_HEADER_SIZE + AVAIL_ENTRY_SIZE * slot
        self.buffer.write(head.to_bytes(2, "little"), entry_off)
        self._avail_idx = (self._avail_idx + 1) & 0xFFFF
        self._chain_lengths[head] = 1  # one ring descriptor to free
        self.in_flight += 1
        return head

    def publish(self) -> int:
        """Write the shadow avail index to the ring (memory barrier +
        ``vring_avail->idx`` store); returns the published value."""
        self.buffer.write(self._avail_idx.to_bytes(2, "little"), self._avail_off + 2)
        return self._avail_idx

    # -- used-ring consumption ---------------------------------------------------------

    def device_used_idx(self) -> int:
        """Read the device-published used index from the ring."""
        return int.from_bytes(self.buffer.view(self._used_off + 2, 2), "little")

    def has_used(self) -> bool:
        return self.device_used_idx() != self._last_used_idx

    def get_used(self) -> Optional[UsedElem]:
        """Pop one used element, freeing its descriptor chain."""
        if not self.has_used():
            return None
        slot = self._last_used_idx % self.size
        raw = self.buffer.view(self._used_off + USED_HEADER_SIZE + USED_ENTRY_SIZE * slot, 8)
        head = int.from_bytes(raw[0:4], "little")
        written = int.from_bytes(raw[4:8], "little")
        self._last_used_idx = (self._last_used_idx + 1) & 0xFFFF
        chain = self._chain_lengths.pop(head, None)
        if chain is None:
            raise VirtqueueError(f"queue {self.name}: device used unknown head {head}")
        # Free the chain's descriptor indices by walking the table.  The
        # walk is bounded by the recorded chain length, but the table
        # bytes are device-visible memory -- a corrupted (self-
        # referential or out-of-range) chain must fail loudly, not loop
        # or free the same slot twice.
        index = head
        seen: set[int] = set()
        for _ in range(chain):
            if not 0 <= index < self.size:
                raise VirtqueueError(
                    f"queue {self.name}: descriptor index {index} out of range "
                    f"(size {self.size})"
                )
            if index in seen:
                raise VirtqueueError(
                    f"queue {self.name}: descriptor chain loops back to index {index}"
                )
            seen.add(index)
            self._free.append(index)
            desc = self.read_descriptor(index)
            if not desc.has_next:
                break
            index = desc.next_index
        else:
            if desc.has_next:
                raise VirtqueueError(
                    f"queue {self.name}: chain at head {head} longer than its "
                    f"recorded {chain} descriptors"
                )
        self.in_flight -= 1
        return UsedElem(head=head, written=written)

    def set_avail_no_interrupt(self, suppress: bool) -> None:
        """Set/clear VIRTQ_AVAIL_F_NO_INTERRUPT (NAPI polling mode)."""
        value = VIRTQ_AVAIL_F_NO_INTERRUPT if suppress else 0
        self.buffer.write(value.to_bytes(2, "little"), self._avail_off)

    def __repr__(self) -> str:
        return (
            f"<DriverVirtqueue {self.name} size={self.size} free={len(self._free)} "
            f"in_flight={self.in_flight}>"
        )
