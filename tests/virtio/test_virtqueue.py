"""Tests for split-virtqueue layout and driver-side operations."""

import pytest

from repro.mem.dma import DmaAllocator
from repro.mem.physical import PhysicalMemory
from repro.virtio.virtqueue import (
    AVAIL_HEADER_SIZE,
    DESCRIPTOR_SIZE,
    USED_HEADER_SIZE,
    VIRTQ_AVAIL_F_NO_INTERRUPT,
    VIRTQ_DESC_F_NEXT,
    VIRTQ_DESC_F_WRITE,
    DriverVirtqueue,
    VirtqDescriptor,
    VirtqueueAddresses,
    VirtqueueError,
    ring_layout,
)


def make_vq(size=16):
    mem = PhysicalMemory()
    alloc = DmaAllocator(mem)
    _, _, _, total = ring_layout(size)
    buffer = alloc.alloc(total, alignment=4096)
    return DriverVirtqueue(0, size, buffer), mem


class TestDescriptorCodec:
    def test_roundtrip(self):
        desc = VirtqDescriptor(addr=0x1234_5678_9ABC, length=2048,
                               flags=VIRTQ_DESC_F_NEXT | VIRTQ_DESC_F_WRITE, next_index=7)
        assert VirtqDescriptor.decode(desc.encode()) == desc

    def test_flags(self):
        desc = VirtqDescriptor(addr=0, length=1, flags=VIRTQ_DESC_F_WRITE)
        assert desc.device_writable and not desc.has_next

    def test_wrong_size_rejected(self):
        with pytest.raises(VirtqueueError):
            VirtqDescriptor.decode(b"short")


class TestRingLayout:
    def test_used_ring_aligned(self):
        _, _, used_off, _ = ring_layout(256)
        assert used_off % 4096 == 0

    def test_area_sizes(self):
        desc_off, avail_off, used_off, total = ring_layout(8)
        assert avail_off - desc_off == 8 * DESCRIPTOR_SIZE
        assert used_off >= avail_off + AVAIL_HEADER_SIZE + 2 * 8
        assert total >= used_off + USED_HEADER_SIZE + 8 * 8


class TestVirtqueueAddresses:
    def test_address_arithmetic(self):
        addrs = VirtqueueAddresses(size=8, desc_table=0x1000, avail_ring=0x2000,
                                   used_ring=0x3000)
        assert addrs.desc_addr(3) == 0x1000 + 48
        assert addrs.desc_addr(9) == 0x1000 + 16  # wraps at size
        assert addrs.avail_ring + 2 == 0x2002  # avail->idx
        assert addrs.avail_entry_addr(2) == 0x2000 + 4 + 4
        assert addrs.used_idx_addr == 0x3002
        assert addrs.used_entry_addr(1) == 0x3000 + 4 + 8

    def test_non_power_of_two_rejected(self):
        with pytest.raises(VirtqueueError):
            VirtqueueAddresses(size=6, desc_table=0, avail_ring=0, used_ring=0)


class TestDriverVirtqueue:
    def test_add_buffer_writes_descriptors(self):
        vq, _ = make_vq()
        head = vq.add_buffer([(0x10000, 128)], [])
        desc = vq.read_descriptor(head)
        assert desc.addr == 0x10000
        assert desc.length == 128
        assert not desc.device_writable

    def test_chain_links_out_then_in(self):
        vq, _ = make_vq()
        head = vq.add_buffer([(0x1000, 16)], [(0x2000, 32), (0x3000, 64)])
        first = vq.read_descriptor(head)
        assert first.has_next and not first.device_writable
        second = vq.read_descriptor(first.next_index)
        assert second.has_next and second.device_writable
        third = vq.read_descriptor(second.next_index)
        assert not third.has_next and third.device_writable
        assert third.length == 64

    def test_publish_writes_avail_idx(self):
        vq, _ = make_vq()
        vq.add_buffer([(0x1000, 8)], [])
        assert vq.publish() == 1
        raw = vq.buffer.read(vq.addresses.avail_ring + 2 - vq.buffer.addr, 2)
        assert int.from_bytes(raw, "little") == 1

    def test_descriptor_exhaustion(self):
        vq, _ = make_vq(size=4)
        for _ in range(4):
            vq.add_buffer([(0x1000, 8)], [])
        with pytest.raises(VirtqueueError, match="free"):
            vq.add_buffer([(0x1000, 8)], [])

    def test_used_consumption_frees_chain(self):
        vq, mem = make_vq(size=4)
        head = vq.add_buffer([(0x1000, 8), (0x2000, 8)], [])
        vq.publish()
        assert vq.num_free == 2
        # Device writes the used element + idx.
        elem = head.to_bytes(4, "little") + (0).to_bytes(4, "little")
        mem.write(vq.addresses.used_entry_addr(0), elem)
        mem.write(vq.addresses.used_idx_addr, (1).to_bytes(2, "little"))
        assert vq.has_used()
        used = vq.get_used()
        assert used.head == head
        assert vq.num_free == 4
        assert not vq.has_used()

    def test_get_used_empty_returns_none(self):
        vq, _ = make_vq()
        assert vq.get_used() is None

    def test_unknown_used_head_rejected(self):
        vq, mem = make_vq()
        mem.write(vq.addresses.used_entry_addr(0), (9).to_bytes(4, "little") + bytes(4))
        mem.write(vq.addresses.used_idx_addr, (1).to_bytes(2, "little"))
        with pytest.raises(VirtqueueError, match="unknown head"):
            vq.get_used()

    def test_interrupt_suppression_flag(self):
        vq, mem = make_vq()
        vq.set_avail_no_interrupt(True)
        flags = int.from_bytes(mem.read(vq.addresses.avail_flags_addr, 2), "little")
        assert flags == VIRTQ_AVAIL_F_NO_INTERRUPT
        vq.set_avail_no_interrupt(False)
        flags = int.from_bytes(mem.read(vq.addresses.avail_flags_addr, 2), "little")
        assert flags == 0

    def test_empty_chain_rejected(self):
        vq, _ = make_vq()
        with pytest.raises(VirtqueueError):
            vq.add_buffer([], [])

    def test_small_buffer_rejected(self):
        mem = PhysicalMemory()
        alloc = DmaAllocator(mem)
        with pytest.raises(VirtqueueError):
            DriverVirtqueue(0, 256, alloc.alloc(64))

    def test_avail_idx_wraps_16bit(self):
        vq, mem = make_vq(size=4)
        vq._avail_idx = 0xFFFF
        vq.add_buffer([(0x1000, 8)], [])
        assert vq.publish() == 0


class TestCorruptedChainWalk:
    """The used-side chain walk must reject device-corrupted chains
    instead of looping or double-freeing (the descriptor table is
    device-visible memory)."""

    def _complete(self, vq, mem, head):
        elem = head.to_bytes(4, "little") + (0).to_bytes(4, "little")
        mem.write(vq.addresses.used_entry_addr(0), elem)
        mem.write(vq.addresses.used_idx_addr, (1).to_bytes(2, "little"))

    def test_self_referential_chain_rejected(self):
        vq, mem = make_vq()
        head = vq.add_buffer([(0x1000, 8), (0x2000, 8)], [])
        vq.publish()
        vq._write_descriptor(
            head,
            VirtqDescriptor(addr=0x1000, length=8, flags=VIRTQ_DESC_F_NEXT,
                            next_index=head),
        )
        self._complete(vq, mem, head)
        with pytest.raises(VirtqueueError, match="loops back"):
            vq.get_used()

    def test_overlong_chain_rejected(self):
        vq, mem = make_vq()
        head = vq.add_buffer([(0x1000, 8), (0x2000, 8)], [])
        vq.publish()
        second = vq.read_descriptor(head).next_index
        # The last descriptor claims a continuation the driver never
        # recorded.
        vq._write_descriptor(
            second,
            VirtqDescriptor(addr=0x2000, length=8, flags=VIRTQ_DESC_F_NEXT,
                            next_index=(second + 1) % vq.size),
        )
        self._complete(vq, mem, head)
        with pytest.raises(VirtqueueError, match="longer than"):
            vq.get_used()

    def test_out_of_range_link_rejected(self):
        vq, mem = make_vq()
        head = vq.add_buffer([(0x1000, 8), (0x2000, 8)], [])
        vq.publish()
        vq._write_descriptor(
            head,
            VirtqDescriptor(addr=0x1000, length=8, flags=VIRTQ_DESC_F_NEXT,
                            next_index=99),
        )
        self._complete(vq, mem, head)
        with pytest.raises(VirtqueueError, match="out of range"):
            vq.get_used()
