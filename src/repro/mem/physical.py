"""Sparse host physical memory.

The host model needs gigabytes of addressable memory but touches only a few
megabytes, so the backing store is a page-sparse dict.  Pages materialize
on first write; reads of untouched pages return zeros (matching how a
fresh kernel page behaves after zeroing).
"""

from __future__ import annotations

from typing import Dict, Union

from repro.mem.region import MemoryRegion

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4 KiB, matching the modeled x86-64 host

#: Shared read-only backing for views of never-written pages.
_ZERO_PAGE = bytes(PAGE_SIZE)

Buffer = Union[bytes, bytearray, memoryview]


class PhysicalMemory(MemoryRegion):
    """Page-sparse physical memory of a given size."""

    def __init__(self, size: int = 1 << 34, name: str = "host-ram") -> None:
        super().__init__(size, name)
        self._pages: Dict[int, bytearray] = {}

    def _page_for_write(self, pfn: int) -> bytearray:
        page = self._pages.get(pfn)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[pfn] = page
        return page

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        in_page = offset & (PAGE_SIZE - 1)
        if in_page + length <= PAGE_SIZE:
            # Fast path: the access sits inside one page (every TLP does,
            # since segmentation splits at page boundaries).
            page = self._pages.get(offset >> PAGE_SHIFT)
            if page is None:
                return _ZERO_PAGE[:length]
            return bytes(page[in_page : in_page + length])
        pieces = []
        end = offset + length
        while offset < end:
            chunk = min(end - offset, PAGE_SIZE - (offset & (PAGE_SIZE - 1)))
            pieces.append(self.read(offset, chunk))
            offset += chunk
        return b"".join(pieces)

    def view(self, offset: int, length: int) -> memoryview:
        """Read-only view of *length* bytes at *offset*.

        Zero-copy when the range sits inside one page (the data-plane
        case: TLP segmentation never crosses a page).  A cross-page range
        is assembled into a private buffer and a view of that returned.
        The view is a snapshot boundary only if the caller treats it as
        one: it aliases live memory, so consumers that outlive the next
        write to the range must copy (see docs/architecture.md).
        """
        self._check(offset, length)
        in_page = offset & (PAGE_SIZE - 1)
        if in_page + length <= PAGE_SIZE:
            page = self._pages.get(offset >> PAGE_SHIFT)
            if page is None:
                return memoryview(_ZERO_PAGE)[:length]
            return memoryview(page).toreadonly()[in_page : in_page + length]
        return memoryview(self.read(offset, length))

    def write(self, offset: int, data: Buffer) -> None:
        length = len(data)
        self._check(offset, length)
        in_page = offset & (PAGE_SIZE - 1)
        if in_page + length <= PAGE_SIZE:
            page = self._page_for_write(offset >> PAGE_SHIFT)
            page[in_page : in_page + length] = data
            return
        src = memoryview(data)
        pos = 0
        addr = offset
        while pos < length:
            pfn = addr >> PAGE_SHIFT
            in_page = addr & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - in_page)
            page = self._page_for_write(pfn)
            page[in_page : in_page + chunk] = src[pos : pos + chunk]
            pos += chunk
            addr += chunk

    def fill(self, offset: int, length: int, value: int = 0) -> None:
        """Set *length* bytes at *offset* to *value*, page by page in
        place -- no ``length``-sized intermediate buffer."""
        if not 0 <= value <= 0xFF:
            raise ValueError(f"fill value must be a byte, got {value}")
        self._check(offset, length)
        pos = 0
        addr = offset
        while pos < length:
            pfn = addr >> PAGE_SHIFT
            in_page = addr & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - in_page)
            if value == 0 and in_page == 0 and chunk == PAGE_SIZE:
                # Whole-page zeroing: drop back to the sparse default.
                self._pages.pop(pfn, None)
            else:
                page = self._pages.get(pfn)
                if page is not None:
                    page[in_page : in_page + chunk] = bytes([value]) * chunk if value else b"\x00" * chunk
                elif value:
                    page = self._page_for_write(pfn)
                    page[in_page : in_page + chunk] = bytes([value]) * chunk
                # value == 0 on an unmaterialized page: already zeros.
            pos += chunk
            addr += chunk
