"""Transaction Layer Packets.

The simulator works at the transaction layer: requesters emit
:class:`Tlp` objects; the link model charges serialization/propagation
time; completers produce completion TLPs.  Physical- and data-link-layer
mechanics (8b/10b symbols, DLLPs, ACK/NAK replay) are folded into the
per-TLP overhead bytes and the link's efficiency factor -- they are
invisible to device drivers, which is the layer the paper measures.

Wire-size accounting per TLP (PCIe Gen1/2 framing):

* 1 B STP + 2 B sequence number before the header,
* 12 B header (3 DW, 32-bit addressing) or 16 B (4 DW, 64-bit),
* payload (MWr/CplD only),
* 4 B LCRC + 1 B END.

giving ``DLL_OVERHEAD_BYTES = 8`` on top of header+payload.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

#: Link-layer framing bytes added to every TLP (STP+seq+LCRC+END).
DLL_OVERHEAD_BYTES = 8
#: 3-DW header (memory requests with 32-bit addresses, completions, config).
HEADER_3DW_BYTES = 12
#: 4-DW header (memory requests with 64-bit addresses).
HEADER_4DW_BYTES = 16

#: Addresses at or above 4 GiB need the 4-DW header format.
ADDR_32BIT_LIMIT = 1 << 32


class TlpKind(enum.Enum):
    """Transaction types used by the models."""

    MEM_READ = "MRd"
    MEM_WRITE = "MWr"
    COMPLETION = "Cpl"
    COMPLETION_DATA = "CplD"
    CONFIG_READ = "CfgRd0"
    CONFIG_WRITE = "CfgWr0"


class CompletionStatus(enum.Enum):
    """Completion status field (subset used by the models)."""

    SUCCESS = 0b000
    UNSUPPORTED_REQUEST = 0b001
    COMPLETER_ABORT = 0b100


_tag_counter = itertools.count(1)


def next_tag() -> int:
    """Allocate a transaction tag (8-bit wrap, uniqueness is per-flight
    and the models never keep 256 reads outstanding)."""
    return next(_tag_counter) & 0xFF


@dataclass(slots=True)
class Tlp:
    """One transaction-layer packet.

    The class carries ``__slots__``: millions of TLPs are constructed
    per full-fidelity run, and slotted instances are both smaller and
    faster to build than per-instance ``__dict__`` objects.

    Attributes
    ----------
    kind:
        Transaction type.
    addr:
        Target address (memory requests) or register number (config).
    length:
        Bytes requested/carried.  Zero only for Cpl (no data) and
        zero-length reads (flush semantics, unused here).
    data:
        Payload for MWr / CplD / CfgWr0.
    requester:
        Identifier of the issuing agent (diagnostics and completion
        routing; the simulator routes completions via Python callbacks,
        but the field mirrors the wire protocol).
    tag:
        Transaction tag linking completions to requests.
    completion_status:
        For completions only.
    byte_count / lower_address:
        Completion-split bookkeeping, mirroring the spec fields so tests
        can verify Read Completion Boundary behaviour.
    """

    kind: TlpKind
    addr: int = 0
    length: int = 0
    #: Payload for MWr / CplD / CfgWr0.  ``bytes`` or any read-only
    #: buffer (``memoryview``): the zero-copy data plane threads views of
    #: staged buffers here instead of materializing a copy per hop.
    data: bytes = b""
    requester: str = ""
    tag: int = 0
    completion_status: CompletionStatus = CompletionStatus.SUCCESS
    byte_count: int = 0
    lower_address: int = 0
    #: Cached link footprint, fixed at construction (payload length never
    #: changes after that -- fault corruption flips bits, not sizes).
    wire_bytes: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        # Runs once per TLP -- millions per full-fidelity run -- so the
        # checks use identity comparisons against the enum members.
        # 64-bit memory addresses need the 4-DW header format.
        kind = self.kind
        data_len = len(self.data)
        if kind is TlpKind.MEM_WRITE or kind is TlpKind.COMPLETION_DATA or kind is TlpKind.CONFIG_WRITE:
            if data_len != self.length:
                raise ValueError(
                    f"{kind.value}: data length {data_len} != length {self.length}"
                )
        elif kind is TlpKind.MEM_READ or kind is TlpKind.CONFIG_READ:
            if data_len:
                raise ValueError(f"{kind.value} TLP must not carry data")
            if self.length <= 0:
                raise ValueError(f"{kind.value} TLP must request at least 1 byte")
        if self.addr < 0:
            raise ValueError(f"negative address {self.addr:#x}")
        if (
            (kind is TlpKind.MEM_READ or kind is TlpKind.MEM_WRITE)
            and self.addr + max(self.length, 1) > ADDR_32BIT_LIMIT
        ):
            header = HEADER_4DW_BYTES
        else:
            header = HEADER_3DW_BYTES
        self.wire_bytes = DLL_OVERHEAD_BYTES + header + data_len

    @property
    def is_posted(self) -> bool:
        """Posted transactions receive no completion (memory writes)."""
        return self.kind == TlpKind.MEM_WRITE

    @property
    def payload_bytes(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        core = f"{self.kind.value} addr={self.addr:#x} len={self.length}"
        if self.kind in (TlpKind.COMPLETION, TlpKind.COMPLETION_DATA):
            core += f" status={self.completion_status.name} tag={self.tag}"
        return f"<Tlp {core}>"


# -- constructors --------------------------------------------------------------
#
# The three constructors below build every DMA/MMIO TLP in the hot path
# (memory requests and their completion splits) via ``object.__new__``,
# skipping the dataclass ``__init__``/``__post_init__``.  Their arguments
# are produced by the segmentation helpers and completers, which already
# satisfy the invariants ``__post_init__`` checks (lengths match payloads,
# addresses are non-negative); ad-hoc / external construction keeps going
# through ``Tlp(...)`` with full validation.

_tlp_new = object.__new__
_MEM_READ = TlpKind.MEM_READ
_MEM_WRITE = TlpKind.MEM_WRITE
_COMPLETION_DATA = TlpKind.COMPLETION_DATA
_SUCCESS = CompletionStatus.SUCCESS
#: 3-DW wire footprint with no payload: DLL framing + 12 B header.
_WIRE_3DW = DLL_OVERHEAD_BYTES + HEADER_3DW_BYTES
_WIRE_4DW = DLL_OVERHEAD_BYTES + HEADER_4DW_BYTES


def memory_read(addr: int, length: int, requester: str = "", tag: Optional[int] = None) -> Tlp:
    """An MRd request."""
    if length <= 0:
        raise ValueError("MRd TLP must request at least 1 byte")
    t = _tlp_new(Tlp)
    t.kind = _MEM_READ
    t.addr = addr
    t.length = length
    t.data = b""
    t.requester = requester
    t.tag = next_tag() if tag is None else tag
    t.completion_status = _SUCCESS
    t.byte_count = 0
    t.lower_address = 0
    t.wire_bytes = _WIRE_4DW if addr + length > ADDR_32BIT_LIMIT else _WIRE_3DW
    return t


def memory_write(addr: int, data: bytes, requester: str = "") -> Tlp:
    """A posted MWr request.

    Zero-copy: the payload buffer is carried by reference.  Callers that
    may mutate the source after issuing the write must pass a snapshot.
    """
    t = _tlp_new(Tlp)
    length = len(data)
    t.kind = _MEM_WRITE
    t.addr = addr
    t.length = length
    t.data = data
    t.requester = requester
    t.tag = 0
    t.completion_status = _SUCCESS
    t.byte_count = 0
    t.lower_address = 0
    if addr + (length or 1) > ADDR_32BIT_LIMIT:
        t.wire_bytes = _WIRE_4DW + length
    else:
        t.wire_bytes = _WIRE_3DW + length
    return t


def completion_with_data(
    request: Tlp,
    data: bytes,
    byte_count: Optional[int] = None,
    lower_address: int = 0,
) -> Tlp:
    """A CplD answering *request* (possibly one split of several).

    Zero-copy: the payload buffer is carried by reference (completers
    pass views of an immutable read snapshot).
    """
    t = _tlp_new(Tlp)
    length = len(data)
    t.kind = _COMPLETION_DATA
    t.addr = 0
    t.length = length
    t.data = data
    t.requester = request.requester
    t.tag = request.tag
    t.completion_status = _SUCCESS
    t.byte_count = length if byte_count is None else byte_count
    t.lower_address = lower_address
    # Completions always use the 3-DW header format.
    t.wire_bytes = _WIRE_3DW + length
    return t


def completion_error(request: Tlp, status: CompletionStatus) -> Tlp:
    """A no-data completion reporting an error for *request*."""
    return Tlp(
        kind=TlpKind.COMPLETION,
        requester=request.requester,
        tag=request.tag,
        completion_status=status,
    )


def config_read(register: int, requester: str = "") -> Tlp:
    """A CfgRd0 of one 32-bit register (register = byte offset / 4)."""
    return Tlp(
        kind=TlpKind.CONFIG_READ, addr=register, length=4, requester=requester, tag=next_tag()
    )


def config_write(register: int, data: bytes, requester: str = "") -> Tlp:
    """A CfgWr0 of one 32-bit register."""
    if len(data) != 4:
        raise ValueError(f"config writes are 4 bytes, got {len(data)}")
    return Tlp(
        kind=TlpKind.CONFIG_WRITE,
        addr=register,
        length=4,
        data=bytes(data),
        requester=requester,
        tag=next_tag(),
    )


# -- segmentation helpers --------------------------------------------------------


@lru_cache(maxsize=8192)
def segmentation_plan(page_offset: int, length: int, limit: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(relative offset, chunk length)`` split of a transfer.

    The split depends only on the start address *within* its 4 KiB page,
    the transfer length, and the per-TLP limit (Max_Payload_Size for
    writes, Max_Read_Request_Size for reads) -- a tiny key space in
    practice (the experiments sweep a handful of payload sizes against
    one link configuration), so the plan is memoized: the steady-state
    cost of segmenting a transfer is one cache lookup instead of a
    Python loop per TLP.
    """
    if limit <= 0:
        raise ValueError(f"segmentation limit must be positive, got {limit}")
    plan = []
    pos = 0
    while pos < length:
        boundary = 4096 - ((page_offset + pos) % 4096)
        chunk = min(length - pos, limit, boundary)
        plan.append((pos, chunk))
        pos += chunk
    return tuple(plan)


def segment_write(
    addr: int, data: bytes, max_payload: int, requester: str = ""
) -> List[Tlp]:
    """Split a write into MWr TLPs obeying Max_Payload_Size and 4 KiB
    page-boundary rules."""
    if max_payload <= 0:
        raise ValueError(f"max_payload must be positive, got {max_payload}")
    plan = segmentation_plan(addr % 4096, len(data), max_payload)
    if len(plan) == 1:
        # Single-TLP fast path: no slicing at all.
        return [memory_write(addr, data, requester=requester)]
    src = memoryview(data) if isinstance(data, (bytes, bytearray)) else data
    return [
        memory_write(addr + pos, src[pos : pos + chunk], requester=requester)
        for pos, chunk in plan
    ]


def segment_read(
    addr: int, length: int, max_read_request: int, requester: str = ""
) -> List[Tlp]:
    """Split a read into MRd TLPs obeying Max_Read_Request_Size and the
    4 KiB boundary rule."""
    if max_read_request <= 0:
        raise ValueError(f"max_read_request must be positive, got {max_read_request}")
    return [
        memory_read(addr + pos, chunk, requester=requester)
        for pos, chunk in segmentation_plan(addr % 4096, length, max_read_request)
    ]


def split_completion(
    request: Tlp, data: bytes, rcb: int = 64
) -> Iterator[Tlp]:
    """Yield CplD TLPs for *data*, split at the Read Completion Boundary.

    The first completion runs from the request address up to the next RCB
    boundary; subsequent completions are full RCB chunks.  ``byte_count``
    counts down the bytes remaining including the current completion, per
    spec, so receivers can detect the final split.
    """
    if rcb <= 0 or rcb & (rcb - 1):
        raise ValueError(f"rcb must be a power of two, got {rcb}")
    total = len(data)
    if total != request.length:
        raise ValueError(f"completion data {total}B != requested {request.length}B")
    pos = 0
    addr = request.addr
    if 0 < total <= rcb - (addr % rcb):
        # Single-completion fast path (the common case at RCB=64 only for
        # small reads, but it skips the view machinery entirely).
        yield completion_with_data(request, data, byte_count=total, lower_address=addr & 0x7F)
        return
    src = memoryview(data) if isinstance(data, (bytes, bytearray)) else data
    while pos < total:
        boundary = rcb - (addr % rcb)
        chunk = min(total - pos, boundary)
        yield completion_with_data(
            request,
            src[pos : pos + chunk],
            byte_count=total - pos,
            lower_address=addr & 0x7F,
        )
        pos += chunk
        addr += chunk
