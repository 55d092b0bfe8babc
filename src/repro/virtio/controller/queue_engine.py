"""Device-side virtqueue processing FSMs.

One :class:`DeviceQueueEngine` per enabled virtqueue.  The engine owns
the device's shadow indices and drives all ring traffic through the
controller's DMA port:

* read ``avail->flags,idx`` (one 4-byte fetch -- flags ride along, so
  interrupt-suppression state is known without an extra round trip),
* read the avail-ring entry, walk the descriptor chain (16 B per
  descriptor),
* move payload data (direction depends on the queue's role),
* write the used element + used index, and raise the queue's MSI-X
  vector unless the driver suppressed interrupts.

Roles (assigned by the device personality):

``OUT``
    driver -> device (virtio-net transmitq, console transmitq): the
    engine fetches chain payloads and hands them to the personality.
``IN``
    device -> driver (receiveq): the engine *prefetches* available
    chains into an on-chip FIFO so that when the device has data it can
    "identify an available buffer and perform data movement before
    interrupting the driver" (Section IV-A).  ``prefetch=False``
    degrades to fetch-at-delivery (ablation A2).
``REQUEST``
    combined out+in chains (virtio-blk): the personality receives the
    out payload and returns bytes for the writable segments.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Generator, List, Optional, Tuple

from repro.faults.plan import KIND_MALFORMED_CHAIN, SITE_VIRTIO_CTRL
from repro.virtio.constants import VIRTIO_MSI_NO_VECTOR
from repro.virtio.controller.config_structs import QueueState
from repro.virtio.virtqueue import (
    VIRTQ_AVAIL_F_NO_INTERRUPT,
    VIRTQ_DESC_F_INDIRECT,
    VIRTQ_DESC_F_NEXT,
    VirtqDescriptor,
    VirtqueueAddresses,
    VirtqueueError,
)
from repro.sim.component import Component
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.virtio.controller.device import VirtioFpgaDevice


class QueueRole(enum.Enum):
    OUT = "out"
    IN = "in"
    REQUEST = "request"


class FetchedChain:
    """A descriptor chain the engine has pulled on-chip."""

    __slots__ = ("head", "out_segments", "in_segments", "out_data")

    def __init__(self, head: int) -> None:
        self.head = head
        self.out_segments: List[Tuple[int, int]] = []
        self.in_segments: List[Tuple[int, int]] = []
        self.out_data: bytes = b""

    @property
    def in_capacity(self) -> int:
        return sum(length for _, length in self.in_segments)


class DeviceQueueEngine(Component):
    """FSM servicing one virtqueue."""

    #: Safety bound on chain walks (spec: chains must not loop).
    MAX_CHAIN = 64

    def __init__(
        self,
        sim: "Simulator",
        device: "VirtioFpgaDevice",
        queue: QueueState,
        role: QueueRole,
        prefetch: bool = True,
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(sim, f"vq{queue.index}-engine", parent=parent)
        self._chain_wait_name = f"{self.path}.chain-wait"
        if not queue.enabled:
            raise VirtqueueError(f"queue {queue.index} not enabled")
        self.device = device
        self.queue = queue
        self.role = role
        self.prefetch = prefetch
        self.addresses = VirtqueueAddresses(
            size=queue.size,
            desc_table=queue.desc_addr,
            avail_ring=queue.driver_addr,
            used_ring=queue.device_addr,
        )
        self.last_avail_idx = 0
        self.used_idx = 0
        self._avail_flags = 0  # cached from the last flags+idx fetch
        self._kicked = False
        self._running = False
        self._free_chains: Deque[FetchedChain] = deque()
        self._chain_waiters: Deque[Event] = deque()
        self.chains_processed = 0
        self.interrupts_raised = 0
        self.interrupts_suppressed = 0

    # -- notification path --------------------------------------------------------

    def kick(self) -> None:
        """Doorbell from the notify region.

        IN-role queues without prefetch ignore doorbells: buffers are
        located at delivery time (the per-transfer-exchange strategy of
        ablation A2), so there is nothing to do when the driver merely
        posts more of them.
        """
        if self.role is QueueRole.IN and not self.prefetch:
            self.trace("kick-ignored")
            return
        self._kicked = True
        self.trace("kick")
        if not self._running:
            self._running = True
            self.spawn(self._service(), name="service")

    def _fsm(self) -> int:
        """One FSM transition's worth of fabric time."""
        return self.device.fsm_time

    # -- ring fetch helpers -------------------------------------------------------------

    def _read_avail(self) -> Generator[Any, Any, int]:
        """Fetch avail flags+idx in one access; caches flags."""
        raw = yield self.device.dma_port.host_read(self.addresses.avail_flags_addr, 4)
        self._avail_flags = int.from_bytes(raw[0:2], "little")
        return int.from_bytes(raw[2:4], "little")

    def _fetch_chain(self, head: int) -> Generator[Any, Any, FetchedChain]:
        """Walk and fetch the descriptor chain starting at *head*.

        Indirect descriptors (VIRTIO_F_RING_INDIRECT_DESC) are resolved
        with a *single* DMA read of the whole table -- the feature's
        latency advantage over walking a linked chain.
        """
        chain = FetchedChain(head)
        index = head
        seen: set = set()
        for _ in range(self.MAX_CHAIN):
            if index >= self.addresses.size:
                raise VirtqueueError(
                    f"queue {self.queue.index}: descriptor index {index} out of "
                    f"range (size {self.addresses.size})"
                )
            if index in seen:
                raise VirtqueueError(
                    f"queue {self.queue.index}: descriptor chain loops at index {index}"
                )
            seen.add(index)
            yield self._fsm()
            raw = yield self.device.dma_port.host_read(self.addresses.desc_addr(index), 16)
            raw = self._maybe_corrupt_descriptor(index, raw)
            desc = VirtqDescriptor.decode(raw)
            if desc.flags & VIRTQ_DESC_F_INDIRECT:
                if desc.has_next or chain.out_segments or chain.in_segments:
                    raise VirtqueueError(
                        f"queue {self.queue.index}: indirect descriptor must be alone"
                    )
                yield self._fsm()
                table = yield self.device.dma_port.host_read(desc.addr, desc.length)
                self._parse_indirect_table(chain, table)
                return chain
            self._append_segment(chain, desc)
            if not desc.has_next:
                return chain
            index = desc.next_index
        raise VirtqueueError(f"queue {self.queue.index}: chain longer than {self.MAX_CHAIN}")

    def _maybe_corrupt_descriptor(self, index: int, raw: bytes) -> bytes:
        """Fault hook: rewrite a fetched OUT-role descriptor into a
        self-referential chain (as a flipped ring bit would), which the
        chain-walk guard then detects."""
        injector = self.device.injector
        if (
            injector is None
            or self.role is not QueueRole.OUT
            or injector.fire(SITE_VIRTIO_CTRL, KIND_MALFORMED_CHAIN) is None
        ):
            return raw
        self.trace("descriptor-corrupted", index=index)
        bad = VirtqDescriptor.decode(raw)
        return VirtqDescriptor(
            addr=bad.addr,
            length=bad.length,
            flags=bad.flags | VIRTQ_DESC_F_NEXT,
            next_index=index,
        ).encode()

    def _append_segment(self, chain: FetchedChain, desc: VirtqDescriptor) -> None:
        if desc.device_writable:
            chain.in_segments.append((desc.addr, desc.length))
        else:
            if chain.in_segments:
                raise VirtqueueError(
                    f"queue {self.queue.index}: readable descriptor after writable"
                )
            chain.out_segments.append((desc.addr, desc.length))

    def _parse_indirect_table(self, chain: FetchedChain, table: bytes) -> None:
        if len(table) % 16:
            raise VirtqueueError(f"queue {self.queue.index}: indirect table not 16B-aligned")
        count = len(table) // 16
        index = 0
        for _ in range(count):
            desc = VirtqDescriptor.decode(table[index * 16 : index * 16 + 16])
            if desc.flags & VIRTQ_DESC_F_INDIRECT:
                raise VirtqueueError(
                    f"queue {self.queue.index}: nested indirect descriptor"
                )
            self._append_segment(chain, desc)
            if not desc.has_next:
                return
            index = desc.next_index
            if index >= count:
                raise VirtqueueError(
                    f"queue {self.queue.index}: indirect next {index} outside table"
                )
        raise VirtqueueError(f"queue {self.queue.index}: indirect table loops")

    def _fetch_out_data(self, chain: FetchedChain) -> Generator[Any, Any, None]:
        """DMA the chain's readable payload on-chip."""
        if len(chain.out_segments) == 1:
            # Single-segment chains (every virtio-net TX frame) keep the
            # staging snapshot as-is -- no gather copy.
            addr, length = chain.out_segments[0]
            chain.out_data = yield self.device.dma_port.host_read(addr, length)
            return
        parts: List[bytes] = []
        for addr, length in chain.out_segments:
            data = yield self.device.dma_port.host_read(addr, length)
            parts.append(data)
        chain.out_data = b"".join(parts)

    # -- service loop --------------------------------------------------------------------------

    def _service(self) -> Generator[Any, Any, None]:
        try:
            while self._kicked:
                self._kicked = False
                while True:
                    yield self._fsm()
                    avail_idx = yield from self._read_avail()
                    pending = (avail_idx - self.last_avail_idx) & 0xFFFF
                    if pending == 0:
                        break
                    for _ in range(pending):
                        yield self._fsm()
                        raw = yield self.device.dma_port.host_read(
                            self.addresses.avail_entry_addr(self.last_avail_idx), 2
                        )
                        head = int.from_bytes(raw, "little")
                        chain = yield from self._fetch_chain(head)
                        self.last_avail_idx = (self.last_avail_idx + 1) & 0xFFFF
                        yield from self._dispatch(chain)
        except VirtqueueError as err:
            # A real controller cannot raise Python exceptions at the
            # driver: when fault injection is active it latches
            # DEVICE_NEEDS_RESET and halts this engine, leaving
            # recovery to the driver's config-change path.  Without an
            # injector the error still fails loudly (a model bug, not
            # an injected fault).
            self._running = False
            if self.device.injector is None:
                raise
            self.trace("ring-error", queue=self.queue.index, error=str(err))
            self.device.mark_needs_reset(str(err))
            return
        self._running = False

    def _dispatch(self, chain: FetchedChain) -> Generator[Any, Any, None]:
        if self.role is QueueRole.OUT:
            yield from self._fetch_out_data(chain)
            yield from self.device.personality.on_out_chain(self.queue.index, chain)
            yield from self.complete(chain, written=0)
        elif self.role is QueueRole.REQUEST:
            yield from self._fetch_out_data(chain)
            response = yield from self.device.personality.on_request_chain(
                self.queue.index, chain
            )
            written = yield from self._write_in_segments(chain, response)
            yield from self.complete(chain, written=written)
        else:  # IN role: bank the chain for later delivery.
            self._free_chains.append(chain)
            self.trace("chain-prefetched", head=chain.head, capacity=chain.in_capacity)
            if self._chain_waiters:
                self._chain_waiters.popleft().trigger(None)

    # -- IN-role delivery ---------------------------------------------------------------------------

    def deliver(self, payload: bytes) -> Generator[Any, Any, int]:
        """Write *payload* into the next available chain, complete it,
        and interrupt the driver.  Returns bytes written.

        With ``prefetch=False`` the chain is fetched here instead, which
        puts the descriptor round trips on the delivery critical path --
        the per-transfer-exchange strategy of ablation A2.
        """
        if self.role is not QueueRole.IN:
            raise VirtqueueError(f"deliver on {self.role.value} queue {self.queue.index}")
        if not self.prefetch:
            yield from self._fetch_one_on_demand()
        while not self._free_chains:
            waiter = Event(name=self._chain_wait_name)
            self._chain_waiters.append(waiter)
            yield waiter
        chain = self._free_chains.popleft()
        if chain.in_capacity < len(payload):
            raise VirtqueueError(
                f"queue {self.queue.index}: buffer of {chain.in_capacity}B "
                f"cannot hold {len(payload)}B"
            )
        written = yield from self._write_in_segments(chain, payload)
        yield from self.complete(chain, written=written)
        return written

    def _fetch_one_on_demand(self) -> Generator[Any, Any, None]:
        yield self._fsm()
        avail_idx = yield from self._read_avail()
        if (avail_idx - self.last_avail_idx) & 0xFFFF == 0:
            return
        raw = yield self.device.dma_port.host_read(
            self.addresses.avail_entry_addr(self.last_avail_idx), 2
        )
        head = int.from_bytes(raw, "little")
        chain = yield from self._fetch_chain(head)
        self.last_avail_idx = (self.last_avail_idx + 1) & 0xFFFF
        self._free_chains.append(chain)

    def _write_in_segments(self, chain: FetchedChain, payload: bytes) -> Generator[Any, Any, int]:
        """Scatter *payload* across the chain's writable segments."""
        total = len(payload)
        if total and chain.in_segments and total <= chain.in_segments[0][1]:
            # Whole payload fits the first writable segment (every
            # virtio-net RX delivery): no scatter slicing.
            yield self._fsm()
            yield self.device.dma_port.host_write(chain.in_segments[0][0], payload)
            return total
        # View-based scatter: slices reference the payload, the DMA port
        # copies them into its staging BRAM immediately.
        src = memoryview(payload)
        pos = 0
        for addr, length in chain.in_segments:
            if pos >= total:
                break
            part = src[pos : pos + length]
            yield self._fsm()
            yield self.device.dma_port.host_write(addr, part)
            pos += len(part)
        if pos < total:
            raise VirtqueueError(
                f"queue {self.queue.index}: {total - pos}B did not fit the chain"
            )
        return pos

    # -- completion ---------------------------------------------------------------------------------------

    def complete(self, chain: FetchedChain, written: int) -> Generator[Any, Any, None]:
        """Publish the used element and interrupt if allowed."""
        yield self._fsm()
        elem = chain.head.to_bytes(4, "little") + written.to_bytes(4, "little")
        yield self.device.dma_port.host_write(
            self.addresses.used_entry_addr(self.used_idx), elem
        )
        self.used_idx = (self.used_idx + 1) & 0xFFFF
        yield self.device.dma_port.host_write(
            self.addresses.used_idx_addr, self.used_idx.to_bytes(2, "little")
        )
        self.chains_processed += 1
        # Interrupt decision: re-fetch avail->flags *now*.  A cached
        # copy would race the driver clearing NO_INTERRUPT after a NAPI
        # poll -- the device would wrongly suppress and the driver,
        # having already re-checked the ring, would sleep forever.
        raw = yield self.device.dma_port.host_read(self.addresses.avail_flags_addr, 2)
        self._avail_flags = int.from_bytes(raw, "little")
        if self._avail_flags & VIRTQ_AVAIL_F_NO_INTERRUPT:
            self.interrupts_suppressed += 1
            self.trace("irq-suppressed", head=chain.head)
            return
        if self.queue.msix_vector != VIRTIO_MSI_NO_VECTOR:
            self.interrupts_raised += 1
            self.device.raise_queue_irq(self.queue.index)

    @property
    def free_chain_count(self) -> int:
        return len(self._free_chains)
