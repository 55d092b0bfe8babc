"""PCIe endpoint base class.

A :class:`PcieEndpoint` owns a config space, BAR-mapped regions, and an
optional MSI-X block; it terminates downstream TLPs (config and memory
requests) and offers its internal logic a DMA API toward host memory
(`dma_read`/`dma_write`) plus `raise_msix`.

Concrete devices (the XDMA IP model, and through it the VirtIO FPGA
device) subclass or compose this with their register blocks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.mem.region import MemoryAccessError, MemoryRegion
from repro.pcie.config_space import BarDefinition, ConfigSpace
from repro.pcie.link import PcieLink
from repro.pcie.msi import MsixCapability, MsixTable
from repro.pcie.tlp import (
    CompletionStatus,
    Tlp,
    TlpKind,
    completion_error,
    completion_with_data,
    memory_write,
    segment_read,
    segment_write,
    split_completion,
)
from repro.sim.component import Component
from repro.sim.event import Event
from repro.sim.time import ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class _PendingRead:
    """Reassembly state for one outstanding DMA read request."""

    __slots__ = ("expected", "chunks", "received", "event", "base_addr")

    def __init__(self, expected: int, event: Event, base_addr: int) -> None:
        self.expected = expected
        self.chunks: List[bytes] = []
        self.received = 0
        self.event = event
        self.base_addr = base_addr


class PcieEndpoint(Component):
    """Single-function PCIe endpoint attached to one link.

    Parameters
    ----------
    completer_latency_ns:
        Internal pipeline latency between receiving a non-posted request
        and emitting its completion (BAR access paths in the PCIe hard
        block; PG195-class IPs sit around 100-200 ns for register reads).
    """

    def __init__(
        self,
        sim: "Simulator",
        link: PcieLink,
        config: ConfigSpace,
        name: str = "endpoint",
        parent: Optional[Component] = None,
        completer_latency_ns: float = 120.0,
    ) -> None:
        super().__init__(sim, name, parent=parent)
        self.link = link
        self.config = config
        self.completer_latency = ns(completer_latency_ns)
        self._bar_regions: Dict[int, MemoryRegion] = {}
        self._pending_reads: Dict[int, _PendingRead] = {}
        self.msix: Optional[MsixCapability] = None
        link.attach_endpoint_rx(self._receive)
        self._dma_read_event_name = f"{self.path}.dma_read"
        # Decoded-BAR cache, keyed on the config space's generation
        # counter: (base, end, region) tuples for each programmed BAR,
        # plus the enable bits, so the per-TLP paths skip the
        # dict-walk + register decode.  Rebuilt whenever enumeration
        # reprograms a BAR or flips command-register bits.
        self._bar_cache: list[tuple[int, int, MemoryRegion]] = []
        self._bar_cache_gen = -1
        self._mem_enabled = False
        self._bus_master = False
        # ``link.upstream.post``, bound lazily on first use (the
        # direction exists once the root port / switch side attaches its
        # receive callback, which always precedes traffic).
        self._post_up = None

    # -- construction -----------------------------------------------------------

    def attach_bar(self, index: int, region: MemoryRegion, prefetchable: bool = False,
                   is_64bit: bool = False) -> None:
        """Define a BAR of the region's (power-of-two padded) size and
        back it with *region*."""
        size = 1 << max(4, (region.size - 1).bit_length())
        self.config.define_bar(
            BarDefinition(index=index, size=size, prefetchable=prefetchable, is_64bit=is_64bit)
        )
        self._bar_regions[index] = region

    def enable_msix(self, num_vectors: int, bar_index: int) -> MsixCapability:
        """Add an MSI-X capability with its table in a dedicated BAR."""
        table = MsixTable(num_vectors, name=f"{self.name}.msix")
        self.attach_bar(bar_index, table)
        self.msix = MsixCapability(self.config, table, table_bar=bar_index)
        self.msix.on_refire(self.raise_msix)
        return self.msix

    # -- downstream TLP handling ----------------------------------------------------

    def _receive(self, tlp: Tlp) -> None:
        # Dispatch ordered by steady-state frequency (DMA-read
        # completions, then MMIO traffic, then enumeration-time config),
        # with identity compares: TlpKind members are singletons.
        kind = tlp.kind
        if kind is TlpKind.COMPLETION_DATA or kind is TlpKind.COMPLETION:
            self._handle_completion(tlp)
        elif kind is TlpKind.MEM_WRITE:
            self._handle_mem_write(tlp)
        elif kind is TlpKind.MEM_READ:
            self._handle_mem_read(tlp)
        elif kind is TlpKind.CONFIG_READ:
            self._handle_config_read(tlp)
        elif kind is TlpKind.CONFIG_WRITE:
            self._handle_config_write(tlp)
        else:  # pragma: no cover - enum is exhaustive
            raise RuntimeError(f"endpoint {self.name!r}: unexpected TLP {tlp!r}")


    def _handle_config_read(self, tlp: Tlp) -> None:
        data = self.config.read(tlp.addr, 4)
        self.trace("cfg-read", offset=tlp.addr)
        self.sim.schedule(
            self.completer_latency,
            self.link.post_upstream,
            completion_with_data(tlp, data),
        )

    def _handle_config_write(self, tlp: Tlp) -> None:
        self.config.write(tlp.addr, tlp.data)
        self.trace("cfg-write", offset=tlp.addr, value=int.from_bytes(tlp.data, "little"))
        if self.msix is not None:
            lo, hi = self.msix.control_range()
            if tlp.addr < hi and tlp.addr + len(tlp.data) > lo:
                self.msix.sync_from_config()
        # Non-posted: completion without data.
        done = Tlp(kind=TlpKind.COMPLETION, requester=tlp.requester, tag=tlp.tag)
        self.sim.schedule(self.completer_latency, self.link.post_upstream, done)

    def _refresh_config_cache(self) -> None:
        config = self.config
        self._bar_cache = [
            (base, base + region.size, region)
            for index, region in self._bar_regions.items()
            if (base := config.bar_address(index))
        ]
        self._mem_enabled = config.memory_enabled
        self._bus_master = config.bus_master_enabled
        self._bar_cache_gen = config.generation

    def _locate_bar(self, addr: int, length: int) -> Optional[tuple[MemoryRegion, int]]:
        if self._bar_cache_gen != self.config.generation:
            self._refresh_config_cache()
        end = addr + length
        for base, bar_end, region in self._bar_cache:
            if base <= addr and end <= bar_end:
                return region, addr - base
        return None

    def _handle_mem_read(self, tlp: Tlp) -> None:
        if self._bar_cache_gen != self.config.generation:
            self._refresh_config_cache()
        if not self._mem_enabled:
            self.link.post_upstream(completion_error(tlp, CompletionStatus.UNSUPPORTED_REQUEST))
            return
        located = self._locate_bar(tlp.addr, tlp.length)
        if located is None:
            self.trace("mem-read-ur", addr=tlp.addr)
            self.link.post_upstream(completion_error(tlp, CompletionStatus.UNSUPPORTED_REQUEST))
            return
        region, offset = located
        try:
            data = region.read(offset, tlp.length)
        except MemoryAccessError:
            self.link.post_upstream(completion_error(tlp, CompletionStatus.COMPLETER_ABORT))
            return
        if self.tracer.enabled:
            self.trace("mem-read", addr=tlp.addr, length=tlp.length)
        self.sim.schedule(
            self.completer_latency,
            self.link.upstream.post_many,
            list(split_completion(tlp, data, rcb=self.link.config.read_completion_boundary)),
        )

    def _handle_mem_write(self, tlp: Tlp) -> None:
        if self._bar_cache_gen != self.config.generation:
            self._refresh_config_cache()
        if not self._mem_enabled:
            self.trace("mem-write-dropped", addr=tlp.addr)
            return
        located = self._locate_bar(tlp.addr, tlp.length)
        if located is None:
            self.trace("mem-write-ur", addr=tlp.addr)
            return  # posted: silently dropped (device would log an error)
        region, offset = located
        region.write(offset, tlp.data)
        if self.tracer.enabled:
            self.trace("mem-write", addr=tlp.addr, length=tlp.length)

    # -- DMA master API (device internal logic) ------------------------------------

    def dma_write(self, addr: int, data: bytes) -> Event:
        """Write *data* to host memory; the event fires when the final
        MWr TLP is delivered at the root complex.

        Memory writes are posted on the wire, but the engine issuing
        them stalls on flow-control credits until the link has accepted
        the data, and any subsequent TLP (used-ring update, MSI-X) is
        ordered behind the payload by the link FIFO -- so "last TLP
        delivered" is the faithful notion of done for a DMA engine.
        """
        if self._bar_cache_gen != self.config.generation:
            self._refresh_config_cache()
        if not self._bus_master:
            raise RuntimeError(f"{self.name!r}: DMA write with bus mastering disabled")
        tlps = segment_write(addr, data, self.link.config.max_payload, requester=self.path)
        # Write-combined burst: one delivery event for the whole transfer
        # (fires at the last TLP, which is all callers ever waited on).
        return self.link.upstream.send_many(tlps)

    def dma_read(self, addr: int, length: int) -> Event:
        """Read *length* bytes from host memory; event fires with the
        reassembled bytes when all completions have arrived."""
        if self._bar_cache_gen != self.config.generation:
            self._refresh_config_cache()
        if not self._bus_master:
            raise RuntimeError(f"{self.name!r}: DMA read with bus mastering disabled")
        done = Event(name=self._dma_read_event_name)
        requests = segment_read(addr, length, self.link.config.max_read_request,
                                requester=self.path)
        state = _PendingRead(expected=length, event=done, base_addr=addr)
        post = self._post_up
        if post is None:
            post = self._post_up = self.link.upstream.post
        pending = self._pending_reads
        for req in requests:
            pending[req.tag] = state
            post(req)
        return done

    def _handle_completion(self, tlp: Tlp) -> None:
        state = self._pending_reads.get(tlp.tag)
        if state is None:
            raise RuntimeError(f"{self.name!r}: completion with unknown tag {tlp.tag}")
        if tlp.kind is TlpKind.COMPLETION:
            del self._pending_reads[tlp.tag]
            raise RuntimeError(
                f"{self.name!r}: DMA read failed with {tlp.completion_status.name}"
            )
        state.chunks.append(tlp.data)
        state.received += len(tlp.data)
        if tlp.byte_count == len(tlp.data):
            # Final split of this request.
            del self._pending_reads[tlp.tag]
        if state.received >= state.expected:
            # Chunks may be views of the completer's immutable read
            # snapshot; a single-chunk read (descriptor fetches, small
            # payloads) passes straight through, multi-chunk reassembly
            # joins into fresh bytes.
            if len(state.chunks) == 1:
                state.event.trigger(state.chunks[0])
            else:
                state.event.trigger(b"".join(state.chunks))

    # -- interrupts ---------------------------------------------------------------

    def raise_msix(self, vector: int) -> None:
        """Fire an MSI-X vector (posted MWr to the vector's address)."""
        if self.msix is None:
            raise RuntimeError(f"{self.name!r}: MSI-X not configured")
        message = self.msix.table.compose(vector)
        if message is None:
            self.trace("msix-suppressed", vector=vector)
            return
        self.trace("msix-raise", vector=vector, addr=message.address)
        tlp = memory_write(
            message.address, message.data.to_bytes(4, "little"), requester=self.path
        )
        self.link.post_upstream(tlp)
