"""Root complex: the host side of the PCIe hierarchy.

Responsibilities:

* terminate upstream TLPs: route device DMA to host memory, detect MSI
  writes and hand them to the interrupt controller callback,
* serve host-initiated MMIO and configuration transactions toward the
  right endpoint link (with the real non-posted round-trip timing that
  makes MMIO reads expensive and MMIO writes cheap-but-posted -- the
  asymmetry at the heart of the two drivers' costs),
* host memory read latency for device-issued DMA reads (DRAM access
  before the completion is returned).

One :class:`RootPort` per endpoint link; the :class:`RootComplex` owns
them plus host memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.mem.physical import PhysicalMemory
from repro.pcie.link import LinkConfig, PcieLink
from repro.pcie.tlp import (
    CompletionStatus,
    Tlp,
    TlpKind,
    config_read,
    config_write,
    memory_read,
    memory_write,
    split_completion,
)
from repro.sim.component import Component
from repro.sim.event import Event
from repro.sim.time import SimTime, ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Host MMIO window where BARs are assigned during enumeration.
MMIO_WINDOW_BASE = 0xE000_0000
MMIO_WINDOW_SIZE = 0x1000_0000

MsiHandler = Callable[[int, int], None]  # (address, data)

#: Inlined MSI-window test constants (see :func:`repro.pcie.msi.is_msi_address`).
_MSI_MASK = 0xFFF0_0000
_MSI_WINDOW = 0xFEE0_0000


class _HostPendingRead:
    __slots__ = ("expected", "chunks", "received", "event")

    def __init__(self, expected: int, event: Event) -> None:
        self.expected = expected
        self.chunks: List[bytes] = []
        self.received = 0
        self.event = event


class RootPort(Component):
    """One downstream port: terminates a single endpoint link."""

    def __init__(
        self,
        sim: "Simulator",
        rc: "RootComplex",
        link: PcieLink,
        port_index: int,
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(sim, f"port{port_index}", parent=parent)
        self.rc = rc
        self.link = link
        self.port_index = port_index
        self._pending: Dict[int, _HostPendingRead] = {}
        self._pending_nonposted: Dict[int, Event] = {}
        # ``link.downstream.post_many``, bound lazily on first DMA read
        # (the downstream direction attaches when the endpoint is built).
        self._post_down = None
        link.attach_root_rx(self._receive_upstream)

    # -- upstream (device-initiated) ------------------------------------------

    def _receive_upstream(self, tlp: Tlp) -> None:
        kind = tlp.kind
        if kind is TlpKind.MEM_WRITE:
            # Inlined ``is_msi_address``: one masked compare per DMA write.
            if tlp.addr & _MSI_MASK == _MSI_WINDOW:
                self.trace("msi-rx", addr=tlp.addr)
                self.rc.deliver_msi(tlp.addr, int.from_bytes(tlp.data, "little"))
            else:
                self.rc.host_memory.write(tlp.addr, tlp.data)
                if self.tracer.enabled:
                    self.trace("dma-write", addr=tlp.addr, length=tlp.length)
        elif kind is TlpKind.MEM_READ:
            if self.tracer.enabled:
                self.trace("dma-read", addr=tlp.addr, length=tlp.length)
            data = self.rc.host_memory.read(tlp.addr, tlp.length)
            post = self._post_down
            if post is None:
                post = self._post_down = self.link.downstream.post_many
            self.sim.schedule(
                self.rc.memory_read_latency,
                post,
                list(split_completion(tlp, data, rcb=self.link.config.read_completion_boundary)),
            )
        elif kind is TlpKind.COMPLETION or kind is TlpKind.COMPLETION_DATA:
            self._handle_completion(tlp)
        else:
            raise RuntimeError(f"root port {self.port_index}: unexpected upstream {tlp!r}")

    def _handle_completion(self, tlp: Tlp) -> None:
        if tlp.tag in self._pending_nonposted:
            event = self._pending_nonposted.pop(tlp.tag)
            if tlp.kind == TlpKind.COMPLETION_DATA:
                event.trigger(tlp.data)
            elif tlp.completion_status is CompletionStatus.SUCCESS:
                event.trigger(None)
            else:
                event.trigger(tlp.completion_status)
            return
        state = self._pending.get(tlp.tag)
        if state is None:
            raise RuntimeError(f"root port {self.port_index}: unknown completion tag {tlp.tag}")
        if tlp.kind == TlpKind.COMPLETION:
            del self._pending[tlp.tag]
            state.event.trigger(tlp.completion_status)
            return
        state.chunks.append(tlp.data)
        state.received += len(tlp.data)
        if tlp.byte_count == len(tlp.data):
            del self._pending[tlp.tag]
        if state.received >= state.expected:
            if len(state.chunks) == 1:
                state.event.trigger(state.chunks[0])
            else:
                state.event.trigger(b"".join(state.chunks))

    # -- downstream (host-initiated) ----------------------------------------------

    def mmio_read(self, addr: int, length: int) -> Event:
        """Non-posted read toward the endpoint; fires with the data."""
        req = memory_read(addr, length, requester="host")
        event = Event(name=f"{self.path}.mmio_read")
        state = _HostPendingRead(expected=length, event=event)
        self._pending[req.tag] = state
        self.link.post_downstream(req)
        return event

    def mmio_write(self, addr: int, data: bytes) -> None:
        """Posted write toward the endpoint (returns immediately)."""
        self.link.post_downstream(memory_write(addr, data, requester="host"))

    def cfg_read(self, offset: int, length: int = 4) -> Event:
        """Config read (always a 4-byte wire transaction; sub-dword
        values are extracted from the containing dword, as the kernel's
        ``pci_read_config_*`` helpers do).

        An empty slot (no endpoint on the link) completes with all-ones
        after a short delay, the master-abort behaviour enumeration
        relies on to detect device absence."""
        if not self.link.endpoint_attached:
            result = Event(name=f"{self.path}.cfg_read.empty")
            self.sim.schedule(self.link.config.propagation_time, result.trigger,
                              b"\xff" * length)
            return result
        aligned = offset & ~3
        req = config_read(aligned, requester="host")
        event = Event(name=f"{self.path}.cfg_read")
        result = Event(name=f"{self.path}.cfg_read.value")
        self._pending_nonposted[req.tag] = event
        shift = offset - aligned

        def _extract(ev: Event) -> None:
            dword: bytes = ev.value
            result.trigger(dword[shift : shift + length])

        event.on_trigger(_extract)
        self.link.post_downstream(req)
        return result

    def cfg_write(self, offset: int, data: bytes) -> Event:
        """Config write; fires when the completion returns (non-posted)."""
        if len(data) not in (1, 2, 4):
            raise ValueError(f"config write must be 1/2/4 bytes, got {len(data)}")
        aligned = offset & ~3
        if len(data) == 4 and offset == aligned:
            req = config_write(aligned, data, requester="host")
            event = Event(name=f"{self.path}.cfg_write")
            self._pending_nonposted[req.tag] = event
            self.link.post_downstream(req)
            return event
        # Read-modify-write for sub-dword config writes.
        result = Event(name=f"{self.path}.cfg_write")

        def _merge(ev: Event) -> None:
            dword = bytearray(ev.value)
            shift = offset - aligned
            dword[shift : shift + len(data)] = data
            req = config_write(aligned, bytes(dword), requester="host")
            self._pending_nonposted[req.tag] = result
            self.link.post_downstream(req)

        self.cfg_read(aligned, 4).on_trigger(_merge)
        return result


class RootComplex(Component):
    """Host-side root complex with memory, MSI routing and MMIO routing."""

    def __init__(
        self,
        sim: "Simulator",
        host_memory: Optional[PhysicalMemory] = None,
        name: str = "root-complex",
        parent: Optional[Component] = None,
        memory_read_latency_ns: float = 75.0,
        tracer=None,
    ) -> None:
        super().__init__(sim, name, parent=parent, tracer=tracer)
        self.host_memory = host_memory if host_memory is not None else PhysicalMemory()
        self.memory_read_latency: SimTime = ns(memory_read_latency_ns)
        self.ports: List[RootPort] = []
        self._msi_handler: Optional[MsiHandler] = None
        self._windows: List[Tuple[int, int, RootPort]] = []  # (base, size, port)

    def create_port(self, link_config: Optional[LinkConfig] = None) -> Tuple[RootPort, PcieLink]:
        """Create a downstream port and its link; the endpoint attaches
        to the returned link."""
        config = link_config if link_config is not None else LinkConfig()
        link = PcieLink(self.sim, config, name=f"link{len(self.ports)}", parent=self)
        port = RootPort(self.sim, self, link, port_index=len(self.ports), parent=self)
        self.ports.append(port)
        return port, link

    # -- MSI --------------------------------------------------------------------

    def set_msi_handler(self, handler: MsiHandler) -> None:
        """Install the interrupt-controller callback for MSI writes."""
        self._msi_handler = handler

    def deliver_msi(self, address: int, data: int) -> None:
        if self._msi_handler is None:
            raise RuntimeError("MSI received but no interrupt controller attached")
        self._msi_handler(address, data)

    # -- MMIO routing -----------------------------------------------------------------

    def register_window(self, base: int, size: int, port: RootPort) -> None:
        """Record that [base, base+size) routes to *port* (enumeration
        calls this after assigning a BAR)."""
        for wbase, wsize, _ in self._windows:
            if base < wbase + wsize and wbase < base + size:
                raise ValueError(f"window [{base:#x},{base + size:#x}) overlaps existing")
        self._windows.append((base, size, port))

    def _port_for(self, addr: int) -> RootPort:
        for base, size, port in self._windows:
            if base <= addr < base + size:
                return port
        raise RuntimeError(f"no MMIO window contains address {addr:#x}")

    def mmio_read(self, addr: int, length: int) -> Event:
        return self._port_for(addr).mmio_read(addr, length)

    def mmio_write(self, addr: int, data: bytes) -> None:
        self._port_for(addr).mmio_write(addr, data)
