"""PCIe link timing model.

Models what drivers and DMA engines observe: serialization time at the
negotiated generation/width, per-direction propagation/pipeline latency,
and serialization of TLPs contending for the same direction (one TLP at a
time per direction, FIFO order -- an adequate stand-in for flow-control
credits at the queue depths these experiments produce).

The board in the paper (Alinx AX7A200, Artix-7) negotiates **Gen2 x2**:
5 GT/s per lane, 8b/10b encoding, so 4 Gb/s of data per lane and 1 GB/s
per direction for x2 before DLLP overhead.

Each direction is an independent :class:`LinkDirection` (full duplex).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.pcie.tlp import Tlp
from repro.sim.component import Component
from repro.sim.event import Event
from repro.sim.time import SimTime, ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


#: Per-lane raw signalling rate in gigatransfers/s by PCIe generation.
GT_PER_S = {1: 2.5e9, 2: 5.0e9, 3: 8.0e9}
#: Encoding efficiency: 8b/10b for Gen1/2, 128b/130b for Gen3.
ENCODING_EFFICIENCY = {1: 0.8, 2: 0.8, 3: 128.0 / 130.0}


@dataclass(frozen=True)
class LinkConfig:
    """Negotiated link parameters plus transaction-layer settings.

    Parameters
    ----------
    generation / lanes:
        Negotiated speed and width.
    max_payload:
        Max_Payload_Size in bytes (MWr/CplD payload cap).
    max_read_request:
        Max_Read_Request_Size in bytes.
    read_completion_boundary:
        RCB for completion splitting (host root complexes use 64 B).
    propagation_ns:
        One-way latency from requester transaction layer to completer
        transaction layer: PHY pipelines, link, and the root-complex or
        endpoint ingress.  Calibrated per testbed.
    dllp_efficiency:
        Fraction of data bandwidth left after DLLP/ordered-set overhead.
    """

    generation: int = 2
    lanes: int = 2
    max_payload: int = 256
    max_read_request: int = 512
    read_completion_boundary: int = 64
    propagation_ns: float = 150.0
    dllp_efficiency: float = 0.95

    def __post_init__(self) -> None:
        if self.generation not in GT_PER_S:
            raise ValueError(f"unsupported PCIe generation {self.generation}")
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ValueError(f"invalid lane count {self.lanes}")
        for field_name in ("max_payload", "max_read_request"):
            value = getattr(self, field_name)
            if value < 128 or value & (value - 1):
                raise ValueError(f"{field_name} must be a power of two >= 128, got {value}")
        if not 0 < self.dllp_efficiency <= 1:
            raise ValueError(f"dllp_efficiency must be in (0,1], got {self.dllp_efficiency}")
        if self.propagation_ns < 0:
            raise ValueError(f"propagation_ns must be >= 0, got {self.propagation_ns}")

    @property
    def bytes_per_second(self) -> float:
        """Effective data bandwidth per direction."""
        raw_bits = GT_PER_S[self.generation] * self.lanes
        return raw_bits * ENCODING_EFFICIENCY[self.generation] * self.dllp_efficiency / 8.0

    def serialization_time(self, wire_bytes: int) -> SimTime:
        """Time to clock *wire_bytes* onto the link."""
        if wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {wire_bytes}")
        return round(wire_bytes / self.bytes_per_second * 1e12)

    @property
    def propagation_time(self) -> SimTime:
        return ns(self.propagation_ns)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Gen{self.generation} x{self.lanes} "
            f"({self.bytes_per_second / 1e9:.2f} GB/s/dir, MPS={self.max_payload})"
        )


#: The paper's experimental link: Artix-7 board with two Gen2 lanes.
PAPER_LINK = LinkConfig(generation=2, lanes=2)


DeliverFn = Callable[[Tlp], None]


class LinkDirection(Component):
    """One direction of the full-duplex link.

    TLPs are serialized one at a time in FIFO order; each is delivered to
    the receiver's callback ``propagation_time`` after its last byte is
    clocked out.  A FIFO single server's departures are exactly
    max(enqueue, previous departure) + serialization time, so each
    departure is computed when the TLP is enqueued, and a TLP costs one
    simulator event: its arrival, or its hand-off to a switch uplink at
    departure.
    """

    def __init__(
        self,
        sim: "Simulator",
        config: LinkConfig,
        deliver: DeliverFn,
        name: str,
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(sim, name, parent=parent)
        self.config = config
        self.deliver = deliver
        #: When the transmitter finishes clocking out the last queued TLP.
        self._free_at: SimTime = 0
        self._tlps_sent = 0
        self._bytes_sent = 0
        # Hot-path caches: the config is frozen, so serialization times
        # are a pure function of wire size (tiny key space: a handful of
        # TLP shapes per run), and the delivery-event name and
        # propagation delay never change.
        self._ser_cache: dict[int, SimTime] = {}
        self._prop_time = config.propagation_time
        self._delivered_name = f"{self.path}.delivered"
        # Pre-bound event callback: a fresh bound method per TLP would
        # otherwise be allocated.
        self._arrive_cb = self._arrive
        #: Shared-uplink arbiter (a PcieSwitch) when this direction sits
        #: behind a switch; None leaves behaviour exactly as before.
        self.uplink = None
        self.uplink_port = -1

    def post(self, tlp: Tlp) -> None:
        """Fire-and-forget transmit: no delivery event is allocated.  For
        TLPs whose delivery nothing ever waits on (completions, MSI
        writes, posted MMIO, read requests tracked by tag)."""
        self._transmit_next(tlp, None)

    def post_many(self, tlps: Iterable[Tlp]) -> None:
        """:meth:`post` each of *tlps* in order (the completion splits of
        one read, issued by one scheduled call)."""
        for tlp in tlps:
            self._transmit_next(tlp, None)

    def send_many(self, tlps: Sequence[Tlp]) -> Event:
        """Write-combined transmit of a TLP burst.

        Per-TLP timing is identical to :meth:`post`; only the burst's
        last TLP carries a delivery event (the returned one, firing when
        the final TLP reaches the receiver -- the only event multi-TLP
        transfers ever waited on).
        """
        if not tlps:
            raise ValueError("send_many needs at least one TLP")
        delivered = Event(name=self._delivered_name)
        for tlp in tlps[:-1]:
            self._transmit_next(tlp, None)
        self._transmit_next(tlps[-1], delivered)
        return delivered

    def _transmit_next(self, tlp: Tlp, delivered: Optional[Event]) -> None:
        # Runs once per TLP on the wire.
        wire = tlp.wire_bytes
        tx_time = self._ser_cache.get(wire)
        if tx_time is None:
            tx_time = self._ser_cache[wire] = self.config.serialization_time(wire)
        sim = self.sim
        start = self._free_at
        if start < sim._now:
            start = sim._now
        if self.tracer.enabled:
            # Stamped with the transmission start, which is later than
            # now when the TLP queues behind others.
            self.tracer.emit(start, self.path, "tlp-tx",
                             tlp=tlp.kind.value, addr=tlp.addr, bytes=wire)
        self._tlps_sent += 1
        self._bytes_sent += wire
        self._free_at = departure = start + tx_time
        # Inlined ``sim.schedule_at``: arrival after propagation -- unless
        # a switch uplink sits in between (store-and-forward: the TLP
        # still contends for the shared upstream link from departure).
        sim._seq = seq = sim._seq + 1
        if self.uplink is None:
            sim._push((departure + self._prop_time, seq, self._arrive_cb, (tlp, delivered)))
        else:
            sim._push((departure, seq, self.uplink.forward, (self, tlp, delivered)))

    def _arrive(self, tlp: Tlp, delivered: Optional[Event]) -> None:
        if self.tracer.enabled:
            self.trace("tlp-rx", tlp=tlp.kind.value, addr=tlp.addr)
        self.deliver(tlp)
        if delivered is not None:
            delivered.trigger(None)

    @property
    def tlps_sent(self) -> int:
        return self._tlps_sent

    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent


class PcieLink(Component):
    """A full-duplex point-to-point link between two agents.

    The two agents (root complex and endpoint) attach receive callbacks;
    ``downstream``/``upstream`` carry TLPs toward the endpoint / toward
    the root complex respectively.
    """

    def __init__(
        self,
        sim: "Simulator",
        config: LinkConfig,
        name: str = "pcie-link",
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(sim, name, parent=parent)
        self.config = config
        self._downstream: Optional[LinkDirection] = None
        self._upstream: Optional[LinkDirection] = None

    def attach_endpoint_rx(self, deliver: DeliverFn) -> None:
        """Set the endpoint's receive callback (downstream direction)."""
        self._downstream = LinkDirection(self.sim, self.config, deliver, "down", parent=self)

    def attach_root_rx(self, deliver: DeliverFn) -> None:
        """Set the root complex's receive callback (upstream direction)."""
        self._upstream = LinkDirection(self.sim, self.config, deliver, "up", parent=self)

    def post_downstream(self, tlp: Tlp) -> None:
        """Root complex -> endpoint (no delivery event)."""
        if self._downstream is None:
            raise RuntimeError(f"link {self.name!r}: endpoint rx not attached")
        self._downstream.post(tlp)

    def post_upstream(self, tlp: Tlp) -> None:
        """Endpoint -> root complex (no delivery event)."""
        if self._upstream is None:
            raise RuntimeError(f"link {self.name!r}: root rx not attached")
        self._upstream.post(tlp)

    @property
    def endpoint_attached(self) -> bool:
        """Whether a device terminates the downstream direction (links
        with no device behave as empty slots at enumeration)."""
        return self._downstream is not None

    @property
    def downstream(self) -> LinkDirection:
        assert self._downstream is not None
        return self._downstream

    @property
    def upstream(self) -> LinkDirection:
        assert self._upstream is not None
        return self._upstream
