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
from typing import TYPE_CHECKING, Callable, Deque, Optional

from collections import deque

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
    clocked out.
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
        self._queue: Deque[tuple[Tlp, Optional[Event]]] = deque()
        self._busy = False
        self._tlps_sent = 0
        self._bytes_sent = 0
        # Hot-path caches: the config is frozen, so serialization times
        # are a pure function of wire size (tiny key space: a handful of
        # TLP shapes per run), and the delivery-event name and
        # propagation delay never change.
        self._ser_cache: dict[int, SimTime] = {}
        self._prop_time = config.propagation_time
        self._delivered_name = f"{self.path}.delivered"
        # Pre-bound event callbacks: a fresh bound method per scheduled
        # hop would otherwise be allocated twice per TLP.
        self._tx_done_cb = self._tx_done
        self._arrive_cb = self._arrive
        #: Shared-uplink arbiter (a PcieSwitch) when this direction sits
        #: behind a switch; None leaves behaviour exactly as before.
        self.uplink = None
        self.uplink_port = -1

    def send(self, tlp: Tlp) -> Event:
        """Enqueue a TLP for transmission.  Returns the delivery event
        (fires when the TLP reaches the receiver); posted-write callers
        that do not care may ignore it."""
        delivered = Event(name=self._delivered_name)
        self._queue.append((tlp, delivered))
        if not self._busy:
            self._busy = True
            self._transmit_next()
        return delivered

    def post(self, tlp: Tlp) -> None:
        """Fire-and-forget enqueue: identical transmission timing to
        :meth:`send`, but no delivery event is allocated.  For TLPs
        whose delivery nothing ever waits on (completions, MSI writes,
        posted MMIO, read requests tracked by tag)."""
        self._queue.append((tlp, None))
        if not self._busy:
            self._busy = True
            self._transmit_next()

    def send_many(self, tlps) -> Event:
        """Write-combined enqueue of a TLP burst.

        Per-TLP timing is identical to looping :meth:`send`; the saving
        is bookkeeping: only the burst's last TLP carries a delivery
        event (the returned one, firing when the final TLP reaches the
        receiver -- the only event multi-TLP transfers ever waited on).
        """
        if not tlps:
            raise ValueError("send_many needs at least one TLP")
        delivered = Event(name=self._delivered_name)
        queue = self._queue
        last = len(tlps) - 1
        for i, tlp in enumerate(tlps):
            queue.append((tlp, delivered if i == last else None))
        if not self._busy:
            self._busy = True
            self._transmit_next()
        return delivered

    def _ser_time(self, wire_bytes: int) -> SimTime:
        time = self._ser_cache.get(wire_bytes)
        if time is None:
            time = self.config.serialization_time(wire_bytes)
            self._ser_cache[wire_bytes] = time
        return time

    def _transmit_next(self) -> None:
        tlp, delivered = self._queue.popleft()
        # Inline the serialization-time cache: this runs once per TLP.
        wire = tlp.wire_bytes
        tx_time = self._ser_cache.get(wire)
        if tx_time is None:
            tx_time = self.config.serialization_time(wire)
            self._ser_cache[wire] = tx_time
        if self.tracer.enabled:
            self.trace("tlp-tx", tlp=tlp.kind.value, addr=tlp.addr, bytes=wire)
        self._tlps_sent += 1
        self._bytes_sent += wire
        # Inlined ``sim.schedule(tx_time, self._tx_done, tlp, delivered)``
        # -- one of these runs per TLP on the wire.
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._push((sim._now + tx_time, seq, self._tx_done_cb, (tlp, delivered)))

    def _tx_done(self, tlp: Tlp, delivered: Optional[Event]) -> None:
        # Last byte left the transmitter; arrival after propagation --
        # unless a switch uplink sits in between (store-and-forward:
        # the TLP still contends for the shared upstream link).
        if self.uplink is not None:
            self.uplink.forward(self, tlp, delivered)
        else:
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            sim._push((sim._now + self._prop_time, seq, self._arrive_cb, (tlp, delivered)))
        if self._queue:
            self._transmit_next()
        else:
            self._busy = False

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

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)


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

    def send_downstream(self, tlp: Tlp) -> Event:
        """Root complex -> endpoint; returns the delivery event."""
        if self._downstream is None:
            raise RuntimeError(f"link {self.name!r}: endpoint rx not attached")
        return self._downstream.send(tlp)

    def send_upstream(self, tlp: Tlp) -> Event:
        """Endpoint -> root complex; returns the delivery event."""
        if self._upstream is None:
            raise RuntimeError(f"link {self.name!r}: root rx not attached")
        return self._upstream.send(tlp)

    def post_downstream(self, tlp: Tlp) -> None:
        """Fire-and-forget :meth:`send_downstream` (no delivery event)."""
        if self._downstream is None:
            raise RuntimeError(f"link {self.name!r}: endpoint rx not attached")
        self._downstream.post(tlp)

    def post_upstream(self, tlp: Tlp) -> None:
        """Fire-and-forget :meth:`send_upstream` (no delivery event)."""
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
