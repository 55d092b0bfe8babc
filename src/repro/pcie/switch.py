"""PCIe switch model: shared-uplink bandwidth arbitration.

A fleet topology hangs several endpoints off one root port budget; what
physically limits them is the switch's single upstream link.  The model
keeps each endpoint's :class:`~repro.pcie.link.PcieLink` (enumeration,
MMIO routing, and per-endpoint serialization are untouched) and adds a
store-and-forward stage on the *upstream* direction: a TLP first pays
its own downstream link's serialization (endpoint links run in
parallel), then contends for the shared uplink, where the switch grants
transmission round-robin across its downstream ports and pays the
uplink's serialization time per TLP.  Downstream (host -> endpoint)
traffic is not arbitrated: root-complex egress is not the bottleneck in
these experiments, and modeling it would double the event count for no
observable effect.

Like a link direction, the uplink computes each departure instead of
simulating it: a TLP that finds the uplink free and no port waiting is
transmitted at once, so the only event it adds to the link's hand-off
is its arrival.  Only while ports wait does the switch schedule a
grant, at the instant the uplink frees, and run the round-robin there.

A link never attached to a switch behaves exactly as before -- the hook
in :class:`~repro.pcie.link.LinkDirection` is a ``None`` check.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.pcie.link import LinkConfig, LinkDirection, PcieLink
from repro.sim.component import Component
from repro.sim.event import Event
from repro.sim.time import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.pcie.tlp import Tlp
    from repro.sim.kernel import Simulator


class PcieSwitch(Component):
    """Round-robin uplink arbiter over the attached downstream ports."""

    def __init__(
        self,
        sim: "Simulator",
        uplink: LinkConfig,
        name: str = "pcie-switch",
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(sim, name, parent=parent)
        self.config = uplink
        self._ports: List[LinkDirection] = []
        self._queues: List[Deque[Tuple["Tlp", Optional[Event]]]] = []
        #: When the uplink finishes clocking out its last granted TLP.
        self._free_at: SimTime = 0
        #: Whether a grant is scheduled (some port waits).
        self._granting = False
        self._next_port = 0
        self._ser_cache: Dict[int, SimTime] = {}
        self.tlps_forwarded = 0
        self.bytes_forwarded = 0
        #: port index -> TLPs forwarded from that port (fairness evidence).
        self.per_port_tlps: List[int] = []

    # -- wiring ------------------------------------------------------------------

    def attach(self, link: PcieLink) -> int:
        """Route *link*'s upstream direction through this switch; returns
        the downstream-port index.  Must be called after the root side
        attached its receive callback (i.e. after ``create_port``)."""
        direction = link.upstream
        if direction.uplink is not None:
            raise ValueError(f"link {link.name!r} is already behind a switch")
        port = len(self._ports)
        direction.uplink = self
        direction.uplink_port = port
        self._ports.append(direction)
        self._queues.append(deque())
        self.per_port_tlps.append(0)
        return port

    # -- forwarding --------------------------------------------------------------

    def forward(
        self,
        direction: LinkDirection,
        tlp: "Tlp",
        delivered: Optional[Event],
    ) -> None:
        """A TLP finished its downstream-link serialization; send it up
        the shared uplink now, or queue it for a grant.  The hooked
        ``LinkDirection`` schedules this call at the TLP's departure."""
        port = direction.uplink_port
        if not self._granting and self._free_at <= self.sim.now:
            self._transmit(port, tlp, delivered)
            return
        self._queues[port].append((tlp, delivered))
        if not self._granting:
            self._granting = True
            self.sim.schedule_at(self._free_at, self._grant)

    def _grant(self) -> None:
        # The uplink is free: round-robin grant, scanning from the port
        # after the last winner.
        ports = len(self._queues)
        for offset in range(ports):
            port = (self._next_port + offset) % ports
            if self._queues[port]:
                break
        tlp, delivered = self._queues[port].popleft()
        self._transmit(port, tlp, delivered)
        if any(self._queues):
            self.sim.schedule_at(self._free_at, self._grant)
        else:
            self._granting = False

    def _transmit(self, port: int, tlp: "Tlp", delivered: Optional[Event]) -> None:
        """Clock *tlp* onto the free uplink and schedule its arrival at
        the root complex, after the original direction's propagation
        delay (tracing stays on the owning ``LinkDirection``)."""
        self._next_port = port + 1
        wire = tlp.wire_bytes
        ser = self._ser_cache.get(wire)
        if ser is None:
            ser = self.config.serialization_time(wire)
            self._ser_cache[wire] = ser
        self.tlps_forwarded += 1
        self.bytes_forwarded += wire
        self.per_port_tlps[port] += 1
        if self.tracer.enabled:
            self.trace("uplink-tx", port=port, tlp=tlp.kind.value, bytes=wire)
        sim = self.sim
        self._free_at = departure = sim._now + ser
        direction = self._ports[port]
        # Inlined ``sim.schedule_at``, as in ``LinkDirection``.
        sim._seq = seq = sim._seq + 1
        sim._push((departure + direction._prop_time, seq, direction._arrive_cb, (tlp, delivered)))

    @property
    def stats(self) -> Dict[str, int]:
        out: Dict[str, int] = {
            "tlps_forwarded": self.tlps_forwarded,
            "bytes_forwarded": self.bytes_forwarded,
        }
        for port, count in enumerate(self.per_port_tlps):
            out[f"port{port}_tlps"] = count
        return out
