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
        self._queues: List[Deque[Tuple["Tlp", Optional[Event], SimTime]]] = []
        self._busy = False
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

    @property
    def num_ports(self) -> int:
        return len(self._ports)

    # -- forwarding --------------------------------------------------------------

    def forward(
        self,
        direction: LinkDirection,
        tlp: "Tlp",
        delivered: Optional[Event],
    ) -> None:
        """A TLP finished its downstream-link serialization; queue it for
        the shared uplink.  The hooked ``LinkDirection`` schedules this
        call at the TLP's departure."""
        self._queues[direction.uplink_port].append(
            (tlp, delivered, direction._prop_time)
        )
        if not self._busy:
            self._busy = True
            self._transmit_next()

    def _transmit_next(self) -> None:
        # Round-robin grant: scan from the port after the last winner.
        ports = len(self._queues)
        for offset in range(ports):
            port = (self._next_port + offset) % ports
            if self._queues[port]:
                break
        else:  # pragma: no cover - _busy guards against empty dispatch
            self._busy = False
            return
        tlp, delivered, prop_time = self._queues[port].popleft()
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
        self.sim.schedule(ser, self._uplink_done, port, tlp, delivered, prop_time)

    def _uplink_done(
        self,
        port: int,
        tlp: "Tlp",
        delivered: Optional[Event],
        prop_time: SimTime,
    ) -> None:
        # Last byte cleared the uplink: deliver to the root complex after
        # the original direction's propagation delay (tracing stays on
        # the owning LinkDirection).
        direction = self._ports[port]
        self.sim.schedule(prop_time, direction._arrive, tlp, delivered)
        if any(self._queues):
            self._transmit_next()
        else:
            self._busy = False

    @property
    def stats(self) -> Dict[str, int]:
        out: Dict[str, int] = {
            "tlps_forwarded": self.tlps_forwarded,
            "bytes_forwarded": self.bytes_forwarded,
        }
        for port, count in enumerate(self.per_port_tlps):
            out[f"port{port}_tlps"] = count
        return out
