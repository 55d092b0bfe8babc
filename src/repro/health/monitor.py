"""Exactly-once conservation accounting for one workload run.

:class:`ConservationMonitor` is a per-run ledger the generators drive
alongside their :class:`~repro.workload.metrics.RunRecorder`: every
offered packet must end in **exactly one** terminal state --

* ``delivered``  -- its completion was observed,
* ``dropped``    -- it was refused or lost *with a recorded reason*
  (admission reject, full queue, busy driver, retries exhausted, ...).

Anything else is a conservation violation: a packet delivered twice
(duplication), a completion for a packet never admitted (ghost), or a
packet still unaccounted at the end of the run whose loss no hop
claimed (silent loss).  :meth:`ConservationMonitor.finalize` performs
the end-of-run reconciliation -- leftover in-flight packets are matched
against hop-level drop counters harvested from the stack (e.g. the
socket receive backlog dropping an echo leaves the original packet
in flight; the socket's counter explains it) -- and freezes the ledger
into a :class:`HealthReport`.

The monitor is pure bookkeeping: no simulator events, no RNG draws, no
yields.  Attaching one to a run cannot change a single timestamp,
which is what lets zero-overload monitored rows stay bit-identical to
plain runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Terminal states in the per-packet ledger.
_ADMITTED = "admitted"
_DELIVERED = "delivered"
_DROPPED = "dropped"


@dataclass
class HealthReport:
    """Frozen conservation verdict for one run."""

    driver: str
    mode: str
    offered: int
    admitted: int
    delivered: int
    dropped: int
    #: reason -> packets dropped for that reason (admission rejects,
    #: full queues, busy driver, exhausted retries, hop losses).
    drop_reasons: Dict[str, int] = field(default_factory=dict)
    #: hop name -> items that hop refused (stack-side counters, for
    #: cross-checking the per-packet ledger).
    hop_drops: Dict[str, int] = field(default_factory=dict)
    #: conservation violations, empty when the run is healthy.
    violations: List[str] = field(default_factory=list)
    #: lane name -> per-lane ledger counters (queue pair, VF, tenant);
    #: empty when the run did not tag packets with lanes.
    lanes: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def conserved(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "PASS" if self.conserved else "FAIL"

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "driver": self.driver,
            "mode": self.mode,
            "offered": self.offered,
            "admitted": self.admitted,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "drop_reasons": dict(sorted(self.drop_reasons.items())),
            "hop_drops": dict(sorted(self.hop_drops.items())),
            "violations": list(self.violations),
            "verdict": self.verdict,
        }
        if self.lanes:
            # Key order is stable and the key is absent entirely for
            # un-laned runs, so pre-lane artifact JSON is unchanged.
            out["lanes"] = {
                lane: dict(sorted(counters.items()))
                for lane, counters in sorted(self.lanes.items())
            }
        return out

    def render(self) -> str:
        reasons = ", ".join(
            f"{reason}={count}" for reason, count in sorted(self.drop_reasons.items())
        ) or "none"
        return (
            f"health[{self.driver}/{self.mode}]: {self.verdict} -- "
            f"offered {self.offered} = delivered {self.delivered} "
            f"+ dropped {self.dropped} (reasons: {reasons})"
            + ("" if self.conserved else f"; VIOLATIONS: {'; '.join(self.violations)}")
        )


class ConservationMonitor:
    """Mutable per-run ledger; freeze with :meth:`finalize`."""

    def __init__(self, driver: str = "", mode: str = "") -> None:
        self.driver = driver
        self.mode = mode
        self._state: Dict[int, str] = {}
        self._lane_of: Dict[int, str] = {}
        self.offered = 0
        self.admitted = 0
        self.delivered = 0
        self.dropped = 0
        self.drop_reasons: Dict[str, int] = {}
        self.hop_drops: Dict[str, int] = {}
        self.violations: List[str] = []
        self.lanes: Dict[str, Dict[str, int]] = {}

    # -- ledger transitions -------------------------------------------------

    def admit(self, seq: int, lane: Optional[str] = None) -> None:
        """Packet *seq* passed admission and entered the system.

        *lane* tags the packet with a sub-ledger dimension (queue pair,
        virtual function, tenant); later transitions are attributed to
        the same lane automatically."""
        if seq in self._state:
            self._violate(f"packet {seq} admitted twice")
            return
        self._state[seq] = _ADMITTED
        self.offered += 1
        self.admitted += 1
        if lane is not None:
            self._lane_of[seq] = lane
            counters = self._lane(lane)
            counters["offered"] += 1
            counters["admitted"] += 1

    def deliver(self, seq: int) -> None:
        """Packet *seq*'s completion was observed."""
        state = self._state.get(seq)
        if state is None:
            self._violate(f"ghost completion for packet {seq} (never admitted)")
            return
        if state != _ADMITTED:
            self._violate(f"packet {seq} completed twice (duplication)")
            return
        self._state[seq] = _DELIVERED
        self.delivered += 1
        lane = self._lane_of.get(seq)
        if lane is not None:
            self._lane(lane)["delivered"] += 1

    def drop(self, seq: int, reason: str, lane: Optional[str] = None) -> None:
        """Packet *seq* terminally dropped for *reason*.

        Valid both for packets refused before admission (the seq was
        never admitted: it is offered-and-dropped in one step) and for
        admitted packets whose loss a layer detected (exhausted
        retries, failed request)."""
        state = self._state.get(seq)
        if state in (_DELIVERED, _DROPPED):
            self._violate(f"packet {seq} dropped after already {state}")
            return
        if lane is None:
            lane = self._lane_of.get(seq)
        if state is None:
            self.offered += 1
            if lane is not None and seq not in self._lane_of:
                self._lane_of[seq] = lane
                self._lane(lane)["offered"] += 1
        self._state[seq] = _DROPPED
        self.dropped += 1
        self._count_reason(reason)
        if lane is not None:
            self._lane(lane)["dropped"] += 1

    # -- hop-side evidence --------------------------------------------------

    def note_hop_drops(self, hop: str, count: int) -> None:
        """Record that stack hop *hop* refused *count* items in total
        (harvested from its counters at end of run)."""
        if count:
            self.hop_drops[hop] = self.hop_drops.get(hop, 0) + count

    # -- finalization -------------------------------------------------------

    def finalize(self) -> HealthReport:
        """Reconcile and freeze.

        Packets still in flight at the end of the run are only legal if
        hop-level drop counters account for them (an echo tail-dropped
        at the socket backlog leaves its packet in flight; the hop
        counter is the recorded reason).  Leftovers beyond the hops'
        total are silent losses -- a violation.
        """
        leftovers = sorted(
            seq for seq, state in self._state.items() if state == _ADMITTED
        )
        unattributed = sum(self.hop_drops.values()) - sum(
            count
            for reason, count in self.drop_reasons.items()
            if reason.startswith("hop:")
        )
        for seq in leftovers:
            if unattributed > 0:
                unattributed -= 1
                self._state[seq] = _DROPPED
                self.dropped += 1
                self._count_reason("hop:in_flight_lost")
                lane = self._lane_of.get(seq)
                if lane is not None:
                    self._lane(lane)["dropped"] += 1
            else:
                self._violate(f"packet {seq} lost without a recorded reason")
        if self.offered != self.delivered + self.dropped + sum(
            1 for state in self._state.values() if state == _ADMITTED
        ):
            self._violate(
                f"ledger identity broken: offered {self.offered} != "
                f"delivered {self.delivered} + dropped {self.dropped}"
            )
        return HealthReport(
            driver=self.driver,
            mode=self.mode,
            offered=self.offered,
            admitted=self.admitted,
            delivered=self.delivered,
            dropped=self.dropped,
            drop_reasons=dict(self.drop_reasons),
            hop_drops=dict(self.hop_drops),
            violations=list(self.violations),
            lanes={lane: dict(c) for lane, c in self.lanes.items()},
        )

    # -- internals ----------------------------------------------------------

    def _lane(self, lane: str) -> Dict[str, int]:
        counters = self.lanes.get(lane)
        if counters is None:
            counters = {"offered": 0, "admitted": 0, "delivered": 0, "dropped": 0}
            self.lanes[lane] = counters
        return counters

    def _count_reason(self, reason: str) -> None:
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    def _violate(self, message: str) -> None:
        self.violations.append(message)
