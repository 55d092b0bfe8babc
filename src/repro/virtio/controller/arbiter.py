"""Shared DMA-bandwidth arbitration across SR-IOV virtual functions.

An SR-IOV device exposes several functions, but there is one physical
data mover (the XDMA engines) behind them.  The
:class:`DmaBandwidthArbiter` models that sharing: every VF's
:class:`~repro.virtio.controller.dma_port.ControllerDmaPort` submits
its host reads/writes through the arbiter, which admits **one transfer
at a time** across the whole physical device and picks the next one by
policy when the in-flight transfer's completion event fires:

* ``rr`` -- round-robin across functions with queued work (SVFF's
  default fairness),
* ``weighted`` -- deficit-style weighted round robin: a function with
  weight *w* may take up to *w* consecutive grants per visit, so
  bandwidth shares converge to the weight ratio under saturation.

The arbiter is pure event bookkeeping: it draws no randomness and adds
no latency of its own -- a grant issued with nothing else in flight
starts immediately, so a single-function device behaves identically
with or without one.  Each transfer carries one completion event from
the moment it is queued: the engine fires that same event, which
resumes its waiter and then releases the arbiter for the next grant.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.component import Component
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Launches a granted transfer on the data mover:
#: ``start(src, dst, length, done)`` (``DmaEngine.submit_bypass``).
StartFn = Callable[[int, int, int, Event], Any]
#: A queued transfer: how to start it, its fields and its event.
Transfer = Tuple[StartFn, int, int, int, Event]

POLICY_ROUND_ROBIN = "rr"
POLICY_WEIGHTED = "weighted"
POLICIES = (POLICY_ROUND_ROBIN, POLICY_WEIGHTED)


class _Completion(Event):
    """An arbitrated transfer's completion event.

    Its waiter (a controller FSM) registers only after
    :meth:`DmaBandwidthArbiter.submit` returns, and an uncontended grant
    has started the transfer by then, so a callback the arbiter
    registered would run first.  Triggering runs the waiters, then
    releases the arbiter, so the next grant follows the waiter's
    reaction.
    """

    __slots__ = ("_arbiter",)

    def __init__(self, arbiter: "DmaBandwidthArbiter") -> None:
        super().__init__()
        self._arbiter = arbiter

    def trigger(self, value: Any = None) -> Event:
        Event.trigger(self, value)
        self._arbiter._released()
        return self


class DmaBandwidthArbiter(Component):
    """One physical DMA mover shared by several virtual functions."""

    def __init__(
        self,
        sim: "Simulator",
        policy: str = POLICY_ROUND_ROBIN,
        name: str = "dma-arbiter",
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(sim, name, parent=parent)
        if policy not in POLICIES:
            raise ValueError(f"unknown arbiter policy {policy!r} (expected {POLICIES})")
        self.policy = policy
        self._queues: List[Deque[Transfer]] = []
        self._weights: List[int] = []
        self._credits: List[int] = []
        self._busy = False
        self._next = 0
        #: Whether the scan pointer *arrived* at ``_next`` (recharge its
        #: credit) rather than staying to continue a burst (don't).
        self._fresh = True
        #: per-function grant counts (fairness evidence for experiments).
        self.grants: List[int] = []

    # -- registration -------------------------------------------------------

    def register(self, weight: int = 1) -> int:
        """Add a function; returns its arbiter port id."""
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        port = len(self._queues)
        self._queues.append(deque())
        self._weights.append(weight)
        self._credits.append(weight)
        self.grants.append(0)
        return port

    # -- submission ---------------------------------------------------------

    def completion(self) -> Event:
        """A completion event for a transfer to :meth:`submit` later."""
        return _Completion(self)

    def submit(
        self,
        port: int,
        start: StartFn,
        src: int,
        dst: int,
        length: int,
        done: Optional[Event] = None,
    ) -> Event:
        """Queue a transfer for *port*: ``start(src, dst, length, done)``
        runs when the grant is issued, and must fire *done* when the
        transfer completes.  *done* comes from :meth:`completion`
        (a fresh one when omitted); it is returned."""
        if done is None:
            done = _Completion(self)
        self._queues[port].append((start, src, dst, length, done))
        if not self._busy:
            self._busy = True
            self._grant_next()
        return done

    # -- scheduling ---------------------------------------------------------

    def _pick(self) -> int:
        """Index of the next function to serve, honouring the policy."""
        ports = len(self._queues)
        if self.policy == POLICY_WEIGHTED:
            # Deficit WRR: credit recharges whenever the scan pointer
            # *arrives* at a function (offset > 0, or offset 0 after a
            # move-on) but not while staying to continue a burst -- so
            # a burst is bounded by the weight, and no function can be
            # starved by someone else's per-visit recharge.
            for offset in range(ports):
                port = (self._next + offset) % ports
                if offset > 0 or self._fresh:
                    self._credits[port] = self._weights[port]
                if self._queues[port] and self._credits[port] > 0:
                    return port
        for offset in range(ports):
            port = (self._next + offset) % ports
            if self._queues[port]:
                return port
        raise RuntimeError("arbiter dispatched with no queued work")

    def _grant_next(self) -> None:
        port = self._pick()
        start, src, dst, length, done = self._queues[port].popleft()
        self.grants[port] += 1
        if self.policy == POLICY_WEIGHTED:
            self._credits[port] -= 1
            if self._credits[port] > 0 and self._queues[port]:
                # Continue this function's burst on the next grant.
                self._next = port
                self._fresh = False
            else:
                self._next = (port + 1) % len(self._queues)
                self._fresh = True
        else:
            self._next = (port + 1) % len(self._queues)
        start(src, dst, length, done)

    def _released(self) -> None:
        if any(self._queues):
            self._grant_next()
        else:
            self._busy = False

    @property
    def stats(self) -> Dict[str, int]:
        return {f"vf{port}_grants": count for port, count in enumerate(self.grants)}
