"""Bounded queues with counted drop reasons.

Every queueing hop in the stack -- socket receive backlog, the
open-loop generator's XDMA job queue, the virtqueue avail ring, the
XDMA driver's pending-request window -- is bounded, and a refusal is a
*counted* drop under a named reason, never a silent loss.
:class:`BoundedQueue` is the primitive behind the first two: a full
queue tail-drops the newest item and counts it (the qdisc /
``SO_RCVBUF`` behaviour, the only one legal in softirq context, where
nothing may block).

:func:`apply_overload_bounds` installs an
:class:`~repro.workload.admission.OverloadConfig`'s per-hop bounds onto
a booted testbed: the virtio transmit ring's depth limit and the XDMA
driver's pending window.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.virtio.constants import TRANSMITQ


class BoundedQueue:
    """A FIFO with a capacity and per-reason drop counters.

    ``try_push`` on a full queue counts the refusal and returns
    ``False``; the queue never blocks and never raises.
    """

    def __init__(
        self,
        capacity: Optional[int],
        name: str = "queue",
        drop_reason: str = "overflow",
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.drop_reason = drop_reason
        self._items: Deque[Any] = deque()
        #: reason -> count of items refused at this hop.
        self.drops: Dict[str, int] = {}

    # -- state -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def has_room(self) -> bool:
        return self.capacity is None or len(self._items) < self.capacity

    @property
    def dropped_total(self) -> int:
        return sum(self.drops.values())

    # -- operations --------------------------------------------------------

    def count_drop(self, reason: Optional[str] = None, n: int = 1) -> None:
        """Count *n* refusals under *reason* (callers that drop outside
        the queue -- e.g. before even building the item -- still get
        their loss on this hop's ledger)."""
        key = reason or self.drop_reason
        self.drops[key] = self.drops.get(key, 0) + n

    def try_push(self, item: Any, reason: Optional[str] = None) -> bool:
        """Append *item* if there is room; when full, count the drop
        under *reason* (default: the queue's) and return ``False``."""
        if self.has_room():
            self._items.append(item)
            return True
        self.count_drop(reason)
        return False

    def popleft(self) -> Any:
        return self._items.popleft()

    def clear(self) -> None:
        self._items.clear()

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        return (
            f"<BoundedQueue {self.name} {len(self._items)}/{cap} "
            f"dropped={self.dropped_total}>"
        )


def apply_overload_bounds(testbed, config) -> None:
    """Install *config*'s per-hop bounds onto a booted testbed.

    * VirtIO: the transmit virtqueue gets an avail-ring depth limit
      (the driver refuses to expose more than ``tx_depth_limit`` chains
      at once); the netdev gets a ``can_xmit`` gate so a full ring is a
      counted qdisc drop instead of a ring exception.  The
      receive-backlog bound (``socket_rx_limit``) belongs to the socket
      the open-loop flow opens, so the generator installs it there.
    * XDMA: the driver gets a bounded pending-request window (excess
      requests raise ``XdmaBusyError`` to the caller, the ``EAGAIN``
      analogue).

    A ``None`` bound leaves that hop exactly as it was -- applying an
    all-``None`` config is a no-op, which is what keeps zero-overload
    runs bit-identical to plain ones.
    """
    from repro.core.testbed import VirtioTestbed, XdmaTestbed

    if isinstance(testbed, VirtioTestbed):
        driver = testbed.driver
        if config.tx_depth_limit is not None:
            driver.transport.queue(TRANSMITQ).depth_limit = config.tx_depth_limit
        if driver.netdev is not None and driver.netdev.can_xmit is None:
            driver.netdev.can_xmit = driver.tx_has_room
    elif isinstance(testbed, XdmaTestbed):
        if config.xdma_max_pending is not None:
            testbed.driver.max_pending = config.xdma_max_pending
    else:
        raise TypeError(f"unknown testbed type {type(testbed).__name__}")
