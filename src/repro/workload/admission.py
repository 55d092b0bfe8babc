"""Admission control for overload-aware workload generation.

:class:`AdmissionController` bounds packets in flight end-to-end (the
generator-level analogue of a connection window); arrivals over the
window are ``admission_limit`` drops.  It is pure arithmetic -- no RNG
draws, no events -- so arming it never perturbs a run's random streams.

:class:`OverloadConfig` bundles the window with the four per-hop queue
bounds: the open-loop generator bounds its own socket backlog and XDMA
job queue, :func:`repro.health.bounded.apply_overload_bounds` installs
the other two.  It is a frozen, picklable dataclass so it travels to pool
workers inside an exec-engine cell unchanged.  The all-``None``
default arms nothing, which keeps unconfigured runs bit-identical to
unprotected ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class OverloadConfig:
    """Overload bounds for one generator run (``None`` = unbounded)."""

    #: Max packets in flight end-to-end.
    admission_limit: Optional[int] = None
    #: Socket receive backlog, in datagrams (VirtIO path).
    socket_rx_limit: Optional[int] = None
    #: VirtIO transmit virtqueue depth limit (chains in flight).
    tx_depth_limit: Optional[int] = None
    #: Open-loop XDMA software job-queue capacity.
    xdma_queue_limit: Optional[int] = None
    #: XDMA driver pending-request window (reject-to-caller beyond it).
    xdma_max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("admission_limit", "socket_rx_limit", "tx_depth_limit",
                     "xdma_queue_limit", "xdma_max_pending"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None, got {value}")


class AdmissionController:
    """Bound on packets in flight end-to-end."""

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ValueError(f"admission limit must be positive, got {limit}")
        self.limit = limit
        self.in_flight = 0
        self.admitted = 0
        self.rejected = 0

    def try_admit(self) -> bool:
        if self.in_flight >= self.limit:
            self.rejected += 1
            return False
        self.in_flight += 1
        self.admitted += 1
        return True

    def release(self) -> None:
        """One admitted packet reached a terminal state."""
        if self.in_flight > 0:
            self.in_flight -= 1
