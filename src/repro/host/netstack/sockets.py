"""UDP sockets: the C socket API the paper's test application uses.

Section III-B1: "The user space test application uses the C socket
programming API to send packets to the FPGA."  :class:`UdpSocket`
provides ``sendto``/``recvfrom`` as process generators with the syscall
costs around the stack work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Tuple

from repro.health.bounded import BoundedQueue
from repro.host.netstack.stack import NetworkStack
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.kernel import HostKernel

#: (payload, (src_ip, src_port))
Datagram = Tuple[bytes, Tuple[int, int]]

#: Drop reason of a datagram the full receive backlog tail-drops.
SOCKET_RX_OVERFLOW = "socket_rx_overflow"


class SocketError(RuntimeError):
    """Bind conflicts and misuse."""


class UdpSocket:
    """An AF_INET/SOCK_DGRAM socket."""

    def __init__(self, kernel: "HostKernel", stack: NetworkStack) -> None:
        self.kernel = kernel
        self.stack = stack
        self.local_port: Optional[int] = None
        #: SO_RCVBUF analogue: a bounded backlog with a counted drop
        #: reason (softirq context, so the policy is always tail-drop).
        self._rx_queue = BoundedQueue(
            capacity=1024, name="udp-rx", drop_reason=SOCKET_RX_OVERFLOW
        )
        self._rx_waiter: Optional[Event] = None
        self.rx_enqueued = 0
        #: Called once per datagram the full backlog tail-drops (an
        #: open-loop flow returns the lost packet's admission slot).
        self.on_rx_drop: Optional[Callable[[], None]] = None

    def bind(self, port: int) -> None:
        """Bind the local port (registers with the stack's UDP demux)."""
        if self.local_port is not None:
            raise SocketError("socket already bound")
        self.stack.bind_udp(port, self)
        self.local_port = port

    def close(self) -> None:
        if self.local_port is not None:
            self.stack.unbind_udp(self.local_port)
            self.local_port = None

    # -- stack-side delivery -------------------------------------------------------

    @property
    def rx_queue_limit(self) -> int:
        return self._rx_queue.capacity or 0

    @rx_queue_limit.setter
    def rx_queue_limit(self, limit: int) -> None:
        self._rx_queue.capacity = limit

    @property
    def rx_dropped(self) -> int:
        """Datagrams tail-dropped at the full backlog."""
        return self._rx_queue.dropped_total

    def deliver(self, payload: bytes, source: Tuple[int, int]) -> None:
        """Called by the stack's UDP demux (already in softirq context).

        This is the data plane's one RX copy (the ``copy_to_user``
        analogue): upstream layers hand down views of the driver's
        frame snapshot, and the datagram is materialized here because
        the application may hold it indefinitely while the backing
        buffer is recycled.
        """
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        if not self._rx_queue.try_push((payload, source)):
            if self.on_rx_drop is not None:
                self.on_rx_drop()
            return
        self.rx_enqueued += 1
        if self._rx_waiter is not None:
            waiter, self._rx_waiter = self._rx_waiter, None
            waiter.trigger(None)

    # -- application API -------------------------------------------------------------

    def sendto(self, payload: bytes, dst_ip: int, dst_port: int) -> Generator[Any, Any, int]:
        """``sendto(fd, buf, n, 0, addr)``; returns bytes sent."""
        if self.local_port is None:
            raise SocketError("sendto on unbound socket (bind first)")
        kernel = self.kernel
        yield kernel.cpu("syscall_entry")
        yield kernel.cpu("sock_lookup")
        yield from self.stack.udp_output(self.local_port, dst_ip, dst_port, payload)
        yield kernel.cpu("syscall_exit")
        return len(payload)

    def recvfrom(self) -> Generator[Any, Any, Datagram]:
        """``recvfrom(fd, ...)``; blocks until a datagram arrives."""
        if self.local_port is None:
            raise SocketError("recvfrom on unbound socket (bind first)")
        kernel = self.kernel
        yield kernel.cpu("syscall_entry")
        yield kernel.cpu("sock_lookup")
        while not self._rx_queue:
            if self._rx_waiter is not None:
                raise SocketError("concurrent recvfrom on one socket not supported")
            self._rx_waiter = Event(name="udp-recv")
            yield from kernel.block_on(self._rx_waiter)
        payload, source = self._rx_queue.popleft()
        yield kernel.copy(len(payload))  # copy_to_user
        yield kernel.cpu("syscall_exit")
        return payload, source

    @property
    def rx_pending(self) -> int:
        return len(self._rx_queue)
