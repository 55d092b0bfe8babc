"""virtio-net front-end driver.

The in-kernel network driver the paper evaluates: it binds the
virtio-pci transport, exposes the FPGA as a NIC to the host stack, and
implements the runtime data path whose costs Fig. 4 attributes to "the
software stack":

**Transmit** (``ndo_start_xmit``): clean completed TX chains, prepend
the virtio_net_hdr (requesting checksum offload when the stack left
CHECKSUM_PARTIAL), expose the buffer on the transmitq, publish, and
issue *one* posted doorbell write.  No descriptor traffic, no register
programming, no completion interrupt (the driver suppresses transmitq
interrupts and cleans opportunistically, as Linux's virtio-net does in
its default non-TX-NAPI mode).

**Receive**: the receiveq holds pre-posted buffers; the device DMAs a
frame and raises the queue's MSI-X vector; the ISR only schedules NAPI;
the poll loop harvests used buffers, reposts fresh ones, and feeds the
stack -- then re-enables interrupts.

**Multi-queue** (VIRTIO_NET_F_MQ): when the device offers N > 1
virtqueue pairs, the driver brings up all of them -- one NAPI context,
one RX buffer pool, one TX slot pool, and one MSI-X vector pair per
queue pair -- enables them with VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET, and
steers each outbound frame to the pair its RSS flow hash selects
(matching the device's receive-side steering, so a flow stays on one
pair in both directions).  With one pair, every structure below
degenerates to the single-queue driver unchanged.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from repro.drivers.virtio_pci import VirtioPciTransport
from repro.host.kernel import HostKernel
from repro.host.netstack.netdev import (
    FEATURE_HW_CSUM,
    FEATURE_RX_CSUM_VALID,
    NapiContext,
    NetDevice,
)
from repro.host.netstack.rss import steer
from repro.host.netstack.skb import CHECKSUM_PARTIAL, CHECKSUM_UNNECESSARY, Skb
from repro.host.netstack.stack import NetworkStack
from repro.mem.dma import DmaBuffer
from repro.sim.time import ns
from repro.virtio.constants import (
    STATUS_DEVICE_NEEDS_RESET,
    VIRTIO_F_VERSION_1,
    VIRTIO_NET_CTRL_MQ,
    VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET,
    VIRTIO_NET_F_CSUM,
    VIRTIO_NET_F_CTRL_VQ,
    VIRTIO_NET_F_GUEST_CSUM,
    VIRTIO_NET_F_MAC,
    VIRTIO_NET_F_MQ,
    VIRTIO_NET_F_MTU,
    VIRTIO_NET_F_STATUS,
    rx_queue_index,
    tx_queue_index,
)
from repro.virtio.features import FeatureSet
from repro.virtio.net_header import (
    VIRTIO_NET_HDR_F_DATA_VALID,
    VIRTIO_NET_HDR_F_NEEDS_CSUM,
    VIRTIO_NET_HDR_SIZE,
    VirtioNetHeader,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.pcie.enumeration import DiscoveredFunction
    from repro.virtio.transport import Transport

#: Receive buffers kept posted (virtio-net fills the whole ring; a
#: modest pool keeps simulation memory small with identical latency
#: behaviour at the experiments' one-in-flight load).
RX_POOL_SIZE = 64
#: Size of each receive buffer (MTU frame + virtio_net_hdr).
RX_BUFFER_SIZE = 2048
#: Transmit buffer slots per queue pair (recycled after completion).
TX_POOL_SIZE = 64
TX_BUFFER_SIZE = 2048

#: Features this driver implementation supports.
DRIVER_SUPPORTED = FeatureSet.of(
    VIRTIO_F_VERSION_1,
    VIRTIO_NET_F_CSUM,
    VIRTIO_NET_F_CTRL_VQ,
    VIRTIO_NET_F_GUEST_CSUM,
    VIRTIO_NET_F_MAC,
    VIRTIO_NET_F_MQ,
    VIRTIO_NET_F_MTU,
    VIRTIO_NET_F_STATUS,
)


class VirtioNetDriver:
    """Bound driver instance for one virtio-net function."""

    def __init__(
        self,
        kernel: HostKernel,
        stack: NetworkStack,
        function: "DiscoveredFunction",
        ifname: str = "virtio0",
        transport: Optional["Transport"] = None,
    ) -> None:
        self.kernel = kernel
        self.stack = stack
        if transport is None:
            transport = VirtioPciTransport(kernel, function, name=ifname)
        self.transport = transport
        self.ifname = ifname
        self.netdev: Optional[NetDevice] = None
        #: Enabled TX/RX virtqueue pairs (1 until MQ is negotiated).
        self.queue_pairs = 1
        self.napis: List[NapiContext] = []
        self._rx_pools: List[Dict[int, DmaBuffer]] = []  # pair -> {head: buffer}
        self._tx_pools: List[List[DmaBuffer]] = []
        self._tx_slots: List[int] = []
        self._tx_counts: List[int] = []
        self._pending: List[Dict[int, tuple]] = []  # pair -> {head: (addr, len)}
        self.tx_ring_drops = 0
        self.tx_kicks = 0
        self.rx_irqs = 0
        #: frames steered to each TX pair (RSS evidence).
        self.tx_steered: List[int] = []
        self.has_ctrl_vq = False
        self._ctrl_buf = None
        self._ctrl_status = None
        self._ctrl_pending = None
        self.ctrl_commands = 0
        # Fault tolerance (active only when repro.faults attaches an
        # injector; every hook below is gated on ``injector``).
        self.injector = None
        self.watchdog_timeout_ns = 1_000_000.0
        self.max_watchdog_kicks = 3
        self._watchdog_armed = False
        self._watchdog_snapshot: List[int] = []
        self._watchdog_kicks = 0
        self._stall_started_at: Optional[int] = None
        self._recovering = False
        self.watchdog_stalls = 0
        self.watchdog_rekicks = 0
        self.device_resets = 0
        self.needs_reset_seen = 0
        self.requests_failed = 0
        self.recovery_latencies_ps: List[int] = []

    # -- probe --------------------------------------------------------------------

    def probe(self, ip: int) -> Generator[Any, Any, NetDevice]:
        """Full bind: transport init, netdev registration, RX fill."""
        transport = self.transport
        yield from transport.discover()
        yield from transport.initialize(DRIVER_SUPPORTED)
        accepted = transport.accepted_features

        # Device config: MAC and MTU.
        mac = yield from transport.device_config_read(0, 6)
        mtu = 1500
        if accepted.has(VIRTIO_NET_F_MTU):
            raw = yield from transport.device_config_read(10, 2)
            mtu = int.from_bytes(raw, "little")
        self.queue_pairs = 1
        if accepted.has(VIRTIO_NET_F_MQ):
            raw = yield from transport.device_config_read(8, 2)
            self.queue_pairs = max(1, int.from_bytes(raw, "little"))

        features = set()
        if accepted.has(VIRTIO_NET_F_CSUM):
            features.add(FEATURE_HW_CSUM)
        if accepted.has(VIRTIO_NET_F_GUEST_CSUM):
            features.add(FEATURE_RX_CSUM_VALID)
        self.netdev = NetDevice(self.kernel, self.ifname, mac, mtu=mtu, features=features)
        self.netdev.set_xmit(self._start_xmit)
        self.stack.register_device(self.netdev, ip)

        # Per-pair RX interrupt -> NAPI, plus the TX-completion vector.
        self.napis = []
        self.tx_steered = [0] * self.queue_pairs
        for pair in range(self.queue_pairs):
            napi = NapiContext(
                self.kernel,
                self.netdev,
                poll=partial(self._napi_poll, pair),
                irq_enable=partial(self._rx_irq_enable, pair),
                irq_disable=partial(self._rx_irq_disable, pair),
                recheck=partial(self._rx_has_used, pair),
            )
            self.napis.append(napi)
            transport.bind_queue_interrupt(
                rx_queue_index(pair), partial(self._rx_interrupt, pair)
            )
            transport.bind_queue_interrupt(tx_queue_index(pair), self._tx_interrupt)
        transport.bind_config_interrupt(self._config_interrupt)

        # Control queue, when the device exposes one.
        ctrl_index = self.ctrl_queue_index()
        self.has_ctrl_vq = (
            accepted.has(VIRTIO_NET_F_CTRL_VQ) and len(transport.virtqueues) > ctrl_index
        )
        if self.has_ctrl_vq:
            self._ctrl_buf = self.kernel.alloc_dma(64)
            self._ctrl_status = self.kernel.alloc_dma(16)
            transport.bind_queue_interrupt(ctrl_index, self._ctrl_interrupt)

        # TX buffer pools; transmitq interrupts are suppressed --
        # completions are cleaned in the xmit path (default Linux
        # virtio-net behaviour).
        self._tx_pools = []
        self._tx_slots = [0] * self.queue_pairs
        self._tx_counts = [0] * self.queue_pairs
        self._pending = [dict() for _ in range(self.queue_pairs)]
        for pair in range(self.queue_pairs):
            pool = [self.kernel.alloc_dma(TX_BUFFER_SIZE) for _ in range(TX_POOL_SIZE)]
            self._tx_pools.append(pool)
            transport.queue(tx_queue_index(pair)).set_avail_no_interrupt(True)

        # Fill every receiveq and hand the buffers to the device.
        self._rx_pools = [dict() for _ in range(self.queue_pairs)]
        for pair in range(self.queue_pairs):
            rx_vq = transport.queue(rx_queue_index(pair))
            for _ in range(RX_POOL_SIZE):
                buffer = self.kernel.alloc_dma(RX_BUFFER_SIZE)
                head = rx_vq.add_buffer([], [(buffer.addr, RX_BUFFER_SIZE)])
                self._rx_pools[pair][head] = buffer
            rx_vq.publish()
            yield from transport.notify(rx_queue_index(pair))

        if self.queue_pairs > 1:
            # 5.1.6.5.5: the device uses only pair 0 until told otherwise.
            ack = yield from self.send_ctrl_command(
                VIRTIO_NET_CTRL_MQ,
                VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET,
                self.queue_pairs.to_bytes(2, "little"),
            )
            if ack != 0:
                raise RuntimeError(f"{self.ifname}: VQ_PAIRS_SET rejected ({ack})")
        return self.netdev

    def ctrl_queue_index(self) -> int:
        """Queue index of the control queue (after all data pairs)."""
        return 2 * self.queue_pairs

    # -- transmit path -----------------------------------------------------------------

    def tx_has_room(self) -> bool:
        """Whether some transmitq can accept another frame right now.

        Conservative: completions pending in the used ring would free
        slots on the next xmit's opportunistic clean, so a ``False``
        here can be one clean away from ``True``.  Open-loop workload
        generators treat ``False`` as a qdisc-style tail drop.

        Honours any ``depth_limit`` installed on the transmitq (the
        overload layer's avail-ring bound) via :meth:`has_room`.

        Completions parked in the used ring count as room: the next
        xmit's opportunistic clean reclaims them before adding, so a
        full-looking ring with parked completions is one clean away
        from accepting a frame.  Without this, a generator that gates
        on ``tx_has_room`` wedges permanently once the ring fills --
        nothing cleans, so nothing ever frees (the deadlock the E-S1
        soak's recovery phase exposed).
        """
        for pair in range(self.queue_pairs):
            vq = self.transport.queue(tx_queue_index(pair))
            if vq.has_room(1) and self._tx_counts[pair] < TX_POOL_SIZE:
                return True
            if vq.has_used():
                return True
        return False

    def tx_depth_rejects(self) -> int:
        """Frames rejected by TX avail-ring depth bounds, over all pairs
        (the overload layer's bounded-queue drop counter)."""
        return sum(
            self.transport.queue(tx_queue_index(pair)).depth_rejects
            for pair in range(self.queue_pairs)
        )

    def _start_xmit(self, skb: Skb) -> Generator[Any, Any, None]:
        kernel = self.kernel
        if self.queue_pairs > 1:
            # RSS steering: same flow hash as the device's receive side,
            # so a flow's TX and RX live on the same pair.
            pair = steer(bytes(skb.data[:42]), self.queue_pairs)
        else:
            pair = 0
        self.tx_steered[pair] += 1
        vq = self.transport.queue(tx_queue_index(pair))

        # Opportunistically clean completed transmissions.
        while vq.has_used():
            elem = vq.get_used()
            assert elem is not None
            self._tx_counts[pair] -= 1
            self._pending[pair].pop(elem.head, None)
            yield kernel.cpu("virtio_get_buf")

        if not (vq.has_room(1) and self._tx_counts[pair] < TX_POOL_SIZE):
            # The ring (or the overload layer's depth bound) is still
            # full after the clean.  Linux would netif_stop_queue
            # earlier; our qdisc gate normally catches this, so this is
            # the defensive backstop -- drop with a counted reason
            # rather than corrupting ring state with an overflow add.
            self.tx_ring_drops += 1
            if self.netdev is not None:
                self.netdev.count_tx_drop("tx_ring_full")
            return

        header = VirtioNetHeader(num_buffers=0)
        if skb.ip_summed == CHECKSUM_PARTIAL:
            header = VirtioNetHeader(
                flags=VIRTIO_NET_HDR_F_NEEDS_CSUM,
                csum_start=skb.csum_start,
                csum_offset=skb.csum_offset,
                num_buffers=0,
            )
        buffer = self._tx_pools[pair][self._tx_slots[pair]]
        self._tx_slots[pair] = (self._tx_slots[pair] + 1) % TX_POOL_SIZE
        total = VIRTIO_NET_HDR_SIZE + len(skb.data)
        if total > buffer.size:
            raise RuntimeError(f"frame of {total}B exceeds TX buffer")
        # The skb's pages are already DMA-visible; placing the bytes in
        # the pool buffer models the header prepend + page mapping, whose
        # CPU cost is the virtio_add_buf segment.  Header and frame are
        # written separately so no concatenated intermediate is built.
        buffer.write(header.encode())
        buffer.write(skb.data, VIRTIO_NET_HDR_SIZE)
        yield kernel.cpu("virtio_add_buf")
        head = vq.add_buffer([(buffer.addr, total)], [])
        vq.publish()
        self._pending[pair][head] = (buffer.addr, total)
        self._tx_counts[pair] += 1
        # The single runtime doorbell (Section IV-A).
        self.tx_kicks += 1
        yield from self.transport.notify(tx_queue_index(pair))
        if self.injector is not None and not self._watchdog_armed:
            self._watchdog_armed = True
            self._watchdog_snapshot = self._used_idx_snapshot()
            self.kernel.sim.spawn(self._watchdog(), name=f"{self.ifname}.tx-watchdog")

    # -- receive path ---------------------------------------------------------------------

    def _rx_interrupt(self, pair: int = 0) -> Generator[Any, Any, None]:
        """Hard-IRQ half: acknowledge and schedule the pair's NAPI."""
        self.rx_irqs += 1
        yield self.kernel.cpu("driver_irq_ack")
        self.napis[pair].schedule()

    def _tx_interrupt(self) -> Generator[Any, Any, None]:
        """Transmitq interrupts are suppressed; a stray one (raised
        before suppression took effect) just gets acknowledged."""
        yield self.kernel.cpu("driver_irq_ack")

    def _rx_has_used(self, pair: int = 0) -> bool:
        return self.transport.queue(rx_queue_index(pair)).has_used()

    def _rx_irq_disable(self, pair: int = 0) -> None:
        self.transport.queue(rx_queue_index(pair)).set_avail_no_interrupt(True)

    def _rx_irq_enable(self, pair: int = 0) -> None:
        self.transport.queue(rx_queue_index(pair)).set_avail_no_interrupt(False)

    def _napi_poll(self, pair: int, budget: int) -> Generator[Any, Any, int]:
        """Harvest up to *budget* received frames from one pair."""
        kernel = self.kernel
        vq = self.transport.queue(rx_queue_index(pair))
        pool = self._rx_pools[pair]
        harvested = 0
        reposted = False
        while harvested < budget:
            elem = vq.get_used()
            if elem is None:
                break
            yield kernel.cpu("virtio_get_buf")
            buffer = pool.pop(elem.head)
            # The snapshot copy is required: the buffer is reposted
            # below and the device may DMA into it while the stack is
            # still parsing.  Everything downstream (frame, IP, UDP,
            # datagram) is a view of this one private snapshot.
            raw = buffer.read(0, elem.written)
            header = VirtioNetHeader.decode(raw)
            frame = memoryview(raw)[VIRTIO_NET_HDR_SIZE:]
            skb = Skb(data=frame)
            if header.flags & VIRTIO_NET_HDR_F_DATA_VALID:
                skb.ip_summed = CHECKSUM_UNNECESSARY

            # Repost the buffer before processing (try_fill_recv).
            yield kernel.cpu("virtio_add_buf")
            head = vq.add_buffer([], [(buffer.addr, RX_BUFFER_SIZE)])
            pool[head] = buffer
            reposted = True

            assert self.netdev is not None
            yield from self.stack.netif_receive(self.netdev, skb)
            harvested += 1
        if reposted:
            vq.publish()
            yield from self.transport.notify(rx_queue_index(pair))
        return harvested

    # -- fault recovery ---------------------------------------------------------------------

    def _used_idx_snapshot(self) -> List[int]:
        return [
            self.transport.queue(tx_queue_index(pair)).device_used_idx()
            for pair in range(self.queue_pairs)
        ]

    def _watchdog(self) -> Generator[Any, Any, None]:
        """TX watchdog (the model's ``ndo_tx_timeout`` path): while
        transmissions are pending, check that the device keeps making
        used-ring progress on every pair.  A stalled queue is re-kicked
        a bounded number of times (recovers lost doorbells), then
        escalated to a full device reset.  All checks are pure
        ring-memory reads, so an idle watchdog never perturbs the
        simulation's RNG streams."""
        try:
            while True:
                yield self.kernel.sim.timeout(
                    ns(self.watchdog_timeout_ns), name=f"{self.ifname}.watchdog"
                )
                if self._recovering or not any(self._pending):
                    return
                snapshot = self._used_idx_snapshot()
                stalled = [
                    pair
                    for pair in range(self.queue_pairs)
                    if self._pending[pair]
                    and snapshot[pair] == self._watchdog_snapshot[pair]
                ]
                if not stalled:
                    # Progress since the last check: healthy.
                    self._watchdog_snapshot = snapshot
                    self._watchdog_kicks = 0
                    if self._stall_started_at is not None:
                        self.recovery_latencies_ps.append(
                            self.kernel.sim.now - self._stall_started_at
                        )
                        self._stall_started_at = None
                    continue
                if all(
                    self.transport.queue(tx_queue_index(pair)).has_used()
                    for pair in stalled
                ):
                    # Completions are parked in the used ring waiting for
                    # the next xmit's opportunistic clean -- host-side
                    # laziness, not a device stall (and the normal state
                    # once traffic ends).
                    return
                self.watchdog_stalls += 1
                if self._stall_started_at is None:
                    self._stall_started_at = self.kernel.sim.now
                if self._watchdog_kicks < self.max_watchdog_kicks:
                    self._watchdog_kicks += 1
                    self.watchdog_rekicks += 1
                    for pair in stalled:
                        if not self.transport.queue(tx_queue_index(pair)).has_used():
                            yield from self.transport.notify(tx_queue_index(pair))
                    continue
                self._watchdog_kicks = 0
                self._begin_recovery()
                return
        finally:
            self._watchdog_armed = False

    def _config_interrupt(self) -> Generator[Any, Any, None]:
        """Configuration-change ISR: on DEVICE_NEEDS_RESET, schedule the
        reset/re-negotiation work outside the hard-IRQ path."""
        yield self.kernel.cpu("driver_irq_ack")
        yield from self.transport.isr_read()  # read-to-clear
        status = yield from self.transport.read_device_status()
        if status & STATUS_DEVICE_NEEDS_RESET:
            self.needs_reset_seen += 1
            self._begin_recovery()

    def _begin_recovery(self) -> None:
        if self._recovering:
            return
        self._recovering = True
        self.kernel.sim.spawn(self._recover(), name=f"{self.ifname}.reset-recovery")

    def _recover(self) -> Generator[Any, Any, None]:
        """Reset the device and drive the full 3.1.1 re-initialization,
        then restore runtime state: RX refill from the persistent buffer
        pools and replay of every in-flight TX chain (their pool buffers
        still hold the frames), so no packet is lost across the reset."""
        start = self._stall_started_at
        if start is None:
            start = self.kernel.sim.now
        self._stall_started_at = None
        self.device_resets += 1
        transport = self.transport
        # Harvest completions parked in the used rings first: a chain the
        # device already consumed must not be replayed (it would arrive
        # twice), only chains still genuinely in flight.
        pending: List[List[tuple]] = []
        for pair in range(self.queue_pairs):
            old_tx = transport.queue(tx_queue_index(pair))
            while old_tx.has_used():
                elem = old_tx.get_used()
                assert elem is not None
                self._tx_counts[pair] -= 1
                self._pending[pair].pop(elem.head, None)
                yield self.kernel.cpu("virtio_get_buf")
            pending.append(list(self._pending[pair].values()))  # FIFO order
            self._pending[pair].clear()
            self._tx_counts[pair] = 0
        for index in range(len(transport.virtqueues)):
            transport.unbind_queue_interrupt(index)
        rx_pools = [list(pool.values()) for pool in self._rx_pools]
        for pool in self._rx_pools:
            pool.clear()
        transport.reset_runtime_state()
        yield from transport.initialize(DRIVER_SUPPORTED)
        for pair in range(self.queue_pairs):
            transport.bind_queue_interrupt(
                rx_queue_index(pair), partial(self._rx_interrupt, pair)
            )
            transport.bind_queue_interrupt(tx_queue_index(pair), self._tx_interrupt)
        ctrl_index = self.ctrl_queue_index()
        if self.has_ctrl_vq and len(transport.virtqueues) > ctrl_index:
            transport.bind_queue_interrupt(ctrl_index, self._ctrl_interrupt)
        for pair in range(self.queue_pairs):
            transport.queue(tx_queue_index(pair)).set_avail_no_interrupt(True)
        for pair in range(self.queue_pairs):
            rx_vq = transport.queue(rx_queue_index(pair))
            for buffer in rx_pools[pair]:
                head = rx_vq.add_buffer([], [(buffer.addr, RX_BUFFER_SIZE)])
                self._rx_pools[pair][head] = buffer
            rx_vq.publish()
            yield from transport.notify(rx_queue_index(pair))
        if self.queue_pairs > 1:
            # The reset dropped the device back to one active pair.
            yield from self.send_ctrl_command(
                VIRTIO_NET_CTRL_MQ,
                VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET,
                self.queue_pairs.to_bytes(2, "little"),
            )
        replayed = False
        for pair in range(self.queue_pairs):
            tx_vq = transport.queue(tx_queue_index(pair))
            for addr, length in pending[pair]:
                yield self.kernel.cpu("virtio_add_buf")
                head = tx_vq.add_buffer([(addr, length)], [])
                self._pending[pair][head] = (addr, length)
                self._tx_counts[pair] += 1
            if pending[pair]:
                tx_vq.publish()
                self.tx_kicks += 1
                replayed = True
                yield from self.transport.notify(tx_queue_index(pair))
        self.recovery_latencies_ps.append(self.kernel.sim.now - start)
        self._recovering = False
        if replayed and not self._watchdog_armed:
            # Keep watching the replayed chains (their kick could itself
            # be swallowed by a lost-notification fault).
            self._watchdog_armed = True
            self._watchdog_snapshot = self._used_idx_snapshot()
            self.kernel.sim.spawn(self._watchdog(), name=f"{self.ifname}.tx-watchdog")

    # -- control queue ----------------------------------------------------------------------

    def _ctrl_interrupt(self) -> Generator[Any, Any, None]:
        yield self.kernel.cpu("driver_irq_ack")
        vq = self.transport.queue(self.ctrl_queue_index())
        while True:
            elem = vq.get_used()
            if elem is None:
                break
            yield self.kernel.cpu("virtio_get_buf")
            if self._ctrl_pending is not None and not self._ctrl_pending.triggered:
                self._ctrl_pending.trigger(None)

    def send_ctrl_command(self, cls: int, cmd: int,
                          data: bytes = b"") -> Generator[Any, Any, int]:
        """Issue one control-queue command; returns the device's ack
        byte (0 = VIRTIO_NET_OK).  Commands are serialized (the kernel
        holds the RTNL lock on this path)."""
        if not self.has_ctrl_vq:
            raise RuntimeError("control queue not negotiated")
        from repro.sim.event import Event

        kernel = self.kernel
        assert self._ctrl_buf is not None and self._ctrl_status is not None
        if self._ctrl_pending is not None and not self._ctrl_pending.triggered:
            raise RuntimeError("concurrent control commands not supported")
        payload = bytes([cls, cmd]) + data
        self._ctrl_buf.write(payload)
        yield kernel.cpu("virtio_add_buf")
        vq = self.transport.queue(self.ctrl_queue_index())
        vq.add_buffer([(self._ctrl_buf.addr, len(payload))],
                      [(self._ctrl_status.addr, 1)])
        vq.publish()
        self._ctrl_pending = Event(name=f"{self.ifname}.ctrl")
        yield from self.transport.notify(self.ctrl_queue_index())
        yield from kernel.block_on(self._ctrl_pending)
        self.ctrl_commands += 1
        return self._ctrl_status.read(0, 1)[0]
