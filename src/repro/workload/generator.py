"""Open- and closed-loop traffic generators.

This module is the only code that issues, times and accounts traffic.
It has three loops:

* the **closed loop** (:class:`ClosedLoopGenerator`) keeps exactly N
  requests outstanding: N workers, each send-wait-receive.  One body
  serves both drivers; a small per-driver *exchange* step does
  ``sendto``/``recvfrom`` on VirtIO and ``write``/(``poll``)/``read``
  on XDMA.  At N = 1 it *is* the paper's ping-pong measurement loop
  (Section III-B3: timestamp, send, wait for the echo, timestamp,
  ``app_work`` think time), which
  :func:`repro.core.latency.run_payload` wraps with the FPGA counter
  collection; at N = window it is the pipelined-load extension (X1).
  On a testbed with a guest VMM the loop also snapshots the VMM's trap
  accumulator around each round trip (a plain attribute read, so it
  changes no event);
* the **VirtIO open-loop flow** (:class:`VirtioFlow`) injects at the
  arrival process's offered rate *regardless of completions* -- the
  device cannot slow the source down, so queue buildup, drops, and
  saturation become visible.  Injections that find no transmit room
  are tail-dropped (the qdisc / full-software-queue analogue) and
  counted; an injector running behind its own schedule counts
  backpressure events.  Latency samples measure completion minus the
  *intended* arrival instant, avoiding coordinated omission.
  :class:`OpenLoopGenerator` runs one flow; each fleet tenant
  (:func:`repro.topology.experiments.run_fleet_pod`) is one more, with
  a lane tag;
* the **XDMA open loop** dispatches to two service threads fed from a
  bounded software job queue (:class:`OpenLoopGenerator` on an XDMA
  testbed).

**Overload bounds.**  An
:class:`~repro.workload.admission.OverloadConfig` passed to the
open-loop generator arms its end-to-end admission window
(``admission_limit``), bounds the receive backlog of the socket the
flow opens (``socket_rx_limit``) and sizes the XDMA job queue
(``xdma_queue_limit``); the per-hop bounds inside the stack are
installed on the testbed by
:func:`~repro.health.bounded.apply_overload_bounds`.  A
:class:`~repro.health.ConservationMonitor` may ride along to assert
the exactly-once ledger (admitted = delivered + dropped-with-reason).
Every refused or lost packet is terminally recorded with a reason:
``admission_limit``, ``txq_full`` (full transmit ring), ``queue_full``
(full job queue), ``driver_busy`` (the XDMA driver's pending window
refused the call) or ``retries_exhausted`` (the XDMA driver's own
retries ran out); every admitted packet that is lost -- those last
two, and an echo the socket backlog tail-drops -- returns its
admission slot.  Both hooks are pure bookkeeping: a ``None`` config
and ``None`` monitor leave runs bit-identical to unprotected ones (no
extra yields, no RNG draws).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.calibration import FPGA_IP, TEST_DST_PORT, xdma_transfer_size
from repro.drivers.xdma import XdmaBusyError, XdmaTransferError
from repro.health.bounded import BoundedQueue
from repro.health.monitor import ConservationMonitor
from repro.host.chardev import sys_poll, sys_read, sys_write
from repro.host.netstack.sockets import SOCKET_RX_OVERFLOW
from repro.sim.event import Event
from repro.sim.time import NS, SimTime
from repro.workload.admission import AdmissionController, OverloadConfig
from repro.workload.arrivals import ArrivalProcess
from repro.workload.metrics import RunMetrics, RunRecorder
from repro.workload.sizes import SizeDistribution

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.testbed import VirtioTestbed, XdmaTestbed
    from repro.host.netstack.sockets import UdpSocket
    from repro.sim.kernel import Simulator

#: UDP source port of the open-loop generator socket.
OPEN_LOOP_PORT = 48000
#: First UDP source port of the closed-loop worker sockets.
CLOSED_LOOP_PORT_BASE = 48100

#: Named simulator RNG streams (independent of every model stream, so
#: attaching a workload never perturbs the calibrated noise draws).
ARRIVAL_STREAM = "workload.arrivals"
SIZE_STREAM = "workload.sizes"

#: Open-loop XDMA: job-queue capacity unless ``xdma_queue_limit`` is set...
XDMA_JOB_QUEUE_LIMIT = 128
#: ...and the ``write()``/``read()`` service threads draining it.
XDMA_SERVICE_WORKERS = 2


class WorkloadError(RuntimeError):
    """Generator misconfiguration or broken run invariants."""


#: Two periods of the byte ramp 0..255: every window of up to 256
#: bytes starting at any byte value is one slice of it.
_RAMP = bytes(range(256)) * 2


def _ramp(first: int, period: int, size: int) -> bytes:
    """*size* bytes counting up (mod 256) from ``first & 0xFF`` and
    starting over every *period* bytes (1 <= *period* <= 256)."""
    start = first & 0xFF
    window = _RAMP[start:start + period]
    if size <= period:
        return window[:size]
    return (window * (size // period + 1))[:size]


def _test_payload(size: int, sequence: int) -> bytes:
    """The closed loop's deterministic payload pattern (sequence-stamped):
    byte *i* is ``(sequence + i % 16) & 0xFF``."""
    return _ramp(sequence, 16, size)


def _stamp(sequence: int, size: int) -> bytes:
    """A *size*-byte payload carrying its sequence number in the first
    four bytes (how open-loop completions are matched back to
    injections); body byte *i* is ``(sequence + i) & 0xFF``."""
    if size < 4:
        raise WorkloadError(f"payload of {size}B cannot carry a sequence stamp")
    return sequence.to_bytes(4, "little") + _ramp(sequence, 256, size - 4)


def _sequence_of(payload: bytes) -> int:
    return int.from_bytes(payload[:4], "little")


def _split_counts(total: int, workers: int) -> List[int]:
    """Distribute *total* requests across *workers* loops."""
    base, extra = divmod(total, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def _drop(
    recorder: RunRecorder,
    monitor: Optional[ConservationMonitor],
    now_ps: SimTime,
    seq: int,
    reason: str,
    lane: Optional[str] = None,
) -> None:
    """Terminally drop packet *seq* for *reason*, everywhere at once."""
    recorder.record_drop(now_ps, reason)
    if monitor is not None:
        monitor.drop(seq, reason, lane=lane)


def _lose(
    recorder: RunRecorder,
    monitor: Optional[ConservationMonitor],
    now_ps: SimTime,
    seq: int,
    reason: str,
) -> None:
    """:func:`_drop` for packet *seq*, already recorded as sent."""
    recorder.record_loss(now_ps, reason)
    if monitor is not None:
        monitor.drop(seq, reason)


def note_virtio_hops(monitor: Optional[ConservationMonitor], sockets, drivers) -> None:
    """Feed the stack's hop-level drop counters to the monitor so the
    end-of-run reconciliation can attribute leftover in-flight packets
    (e.g. echoes tail-dropped at the socket backlog)."""
    if monitor is None:
        return
    for socket in sockets:
        monitor.note_hop_drops("socket_rx", socket.rx_dropped)
    for driver in drivers:
        netdev = driver.netdev
        if netdev is not None:
            for reason, count in netdev.tx_dropped.items():
                monitor.note_hop_drops(f"netdev_tx:{reason}", count)
        monitor.note_hop_drops("virtqueue_depth", driver.tx_depth_rejects())


# -- the VirtIO open-loop flow -------------------------------------------------


class VirtioFlow:
    """One open-loop UDP flow on its own socket.

    :meth:`injector` sends packet ``first_seq + i`` at the *i*-th
    instant of the pre-drawn arrival schedule; :meth:`collector`
    matches echoes back to injections.  The caller spawns both (spawn
    order decides event order, so each caller keeps its own), drives
    the simulator, and freezes the flow with :meth:`finish`.

    *has_room* is the transmit path's room check (a full ring is a
    ``txq_full`` tail drop); *lane* tags every ledger entry of the
    flow (fleet tenants).
    """

    def __init__(
        self,
        sim: "Simulator",
        socket: "UdpSocket",
        recorder: RunRecorder,
        gaps: Sequence[int],
        sizes: Sequence[int],
        has_room: Callable[[], bool],
        dst_ip: int = FPGA_IP,
        admission: Optional[AdmissionController] = None,
        monitor: Optional[ConservationMonitor] = None,
        lane: Optional[str] = None,
        first_seq: int = 0,
    ) -> None:
        self.sim = sim
        self.socket = socket
        self.recorder = recorder
        self.gaps = gaps
        self.sizes = sizes
        self.has_room = has_room
        self.dst_ip = dst_ip
        self.admission = admission
        self.monitor = monitor
        self.lane = lane
        self.first_seq = first_seq
        self.deadlines: Dict[int, SimTime] = {}  # seq -> intended arrival instant
        socket.on_rx_drop = self._echo_lost

    def injector(self) -> Generator[Any, Any, None]:
        sim, recorder, monitor = self.sim, self.recorder, self.monitor
        admission, lane = self.admission, self.lane
        next_t = sim.now
        for i in range(len(self.gaps)):
            seq = self.first_seq + i
            next_t += int(self.gaps[i])
            if sim.now < next_t:
                yield next_t - sim.now
            else:
                # Fell behind the offered schedule (injector CPU is
                # the bottleneck at this rate): inject immediately.
                recorder.record_backpressure()
            if admission is not None and not admission.try_admit():
                _drop(recorder, monitor, sim.now, seq, "admission_limit", lane)
                continue
            if not self.has_room():
                # Transmit ring full: the qdisc analogue tail-drops.
                if admission is not None:
                    admission.release()
                _drop(recorder, monitor, sim.now, seq, "txq_full", lane)
                continue
            self.deadlines[seq] = next_t
            recorder.record_send(sim.now)
            if monitor is not None:
                monitor.admit(seq, lane=lane)
            yield from self.socket.sendto(
                _stamp(seq, int(self.sizes[i])), self.dst_ip, TEST_DST_PORT
            )

    def collector(self) -> Generator[Any, Any, None]:
        sim, recorder, monitor = self.sim, self.recorder, self.monitor
        while True:
            data, _source = yield from self.socket.recvfrom()
            seq = _sequence_of(data)
            arrival = self.deadlines.pop(seq, None)
            if arrival is None:
                raise WorkloadError(f"echo completion for unknown sequence {seq}")
            recorder.record_complete(sim.now, sim.now - arrival)
            if monitor is not None:
                monitor.deliver(seq)
            if self.admission is not None:
                self.admission.release()

    def _echo_lost(self) -> None:
        """The socket backlog tail-dropped an echo: its packet was sent
        and is lost, and its admission slot is free again (the monitor
        reconciles the loss from the socket's hop counter)."""
        self.recorder.record_loss(self.sim.now, SOCKET_RX_OVERFLOW)
        if self.admission is not None:
            self.admission.release()

    def finish(self, **kwargs: Any) -> RunMetrics:
        """Close the socket and freeze the flow's metrics."""
        self.socket.close()
        return self.recorder.finish(**kwargs)


class OpenLoopGenerator:
    """Inject *packets* requests at the arrival process's offered rate.

    Parameters
    ----------
    arrivals:
        The offered-rate arrival process.
    sizes:
        Payload-size distribution (UDP payload bytes; the XDMA path
        converts to wire-matched transfer sizes, Section IV-B).
    packets:
        Total injection attempts.
    overload:
        Optional overload bounds: the end-to-end admission window, the
        flow socket's receive backlog (VirtIO) and the job-queue
        capacity (XDMA; default :data:`XDMA_JOB_QUEUE_LIMIT`; arrivals
        beyond it are tail-dropped).
    monitor:
        Optional conservation ledger driven alongside the recorder.
    """

    mode = "open"

    def __init__(
        self,
        arrivals: ArrivalProcess,
        sizes: SizeDistribution,
        packets: int,
        overload: Optional[OverloadConfig] = None,
        monitor: Optional[ConservationMonitor] = None,
    ) -> None:
        if packets <= 0:
            raise WorkloadError(f"packets must be positive, got {packets}")
        self.arrivals = arrivals
        self.sizes = sizes
        self.packets = packets
        self.overload = overload
        self.monitor = monitor

    def run(self, testbed: "VirtioTestbed | XdmaTestbed") -> RunMetrics:
        """Drive *testbed* to completion and return the run metrics."""
        from repro.core.testbed import VirtioTestbed, XdmaTestbed

        if isinstance(testbed, VirtioTestbed):
            return self._run_virtio(testbed)
        if isinstance(testbed, XdmaTestbed):
            return self._run_xdma(testbed)
        raise TypeError(f"unknown testbed type {type(testbed).__name__}")

    def _admission(self) -> Optional[AdmissionController]:
        limit = self.overload.admission_limit if self.overload is not None else None
        return AdmissionController(limit) if limit is not None else None

    def _draw_schedule(self, testbed) -> Tuple[np.ndarray, np.ndarray]:
        """Pre-draw gaps and sizes from the named simulator streams, so
        the schedule is fixed before any model event interleaves."""
        gaps = self.arrivals.intervals(testbed.sim.rng(ARRIVAL_STREAM), self.packets)
        sizes = self.sizes.sample_many(testbed.sim.rng(SIZE_STREAM), self.packets)
        return gaps, sizes

    # -- VirtIO ----------------------------------------------------------------

    def _run_virtio(self, testbed: "VirtioTestbed") -> RunMetrics:
        sim = testbed.sim
        admission = self._admission()
        gaps, sizes = self._draw_schedule(testbed)
        socket = testbed.open_socket(OPEN_LOOP_PORT)
        if self.overload is not None and self.overload.socket_rx_limit is not None:
            socket.rx_queue_limit = self.overload.socket_rx_limit
        flow = VirtioFlow(
            sim, socket, RunRecorder("virtio", self.mode), gaps, sizes,
            has_room=testbed.tx_has_room, admission=admission, monitor=self.monitor,
        )
        sim.spawn(flow.collector(), name="workload-rx")
        done = sim.spawn(flow.injector(), name="workload-tx")
        sim.run_until_triggered(done)
        sim.run()  # drain in-flight echoes
        note_virtio_hops(self.monitor, [socket], [testbed.driver])
        return flow.finish(offered_pps=self.arrivals.rate_pps)

    # -- XDMA ------------------------------------------------------------------

    def _run_xdma(self, testbed: "XdmaTestbed") -> RunMetrics:
        sim = testbed.sim
        kernel = testbed.kernel
        driver = testbed.driver
        use_poll = testbed.profile.xdma_c2h_interrupt
        recorder = RunRecorder("xdma", self.mode)
        monitor = self.monitor
        admission = self._admission()
        queue_limit = XDMA_JOB_QUEUE_LIMIT
        if self.overload is not None and self.overload.xdma_queue_limit is not None:
            queue_limit = self.overload.xdma_queue_limit
        gaps, sizes = self._draw_schedule(testbed)
        # (seq, transfer bytes, intended arrival); counting stays with
        # the recorder -- the queue object only enforces the bound.
        jobs = BoundedQueue(capacity=queue_limit, name="xdma-jobs",
                            drop_reason="queue_full")
        idle: List[Event] = []
        state = {"dispatched": False}

        def dispatcher() -> Generator[Any, Any, None]:
            next_t = sim.now
            for seq in range(self.packets):
                next_t += int(gaps[seq])
                if sim.now < next_t:
                    yield next_t - sim.now
                else:
                    recorder.record_backpressure()
                if admission is not None and not admission.try_admit():
                    _drop(recorder, monitor, sim.now, seq, "admission_limit")
                    continue
                if not jobs.has_room():
                    if admission is not None:
                        admission.release()
                    _drop(recorder, monitor, sim.now, seq, "queue_full")
                    continue
                jobs.try_push((seq, xdma_transfer_size(int(sizes[seq])), next_t))
                recorder.record_send(sim.now)
                if monitor is not None:
                    monitor.admit(seq)
                if idle:
                    idle.pop().trigger(None)
            state["dispatched"] = True
            for event in list(idle):
                event.trigger(None)
            idle.clear()

        def service() -> Generator[Any, Any, None]:
            while True:
                if jobs:
                    seq, transfer, arrival = jobs.popleft()
                    payload = bytes(transfer)
                    try:
                        written = yield from sys_write(kernel, driver, payload)
                        if written != transfer:
                            raise WorkloadError(f"short write: {written} of {transfer}")
                        if use_poll:
                            yield from sys_poll(kernel, driver)
                        data = yield from sys_read(kernel, driver, transfer)
                        if len(data) != transfer:
                            raise WorkloadError(f"short read: {len(data)} of {transfer}")
                    except XdmaBusyError:
                        # Reject-to-caller from the driver's bounded window.
                        _lose(recorder, monitor, sim.now, seq, "driver_busy")
                    except XdmaTransferError:
                        # The driver's own retries ran out: terminal.
                        _lose(recorder, monitor, sim.now, seq, "retries_exhausted")
                    else:
                        recorder.record_complete(sim.now, sim.now - arrival)
                        if monitor is not None:
                            monitor.deliver(seq)
                    if admission is not None:
                        admission.release()
                elif state["dispatched"]:
                    return
                else:
                    event = sim.event("workload-idle")
                    idle.append(event)
                    yield event

        workers = [
            sim.spawn(service(), name=f"workload-svc{i}")
            for i in range(XDMA_SERVICE_WORKERS)
        ]
        done = sim.spawn(dispatcher(), name="workload-dispatch")
        sim.run_until_triggered(done)
        for worker in workers:
            sim.run_until_triggered(worker)
        sim.run()
        if monitor is not None:
            monitor.note_hop_drops("xdma_busy_rejects", driver.busy_rejects)
        return recorder.finish(offered_pps=self.arrivals.rate_pps)


# -- the closed loop -----------------------------------------------------------


def _virtio_exchange(testbed: "VirtioTestbed", worker: int):
    """VirtIO's round-trip step: ``sendto`` + ``recvfrom`` on the
    worker's own socket (the echo swaps ports, so each worker's
    responses demux back to its own receive queue).  Returns the step
    and the socket."""
    socket = testbed.open_socket(CLOSED_LOOP_PORT_BASE + worker)

    def exchange(payload: bytes) -> Generator[Any, Any, bytes]:
        yield from socket.sendto(payload, FPGA_IP, TEST_DST_PORT)
        data, _source = yield from socket.recvfrom()
        return data

    return exchange, socket


def _xdma_exchange(testbed: "XdmaTestbed", worker: int):
    """XDMA's round-trip step: ``write()`` then ``read()`` of the same
    byte count on the character device, back-to-back without an
    interposed device interrupt (the paper's arrangement, Section IV-C)
    unless the profile enables the C2H interrupt, which adds a
    ``poll()``.  Returns the step and no socket."""
    kernel = testbed.kernel
    driver = testbed.driver
    use_poll = testbed.profile.xdma_c2h_interrupt

    def exchange(payload: bytes) -> Generator[Any, Any, bytes]:
        written = yield from sys_write(kernel, driver, payload)
        if written != len(payload):
            raise WorkloadError(f"short write: {written} of {len(payload)}")
        if use_poll:
            yield from sys_poll(kernel, driver)
        data = yield from sys_read(kernel, driver, len(payload))
        return data

    return exchange, None


class ClosedLoopGenerator:
    """Keep exactly *outstanding* requests in flight until *packets*
    round trips complete."""

    mode = "closed"

    def __init__(
        self,
        outstanding: int,
        sizes: SizeDistribution,
        packets: int,
    ) -> None:
        if outstanding <= 0:
            raise WorkloadError(f"outstanding must be positive, got {outstanding}")
        if packets < outstanding:
            raise WorkloadError(
                f"need packets >= outstanding, got {packets} < {outstanding}"
            )
        self.outstanding = outstanding
        self.sizes = sizes
        self.packets = packets

    def run(self, testbed: "VirtioTestbed | XdmaTestbed") -> RunMetrics:
        """Drive *testbed* until every worker is done and return the
        run metrics.  There is no trailing drain: like the paper's
        ping-pong, the run ends with the last round trip."""
        from repro.core.testbed import VirtioTestbed, XdmaTestbed

        if isinstance(testbed, VirtioTestbed):
            driver, wire_size, exchange_for = "virtio", int, _virtio_exchange
        elif isinstance(testbed, XdmaTestbed):
            # The UDP payload size labels the run; the transfer moves the
            # wire-equivalent byte count (Section IV-B).
            driver, wire_size, exchange_for = "xdma", xdma_transfer_size, _xdma_exchange
        else:
            raise TypeError(f"unknown testbed type {type(testbed).__name__}")
        sim = testbed.sim
        kernel = testbed.kernel
        vmm = testbed.vmm
        recorder = RunRecorder(driver, self.mode)
        sizes = self.sizes.sample_many(sim.rng(SIZE_STREAM), self.packets)
        traps: List[int] = []

        def worker(exchange, first: int, count: int) -> Generator[Any, Any, None]:
            for seq in range(first, first + count):
                payload = _test_payload(wire_size(int(sizes[seq])), seq)
                recorder.record_send(sim.now)
                yield kernel.clock.call_cost()
                t0_ns = kernel.gettime_ns()
                if vmm is not None:
                    trap0 = vmm.trap_ps
                try:
                    data = yield from exchange(payload)
                except XdmaBusyError:
                    recorder.record_loss(sim.now, "driver_busy")
                    continue
                except XdmaTransferError:
                    recorder.record_loss(sim.now, "retries_exhausted")
                    continue
                yield kernel.clock.call_cost()
                t1_ns = kernel.gettime_ns()
                if len(data) != len(payload):
                    raise WorkloadError(
                        f"echo size mismatch: sent {len(payload)}B, got {len(data)}B"
                    )
                recorder.record_complete(sim.now, (t1_ns - t0_ns) * NS)
                if vmm is not None:
                    traps.append(vmm.trap_ps - trap0)
                yield kernel.cpu("app_work")

        sockets = []
        processes = []
        first = 0
        for i, count in enumerate(_split_counts(self.packets, self.outstanding)):
            exchange, socket = exchange_for(testbed, i)
            if socket is not None:
                sockets.append(socket)
            processes.append(
                sim.spawn(worker(exchange, first, count), name=f"workload-cl{i}")
            )
            first += count
        for process in processes:
            sim.run_until_triggered(process)
        for socket in sockets:
            socket.close()
        return recorder.finish(
            outstanding=self.outstanding,
            trap_ps=traps if vmm is not None else None,
        )
