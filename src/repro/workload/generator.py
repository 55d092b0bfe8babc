"""Open- and closed-loop traffic generators.

Two loop disciplines, the load-testing classics:

* :class:`OpenLoopGenerator` injects at the arrival process's offered
  rate *regardless of completions* -- the device cannot slow the
  source down, so queue buildup, drops, and saturation become visible.
  Injections that find no transmit room are tail-dropped (the qdisc /
  full-software-queue analogue) and counted; an injector running
  behind its own schedule counts backpressure events.  Latency samples
  measure completion minus the *intended* arrival instant, avoiding
  coordinated omission.

* :class:`ClosedLoopGenerator` keeps exactly N requests outstanding:
  N worker loops, each send-wait-receive.  With ``outstanding=1`` the
  worker body replicates the paper's ping-pong measurement loop
  statement for statement (timestamp syscalls, echo, ``app_work``
  think time), so the workload engine degenerates to
  :func:`repro.core.latency.run_latency_sweep` -- the built-in
  consistency check the calibration tests pin down.

Both generators run on either testbed: the VirtIO path drives UDP
sockets through the full network stack; the XDMA path drives
``write()``/``read()`` pairs on the character device (with ``poll()``
when the profile enables the C2H interrupt).  The open-loop XDMA path
dispatches to two service threads fed from a bounded software job
queue.

**Overload bounds.**  An
:class:`~repro.workload.admission.OverloadConfig` passed to the
open-loop generator arms its end-to-end admission window
(``admission_limit``) and sizes the XDMA job queue
(``xdma_queue_limit``); the per-hop bounds inside the stack are
installed on the testbed by
:func:`~repro.health.bounded.apply_overload_bounds`.  A
:class:`~repro.health.ConservationMonitor` may ride along to assert
the exactly-once ledger (admitted = delivered + dropped-with-reason).
Every refused or lost packet is terminally recorded with a reason:
``admission_limit``, ``txq_full`` (full transmit ring), ``queue_full``
(full job queue), ``driver_busy`` (the XDMA driver's pending window
refused the call) or ``retries_exhausted`` (the XDMA driver's own
retries ran out).  Both hooks are pure bookkeeping: a ``None`` config
and ``None`` monitor leave runs bit-identical to unprotected ones (no
extra yields, no RNG draws).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.core.calibration import FPGA_IP, TEST_DST_PORT, xdma_transfer_size
from repro.drivers.xdma import XdmaBusyError, XdmaTransferError
from repro.health.bounded import BoundedQueue
from repro.health.monitor import ConservationMonitor
from repro.host.chardev import sys_poll, sys_read, sys_write
from repro.sim.event import Event
from repro.sim.time import NS, SimTime
from repro.workload.admission import AdmissionController, OverloadConfig
from repro.workload.arrivals import ArrivalProcess
from repro.workload.metrics import RunMetrics, RunRecorder
from repro.workload.sizes import SizeDistribution

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.testbed import VirtioTestbed, XdmaTestbed

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


def _stamp(sequence: int, size: int) -> bytes:
    """A *size*-byte payload carrying its sequence number in the first
    four bytes (how completions are matched back to injections)."""
    if size < 4:
        raise WorkloadError(f"payload of {size}B cannot carry a sequence stamp")
    head = sequence.to_bytes(4, "little")
    body = bytes(((sequence + i) & 0xFF) for i in range(size - 4))
    return head + body


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
) -> None:
    """Terminally drop packet *seq* for *reason*, everywhere at once."""
    recorder.record_drop(now_ps, reason)
    if monitor is not None:
        monitor.drop(seq, reason)


def _harvest_virtio_hops(testbed: "VirtioTestbed", socket,
                         monitor: Optional[ConservationMonitor]) -> None:
    """Feed the stack's hop-level drop counters to the monitor so the
    end-of-run reconciliation can attribute leftover in-flight packets
    (e.g. echoes tail-dropped at the socket backlog)."""
    if monitor is None:
        return
    monitor.note_hop_drops("socket_rx", socket.rx_dropped)
    netdev = testbed.driver.netdev
    if netdev is not None:
        for reason, count in netdev.tx_dropped.items():
            monitor.note_hop_drops(f"netdev_tx:{reason}", count)
    monitor.note_hop_drops("virtqueue_depth", testbed.driver.tx_depth_rejects())


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
        Optional overload bounds: the end-to-end admission window and,
        XDMA only, the job-queue capacity (default
        :data:`XDMA_JOB_QUEUE_LIMIT`; arrivals beyond it are
        tail-dropped).
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
        recorder = RunRecorder("virtio", self.mode)
        monitor = self.monitor
        admission = self._admission()
        gaps, sizes = self._draw_schedule(testbed)
        socket = testbed.open_socket(OPEN_LOOP_PORT)
        deadlines: Dict[int, SimTime] = {}  # seq -> intended arrival instant

        def injector() -> Generator[Any, Any, None]:
            next_t = sim.now
            for seq in range(self.packets):
                next_t += int(gaps[seq])
                if sim.now < next_t:
                    yield next_t - sim.now
                else:
                    # Fell behind the offered schedule (injector CPU is
                    # the bottleneck at this rate): inject immediately.
                    recorder.record_backpressure()
                if admission is not None and not admission.try_admit():
                    _drop(recorder, monitor, sim.now, seq, "admission_limit")
                    continue
                if not testbed.tx_has_room():
                    # Transmit ring full: the qdisc analogue tail-drops.
                    if admission is not None:
                        admission.release()
                    _drop(recorder, monitor, sim.now, seq, "txq_full")
                    continue
                deadlines[seq] = next_t
                recorder.record_send(sim.now)
                if monitor is not None:
                    monitor.admit(seq)
                yield from socket.sendto(
                    _stamp(seq, int(sizes[seq])), FPGA_IP, TEST_DST_PORT
                )

        def collector() -> Generator[Any, Any, None]:
            while True:
                data, _source = yield from socket.recvfrom()
                seq = _sequence_of(data)
                arrival = deadlines.pop(seq, None)
                if arrival is None:
                    raise WorkloadError("echo completion for unknown sequence")
                recorder.record_complete(sim.now, sim.now - arrival)
                if monitor is not None:
                    monitor.deliver(seq)
                if admission is not None:
                    admission.release()

        sim.spawn(collector(), name="workload-rx")
        done = sim.spawn(injector(), name="workload-tx")
        sim.run_until_triggered(done)
        sim.run()  # drain in-flight echoes
        _harvest_virtio_hops(testbed, socket, monitor)
        socket.close()
        return recorder.finish(
            offered_pps=self.arrivals.rate_pps,
            extra_drops=socket.rx_dropped,
            extra_drop_reasons=socket.rx_drop_reasons,
        )

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
                        _drop(recorder, monitor, sim.now, seq, "driver_busy")
                        continue
                    except XdmaTransferError:
                        # The driver's own retries ran out: terminal.
                        _drop(recorder, monitor, sim.now, seq, "retries_exhausted")
                        continue
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
        from repro.core.testbed import VirtioTestbed, XdmaTestbed

        if isinstance(testbed, VirtioTestbed):
            return self._run_virtio(testbed)
        if isinstance(testbed, XdmaTestbed):
            return self._run_xdma(testbed)
        raise TypeError(f"unknown testbed type {type(testbed).__name__}")

    def _draw_sizes(self, testbed) -> np.ndarray:
        return self.sizes.sample_many(testbed.sim.rng(SIZE_STREAM), self.packets)

    # -- VirtIO ----------------------------------------------------------------

    def _run_virtio(self, testbed: "VirtioTestbed") -> RunMetrics:
        sim = testbed.sim
        kernel = testbed.kernel
        recorder = RunRecorder("virtio", self.mode)
        sizes = self._draw_sizes(testbed)
        counts = _split_counts(self.packets, self.outstanding)

        # One socket per worker: the echo swaps ports, so each worker's
        # responses demux back to its own receive queue.
        sockets = [
            testbed.open_socket(CLOSED_LOOP_PORT_BASE + i)
            for i in range(self.outstanding)
        ]

        def worker(socket, offset: int, count: int) -> Generator[Any, Any, None]:
            # Statement-for-statement the paper's measurement loop
            # (latency.py _virtio_app): this is what makes outstanding=1
            # reproduce the ping-pong sweep.
            for k in range(count):
                seq = offset + k
                payload = _stamp(seq, int(sizes[seq]))
                recorder.record_send(sim.now)
                yield kernel.clock.call_cost()
                t0_ns = kernel.gettime_ns()
                yield from socket.sendto(payload, FPGA_IP, TEST_DST_PORT)
                data, _source = yield from socket.recvfrom()
                yield kernel.clock.call_cost()
                t1_ns = kernel.gettime_ns()
                if len(data) != len(payload):
                    raise WorkloadError(
                        f"echo size mismatch: sent {len(payload)}B, got {len(data)}B"
                    )
                recorder.record_complete(sim.now, (t1_ns - t0_ns) * NS)
                yield kernel.cpu("app_work")

        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        processes = [
            sim.spawn(worker(sockets[i], int(offsets[i]), counts[i]),
                      name=f"workload-cl{i}")
            for i in range(self.outstanding)
        ]
        for process in processes:
            sim.run_until_triggered(process)
        sim.run()
        extra = sum(socket.rx_dropped for socket in sockets)
        reasons: Dict[str, int] = {}
        for socket in sockets:
            for reason, count in socket.rx_drop_reasons.items():
                reasons[reason] = reasons.get(reason, 0) + count
            socket.close()
        return recorder.finish(
            outstanding=self.outstanding, extra_drops=extra,
            extra_drop_reasons=reasons,
        )

    # -- XDMA ------------------------------------------------------------------

    def _run_xdma(self, testbed: "XdmaTestbed") -> RunMetrics:
        sim = testbed.sim
        kernel = testbed.kernel
        driver = testbed.driver
        use_poll = testbed.profile.xdma_c2h_interrupt
        recorder = RunRecorder("xdma", self.mode)
        sizes = self._draw_sizes(testbed)
        counts = _split_counts(self.packets, self.outstanding)

        def worker(offset: int, count: int) -> Generator[Any, Any, None]:
            # Statement-for-statement latency.py's _xdma_app; driver
            # rejections end in counted drops.
            for k in range(count):
                seq = offset + k
                transfer = xdma_transfer_size(int(sizes[seq]))
                payload = _stamp(seq, transfer)
                recorder.record_send(sim.now)
                yield kernel.clock.call_cost()
                t0_ns = kernel.gettime_ns()
                try:
                    written = yield from sys_write(kernel, driver, payload)
                    if written != transfer:
                        raise WorkloadError(f"short write: {written} of {transfer}")
                    if use_poll:
                        yield from sys_poll(kernel, driver)
                    data = yield from sys_read(kernel, driver, transfer)
                except XdmaBusyError:
                    recorder.record_drop(sim.now, "driver_busy")
                    continue
                except XdmaTransferError:
                    recorder.record_drop(sim.now, "retries_exhausted")
                    continue
                yield kernel.clock.call_cost()
                t1_ns = kernel.gettime_ns()
                if len(data) != transfer:
                    raise WorkloadError(f"short read: {len(data)} of {transfer}")
                recorder.record_complete(sim.now, (t1_ns - t0_ns) * NS)
                yield kernel.cpu("app_work")

        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        processes = [
            sim.spawn(worker(int(offsets[i]), counts[i]), name=f"workload-cl{i}")
            for i in range(self.outstanding)
        ]
        for process in processes:
            sim.run_until_triggered(process)
        sim.run()
        return recorder.finish(outstanding=self.outstanding)
