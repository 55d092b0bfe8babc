"""The round-trip latency experiment (Section III-B3).

Runs the paper's measurement loop on a booted testbed: for each payload
size, a user-space test application sends a packet, waits for the
echoed response, and timestamps the round trip with
``clock_gettime(CLOCK_MONOTONIC)``; the FPGA's performance counters
capture the hardware share of each round trip.

The VirtIO application uses the socket API (UDP to the FPGA's IP); the
XDMA application does ``write()``/``read()`` of the wire-equivalent
byte count on the character device, back-to-back without an interposed
device interrupt -- the paper's favourable-to-XDMA arrangement
(Section IV-C).

On a testbed with a guest VMM (:mod:`repro.guest`) the applications
also snapshot the VMM's trap accumulator around each round trip, which
gives :attr:`PayloadResult.trap_ps`.  The snapshot is a plain attribute
read (no yield, no RNG draw), so it changes no event; on bare metal
``trap_ps`` stays ``None``.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Union

import numpy as np

from repro.core.calibration import (
    FPGA_IP,
    PAPER_PAYLOAD_SIZES,
    TEST_DST_PORT,
    xdma_transfer_size,
)
from repro.core.results import PayloadResult, SweepResult
from repro.core.testbed import VirtioTestbed, XdmaTestbed
from repro.host.chardev import sys_poll, sys_read, sys_write
from repro.sim.time import NS


class ExperimentError(RuntimeError):
    """Measurement invariants violated (lost packets, counter drift)."""


def _test_payload(size: int, sequence: int) -> bytes:
    """Deterministic payload pattern (sequence-stamped)."""
    pattern = bytes((sequence + i) & 0xFF for i in range(min(size, 16)))
    return (pattern * (size // len(pattern) + 1))[:size] if pattern else bytes(size)


def _virtio_app(
    testbed: VirtioTestbed,
    payload_size: int,
    packets: int,
    rtts_ps: List[int],
    traps_ps: List[int],
) -> Generator[Any, Any, None]:
    """The VirtIO test application: UDP echo round trips."""
    kernel = testbed.kernel
    socket = testbed.socket
    vmm = testbed.vmm
    for sequence in range(packets):
        payload = _test_payload(payload_size, sequence)
        yield kernel.clock.call_cost()
        t0_ns = kernel.gettime_ns()
        if vmm is not None:
            trap0 = vmm.trap_ps
        yield from socket.sendto(payload, FPGA_IP, TEST_DST_PORT)
        data, _source = yield from socket.recvfrom()
        yield kernel.clock.call_cost()
        t1_ns = kernel.gettime_ns()
        if len(data) != payload_size:
            raise ExperimentError(
                f"echo size mismatch: sent {payload_size}B, got {len(data)}B"
            )
        rtts_ps.append((t1_ns - t0_ns) * NS)
        if vmm is not None:
            traps_ps.append(vmm.trap_ps - trap0)
        yield kernel.cpu("app_work")


def _xdma_app(
    testbed: XdmaTestbed,
    transfer_size: int,
    packets: int,
    rtts_ps: List[int],
    traps_ps: List[int],
) -> Generator[Any, Any, None]:
    """The XDMA test application: write()+read() round trips."""
    kernel = testbed.kernel
    driver = testbed.driver
    vmm = testbed.vmm
    use_poll = testbed.profile.xdma_c2h_interrupt
    for sequence in range(packets):
        payload = _test_payload(transfer_size, sequence)
        yield kernel.clock.call_cost()
        t0_ns = kernel.gettime_ns()
        if vmm is not None:
            trap0 = vmm.trap_ps
        written = yield from sys_write(kernel, driver, payload)
        if written != transfer_size:
            raise ExperimentError(f"short write: {written} of {transfer_size}")
        if use_poll:
            yield from sys_poll(kernel, driver)
        data = yield from sys_read(kernel, driver, transfer_size)
        yield kernel.clock.call_cost()
        t1_ns = kernel.gettime_ns()
        if len(data) != transfer_size:
            raise ExperimentError(f"short read: {len(data)} of {transfer_size}")
        rtts_ps.append((t1_ns - t0_ns) * NS)
        if vmm is not None:
            traps_ps.append(vmm.trap_ps - trap0)
        yield kernel.cpu("app_work")


def _collect(perf, counter: str, packets: int, strict: bool = True) -> np.ndarray:
    """Drain a perf counter's intervals, validating the packet count.

    With ``strict=False`` (fault-injection runs, where retries and
    resets legitimately disturb the one-interval-per-packet invariant) a
    mismatch yields zeros instead of failing the experiment: the
    hardware breakdown is undefined under faults, but the RTT
    distribution -- what the fault experiments measure -- is not.
    """
    values = perf.intervals_array(counter)
    if len(values) != packets:
        if not strict:
            return np.zeros(packets, dtype=np.int64)
        raise ExperimentError(
            f"counter {counter!r} recorded {len(values)} intervals for {packets} packets"
        )
    return values


def run_virtio_payload(
    testbed: VirtioTestbed, payload_size: int, packets: int
) -> PayloadResult:
    """Measure one payload size on the VirtIO testbed."""
    if packets <= 0:
        raise ValueError(f"packets must be positive, got {packets}")
    perf = testbed.perf
    perf.clear()
    rtts: List[int] = []
    traps: List[int] = []
    app = testbed.sim.spawn(
        _virtio_app(testbed, payload_size, packets, rtts, traps), name="virtio-app"
    )
    testbed.sim.run_until_triggered(app)
    strict = testbed.injector is None
    hw = _collect(perf, "virtio_h2c", packets, strict) + _collect(
        perf, "virtio_c2h", packets, strict
    )
    resp = _collect(perf, "virtio_resp", packets, strict)
    return PayloadResult(
        payload=payload_size,
        rtt_ps=np.asarray(rtts, dtype=np.int64),
        hw_ps=hw,
        resp_ps=resp,
        trap_ps=np.asarray(traps, dtype=np.int64) if testbed.vmm is not None else None,
    )


def run_xdma_payload(
    testbed: XdmaTestbed, payload_size: int, packets: int
) -> PayloadResult:
    """Measure one payload size on the XDMA testbed.

    ``payload_size`` is the experiment label (the UDP payload of the
    VirtIO test); the transfer moves :func:`xdma_transfer_size` bytes so
    both tests put the same byte count on the link (Section IV-B).
    """
    if packets <= 0:
        raise ValueError(f"packets must be positive, got {packets}")
    perf = testbed.perf
    perf.clear()
    transfer = xdma_transfer_size(payload_size)
    rtts: List[int] = []
    traps: List[int] = []
    app = testbed.sim.spawn(
        _xdma_app(testbed, transfer, packets, rtts, traps), name="xdma-app"
    )
    testbed.sim.run_until_triggered(app)
    strict = testbed.injector is None
    hw = _collect(perf, "h2c0_dma", packets, strict) + _collect(
        perf, "c2h0_dma", packets, strict
    )
    return PayloadResult(
        payload=payload_size,
        rtt_ps=np.asarray(rtts, dtype=np.int64),
        hw_ps=hw,
        resp_ps=np.zeros(packets, dtype=np.int64),
        trap_ps=np.asarray(traps, dtype=np.int64) if testbed.vmm is not None else None,
    )


Testbed = Union[VirtioTestbed, XdmaTestbed]


def run_latency_sweep(
    testbed: Testbed,
    payload_sizes: Iterable[int] = PAPER_PAYLOAD_SIZES,
    packets: int = 2000,
) -> SweepResult:
    """Run the full payload sweep on either testbed."""
    if isinstance(testbed, VirtioTestbed):
        sweep = SweepResult(driver="virtio", seed=testbed.sim.seed)
        for size in payload_sizes:
            sweep.add(run_virtio_payload(testbed, size, packets))
        return sweep
    if isinstance(testbed, XdmaTestbed):
        sweep = SweepResult(driver="xdma", seed=testbed.sim.seed)
        for size in payload_sizes:
            sweep.add(run_xdma_payload(testbed, size, packets))
        return sweep
    raise TypeError(f"unknown testbed type {type(testbed).__name__}")
