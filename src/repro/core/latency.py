"""The round-trip latency experiment (Section III-B3).

For each payload size a user-space test application sends a packet,
waits for the echoed response, and timestamps the round trip with
``clock_gettime(CLOCK_MONOTONIC)``; the FPGA's performance counters
capture the hardware share of each round trip.  That loop is the
workload engine's closed loop at one outstanding request
(:class:`~repro.workload.generator.ClosedLoopGenerator`): the VirtIO
application uses the socket API (UDP to the FPGA's IP); the XDMA
application does ``write()``/``read()`` of the wire-equivalent byte
count on the character device, back-to-back without an interposed
device interrupt -- the paper's favourable-to-XDMA arrangement
(Section IV-C).  This module adds the counter collection around it.

On a testbed with a guest VMM (:mod:`repro.guest`) the loop also
snapshots the VMM's trap accumulator around each round trip, which
gives :attr:`PayloadResult.trap_ps`; on bare metal ``trap_ps`` stays
``None``.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from repro.core.calibration import PAPER_PAYLOAD_SIZES
from repro.core.results import PayloadResult, SweepResult
from repro.core.testbed import VirtioTestbed, XdmaTestbed


class ExperimentError(RuntimeError):
    """Measurement invariants violated (lost packets, counter drift)."""


#: driver -> (perf counters whose intervals sum to the hardware share of
#: a round trip, the counter timing the device's response or ``None``).
_COUNTERS = {
    "virtio": (("virtio_h2c", "virtio_c2h"), "virtio_resp"),
    "xdma": (("h2c0_dma", "c2h0_dma"), None),
}


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


Testbed = Union[VirtioTestbed, XdmaTestbed]


def run_payload(testbed: Testbed, payload_size: int, packets: int) -> PayloadResult:
    """Measure one payload size on either testbed.

    ``payload_size`` is the experiment label (the UDP payload of the
    VirtIO test); on XDMA the transfer moves
    :func:`~repro.core.calibration.xdma_transfer_size` bytes so both
    tests put the same byte count on the link (Section IV-B).  A
    dropped round trip (the XDMA driver refused the call or ran out of
    retries) raises :class:`ExperimentError` naming the reason: the
    result always holds *packets* round trips.
    """
    from repro.workload.generator import ClosedLoopGenerator
    from repro.workload.sizes import FixedSize

    if packets <= 0:
        raise ValueError(f"packets must be positive, got {packets}")
    perf = testbed.perf
    perf.clear()
    metrics = ClosedLoopGenerator(1, FixedSize(payload_size), packets).run(testbed)
    if metrics.dropped:
        reasons = ", ".join(
            f"{reason}={count}" for reason, count in sorted(metrics.drop_reasons.items())
        )
        raise ExperimentError(
            f"{metrics.dropped} of {packets} round trips dropped ({reasons})"
        )
    strict = testbed.injector is None
    (h2c, c2h), resp = _COUNTERS[metrics.driver]
    return PayloadResult(
        payload=payload_size,
        rtt_ps=metrics.latency_ps,
        hw_ps=_collect(perf, h2c, packets, strict) + _collect(perf, c2h, packets, strict),
        resp_ps=(
            _collect(perf, resp, packets, strict) if resp is not None
            else np.zeros(packets, dtype=np.int64)
        ),
        trap_ps=metrics.trap_ps,
    )


def run_latency_sweep(
    testbed: Testbed,
    payload_sizes: Iterable[int] = PAPER_PAYLOAD_SIZES,
    packets: int = 2000,
) -> SweepResult:
    """Run the full payload sweep on either testbed."""
    if not isinstance(testbed, (VirtioTestbed, XdmaTestbed)):
        raise TypeError(f"unknown testbed type {type(testbed).__name__}")
    sweep = SweepResult(
        driver="virtio" if isinstance(testbed, VirtioTestbed) else "xdma",
        seed=testbed.sim.seed,
    )
    for size in payload_sizes:
        sweep.add(run_payload(testbed, size, packets))
    return sweep
