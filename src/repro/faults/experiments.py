"""Fault-injection experiments (extension beyond the paper).

Two reliability experiments built on the fault subsystem:

* **E-F1** (:func:`run_fault_sweep`) -- tail-latency inflation and
  goodput degradation under increasing fault rates, VirtIO vs XDMA.
  Each driver is swept across per-opportunity fault probabilities of
  its canonical recoverable fault (lost doorbells for VirtIO,
  corrupted SGDMA descriptors for XDMA); the rate-0 column doubles as
  the determinism guard -- it is bit-identical to a fault-free run.

* **E-F2** (:func:`run_reset_recovery`) -- recovery-latency
  distribution of the VirtIO driver's full reset/renegotiation path:
  malformed descriptor chains injected at a fixed cadence force
  ``STATUS_DEVICE_NEEDS_RESET``, and the report captures how long each
  detect -> reset -> renegotiate -> replay cycle takes.

This module sits *above* the rest of :mod:`repro.faults` (it imports
the exec engine and core experiment plumbing), so it is deliberately
not re-exported from ``repro.faults.__init__`` -- importing it pulls in
:mod:`repro.core`, and the testbed layer imports the fault package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.calibration import PAPER_PROFILE, CalibrationProfile
from repro.core.experiments import default_packets
from repro.exec.cells import Cell, fault_cells
from repro.exec.runner import run_cells
from repro.faults.plan import reset_storm_plan

#: Default per-opportunity fault probabilities for E-F1.  Zero first:
#: that row is the fault-free baseline every other row is compared to.
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.0, 0.002, 0.01, 0.05)

#: Default malformed-chain cadence for E-F2 (one forced reset per
#: ``every`` TX descriptor-chain fetches).
DEFAULT_RESET_EVERY = 25


# -- E-F1: fault-rate sweep ----------------------------------------------------------


@dataclass
class FaultRateRow:
    """One (driver, fault-rate) point of the E-F1 sweep."""

    rate: float
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    p999_us: float
    goodput_mbps: float
    reliability: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "mean_us": self.mean_us,
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "p999_us": self.p999_us,
            "goodput_mbps": self.goodput_mbps,
            "reliability": self.reliability,
        }


@dataclass
class FaultSweepResult:
    """E-F1: per-driver fault-rate rows plus sweep parameters."""

    payload: int
    packets: int
    seed: int
    drivers: Dict[str, List[FaultRateRow]] = field(default_factory=dict)

    def baseline(self, driver: str) -> FaultRateRow:
        """The lowest-rate row (the fault-free reference when rate 0
        is part of the sweep)."""
        rows = self.drivers[driver]
        return min(rows, key=lambda row: row.rate)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "experiment": "E-F1",
            "payload": self.payload,
            "packets": self.packets,
            "seed": self.seed,
            "drivers": {},
        }
        for driver, rows in self.drivers.items():
            base = self.baseline(driver)
            out["drivers"][driver] = [
                dict(
                    row.as_dict(),
                    p99_inflation=_ratio(row.p99_us, base.p99_us),
                    goodput_degradation=1.0 - _ratio(row.goodput_mbps, base.goodput_mbps),
                )
                for row in rows
            ]
        return out

    def render(self) -> str:
        blocks = [
            "E-F1: tail latency and goodput vs fault rate "
            f"(payload {self.payload} B, {self.packets} packets)"
        ]
        fault_names = {"virtio": "lost notifications", "xdma": "descriptor errors"}
        for driver, rows in self.drivers.items():
            base = self.baseline(driver)
            blocks.append(
                f"\n-- {driver} (fault: {fault_names.get(driver, 'custom plan')}) --"
            )
            blocks.append(
                f"{'rate':>8} {'mean':>8} {'p95':>8} {'p99':>8} {'p99.9':>8} "
                f"{'x-p99':>6} {'gput':>8} {'-gput':>6} {'det':>5} {'rty':>5} "
                f"{'rst':>4} {'recov-p99':>10}   (us / Mb/s)"
            )
            for row in rows:
                rel = row.reliability
                blocks.append(
                    f"{row.rate:>8g} {row.mean_us:>8.1f} {row.p95_us:>8.1f} "
                    f"{row.p99_us:>8.1f} {row.p999_us:>8.1f} "
                    f"{_ratio(row.p99_us, base.p99_us):>6.2f} "
                    f"{row.goodput_mbps:>8.2f} "
                    f"{1.0 - _ratio(row.goodput_mbps, base.goodput_mbps):>6.1%} "
                    f"{rel['detected']:>5} {rel['retries']:>5} "
                    f"{rel['device_resets']:>4} "
                    f"{rel['recovery_us']['p99']:>10.1f}"
                )
        return "\n".join(blocks)


def _ratio(value: float, reference: float) -> float:
    return value / reference if reference else 0.0


def _row_from_payload(rate: float, payload_result, reliability: Dict[str, Any]) -> FaultRateRow:
    summary = payload_result.rtt_summary()
    tails = payload_result.tail_latencies_us()
    elapsed_s = float(np.sum(payload_result.adjusted_rtt_ps)) / 1e12
    bits = payload_result.payload * 8 * payload_result.packets
    return FaultRateRow(
        rate=rate,
        mean_us=summary.mean_us,
        p50_us=summary.median_us,
        p95_us=tails[95.0],
        p99_us=tails[99.0],
        p999_us=tails[99.9],
        goodput_mbps=(bits / elapsed_s) / 1e6 if elapsed_s else 0.0,
        reliability=reliability,
    )


def run_fault_sweep(
    rates: Sequence[float] = DEFAULT_FAULT_RATES,
    payload: int = 64,
    packets: Optional[int] = None,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    drivers: Sequence[str] = ("virtio", "xdma"),
    jobs: int = 1,
) -> Tuple[FaultSweepResult, str]:
    """E-F1: sweep both driver stacks across fault rates.

    Runs through the cell engine on ``jobs`` workers (``1`` runs the
    cells in-process); output is bit-identical for any worker count
    because cells merge in construction order and each cell's seed
    depends only on its (driver, payload) identity.
    """
    count = packets if packets is not None else default_packets(300)
    cells = fault_cells(drivers, rates, payload, count, seed, profile)
    sweep = FaultSweepResult(
        payload=payload, packets=count, seed=seed,
        drivers={driver: [] for driver in drivers},
    )
    for outcome in run_cells(cells, jobs):
        payload_result, reliability = outcome.value
        sweep.drivers[outcome.cell.driver].append(
            _row_from_payload(outcome.cell.fault_rate, payload_result, reliability)
        )
    return sweep, sweep.render()


# -- E-F2: reset-recovery distribution -----------------------------------------------


@dataclass
class ResetRecoveryResult:
    """E-F2: recovery behaviour across forced device-reset cycles."""

    every: int
    payload: int
    packets: int
    seed: int
    mean_us: float
    p99_us: float
    reliability: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "experiment": "E-F2",
            "every": self.every,
            "payload": self.payload,
            "packets": self.packets,
            "seed": self.seed,
            "mean_us": self.mean_us,
            "p99_us": self.p99_us,
            "reliability": self.reliability,
        }

    def render(self) -> str:
        rel = self.reliability
        recov = rel["recovery_us"]
        lines = [
            "E-F2: VirtIO reset/renegotiation recovery "
            f"(malformed chain every {self.every} fetches, "
            f"payload {self.payload} B, {self.packets} packets)",
            f"device resets: {rel['device_resets']}   "
            f"detected: {rel['detected']}   retries: {rel['retries']}   "
            f"requests failed: {rel['requests_failed']}",
            f"recovery latency (us): n={recov['count']} "
            f"p50={recov['p50']:.1f} p95={recov['p95']:.1f} "
            f"p99={recov['p99']:.1f} mean={recov['mean']:.1f} "
            f"max={recov['max']:.1f}",
            f"round trip under reset storm (us): mean={self.mean_us:.1f} "
            f"p99={self.p99_us:.1f}",
        ]
        return "\n".join(lines)


def run_reset_recovery(
    every: int = DEFAULT_RESET_EVERY,
    payload: int = 64,
    packets: Optional[int] = None,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
) -> Tuple[ResetRecoveryResult, str]:
    """E-F2: force periodic VirtIO device resets and measure recovery.

    Every *every*-th TX descriptor-chain fetch is corrupted into a
    self-referential chain; the controller latches
    ``STATUS_DEVICE_NEEDS_RESET`` and the driver must notice (config
    interrupt), reset, renegotiate, and replay pending TX without
    losing a packet -- the run only completes if every echo arrives.

    The run is one ``faultlat`` cell carrying the reset-storm plan, so
    the result cache serves it like any other cell.  The cell boots
    from the root *seed* itself, not a derived cell seed.
    """
    count = packets if packets is not None else default_packets(300)
    cell = Cell(
        kind="faultlat",
        driver="virtio",
        seed=seed,
        packets=count,
        profile=profile,
        payload=payload,
        fault_plan=reset_storm_plan(every),
    )
    (outcome,) = run_cells([cell])
    payload_result, reliability = outcome.value
    summary = payload_result.rtt_summary()
    result = ResetRecoveryResult(
        every=every,
        payload=payload,
        packets=count,
        seed=seed,
        mean_us=summary.mean_us,
        p99_us=summary.p99_us,
        reliability=reliability,
    )
    return result, result.render()
