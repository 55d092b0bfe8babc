"""Offered-load sweep results: locate the saturation knee.

The sweep calibrates itself: a short closed-loop ``outstanding=1`` run
(the paper's ping-pong) measures the base round trip, whose inverse is
the one-in-flight service rate.  Offered-load points are then placed at
multiples of that base rate -- below it (latency flat at the ping-pong
floor), around it (queueing onset), and far above it (saturation, where
achieved throughput plateaus and the tail percentiles grow with the
queue) -- so the same relative sweep straddles the knee on both driver
stacks even though their capacities differ.

The sweep itself runs through the cell engine
(:func:`repro.core.experiments.run_load_sweep`; its open-loop points
are placed by :func:`repro.core.experiments.calibrated_points`): every
load point is a cell on a freshly booted testbed, seeded from the root
seed and the point's identity (driver plus point index, or outstanding
count for a closed-loop point), so points are independent experiments
and the whole sweep is bit-reproducible for a given seed.
This module holds the result types and the sweep constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.workload.metrics import RunMetrics

#: Offered-load points as multiples of the measured base (1/RTT) rate.
DEFAULT_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

#: Achieved/offered ratio below which a load point counts as saturated.
KNEE_UTILIZATION = 0.9

#: Ping-pong round trips used to measure the base rate.
CALIBRATION_PACKETS = 120


@dataclass(frozen=True)
class LoadPoint:
    """One operating point of a sweep."""

    offered_pps: float
    metrics: RunMetrics


@dataclass
class LoadSweepResult:
    """One driver's full offered-load sweep."""

    driver: str
    seed: int
    arrival_kind: str
    base_rtt_us: float
    base_rate_pps: float
    points: List[LoadPoint]

    def knee_pps(self, utilization: float = KNEE_UTILIZATION) -> Optional[float]:
        """The lowest offered rate whose achieved throughput falls below
        ``utilization * offered`` -- None if the sweep never saturates."""
        for point in self.points:
            if point.metrics.achieved_pps < utilization * point.offered_pps:
                return point.offered_pps
        return None

    def capacity_pps(self) -> float:
        """Highest achieved throughput anywhere in the sweep."""
        return max(point.metrics.achieved_pps for point in self.points)

    def drop_reason_totals(self) -> Dict[str, int]:
        """Per-reason drop counts summed across all load points."""
        totals: Dict[str, int] = {}
        for point in self.points:
            for reason, count in point.metrics.drop_reasons.items():
                totals[reason] = totals.get(reason, 0) + count
        return dict(sorted(totals.items()))

    def throughput_table(self) -> str:
        header = (
            f"Throughput vs offered load ({self.driver}, {self.arrival_kind} "
            f"arrivals, base RTT {self.base_rtt_us:.1f} us)"
        )
        rows = [
            header,
            f"{'offered':>10} {'achieved':>10} {'util':>6} {'drops':>7} "
            f"{'backpr':>7} {'inflight':>9} {'peak':>5}   (kpps)",
        ]
        for point in self.points:
            m = point.metrics
            util = m.achieved_pps / point.offered_pps if point.offered_pps else 0.0
            reasons = " ".join(
                f"{reason}={count}"
                for reason, count in sorted(m.drop_reasons.items())
            )
            rows.append(
                f"{point.offered_pps / 1e3:>10.1f} {m.achieved_pps / 1e3:>10.1f} "
                f"{util:>6.2f} {m.dropped:>7} {m.backpressured:>7} "
                f"{m.mean_in_flight:>9.2f} {m.peak_in_flight:>5}"
                + (f"   [{reasons}]" if reasons else "")
            )
        knee = self.knee_pps()
        rows.append(
            f"  saturation knee: "
            + (f"~{knee / 1e3:.1f} kpps offered" if knee is not None
               else "not reached in this sweep")
            + f" (capacity {self.capacity_pps() / 1e3:.1f} kpps)"
        )
        totals = self.drop_reason_totals()
        if totals:
            rows.append(
                "  drops by reason: "
                + ", ".join(f"{reason}={count}" for reason, count in totals.items())
            )
        return "\n".join(rows)

    def latency_table(self) -> str:
        rows = [
            f"Latency vs offered load ({self.driver})",
            f"{'offered':>10} {'p50':>8} {'p95':>8} {'p99':>8} {'mean':>8}   "
            f"(kpps, us)",
        ]
        for point in self.points:
            m = point.metrics
            tails = m.latency_percentiles_us()
            mean_us = float(m.latency_ps.mean()) / 1e6 if m.latency_ps.size else 0.0
            rows.append(
                f"{point.offered_pps / 1e3:>10.1f} {tails[50.0]:>8.1f} "
                f"{tails[95.0]:>8.1f} {tails[99.0]:>8.1f} {mean_us:>8.1f}"
            )
        return "\n".join(rows)

    def render(self) -> str:
        return self.throughput_table() + "\n\n" + self.latency_table()

    def as_dict(self) -> Dict[str, object]:
        return {
            "driver": self.driver,
            "seed": self.seed,
            "arrival_kind": self.arrival_kind,
            "base_rtt_us": self.base_rtt_us,
            "base_rate_pps": self.base_rate_pps,
            "knee_pps": self.knee_pps(),
            "capacity_pps": self.capacity_pps(),
            "drop_reason_totals": self.drop_reason_totals(),
            "points": [
                {"offered_pps": point.offered_pps, **point.metrics.as_dict()}
                for point in self.points
            ],
        }


@dataclass
class ClosedSweepResult:
    """One driver's closed-loop sweep over outstanding-request counts."""

    driver: str
    seed: int
    points: List[RunMetrics]

    def render(self) -> str:
        rows = [
            f"Closed-loop sweep ({self.driver})",
            f"{'N':>4} {'achieved':>10} {'p50':>8} {'p95':>8} {'p99':>8} "
            f"{'mean':>8}   (kpps, us)",
        ]
        for m in self.points:
            tails = m.latency_percentiles_us()
            mean_us = float(m.latency_ps.mean()) / 1e6 if m.latency_ps.size else 0.0
            rows.append(
                f"{m.outstanding:>4} {m.achieved_pps / 1e3:>10.1f} "
                f"{tails[50.0]:>8.1f} {tails[95.0]:>8.1f} {tails[99.0]:>8.1f} "
                f"{mean_us:>8.1f}"
            )
        return "\n".join(rows)

    def as_dict(self) -> Dict[str, object]:
        return {
            "driver": self.driver,
            "seed": self.seed,
            "points": [m.as_dict() for m in self.points],
        }
