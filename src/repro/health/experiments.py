"""E-O1 / E-S1: overload experiments on the parallel execution engine.

* :func:`run_overload_sweep` (E-O1) -- both drivers' graceful-
  degradation curves: open-loop offered load swept from well below the
  saturation knee to far beyond it, with the full overload-protection
  stack armed (bounded hops, admission window, drop-with-reason) and a
  :class:`~repro.health.ConservationMonitor` riding every point.  The
  headline claims: goodput *plateaus* beyond the knee instead of
  collapsing, and every lost packet carries a recorded drop reason.

* :func:`run_overload_soak` (E-S1) -- the three-phase soak of
  :mod:`repro.health.soak` fanned out per driver: sustained overload
  under the PR-3 characteristic fault plans, passing only if the
  conservation invariants hold in every phase and goodput recovers
  once load subsides.

Both ride the cell engine (:mod:`repro.exec`): points fan out across a
process pool and merge in construction order, so reports are
bit-identical for any ``--jobs`` (the determinism tests pin this).
This module sits *above* ``repro.exec`` -- it is intentionally not
re-exported from ``repro.health``'s package root to keep the
lower-layer imports acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.calibration import PAPER_PROFILE, CalibrationProfile
from repro.core.experiments import calibrated_points
from repro.exec.cells import Cell, calibration_cells, overload_cells, soak_cells
from repro.exec.runner import run_cells
from repro.health.monitor import HealthReport
from repro.health.soak import SoakResult
from repro.workload.admission import OverloadConfig
from repro.workload.metrics import RunMetrics
from repro.workload.sweep import KNEE_UTILIZATION

#: Offered-load multiples of the measured base rate for E-O1 -- from
#: half the knee to 16x beyond it (the graceful-degradation regime).
OVERLOAD_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

#: Goodput beyond the knee must hold this fraction of peak capacity
#: for the degradation to count as graceful.
GOODPUT_FLOOR = 0.7

#: The protection stack E-O1 arms by default: every hop bounded, an
#: end-to-end admission window, tail-drop policy with counted reasons.
DEFAULT_OVERLOAD = OverloadConfig(
    admission_limit=256,
    socket_rx_limit=256,
    tx_depth_limit=64,
    xdma_queue_limit=64,
    xdma_max_pending=8,
)


@dataclass
class OverloadPoint:
    """One offered-load operating point with its conservation verdict."""

    offered_pps: float
    metrics: RunMetrics
    health: HealthReport

    def as_dict(self) -> Dict[str, Any]:
        return {
            "offered_pps": self.offered_pps,
            **self.metrics.as_dict(),
            "health": self.health.as_dict(),
        }


@dataclass
class OverloadSweepResult:
    """One driver's E-O1 graceful-degradation curve."""

    driver: str
    seed: int
    arrival_kind: str
    base_rtt_us: float
    base_rate_pps: float
    fault_rate: Optional[float]
    overload: Optional[OverloadConfig]
    points: List[OverloadPoint]

    def knee_pps(self, utilization: float = KNEE_UTILIZATION) -> Optional[float]:
        for point in self.points:
            if point.metrics.achieved_pps < utilization * point.offered_pps:
                return point.offered_pps
        return None

    def capacity_pps(self) -> float:
        return max(point.metrics.achieved_pps for point in self.points)

    @property
    def all_conserved(self) -> bool:
        """Every point's ledger held: each lost packet has a reason."""
        return all(point.health.conserved for point in self.points)

    def degrades_gracefully(self, floor: float = GOODPUT_FLOOR) -> bool:
        """Whether goodput plateaus beyond the knee instead of
        collapsing: every saturated point keeps at least ``floor``
        times the sweep's peak capacity, and every point conserves."""
        if not self.all_conserved:
            return False
        knee = self.knee_pps()
        if knee is None:
            return True  # never saturated; nothing to degrade
        capacity = self.capacity_pps()
        return all(
            point.metrics.achieved_pps >= floor * capacity
            for point in self.points
            if point.offered_pps >= knee
        )

    def hop_drop_totals(self) -> Dict[str, int]:
        """Per-hop refusal counts summed across all points."""
        totals: Dict[str, int] = {}
        for point in self.points:
            for hop, count in point.health.hop_drops.items():
                totals[hop] = totals.get(hop, 0) + count
        return dict(sorted(totals.items()))

    def drop_reason_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for point in self.points:
            for reason, count in point.health.drop_reasons.items():
                totals[reason] = totals.get(reason, 0) + count
        return dict(sorted(totals.items()))

    @property
    def verdict(self) -> str:
        return "PASS" if self.degrades_gracefully() else "FAIL"

    def render(self) -> str:
        fault = f", fault rate {self.fault_rate:g}" if self.fault_rate else ""
        rows = [
            f"Overload sweep ({self.driver}, {self.arrival_kind} arrivals, "
            f"base RTT {self.base_rtt_us:.1f} us{fault})",
            f"{'offered':>10} {'goodput':>10} {'util':>6} {'drops':>7} "
            f"{'p99':>8} {'health':>7}   (kpps, us)",
        ]
        for point in self.points:
            m = point.metrics
            util = m.achieved_pps / point.offered_pps if point.offered_pps else 0.0
            tails = m.latency_percentiles_us()
            p99 = tails[99.0] if m.latency_ps.size else 0.0
            rows.append(
                f"{point.offered_pps / 1e3:>10.1f} {m.achieved_pps / 1e3:>10.1f} "
                f"{util:>6.2f} {m.dropped:>7} {p99:>8.1f} "
                f"{point.health.verdict:>7}"
            )
        knee = self.knee_pps()
        rows.append(
            "  knee: "
            + (f"~{knee / 1e3:.1f} kpps offered" if knee is not None
               else "not reached")
            + f", capacity {self.capacity_pps() / 1e3:.1f} kpps, "
            f"graceful degradation: {self.verdict}"
        )
        reasons = self.drop_reason_totals()
        if reasons:
            rows.append(
                "  drops by reason: "
                + ", ".join(f"{k}={v}" for k, v in reasons.items())
            )
        hops = self.hop_drop_totals()
        if hops:
            rows.append(
                "  refusals by hop: "
                + ", ".join(f"{k}={v}" for k, v in hops.items())
            )
        return "\n".join(rows)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "driver": self.driver,
            "seed": self.seed,
            "arrival_kind": self.arrival_kind,
            "base_rtt_us": self.base_rtt_us,
            "base_rate_pps": self.base_rate_pps,
            "fault_rate": self.fault_rate,
            "knee_pps": self.knee_pps(),
            "capacity_pps": self.capacity_pps(),
            "all_conserved": self.all_conserved,
            "degrades_gracefully": self.degrades_gracefully(),
            "verdict": self.verdict,
            "drop_reason_totals": self.drop_reason_totals(),
            "hop_drop_totals": self.hop_drop_totals(),
            "points": [point.as_dict() for point in self.points],
        }


def run_overload_sweep(
    drivers: Sequence[str] = ("virtio", "xdma"),
    packets: int = 400,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    multipliers: Sequence[float] = OVERLOAD_MULTIPLIERS,
    rates: Optional[Sequence[float]] = None,
    arrival: str = "poisson",
    payload_sizes: Sequence[int] = (64,),
    overload: Optional[OverloadConfig] = DEFAULT_OVERLOAD,
    fault_rate: Optional[float] = None,
    jobs: int = 1,
) -> Dict[str, OverloadSweepResult]:
    """E-O1: overload-protected load sweeps for all *drivers*.

    The same calibrate-then-place fan-out as the open-loop load sweep
    (:func:`repro.core.experiments.calibrated_points`): calibration
    cells measure each driver's base rate, then every driver x rate
    overload cell runs at once.  ``rates`` overrides the auto-placed
    ``multipliers``-times-base points.
    """
    def point_cells(driver: str, offered: List[float]) -> List[Cell]:
        return overload_cells(driver, offered, payload_sizes, packets, seed,
                              arrival, profile, overload, fault_rate)

    swept = calibrated_points(drivers, point_cells, multipliers, rates,
                              payload_sizes, packets, seed, profile, jobs)
    results: Dict[str, OverloadSweepResult] = {}
    for driver, ((rtt_us, base_rate), outcomes) in swept.items():
        results[driver] = OverloadSweepResult(
            driver=driver,
            seed=seed,
            arrival_kind=arrival,
            base_rtt_us=rtt_us,
            base_rate_pps=base_rate,
            fault_rate=fault_rate,
            overload=overload,
            points=[
                OverloadPoint(offered_pps=o.cell.rate_pps, metrics=o.value[0],
                              health=o.value[1])
                for o in outcomes
            ],
        )
    return results


def run_overload_soak(
    drivers: Sequence[str] = ("virtio", "xdma"),
    packets: int = 300,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    payload_sizes: Sequence[int] = (64,),
    overload: Optional[OverloadConfig] = DEFAULT_OVERLOAD,
    fault_rate: Optional[float] = 0.02,
    jobs: int = 1,
) -> Dict[str, SoakResult]:
    """E-S1: the three-phase overload soak for all *drivers*.

    Calibration cells measure base rates first; each driver then runs
    its whole soak as one cell (the phases share a testbed, so they
    cannot be decomposed further).  *packets* is per phase.
    """
    cal_cells = calibration_cells(drivers, payload_sizes, packets, seed, profile)
    cal_outcomes = run_cells(cal_cells, jobs)
    base_rates = {
        outcome.cell.driver: outcome.value[1] for outcome in cal_outcomes
    }
    cells = soak_cells(drivers, base_rates, packets, seed, profile,
                       overload, fault_rate, payload_sizes)
    outcomes = run_cells(cells, jobs)
    return {outcome.cell.driver: outcome.value for outcome in outcomes}
