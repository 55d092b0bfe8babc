"""E-S1 soak machinery: sustained overload with recovery, one testbed.

A soak runs three open-loop phases **back to back on a single booted
testbed** (unlike sweep points, which each boot fresh) -- surviving the
overload is the point, so the overloaded machine state must carry into
the recovery phase:

1. ``baseline``  -- 0.5x the measured base rate: the healthy reference
   goodput;
2. ``overload``  -- 8x the base rate, far beyond the knee, with the
   driver's PR-3 characteristic fault plan active (lost notifications
   for VirtIO, descriptor errors for XDMA) when a fault rate is given;
3. ``recovery``  -- back to 0.5x: the system must shed the backlog and
   return to baseline goodput.

The soak **passes** only if every phase's conservation ledger holds
(each admitted packet exactly-once delivered or dropped-with-reason)
and recovery goodput reaches :data:`RECOVERY_FLOOR` of baseline.

The fault plan is attached before the *first* phase: all three phases
run under the same fault process, so a recovery shortfall means the
system failed to recover, not that the phases measured different
machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.health.monitor import ConservationMonitor, HealthReport
from repro.workload.admission import OverloadConfig
from repro.workload.arrivals import make_arrivals
from repro.workload.generator import OpenLoopGenerator
from repro.workload.metrics import RunMetrics
from repro.workload.sizes import make_sizes

#: (phase name, offered rate as a multiple of the base rate).
SOAK_PHASES = (("baseline", 0.5), ("overload", 8.0), ("recovery", 0.5))

#: Recovery goodput must reach this fraction of baseline goodput.
RECOVERY_FLOOR = 0.75


@dataclass
class SoakPhase:
    """One phase's outcome."""

    name: str
    offered_pps: float
    metrics: RunMetrics
    health: HealthReport

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "offered_pps": self.offered_pps,
            "metrics": self.metrics.as_dict(),
            "health": self.health.as_dict(),
        }


@dataclass
class SoakResult:
    """Full E-S1 outcome for one driver."""

    driver: str
    seed: int
    base_rate_pps: float
    fault_rate: Optional[float]
    phases: List[SoakPhase]

    def phase(self, name: str) -> SoakPhase:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(f"no soak phase named {name!r}")

    @property
    def conserved(self) -> bool:
        """Every phase's exactly-once ledger held."""
        return all(phase.health.conserved for phase in self.phases)

    @property
    def recovery_ratio(self) -> float:
        baseline = self.phase("baseline").metrics.achieved_pps
        if baseline <= 0:
            return 0.0
        return self.phase("recovery").metrics.achieved_pps / baseline

    @property
    def recovered(self) -> bool:
        """Goodput returned to baseline once the overload subsided."""
        return self.recovery_ratio >= RECOVERY_FLOOR

    @property
    def passed(self) -> bool:
        return self.conserved and self.recovered

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "driver": self.driver,
            "seed": self.seed,
            "base_rate_pps": self.base_rate_pps,
            "fault_rate": self.fault_rate,
            "phases": [phase.as_dict() for phase in self.phases],
            "conserved": self.conserved,
            "recovery_ratio": self.recovery_ratio,
            "recovered": self.recovered,
            "verdict": self.verdict,
        }

    def render(self) -> str:
        fault = f", fault rate {self.fault_rate:g}" if self.fault_rate else ""
        rows = [
            f"Overload soak ({self.driver}, base {self.base_rate_pps / 1e3:.1f} "
            f"kpps{fault})",
            f"{'phase':>10} {'offered':>10} {'goodput':>10} {'drops':>7} "
            f"{'health':>7}   (kpps)",
        ]
        for phase in self.phases:
            m = phase.metrics
            rows.append(
                f"{phase.name:>10} {phase.offered_pps / 1e3:>10.1f} "
                f"{m.achieved_pps / 1e3:>10.1f} {m.dropped:>7} "
                f"{phase.health.verdict:>7}"
            )
        rows.append(
            f"  recovery goodput {self.recovery_ratio:.2f}x baseline "
            f"(floor {RECOVERY_FLOOR:.2f}) -> {self.verdict}"
        )
        return "\n".join(rows)


def _reset_hop_counters(testbed) -> None:
    """Zero the cumulative stack-side drop counters between phases so
    each phase's monitor reconciles against its own hop drops only."""
    from repro.core.testbed import VirtioTestbed, XdmaTestbed

    if isinstance(testbed, VirtioTestbed):
        from repro.drivers.virtio_net import TRANSMITQ

        if testbed.driver.netdev is not None:
            testbed.driver.netdev.tx_dropped.clear()
        testbed.driver.transport.queue(TRANSMITQ).depth_rejects = 0
    elif isinstance(testbed, XdmaTestbed):
        testbed.driver.busy_rejects = 0


def run_soak_on(
    testbed,
    driver: str,
    base_rate_pps: float,
    packets: int,
    overload: Optional[OverloadConfig] = None,
    fault_rate: Optional[float] = None,
    seed: int = 0,
    payload_sizes: Sequence[int] = (64,),
    arrival: str = "poisson",
) -> SoakResult:
    """Run the three-phase soak on an already-booted *testbed*.

    Every phase draws its sizes from *payload_sizes* the way the load
    sweeps do (one size is fixed traffic, several an empirical mix).
    """
    if base_rate_pps <= 0:
        raise ValueError(f"base rate must be positive, got {base_rate_pps}")
    if fault_rate:
        from repro.faults.injector import attach_fault_plan
        from repro.faults.plan import driver_fault_plan

        attach_fault_plan(testbed, driver_fault_plan(driver, fault_rate))
    if overload is not None:
        from repro.health.bounded import apply_overload_bounds

        apply_overload_bounds(testbed, overload)

    phases: List[SoakPhase] = []
    for name, multiplier in SOAK_PHASES:
        rate = multiplier * base_rate_pps
        _reset_hop_counters(testbed)
        monitor = ConservationMonitor(driver, "open")
        generator = OpenLoopGenerator(
            arrivals=make_arrivals(arrival, rate),
            sizes=make_sizes(list(payload_sizes)),
            packets=packets,
            overload=overload,
            monitor=monitor,
        )
        metrics = generator.run(testbed)
        phases.append(
            SoakPhase(name=name, offered_pps=rate, metrics=metrics,
                      health=monitor.finalize())
        )
    return SoakResult(
        driver=driver,
        seed=seed,
        base_rate_pps=base_rate_pps,
        fault_rate=fault_rate,
        phases=phases,
    )
