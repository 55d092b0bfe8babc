"""Per-run accounting for workload generator runs.

:class:`RunRecorder` is the live instrument a generator drives while
the simulation runs (injections, completions, drops, in-flight
transitions); :meth:`RunRecorder.finish` freezes it into a
:class:`RunMetrics`, the analysis-side container whose latency samples
feed the existing :mod:`repro.stats` percentile machinery.

Latency semantics differ by loop type, and the distinction matters:

* *open loop*: a sample is ``completion - intended arrival instant``,
  i.e. sojourn time including any software-queue wait -- measuring from
  the actual (possibly delayed) send would hide queueing delay behind
  the generator's own backpressure, the classic coordinated-omission
  mistake;
* *closed loop*: a sample is the application-observed round trip,
  exactly as the paper's ping-pong loop timestamps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.sim.time import SimTime, to_us
from repro.stats.percentile import percentiles_us

#: Percentile points the load-sweep tables report.
LOAD_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class RunMetrics:
    """Frozen outcome of one generator run at one operating point."""

    driver: str
    mode: str  # "open" or "closed"
    offered_pps: Optional[float]  # open loop only
    outstanding: Optional[int]  # closed loop only
    #: Attempts that entered the system and were not lost afterwards
    #: (completed, or still in flight when the run ended).
    sent: int
    completed: int
    #: Attempts refused at injection or lost after it.  With ``sent``
    #: this counts every attempt exactly once.
    dropped: int
    backpressured: int
    duration_ps: SimTime
    latency_ps: np.ndarray
    occupancy_t_ps: np.ndarray
    occupancy_n: np.ndarray
    #: reason -> count for every drop folded into ``dropped``; empty
    #: only when no packet was lost.
    drop_reasons: Dict[str, int]
    #: Closed loop under a guest VMM: world-switch time per completed
    #: round trip (``None`` on bare metal and in the open loop).
    trap_ps: Optional[np.ndarray] = None

    @property
    def duration_us(self) -> float:
        return to_us(self.duration_ps)

    @property
    def achieved_pps(self) -> float:
        """Completion throughput over the measured span."""
        if self.duration_ps <= 0:
            return 0.0
        return self.completed / (self.duration_ps / 1e12)

    @property
    def offered_total(self) -> int:
        """Injection attempts including drops."""
        return self.sent + self.dropped

    @property
    def drop_fraction(self) -> float:
        total = self.offered_total
        return self.dropped / total if total else 0.0

    @property
    def peak_in_flight(self) -> int:
        if self.occupancy_n.size == 0:
            return 0
        return int(self.occupancy_n.max())

    @property
    def mean_in_flight(self) -> float:
        """Time-weighted mean queue/in-flight occupancy."""
        if self.occupancy_t_ps.size < 2:
            return float(self.occupancy_n[0]) if self.occupancy_n.size else 0.0
        spans = np.diff(self.occupancy_t_ps).astype(np.float64)
        total = spans.sum()
        if total <= 0:
            return float(self.occupancy_n[-1])
        return float(np.dot(self.occupancy_n[:-1].astype(np.float64), spans) / total)

    def latency_percentiles_us(self) -> Dict[float, float]:
        return percentiles_us(self.latency_ps, LOAD_PERCENTILES)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (no raw sample arrays)."""
        tails = self.latency_percentiles_us()
        return {
            "driver": self.driver,
            "mode": self.mode,
            "offered_pps": self.offered_pps,
            "outstanding": self.outstanding,
            "sent": self.sent,
            "completed": self.completed,
            "dropped": self.dropped,
            "drop_reasons": dict(sorted(self.drop_reasons.items())),
            "backpressured": self.backpressured,
            "duration_us": self.duration_us,
            "achieved_pps": self.achieved_pps,
            "drop_fraction": self.drop_fraction,
            "peak_in_flight": self.peak_in_flight,
            "mean_in_flight": self.mean_in_flight,
            "latency_us": {
                "mean": float(self.latency_ps.mean()) / 1e6 if self.latency_ps.size else None,
                "p50": tails[50.0] if self.latency_ps.size else None,
                "p95": tails[95.0] if self.latency_ps.size else None,
                "p99": tails[99.0] if self.latency_ps.size else None,
            },
        }


class RunRecorder:
    """Mutable accumulator the generators drive during a run."""

    def __init__(self, driver: str, mode: str) -> None:
        self.driver = driver
        self.mode = mode
        self.sent = 0
        self.completed = 0
        self.dropped = 0
        self.drop_reasons: Dict[str, int] = {}
        self.backpressured = 0
        self._in_flight = 0
        self._latency_ps: List[int] = []
        self._occ_t: List[SimTime] = []
        self._occ_n: List[int] = []
        self._first_send_ps: Optional[SimTime] = None
        self._last_event_ps: Optional[SimTime] = None

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def _occupancy(self, now_ps: SimTime) -> None:
        self._occ_t.append(now_ps)
        self._occ_n.append(self._in_flight)
        self._last_event_ps = now_ps

    def record_send(self, now_ps: SimTime) -> None:
        """One request entered the system (syscall issued / job queued)."""
        if self._first_send_ps is None:
            self._first_send_ps = now_ps
        self.sent += 1
        self._in_flight += 1
        self._occupancy(now_ps)

    def record_complete(self, now_ps: SimTime, latency_ps: SimTime) -> None:
        """One request finished; *latency_ps* per the loop's semantics."""
        if latency_ps < 0:
            raise ValueError(f"negative latency {latency_ps}")
        self.completed += 1
        self._in_flight -= 1
        self._latency_ps.append(latency_ps)
        self._occupancy(now_ps)

    def record_drop(self, now_ps: SimTime, reason: str = "queue_full") -> None:
        """An injection was refused, terminally, for *reason* (full
        ring, full software queue, admission reject, ...)."""
        self.dropped += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        self._occupancy(now_ps)

    def record_loss(self, now_ps: SimTime, reason: str) -> None:
        """A request recorded as sent was lost, terminally, for *reason*
        (busy driver, exhausted retries, echo dropped at the socket):
        it leaves the in-flight count and moves from sent to dropped."""
        self.sent -= 1
        self._in_flight -= 1
        self.record_drop(now_ps, reason)

    def record_backpressure(self) -> None:
        """The generator fell behind its own schedule (injection stalled)."""
        self.backpressured += 1

    def finish(
        self,
        offered_pps: Optional[float] = None,
        outstanding: Optional[int] = None,
        trap_ps: Optional[List[int]] = None,
    ) -> RunMetrics:
        """Freeze into a :class:`RunMetrics`; ``trap_ps`` is the closed
        loop's per-round-trip VMM trap time."""
        duration = 0
        if self._first_send_ps is not None and self._last_event_ps is not None:
            duration = self._last_event_ps - self._first_send_ps
        return RunMetrics(
            driver=self.driver,
            mode=self.mode,
            offered_pps=offered_pps,
            outstanding=outstanding,
            sent=self.sent,
            completed=self.completed,
            dropped=self.dropped,
            backpressured=self.backpressured,
            duration_ps=duration,
            latency_ps=np.asarray(self._latency_ps, dtype=np.int64),
            occupancy_t_ps=np.asarray(self._occ_t, dtype=np.int64),
            occupancy_n=np.asarray(self._occ_n, dtype=np.int64),
            drop_reasons=dict(self.drop_reasons),
            trap_ps=np.asarray(trap_ps, dtype=np.int64) if trap_ps is not None else None,
        )
