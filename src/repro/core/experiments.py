"""Reproduction entry points: one function per paper artifact.

Each function builds the testbed(s), runs the sweep, and returns both
the raw results and a rendered text artifact.  The benchmark harness
and the CLI are thin wrappers over these.

Packet counts default to a CI-friendly value; pass
``packets=PAPER_PACKETS_PER_SIZE`` (50 000) for full-fidelity runs.
The ``REPRO_PACKETS`` environment variable overrides the default.

Every entry point decomposes its run into independently seeded cells
(:mod:`repro.exec.cells`), runs them with
:func:`repro.exec.runner.run_cells` and merges the outcomes, in cell
order, into its own result type.  ``jobs`` is the worker count: ``1``
(default) runs the cells in-process, ``N > 1`` fans them out over a
process pool, and the output is byte-identical for any ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.calibration import (
    PAPER_PAYLOAD_SIZES,
    PAPER_PROFILE,
    CalibrationProfile,
)
from repro.core.results import (
    ComparisonResult,
    SweepResult,
    breakdown_rows,
    render_breakdown,
)
from repro.exec.cells import (
    Cell,
    calibration_cells,
    closed_sweep_cells,
    latency_cells,
    open_sweep_cells,
)
from repro.exec.runner import CellOutcome, run_cells
from repro.workload.sweep import (
    DEFAULT_MULTIPLIERS,
    ClosedSweepResult,
    LoadPoint,
    LoadSweepResult,
)


def default_packets(fallback: int = 2000) -> int:
    """Packets per payload size (env-overridable via ``REPRO_PACKETS``,
    validated by :mod:`repro.env`)."""
    from repro import env

    return env.packets(fallback)


def _latency_sweeps(
    drivers: Sequence[str],
    payload_sizes: Sequence[int],
    packets: Optional[int],
    seed: int,
    profile: CalibrationProfile,
    jobs: int,
) -> Dict[str, SweepResult]:
    """Each driver's payload sweep from one fan-out of driver x payload
    latency cells, merged in cell order."""
    if packets is None:
        packets = default_packets()
    cells = latency_cells(payload_sizes, packets, seed, profile, drivers=drivers)
    sweeps = {driver: SweepResult(driver=driver, seed=seed) for driver in drivers}
    for outcome in run_cells(cells, jobs):
        sweeps[outcome.cell.driver].add(outcome.value)
    return sweeps


def run_sweep(
    driver: str,
    payload_sizes: Sequence[int] = PAPER_PAYLOAD_SIZES,
    packets: Optional[int] = None,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    jobs: int = 1,
) -> SweepResult:
    """One driver's side of the evaluation (``"virtio"`` or ``"xdma"``)."""
    return _latency_sweeps((driver,), payload_sizes, packets, seed, profile, jobs)[driver]


def run_comparison(
    payload_sizes: Sequence[int] = PAPER_PAYLOAD_SIZES,
    packets: Optional[int] = None,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    jobs: int = 1,
) -> ComparisonResult:
    """Both sweeps with matched parameters.

    Both drivers' cells share one fan-out, so the pool is loaded with
    all driver x payload cells at once.
    """
    sweeps = _latency_sweeps(("virtio", "xdma"), payload_sizes, packets, seed, profile, jobs)
    return ComparisonResult(virtio=sweeps["virtio"], xdma=sweeps["xdma"])


# -- Figure 3: round-trip latency distributions ------------------------------------


def figure3(
    payload_sizes: Sequence[int] = PAPER_PAYLOAD_SIZES,
    packets: Optional[int] = None,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    jobs: int = 1,
) -> Tuple[ComparisonResult, str]:
    """Fig. 3: latency distributions for both drivers, all payloads."""
    comparison = run_comparison(payload_sizes, packets, seed, profile, jobs)
    blocks = ["Figure 3: round-trip latency distributions (us)"]
    for payload in comparison.payload_sizes():
        for name, sweep in (("VirtIO", comparison.virtio), ("XDMA", comparison.xdma)):
            result = sweep[payload]
            summary = result.rtt_summary()
            blocks.append(
                f"\n-- {name}, payload {payload} B "
                f"(mean {summary.mean_us:.1f}, sd {summary.std_us:.1f}) --"
            )
            blocks.append(result.histogram(bins=30).render(width=40))
    return comparison, "\n".join(blocks)


# -- Figures 4 and 5: latency breakdowns --------------------------------------------


def figure4(
    payload_sizes: Sequence[int] = PAPER_PAYLOAD_SIZES,
    packets: Optional[int] = None,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    jobs: int = 1,
) -> Tuple[SweepResult, str]:
    """Fig. 4: VirtIO hardware/software breakdown."""
    sweep = run_sweep("virtio", payload_sizes, packets, seed, profile, jobs)
    return sweep, render_breakdown(
        sweep, "Figure 4: VirtIO data-movement latency breakdown"
    )


def figure5(
    payload_sizes: Sequence[int] = PAPER_PAYLOAD_SIZES,
    packets: Optional[int] = None,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    jobs: int = 1,
) -> Tuple[SweepResult, str]:
    """Fig. 5: XDMA hardware/software breakdown."""
    sweep = run_sweep("xdma", payload_sizes, packets, seed, profile, jobs)
    return sweep, render_breakdown(
        sweep, "Figure 5: XDMA data-movement latency breakdown"
    )


# -- Table I: tail latencies ------------------------------------------------------------


def table1(
    payload_sizes: Sequence[int] = PAPER_PAYLOAD_SIZES,
    packets: Optional[int] = None,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    jobs: int = 1,
) -> Tuple[ComparisonResult, str]:
    """Table I: 95/99/99.9% tail latencies for both drivers."""
    comparison = run_comparison(payload_sizes, packets, seed, profile, jobs)
    return comparison, "Table I: tail latencies\n" + comparison.table1()


# -- Load sweep (workload-engine extension, beyond the paper) ---------------------------


def calibrated_points(
    drivers: Sequence[str],
    point_cells: Callable[[str, List[float]], List[Cell]],
    multipliers: Sequence[float],
    rates: Optional[Sequence[float]],
    payload_sizes: Sequence[int],
    packets: int,
    seed: int,
    profile: CalibrationProfile,
    jobs: int,
) -> Dict[str, Tuple[Tuple[float, float], List[CellOutcome]]]:
    """The calibrate-then-place open-loop fan-out.

    Runs every driver's calibration cell, places its offered points
    (the explicit ``rates``, else ``multipliers`` times its measured
    base rate), and runs every driver x point cell that
    ``point_cells(driver, offered)`` builds in one fan-out.  Returns
    ``driver -> ((base_rtt_us, base_rate_pps), point outcomes)``, the
    outcomes in cell order.
    """
    if not rates and not multipliers:
        raise ValueError("an open-loop sweep needs at least one offered-load point")
    calibration = run_cells(
        calibration_cells(drivers, payload_sizes, packets, seed, profile), jobs
    )
    base: Dict[str, Tuple[float, float]] = {
        outcome.cell.driver: outcome.value for outcome in calibration
    }
    cells: List[Cell] = []
    for driver in drivers:
        _, base_rate = base[driver]
        offered = list(rates) if rates else [m * base_rate for m in multipliers]
        cells.extend(point_cells(driver, offered))
    points: Dict[str, List[CellOutcome]] = {driver: [] for driver in drivers}
    for outcome in run_cells(cells, jobs):
        points[outcome.cell.driver].append(outcome)
    return {driver: (base[driver], points[driver]) for driver in drivers}


def run_load_sweep(
    drivers: Sequence[str] = ("virtio", "xdma"),
    packets: Optional[int] = None,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    rates: Optional[Sequence[float]] = None,
    outstanding: Optional[Sequence[int]] = None,
    arrival: str = "poisson",
    payload_sizes: Sequence[int] = (64,),
    jobs: int = 1,
) -> Tuple[dict, str]:
    """Offered-load sweep on both driver stacks (``loadsweep`` CLI).

    Open-loop by default: each driver is swept across offered-load
    points (auto-placed at multiples of its measured ping-pong rate, or
    at explicit ``rates``), reporting throughput-vs-load and
    p50/p95/p99-vs-load tables plus the saturation knee.  Passing
    ``outstanding`` switches to a closed-loop sweep over those
    outstanding-request counts instead, one driver x outstanding
    fan-out.

    Returns ``(results, text)`` where ``results`` maps driver name to a
    :class:`repro.workload.sweep.LoadSweepResult` (or
    :class:`~repro.workload.sweep.ClosedSweepResult`).
    """
    if packets is None:
        packets = default_packets(400)
    results: dict = {}
    if outstanding:
        cells = [
            cell
            for driver in drivers
            for cell in closed_sweep_cells(
                driver, outstanding, payload_sizes, packets, seed, profile
            )
        ]
        points: Dict[str, list] = {driver: [] for driver in drivers}
        for outcome in run_cells(cells, jobs):
            points[outcome.cell.driver].append(outcome.value)
        for driver in drivers:
            results[driver] = ClosedSweepResult(
                driver=driver, seed=seed, points=points[driver]
            )
    else:
        def point_cells(driver: str, offered: List[float]) -> List[Cell]:
            return open_sweep_cells(
                driver, offered, payload_sizes, packets, seed, arrival, profile
            )

        swept = calibrated_points(
            drivers, point_cells, DEFAULT_MULTIPLIERS, rates, payload_sizes,
            packets, seed, profile, jobs,
        )
        for driver, ((rtt_us, base_rate), outcomes) in swept.items():
            results[driver] = LoadSweepResult(
                driver=driver,
                seed=seed,
                arrival_kind=arrival,
                base_rtt_us=rtt_us,
                base_rate_pps=base_rate,
                points=[
                    LoadPoint(offered_pps=o.cell.rate_pps, metrics=o.value)
                    for o in outcomes
                ],
            )
    blocks = [results[driver].render() for driver in drivers]
    title = (
        "Load sweep (closed loop)" if outstanding
        else "Load sweep (open loop)"
    )
    return results, title + "\n\n" + "\n\n".join(blocks)


# -- Section V claims -----------------------------------------------------------------------


@dataclass
class ClaimCheck:
    """One verifiable claim from the paper's evaluation section."""

    claim: str
    holds: bool
    evidence: str


def verify_paper_claims(comparison: ComparisonResult) -> list[ClaimCheck]:
    """Check the paper's qualitative claims against a comparison run.

    These are the statements the reproduction is accountable for --
    who wins, variance ordering, breakdown structure, tail convergence
    -- rather than absolute microsecond values.
    """
    checks: list[ClaimCheck] = []
    payloads = comparison.payload_sizes()

    # Claim 1: VirtIO comparable or better at p95/p99 (Section V,
    # Table I: "VirtIO shows lower tail latencies at 95 and 99
    # percentiles").
    p95_ok, p99_ok, evid95, evid99 = True, True, [], []
    for payload in payloads:
        v = comparison.virtio[payload].tail_latencies_us()
        x = comparison.xdma[payload].tail_latencies_us()
        p95_ok &= v[95.0] <= x[95.0]
        p99_ok &= v[99.0] <= x[99.0]
        evid95.append(f"{payload}B: {v[95.0]:.1f} vs {x[95.0]:.1f}")
        evid99.append(f"{payload}B: {v[99.0]:.1f} vs {x[99.0]:.1f}")
    checks.append(
        ClaimCheck("VirtIO p95 <= XDMA p95 at every payload", p95_ok, "; ".join(evid95))
    )
    checks.append(
        ClaimCheck("VirtIO p99 <= XDMA p99 at every payload", p99_ok, "; ".join(evid99))
    )

    # Claim 2: VirtIO has lower variance ("the VirtIO results show much
    # lower variance").  Measured as the p90-p10 spread of the
    # distribution: that is what Fig. 3's distributions show, and unlike
    # the sample standard deviation it is not dominated by a handful of
    # rare preemption stalls in finite runs.
    import numpy as np

    var_ok, evid = True, []
    for payload in payloads:
        v = comparison.virtio[payload].adjusted_rtt_ps
        x = comparison.xdma[payload].adjusted_rtt_ps
        v_spread = float(np.percentile(v, 90) - np.percentile(v, 10)) / 1e6
        x_spread = float(np.percentile(x, 90) - np.percentile(x, 10)) / 1e6
        var_ok &= v_spread < x_spread
        evid.append(f"{payload}B: p90-p10 {v_spread:.1f} vs {x_spread:.1f}")
    checks.append(
        ClaimCheck("VirtIO dispersion (p90-p10) < XDMA dispersion", var_ok, "; ".join(evid))
    )

    # Claim 3: tail gap shrinks at p99.9 ("there isn't a significant
    # difference when we approach 99.9% tail latency").  p99.9 of a
    # finite run is dominated by a handful of samples, so the check
    # aggregates across payload sizes rather than requiring monotone
    # convergence at every single size (the paper's own Table I is not
    # monotone either: at 256 B its XDMA p99.9 is *below* VirtIO's).
    gaps95, gaps999, evid = [], [], []
    for payload in payloads:
        v = comparison.virtio[payload].tail_latencies_us()
        x = comparison.xdma[payload].tail_latencies_us()
        gap95 = (x[95.0] - v[95.0]) / v[95.0]
        gap999 = (x[99.9] - v[99.9]) / v[99.9]
        gaps95.append(gap95)
        gaps999.append(gap999)
        evid.append(f"{payload}B: gap p95 {gap95:+.0%} -> p99.9 {gap999:+.0%}")
    mean_gap95 = sum(gaps95) / len(gaps95)
    mean_gap999 = sum(gaps999) / len(gaps999)
    checks.append(
        ClaimCheck(
            "relative VirtIO advantage shrinks from p95 to p99.9 (mean over payloads)",
            mean_gap999 < mean_gap95,
            f"mean gap p95 {mean_gap95:+.0%} -> p99.9 {mean_gap999:+.0%}; " + "; ".join(evid),
        )
    )

    # Claim 4: VirtIO hardware time exceeds software time; XDMA the
    # reverse ("the time taken by the hardware is higher than the time
    # for software with the VirtIO driver and vice versa").
    v_rows = breakdown_rows(comparison.virtio)
    x_rows = breakdown_rows(comparison.xdma)
    v_ok = all(r.hw_mean_us > r.sw_mean_us for r in v_rows)
    x_ok = all(r.sw_mean_us > r.hw_mean_us for r in x_rows)
    checks.append(
        ClaimCheck(
            "VirtIO: hardware share > software share",
            v_ok,
            "; ".join(f"{r.payload}B: hw {r.hw_mean_us:.1f} sw {r.sw_mean_us:.1f}"
                      for r in v_rows),
        )
    )
    checks.append(
        ClaimCheck(
            "XDMA: software share > hardware share",
            x_ok,
            "; ".join(f"{r.payload}B: hw {r.hw_mean_us:.1f} sw {r.sw_mean_us:.1f}"
                      for r in x_rows),
        )
    )

    # Claim 5: VirtIO software share roughly constant across payloads
    # ("the average latency for the software stack remains virtually
    # constant throughout the range of payloads considered").
    sw_means = [r.sw_mean_us for r in v_rows]
    spread = (max(sw_means) - min(sw_means)) / min(sw_means)
    checks.append(
        ClaimCheck(
            "VirtIO software share constant across payloads (<15% spread)",
            spread < 0.15,
            f"sw means: {', '.join(f'{m:.1f}' for m in sw_means)} (spread {spread:.0%})",
        )
    )

    # Claim 6: hardware variance is minimal compared to software
    # variance ("the time taken by the hardware to perform the DMA
    # operations has minimal variance").
    hw_ok, evid = True, []
    for payload in payloads:
        result = comparison.virtio[payload]
        hw_sd = result.hw_summary().std_us
        sw_sd = result.sw_summary().std_us
        hw_ok &= hw_sd < sw_sd
        evid.append(f"{payload}B: hw sd {hw_sd:.2f} vs sw sd {sw_sd:.2f}")
    checks.append(
        ClaimCheck("VirtIO hardware variance < software variance", hw_ok, "; ".join(evid))
    )

    return checks


def render_claims(checks: Iterable[ClaimCheck]) -> str:
    lines = ["Section V claims:"]
    for check in checks:
        status = "PASS" if check.holds else "FAIL"
        lines.append(f"[{status}] {check.claim}")
        lines.append(f"       {check.evidence}")
    return "\n".join(lines)
