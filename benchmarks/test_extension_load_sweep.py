"""Extension: offered-load sweep through saturation (beyond the paper).

The paper reports one-in-flight ping-pong latency only; it never drives
either stack past its knee. This bench uses the workload engine's
open-loop generator to sweep Poisson offered load across multiples of
each driver's measured base rate and checks the queueing-theoretic
shape of the response:

* below the base rate the system keeps up (achieved ~ offered) and
  latency sits at the ping-pong floor;
* past the knee achieved throughput plateaus at capacity while the
  tail percentiles grow with the backlog;
* VirtIO's capacity exceeds XDMA's, consistent with the paper's
  one-in-flight ranking (fewer interrupts per packet, deeper ring).
"""

import pytest

from benchmarks.conftest import attach_table
from repro.core.experiments import run_load_sweep


@pytest.mark.benchmark(group="extensions")
def test_extension_load_sweep(benchmark, packets):
    count = max(120, min(packets, 300))

    def regenerate():
        sweeps, _ = run_load_sweep(packets=count, seed=0)
        return sweeps

    sweeps = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = ["Extension: offered-load sweep (64 B payload, Poisson arrivals)"]
    for driver, sweep in sweeps.items():
        lines.append(sweep.render())
        benchmark.extra_info[f"{driver}_capacity_kpps"] = round(
            sweep.capacity_pps() / 1e3, 1
        )
        knee = sweep.knee_pps()
        benchmark.extra_info[f"{driver}_knee_kpps"] = (
            round(knee / 1e3, 1) if knee is not None else None
        )
    attach_table(benchmark, "Load-sweep extension", "\n\n".join(lines))

    for driver, sweep in sweeps.items():
        points = {
            round(p.offered_pps / sweep.base_rate_pps, 2): p.metrics
            for p in sweep.points
        }
        # Light load: the stack keeps up. Short Poisson runs wobble
        # around the offered rate, so the tolerance is loose.
        light = points[0.25]
        assert light.dropped == 0
        assert light.achieved_pps == pytest.approx(
            0.25 * sweep.base_rate_pps, rel=0.35
        )
        # ...and latency sits near the one-in-flight floor.
        light_p50 = light.latency_percentiles_us()[50.0]
        assert light_p50 == pytest.approx(sweep.base_rtt_us, rel=0.5)
        # Heavy load: saturated well below the offered rate.
        heavy = points[8.0]
        assert heavy.achieved_pps < 0.9 * 8.0 * sweep.base_rate_pps
        # The sweep's knee was actually located.
        assert sweep.knee_pps() is not None
        # Tail latency grows through the knee.
        assert (
            heavy.latency_percentiles_us()[99.0]
            > 3 * light.latency_percentiles_us()[99.0]
        )

    # Capacity ranking matches the paper's latency ranking.
    assert sweeps["virtio"].capacity_pps() > sweeps["xdma"].capacity_pps()
