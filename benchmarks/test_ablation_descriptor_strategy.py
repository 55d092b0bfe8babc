"""A2: descriptor-exchange strategy (Section IV-A's design discussion).

The VirtIO device can *prefetch* RX descriptor chains because all ring
addresses were shared at initialization -- so delivery needs only the
data write + used-ring update.  Disabling prefetch degrades the device
to per-delivery descriptor fetching, the "exchange information at
transfer time" philosophy of legacy drivers.  The delta is the latency
value of init-time address sharing.
"""

import pytest

from benchmarks.conftest import attach_table
from repro.core.calibration import PAPER_PROFILE
from repro.core.experiments import run_sweep

PAYLOADS = (64, 1024)


@pytest.mark.benchmark(group="ablations")
def test_ablation_rx_descriptor_prefetch(benchmark, packets):
    def regenerate():
        prefetch = run_sweep("virtio", payload_sizes=PAYLOADS, packets=packets, seed=0)
        on_demand = run_sweep(
            "virtio", payload_sizes=PAYLOADS, packets=packets, seed=0,
            profile=PAPER_PROFILE.without_prefetch(),
        )
        return prefetch, on_demand

    prefetch, on_demand = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = ["A2: RX descriptor prefetch ablation (VirtIO mean us)"]
    for payload in PAYLOADS:
        pre = prefetch[payload].rtt_summary().mean_us
        demand = on_demand[payload].rtt_summary().mean_us
        lines.append(f"  {payload:>5} B: prefetch {pre:6.1f}  on-demand {demand:6.1f}  "
                     f"(+{demand - pre:.1f} us)")
        benchmark.extra_info[f"{payload}B"] = (round(pre, 1), round(demand, 1))
        # Fetching the chain at delivery time adds ring round trips to
        # the critical path.
        assert demand > pre
        # The hardware share grows; software is unchanged.
        assert (
            on_demand[payload].hw_summary().mean_us
            > prefetch[payload].hw_summary().mean_us
        )
        assert on_demand[payload].sw_summary().mean_us == pytest.approx(
            prefetch[payload].sw_summary().mean_us, rel=0.15
        )
    attach_table(benchmark, "Ablation A2", "\n".join(lines))
