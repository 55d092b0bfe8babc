"""A4: PCIe link generation/width sensitivity.

The paper's future work (Section VI) is a portability study across
devices; the first-order hardware difference between boards is the
negotiated link.  This sweep varies generation and width and checks the
expected sensitivity: faster links shrink the *hardware* share (and the
VirtIO-vs-XDMA ordering is link-independent).
"""

import pytest

from benchmarks.conftest import attach_table
from repro.core.calibration import PAPER_PROFILE
from repro.core.experiments import run_sweep

PAYLOAD = 1024
LINKS = [(1, 2), (2, 2), (2, 4), (3, 4)]


@pytest.mark.benchmark(group="ablations")
def test_ablation_link_speed(benchmark, packets):
    def regenerate():
        out = {}
        for generation, lanes in LINKS:
            profile = PAPER_PROFILE.with_link(generation, lanes)
            out[(generation, lanes)] = {
                "virtio": run_sweep("virtio", [PAYLOAD], packets, 0, profile)[PAYLOAD],
                "xdma": run_sweep("xdma", [PAYLOAD], packets, 0, profile)[PAYLOAD],
            }
        return out

    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = [f"A4: link sensitivity at {PAYLOAD} B (mean us: virtio / xdma, hw shares)"]
    for (generation, lanes), row in results.items():
        v = row["virtio"].rtt_summary().mean_us
        x = row["xdma"].rtt_summary().mean_us
        vhw = row["virtio"].hw_summary().mean_us
        xhw = row["xdma"].hw_summary().mean_us
        lines.append(
            f"  Gen{generation} x{lanes}: {v:6.1f} / {x:6.1f}   hw {vhw:5.1f} / {xhw:5.1f}"
        )
        benchmark.extra_info[f"gen{generation}x{lanes}"] = (round(v, 1), round(x, 1))
    attach_table(benchmark, "Ablation A4", "\n".join(lines))

    # Faster links reduce the hardware share monotonically...
    hw_series = [results[link]["virtio"].hw_summary().mean_us for link in LINKS]
    assert hw_series == sorted(hw_series, reverse=True)
    # ...and VirtIO stays ahead on every link (the paper's conclusion is
    # not an artifact of Gen2 x2).
    for link in LINKS:
        assert (
            results[link]["virtio"].rtt_summary().mean_us
            < results[link]["xdma"].rtt_summary().mean_us
        )
