"""A3: OS noise on/off.

With the interference fields and body jitter disabled, both drivers
become essentially deterministic -- isolating how much of the measured
variance is OS noise (all of it, per the paper's analysis: "the
software stack is responsible for the majority of the variance") versus
driver-inherent behaviour.
"""

import pytest

from benchmarks.conftest import attach_table
from repro.core.calibration import PAPER_PROFILE
from repro.core.experiments import run_sweep

PAYLOAD = 256


@pytest.mark.benchmark(group="ablations")
def test_ablation_noise_off(benchmark, packets):
    quiet = PAPER_PROFILE.without_noise()

    def regenerate():
        return {
            "virtio_noisy": run_sweep("virtio", [PAYLOAD], packets, 0)[PAYLOAD],
            "virtio_quiet": run_sweep("virtio", [PAYLOAD], packets, 0, quiet)[PAYLOAD],
            "xdma_noisy": run_sweep("xdma", [PAYLOAD], packets, 0)[PAYLOAD],
            "xdma_quiet": run_sweep("xdma", [PAYLOAD], packets, 0, quiet)[PAYLOAD],
        }

    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = [f"A3: noise ablation at {PAYLOAD} B (mean / sd, us)"]
    for name, result in results.items():
        summary = result.rtt_summary()
        lines.append(f"  {name:>13}: {summary.mean_us:6.1f} / {summary.std_us:5.2f}")
        benchmark.extra_info[name] = (round(summary.mean_us, 1), round(summary.std_us, 2))
    attach_table(benchmark, "Ablation A3", "\n".join(lines))

    # Without noise the software stack is deterministic: variance
    # collapses by more than an order of magnitude.
    for driver in ("virtio", "xdma"):
        noisy_sd = results[f"{driver}_noisy"].rtt_summary().std_us
        quiet_sd = results[f"{driver}_quiet"].rtt_summary().std_us
        assert quiet_sd < noisy_sd / 10
    # Quiet means stay close to noisy means (noise is roughly zero-mean
    # body jitter plus rare stalls).
    for driver in ("virtio", "xdma"):
        noisy = results[f"{driver}_noisy"].rtt_summary().mean_us
        quiet = results[f"{driver}_quiet"].rtt_summary().mean_us
        assert quiet == pytest.approx(noisy, rel=0.15)
    # The drivers' *ordering* is driver-inherent, not noise-driven.
    assert (
        results["virtio_quiet"].rtt_summary().mean_us
        < results["xdma_quiet"].rtt_summary().mean_us
    )
