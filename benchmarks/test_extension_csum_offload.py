"""Extension: checksum offload (VIRTIO_NET_F_CSUM) on vs off.

The paper's device [14]-derived design carries checksums in software
(Section IV-B mentions the VirtIO test's checksum overhead); the full
virtio-net feature set lets the device do it instead.

Measured with noise disabled so the shift is exact, the result is a
genuine micro-finding of the reproduction: on this fabric the offload
*increases* round-trip latency. The host's vectorized checksum costs
tens of nanoseconds, while the 125 MHz byte-serial checksum engine
needs ~8 ns/byte -- offload relieves the CPU but lengthens the wire-to
-wire path. (Latency-neutral offload would need a wider FPGA datapath,
which is exactly the kind of design guidance such a model exists to
give.)
"""

import dataclasses

import pytest

from benchmarks.conftest import attach_table
from repro.core.calibration import PAPER_PROFILE
from repro.core.experiments import run_sweep

PAYLOADS = (64, 1024)


@pytest.mark.benchmark(group="extensions")
def test_extension_checksum_offload(benchmark, packets):
    quiet = PAPER_PROFILE.without_noise()
    offload_quiet = dataclasses.replace(quiet, offer_csum=True)

    def regenerate():
        software = run_sweep("virtio", PAYLOADS, packets, 0, quiet)
        offload = run_sweep("virtio", PAYLOADS, packets, 0, offload_quiet)
        return software, offload

    software, offload = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = ["Extension: checksum offload, noise-free (VirtIO, mean us)"]
    for payload in PAYLOADS:
        sw_run = software[payload]
        hw_run = offload[payload]
        lines.append(
            f"  {payload:>5} B: software-csum rtt {sw_run.rtt_summary().mean_us:6.1f} "
            f"(host sw {sw_run.sw_summary().mean_us:5.2f}) | offloaded rtt "
            f"{hw_run.rtt_summary().mean_us:6.1f} (host sw {hw_run.sw_summary().mean_us:5.2f})"
        )
        benchmark.extra_info[f"{payload}B_rtt"] = (
            round(sw_run.rtt_summary().mean_us, 2),
            round(hw_run.rtt_summary().mean_us, 2),
        )
        # Offload strictly reduces host software time (TX checksum and
        # the RX verify pass both disappear)...
        assert hw_run.sw_summary().mean_us < sw_run.sw_summary().mean_us
        # ...and strictly increases FPGA hardware time (the byte-serial
        # checksum pass).
        assert hw_run.hw_summary().mean_us > sw_run.hw_summary().mean_us
    # The finding: at the paper's fabric width, the FPGA pass costs more
    # than the host saved, so offload lengthens the 1 KiB round trip.
    assert (
        offload[1024].rtt_summary().mean_us > software[1024].rtt_summary().mean_us
    )
    attach_table(benchmark, "Checksum offload extension", "\n".join(lines))
