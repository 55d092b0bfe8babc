"""Experiment layer: testbeds, calibration, latency runs, and the
figure/table reproductions."""

from repro.core.calibration import (
    FPGA_IP,
    FPGA_MAC,
    HOST_IP,
    PAPER_PACKETS_PER_SIZE,
    PAPER_PAYLOAD_SIZES,
    PAPER_PROFILE,
    TEST_DST_PORT,
    TEST_SRC_PORT,
    VIRTIO_WIRE_OVERHEAD,
    CalibrationProfile,
    xdma_transfer_size,
)
from repro.core.latency import (
    ExperimentError,
    run_latency_sweep,
    run_payload,
)
from repro.core.results import (
    BreakdownRow,
    ComparisonResult,
    PayloadResult,
    SweepResult,
    breakdown_rows,
    render_breakdown,
)
from repro.core.testbed import (
    TestbedError,
    VirtioTestbed,
    XdmaTestbed,
    build_virtio_testbed,
    build_xdma_testbed,
)

__all__ = [
    "BreakdownRow",
    "CalibrationProfile",
    "ComparisonResult",
    "ExperimentError",
    "FPGA_IP",
    "FPGA_MAC",
    "HOST_IP",
    "PAPER_PACKETS_PER_SIZE",
    "PAPER_PAYLOAD_SIZES",
    "PAPER_PROFILE",
    "PayloadResult",
    "SweepResult",
    "TEST_DST_PORT",
    "TEST_SRC_PORT",
    "TestbedError",
    "VIRTIO_WIRE_OVERHEAD",
    "VirtioTestbed",
    "XdmaTestbed",
    "breakdown_rows",
    "build_virtio_testbed",
    "build_xdma_testbed",
    "render_breakdown",
    "run_latency_sweep",
    "run_payload",
    "xdma_transfer_size",
]
