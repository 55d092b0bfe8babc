"""Tests for the experiment runners and sweep machinery (small packet
counts; the full-scale claims run lives in test_paper_claims.py)."""

import os

import numpy as np
import pytest

from repro.core.experiments import (
    default_packets,
    figure4,
    figure5,
    run_comparison,
    run_load_sweep,
    run_sweep,
)
from repro.core.latency import run_latency_sweep, run_payload
from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.exec import runner
from repro.faults.experiments import run_fault_sweep, run_reset_recovery
from repro.guest.experiments import run_guest_sweep
from repro.health.experiments import run_overload_soak, run_overload_sweep
from repro.topology.experiments import run_fleet_sweep


PACKETS = 60


@pytest.fixture(scope="module")
def virtio_sweep():
    return run_sweep("virtio", payload_sizes=[64, 256], packets=PACKETS, seed=17)


@pytest.fixture(scope="module")
def xdma_sweep():
    return run_sweep("xdma", payload_sizes=[64, 256], packets=PACKETS, seed=17)


class TestSweeps:
    def test_packet_counts(self, virtio_sweep, xdma_sweep):
        for sweep in (virtio_sweep, xdma_sweep):
            for payload in (64, 256):
                assert sweep[payload].packets == PACKETS

    def test_virtio_hw_series_align_with_packets(self, virtio_sweep):
        result = virtio_sweep[64]
        assert len(result.hw_ps) == len(result.rtt_ps) == len(result.resp_ps)

    def test_xdma_resp_is_zero(self, xdma_sweep):
        """The XDMA test has no response generation to deduct."""
        assert (xdma_sweep[64].resp_ps == 0).all()

    def test_virtio_resp_positive(self, virtio_sweep):
        assert (virtio_sweep[64].resp_ps > 0).all()

    def test_hw_grows_with_payload(self, virtio_sweep, xdma_sweep):
        for sweep in (virtio_sweep, xdma_sweep):
            assert sweep[256].hw_summary().mean_us > sweep[64].hw_summary().mean_us

    def test_rtt_exceeds_hw(self, virtio_sweep):
        result = virtio_sweep[64]
        assert (result.rtt_ps > result.hw_ps).all()

    def test_hw_quantized_to_8ns(self, virtio_sweep):
        """Performance-counter readings are whole 125 MHz cycles."""
        assert (virtio_sweep[64].hw_ps % 8000 == 0).all()

    def test_dispatch_by_testbed_type(self):
        virtio = build_virtio_testbed(seed=1)
        sweep = run_latency_sweep(virtio, payload_sizes=[64], packets=10)
        assert sweep.driver == "virtio"
        xdma = build_xdma_testbed(seed=1)
        sweep = run_latency_sweep(xdma, payload_sizes=[64], packets=10)
        assert sweep.driver == "xdma"

    def test_unknown_testbed_rejected(self):
        with pytest.raises(TypeError):
            run_latency_sweep(object(), payload_sizes=[64], packets=1)

    def test_invalid_packet_count(self):
        testbed = build_virtio_testbed(seed=1)
        with pytest.raises(ValueError):
            run_payload(testbed, 64, 0)


class TestReproducibility:
    def test_same_seed_identical_series(self):
        a = run_sweep("virtio", payload_sizes=[64], packets=20, seed=5)
        b = run_sweep("virtio", payload_sizes=[64], packets=20, seed=5)
        assert np.array_equal(a[64].rtt_ps, b[64].rtt_ps)
        assert np.array_equal(a[64].hw_ps, b[64].hw_ps)

    def test_different_seeds_differ(self):
        a = run_sweep("virtio", payload_sizes=[64], packets=20, seed=5)
        b = run_sweep("virtio", payload_sizes=[64], packets=20, seed=6)
        assert not np.array_equal(a[64].rtt_ps, b[64].rtt_ps)


class TestArtifacts:
    def test_figure4_text(self):
        _, text = figure4(payload_sizes=[64], packets=20, seed=3)
        assert "Figure 4" in text and "VirtIO" in text

    def test_figure5_text(self):
        _, text = figure5(payload_sizes=[64], packets=20, seed=3)
        assert "Figure 5" in text and "XDMA" in text


class TestLoadSweep:
    def test_open_loop_explicit_rates(self):
        results, text = run_load_sweep(
            drivers=("virtio",), packets=40, seed=2, rates=[5_000, 20_000]
        )
        assert set(results) == {"virtio"}
        sweep = results["virtio"]
        assert [p.offered_pps for p in sweep.points] == [5_000, 20_000]
        assert "offered" in text and "p99" in text

    def test_closed_loop_mode(self):
        results, text = run_load_sweep(
            drivers=("xdma",), packets=40, seed=2, outstanding=[1, 2]
        )
        sweep = results["xdma"]
        assert [m.outstanding for m in sweep.points] == [1, 2]
        assert "closed loop" in text

    def test_unknown_driver_rejected(self):
        with pytest.raises(ValueError):
            run_load_sweep(drivers=("nvme",), packets=10, rates=[1000])


#: Every experiment entry point, each with a packet count of 0.
ZERO_PACKET_RUNS = {
    "virtio_sweep": lambda: run_sweep("virtio", [64], packets=0),
    "xdma_sweep": lambda: run_sweep("xdma", [64], packets=0),
    "comparison": lambda: run_comparison([64], packets=0),
    "fault_sweep": lambda: run_fault_sweep(rates=(0.0,), packets=0),
    "reset_recovery": lambda: run_reset_recovery(packets=0),
    "load_sweep_open": lambda: run_load_sweep(
        drivers=("virtio",), packets=0, rates=[5_000]
    ),
    "load_sweep_closed": lambda: run_load_sweep(
        drivers=("virtio",), packets=0, outstanding=[1]
    ),
    "overload_sweep": lambda: run_overload_sweep(drivers=("virtio",), packets=0),
    "overload_soak": lambda: run_overload_soak(drivers=("virtio",), packets=0),
    "fleet_sweep": lambda: run_fleet_sweep(pods=1, tenants=2, packets=0),
    "guest_sweep": lambda: run_guest_sweep([64], packets=0),
}


def _no_cell(cell):
    raise AssertionError(f"cell {cell.label} ran with a packet count of 0")


class TestZeroPackets:
    """0 is a packet count, not "unset": it fails before any cell runs,
    instead of measuring the default count under a label of 0."""

    @pytest.mark.parametrize("entry", sorted(ZERO_PACKET_RUNS))
    def test_zero_packets_raise(self, entry, monkeypatch):
        monkeypatch.delenv("REPRO_PACKETS", raising=False)
        monkeypatch.setattr(runner, "execute_cell", _no_cell)
        with pytest.raises(ValueError, match="packets must be positive, got 0"):
            ZERO_PACKET_RUNS[entry]()


class TestDefaultPackets:
    def test_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_PACKETS", raising=False)
        assert default_packets(1234) == 1234

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PACKETS", "777")
        assert default_packets() == 777

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PACKETS", "-1")
        with pytest.raises(ValueError):
            default_packets()

    def test_non_integer_env_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_PACKETS", "abc")
        with pytest.raises(ValueError) as excinfo:
            default_packets()
        message = str(excinfo.value)
        assert "REPRO_PACKETS" in message
        assert "abc" in message

    def test_float_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PACKETS", "10.5")
        with pytest.raises(ValueError) as excinfo:
            default_packets()
        assert "REPRO_PACKETS" in str(excinfo.value)
