"""Tests for the calibration profile and wire-size matching."""

import dataclasses

import pytest

from repro.core.calibration import (
    MIN_WIRE_BYTES,
    PAPER_PACKETS_PER_SIZE,
    PAPER_PAYLOAD_SIZES,
    PAPER_PROFILE,
    VIRTIO_WIRE_OVERHEAD,
    CalibrationProfile,
    xdma_transfer_size,
)
from repro.sim.random import LatencyModel


class TestPaperConstants:
    def test_payload_sweep_matches_paper(self):
        """Section V: payloads between 64 B and 1 KB."""
        assert PAPER_PAYLOAD_SIZES == (64, 128, 256, 512, 1024)

    def test_packets_per_size(self):
        """Section III-B3: 50 000 packets per payload size."""
        assert PAPER_PACKETS_PER_SIZE == 50_000

    def test_link_is_gen2_x2(self):
        assert PAPER_PROFILE.link.generation == 2
        assert PAPER_PROFILE.link.lanes == 2


class TestWireMatching:
    def test_overhead_is_protocol_headers(self):
        """virtio_net_hdr + Ethernet + IPv4 + UDP."""
        assert VIRTIO_WIRE_OVERHEAD == 12 + 14 + 20 + 8

    def test_transfer_size_adds_overhead(self):
        assert xdma_transfer_size(256) == 256 + VIRTIO_WIRE_OVERHEAD

    def test_minimum_frame_padding(self):
        assert xdma_transfer_size(1) == MIN_WIRE_BYTES

    def test_invalid_payload(self):
        with pytest.raises(ValueError):
            xdma_transfer_size(0)


class TestProfileVariants:
    def test_without_noise(self):
        profile = PAPER_PROFILE.without_noise()
        model = profile.build_cost_model()
        assert model.interference.rate_hz == 0.0
        assert model.segments["task_wakeup"] == LatencyModel(
            nominal_ps=model.segments["task_wakeup"].nominal_ps
        )

    def test_with_link(self):
        profile = PAPER_PROFILE.with_link(3, 8)
        assert profile.link.generation == 3
        assert profile.link.lanes == 8
        # Other link parameters preserved:
        assert profile.link.propagation_ns == PAPER_PROFILE.link.propagation_ns

    def test_without_prefetch(self):
        assert not PAPER_PROFILE.without_prefetch().rx_prefetch

    def test_xdma_c2h_interrupt(self):
        assert PAPER_PROFILE.with_xdma_c2h_interrupt().xdma_c2h_interrupt

    def test_profiles_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PAPER_PROFILE.noise_enabled = False
