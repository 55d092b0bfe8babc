"""Tests for the E-V1 guest-mode sweep (repro.guest.experiments)."""

import json

import pytest

from repro.exec.cells import derive_cell_seed, guest_cells, latency_cells
from repro.exec.runner import run_cells
from repro.guest.experiments import run_guest_sweep
from repro.topology.spec import (
    DeviceSpec,
    FunctionSpec,
    GuestSpec,
    TopologyError,
    TopologySpec,
)

FAST = dict(payload_sizes=(64,), packets=10, seed=7)


class TestGuestSpecValidation:
    def test_defaults_are_bare_pci(self):
        guest = GuestSpec()
        assert guest.mode == "bare"
        assert guest.transport == "pci"

    def test_unknown_mode_rejected(self):
        with pytest.raises(TopologyError, match="guest mode"):
            GuestSpec(mode="emulated")

    def test_unknown_transport_rejected(self):
        with pytest.raises(TopologyError, match="transport"):
            GuestSpec(transport="ccw")

    def test_mmio_requires_virtio(self):
        with pytest.raises(TopologyError, match="virtio-mmio"):
            TopologySpec.single_xdma(GuestSpec(transport="mmio"))

    def test_guest_needs_single_legacy_machine(self):
        with pytest.raises(TopologyError, match="single-endpoint"):
            TopologySpec(
                devices=(
                    DeviceSpec(functions=(FunctionSpec(queue_pairs=2),)),
                ),
                guest=GuestSpec(),
            )

    def test_guest_rejects_console(self):
        with pytest.raises(TopologyError, match="two drivers"):
            TopologySpec(
                devices=(DeviceSpec(kind="virtio-console"),),
                guest=GuestSpec(),
            )


class TestGuestCells:
    def test_construction_order_is_driver_mode_payload(self):
        cells = guest_cells((64, 1024), packets=5, seed=0, modes=("bare", "vhost"))
        labels = [c.label for c in cells]
        assert labels == [
            "virtio/bare/64B", "virtio/bare/1024B",
            "virtio/vhost/64B", "virtio/vhost/1024B",
            "xdma/bare/64B", "xdma/bare/1024B",
            "xdma/vhost/64B", "xdma/vhost/1024B",
        ]

    def test_seed_identity_matches_latency_cells(self):
        # The bare column must boot the same machine as the paper's
        # latency cells: same (kind "latency", driver, payload) stream.
        guest = guest_cells((64,), packets=5, seed=3, modes=("bare",))
        plain = latency_cells((64,), packets=5, seed=3)
        assert guest[0].seed == plain[0].seed
        assert guest[0].seed == derive_cell_seed(3, "latency", "virtio", 64)

    def test_mode_does_not_change_seed(self):
        by_mode = {
            cell.guest_mode: cell.seed
            for cell in guest_cells((64,), packets=5, seed=3, drivers=("virtio",))
        }
        assert len(set(by_mode.values())) == 1


class TestRunGuestSweep:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown guest mode"):
            run_guest_sweep(**FAST, modes=("paravirt",))

    def test_mmio_drops_xdma(self):
        report = run_guest_sweep(**FAST, modes=("bare",), transport="mmio")
        assert report.drivers == ("virtio",)

    def test_mmio_without_virtio_rejected(self):
        with pytest.raises(ValueError, match="virtio driver"):
            run_guest_sweep(**FAST, transport="mmio", drivers=("xdma",))

    def test_jobs_parity(self):
        serial = run_guest_sweep(**FAST, jobs=1)
        parallel = run_guest_sweep(**FAST, jobs=2)
        assert json.dumps(serial.as_dict()) == json.dumps(parallel.as_dict())

    def test_bare_column_matches_plain_latency_cells(self):
        # Acceptance: mode=bare rows are byte-identical to the pre-PR
        # artifacts (same cells, same machines, same numbers).
        report = run_guest_sweep(**FAST, modes=("bare",))
        plain = {
            (o.cell.driver, o.cell.payload): o.value
            for o in run_cells(latency_cells((64,), packets=10, seed=7), jobs=1)
        }
        for driver in ("virtio", "xdma"):
            guest_result = report.results[driver]["bare"].sweep[64]
            plain_result = plain[(driver, 64)]
            assert (guest_result.rtt_ps == plain_result.rtt_ps).all()
            assert (guest_result.hw_ps == plain_result.hw_ps).all()

    def test_trap_column(self):
        report = run_guest_sweep(**FAST, modes=("bare", "trapped"))
        bare = report.results["virtio"]["bare"]
        trapped = report.results["virtio"]["trapped"]
        assert bare.sweep[64].trap_ps is None
        assert bare.breakdown_rows()[0]["trap_mean_us"] == 0.0
        assert (trapped.sweep[64].trap_ps > 0).all()
        assert trapped.breakdown_rows()[0]["trap_mean_us"] > 0.0
        assert trapped.vmm_stats[64]["vmexits"] > 0
        assert bare.vmm_stats == {}

    def test_as_dict_shape(self):
        report = run_guest_sweep(**FAST, modes=("vhost",), drivers=("virtio",))
        doc = report.as_dict()
        assert doc["experiment"] == "E-V1"
        row = doc["results"]["virtio"]["vhost"]["64"]
        assert {"rtt_mean_us", "p99_us", "hw_mean_us", "trap_mean_us", "vmm"} <= set(row)
        assert row["vmm"]["vhost_doorbells"] >= 10

    def test_render_has_one_block_per_column(self):
        report = run_guest_sweep(**FAST, modes=("bare", "vhost"))
        text = report.render()
        for block in ("virtio / bare", "virtio / vhost",
                      "xdma / bare", "xdma / vhost"):
            assert f"-- {block} --" in text
