"""Cell decomposition and seed-derivation invariants."""

import pytest

from repro.core.experiments import run_load_sweep
from repro.exec import (
    Cell,
    cell_seed,
    closed_sweep_cells,
    derive_cell_seed,
    execute_cell,
    latency_cells,
    run_cells,
    seed_identity,
)
from repro.exec.cells import (
    SEED_IDENTITY_ALIASES,
    calibration_cells,
    fault_cells,
    open_sweep_cells,
)
from repro.faults.experiments import run_fault_sweep
from repro.guest.experiments import run_guest_sweep
from repro.health.experiments import run_overload_sweep


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_cell_seed(0, "latency", "virtio", 64) == derive_cell_seed(
            0, "latency", "virtio", 64
        )

    def test_distinct_per_identity(self):
        seeds = {
            derive_cell_seed(0, "latency", driver, payload)
            for driver in ("virtio", "xdma")
            for payload in (64, 256, 1024, 2048, 4096)
        }
        assert len(seeds) == 10

    def test_distinct_per_root_seed(self):
        assert derive_cell_seed(0, "latency", "virtio", 64) != derive_cell_seed(
            1, "latency", "virtio", 64
        )

    def test_distinct_per_kind(self):
        assert derive_cell_seed(0, "latency", "virtio", 1) != derive_cell_seed(
            0, "closedload", "virtio", 1
        )

    def test_seed_fits_simulator(self):
        seed = derive_cell_seed(12345, "latency", "xdma", 4096)
        assert 0 <= seed < (1 << 128)


class TestSeedIdentity:
    """The one helper that owns every kind's spawn-key identity."""

    def test_identity_tuples(self):
        assert seed_identity("latency", "virtio", payload=64) == (
            "latency", "virtio", 64
        )
        assert seed_identity("calibrate", "xdma") == ("calibrate", "xdma")
        assert seed_identity("openload", "virtio", index=3) == (
            "openload", "virtio", 3
        )
        assert seed_identity("closedload", "xdma", outstanding=4) == (
            "closedload", "xdma", 4
        )
        assert seed_identity("fleet", pod=1) == ("fleet", 1)

    def test_aliased_kinds_share_parent_identity(self):
        # faultlat/guest cells must replay the latency cell's stream
        # (the baseline column pin), overload must replay openload's.
        assert seed_identity("faultlat", "virtio", payload=64) == seed_identity(
            "latency", "virtio", payload=64
        )
        assert seed_identity("guest", "virtio", payload=64) == seed_identity(
            "latency", "virtio", payload=64
        )
        assert seed_identity("overload", "xdma", index=2) == seed_identity(
            "openload", "xdma", index=2
        )
        assert set(SEED_IDENTITY_ALIASES) == {"faultlat", "guest", "overload"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="no seed identity"):
            seed_identity("thermal", "virtio", payload=64)

    def test_incomplete_identity_rejected(self):
        with pytest.raises(ValueError, match="incomplete seed identity"):
            seed_identity("latency", "virtio")  # payload missing
        with pytest.raises(ValueError, match="incomplete seed identity"):
            seed_identity("closedload", "xdma")  # outstanding missing

    def test_cell_seed_matches_raw_derivation(self):
        assert cell_seed(7, "latency", "virtio", payload=64) == derive_cell_seed(
            7, "latency", "virtio", 64
        )

    def test_factories_agree_with_helper(self):
        lat = latency_cells((64,), packets=5, seed=7)[0]
        assert lat.seed == cell_seed(7, "latency", lat.driver, payload=64)
        fault = fault_cells(("virtio",), (0.01,), payload=64, packets=5, seed=7)[0]
        assert fault.seed == cell_seed(7, "faultlat", fault.driver, payload=64)
        closed = closed_sweep_cells("xdma", (2,), (64,), packets=5, seed=7)[0]
        assert closed.seed == cell_seed(7, "closedload", "xdma", outstanding=2)


class TestDecomposition:
    def test_latency_cells_cover_driver_x_payload(self):
        cells = latency_cells((64, 1024), packets=10, seed=0)
        assert [(c.driver, c.payload) for c in cells] == [
            ("virtio", 64), ("virtio", 1024), ("xdma", 64), ("xdma", 1024),
        ]
        assert all(c.kind == "latency" and c.packets == 10 for c in cells)

    def test_cell_seeds_do_not_depend_on_packet_count(self):
        # Identity is (kind, driver, payload): shrinking a run for a
        # smoke test keeps each cell's stream recognizable.
        a = latency_cells((64,), packets=10, seed=3)[0].seed
        b = latency_cells((64,), packets=10_000, seed=3)[0].seed
        assert a == b

    def test_closed_sweep_cells(self):
        cells = closed_sweep_cells("virtio", (1, 2, 4), (64,), packets=5, seed=0)
        assert [c.outstanding for c in cells] == [1, 2, 4]
        assert len({c.seed for c in cells}) == 3

    def test_open_sweep_cells_seeded_by_index(self):
        a = open_sweep_cells("xdma", [1000.0, 2000.0], (64,), 5, seed=0)
        b = open_sweep_cells("xdma", [1111.0, 2222.0], (64,), 5, seed=0)
        # Same indices, same seeds -- rates are labels, not identity.
        assert [c.seed for c in a] == [c.seed for c in b]

    def test_calibration_cells_one_per_driver(self):
        cells = calibration_cells(("virtio", "xdma"), (64,), 5, seed=0)
        assert [c.driver for c in cells] == ["virtio", "xdma"]

    def test_labels(self):
        assert latency_cells((64,), 1, 0)[0].label == "virtio/64B"
        assert closed_sweep_cells("xdma", (4,), (64,), 1, 0)[0].label == "xdma/N=4"


class TestRunCells:
    def test_unknown_driver_rejected(self):
        cell = Cell(kind="latency", driver="nvme", seed=0, packets=1,
                    profile=None, payload=64)
        with pytest.raises(Exception, match="unknown driver"):
            execute_cell(cell)

    def test_outcomes_follow_cell_order(self):
        cells = latency_cells((1024, 64), packets=20, seed=0)
        outcomes = run_cells(cells, jobs=1)
        assert [o.cell.payload for o in outcomes] == [1024, 64, 1024, 64]
        assert all(o.events > 0 for o in outcomes)

    def test_execute_cell_is_pure(self):
        cell = latency_cells((64,), packets=25, seed=9)[0]
        first = execute_cell(cell)
        second = execute_cell(cell)
        assert (first.value.rtt_ps == second.value.rtt_ps).all()
        assert first.events == second.events


class TestUnknownDriver:
    """An unknown driver is one ValueError, raised before any cell
    runs, on every artifact path and at any worker count."""

    SWEEPS = {
        "load": lambda jobs: run_load_sweep(
            drivers=("nvme",), packets=10, rates=[1000], jobs=jobs
        ),
        "fault": lambda jobs: run_fault_sweep(
            rates=(0.0,), packets=10, drivers=("nvme",), jobs=jobs
        ),
        "overload": lambda jobs: run_overload_sweep(
            drivers=("nvme",), packets=10, jobs=jobs
        ),
        "guest": lambda jobs: run_guest_sweep(
            payload_sizes=(64,), packets=10, drivers=("nvme",), jobs=jobs
        ),
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_rejected_before_any_cell_runs(self, sweep, jobs, monkeypatch):
        def no_cells(cells, jobs):
            raise AssertionError(f"cells ran: {[c.label for c in cells]}")

        monkeypatch.setattr("repro.exec.runner._run_cells_fresh", no_cells)
        with pytest.raises(ValueError, match="unknown driver 'nvme'"):
            self.SWEEPS[sweep](jobs)


class TestEmptyOpenLoopSweep:
    """A calibrated open-loop sweep with no offered point is one
    ValueError, raised before the calibration cells run."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_multipliers_rejected_before_any_cell_runs(self, jobs, monkeypatch):
        def no_cells(cells, jobs):
            raise AssertionError(f"cells ran: {[c.label for c in cells]}")

        monkeypatch.setattr("repro.exec.runner._run_cells_fresh", no_cells)
        with pytest.raises(ValueError, match="at least one offered-load point"):
            run_overload_sweep(drivers=("virtio",), packets=10, multipliers=(),
                               jobs=jobs)
