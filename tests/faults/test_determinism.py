"""Determinism guards for the fault subsystem.

Two properties keep fault experiments trustworthy:

* a zero-rate plan is *bit-identical* to no plan at all -- the fault
  machinery (dedicated RNG streams, AnyOf-based waits, watchdog) must
  not perturb a single model draw or timestamp;
* a fault sweep merges bit-identically for any worker count, and its
  rate-0 column equals the fault-free latency cell.
"""

import numpy as np

from repro.core.latency import run_latency_sweep
from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.exec.cells import fault_cells, latency_cells
from repro.exec.runner import run_cells
from repro.faults.plan import driver_fault_plan

PACKETS = 40
PAYLOAD = 64


class TestZeroRateParity:
    """Attaching a rate-0 plan must leave every measured series
    bit-identical to a plain run of the same seed."""

    def _pair(self, build, driver):
        plain = build(seed=17)
        faulted = build(seed=17, fault_plan=driver_fault_plan(driver, 0.0))
        a = run_latency_sweep(plain, (PAYLOAD,), PACKETS)[PAYLOAD]
        b = run_latency_sweep(faulted, (PAYLOAD,), PACKETS)[PAYLOAD]
        return a, b, faulted

    def test_virtio_bit_identical(self):
        a, b, faulted = self._pair(build_virtio_testbed, "virtio")
        assert np.array_equal(a.rtt_ps, b.rtt_ps)
        assert np.array_equal(a.hw_ps, b.hw_ps)
        assert np.array_equal(a.resp_ps, b.resp_ps)
        assert sum(faulted.injector.injected.values()) == 0

    def test_xdma_bit_identical(self):
        a, b, faulted = self._pair(build_xdma_testbed, "xdma")
        assert np.array_equal(a.rtt_ps, b.rtt_ps)
        assert np.array_equal(a.hw_ps, b.hw_ps)
        assert sum(faulted.injector.injected.values()) == 0


class TestFaultRunReproducibility:
    def test_same_seed_same_faults_same_series(self):
        """Two identical fault-mode runs agree on every injection event
        and every measured round trip."""
        runs = []
        for _ in range(2):
            testbed = build_virtio_testbed(
                seed=29, fault_plan=driver_fault_plan("virtio", 0.05)
            )
            result = run_latency_sweep(testbed, (PAYLOAD,), PACKETS)[PAYLOAD]
            runs.append((result.rtt_ps, list(testbed.injector.events)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert runs[0][1]  # at 5% over ~80 opportunities, faults did fire


class TestSweepMergeDeterminism:
    RATES = (0.0, 0.05)

    def test_jobs_parity(self):
        """Fault-sweep cells return byte-identical outcomes in the same
        order for jobs=1 and jobs=4."""
        cells = fault_cells(("virtio", "xdma"), self.RATES, PAYLOAD, PACKETS, seed=3)
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=4)
        for driver in ("virtio", "xdma"):
            assert [
                o.cell.fault_rate for o in serial if o.cell.driver == driver
            ] == list(self.RATES)
        for a, b in zip(serial, parallel, strict=True):
            assert a.cell == b.cell
            (pa, rep_a), (pb, rep_b) = a.value, b.value
            assert np.array_equal(pa.rtt_ps, pb.rtt_ps)
            assert rep_a == rep_b

    def test_rate_zero_column_matches_fault_free_cell(self):
        """The rate-0 cell of a fault sweep is the fault-free latency
        cell, bit for bit (same derived seed, no injected behaviour)."""
        drivers = ("virtio", "xdma")
        faulted = run_cells(fault_cells(drivers, (0.0,), PAYLOAD, PACKETS, seed=3))
        baseline = run_cells(latency_cells((PAYLOAD,), PACKETS, seed=3, drivers=drivers))
        for fault, plain in zip(faulted, baseline, strict=True):
            assert fault.cell.driver == plain.cell.driver
            assert fault.cell.fault_rate == 0.0
            payload_result, report = fault.value
            assert np.array_equal(payload_result.rtt_ps, plain.value.rtt_ps)
            assert np.array_equal(payload_result.hw_ps, plain.value.hw_ps)
            assert report["detected"] == 0 and report["injected"] == {}
