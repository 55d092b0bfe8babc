"""Determinism guards for the overload experiments.

Two properties keep E-O1/E-S1 trustworthy:

* the overload sweep and soak merge bit-identically for any worker
  count (the cell engine's order-deterministic merge);
* a monitored overload cell with *no* overload config is bit-identical
  to the plain open-loop cell of the same seed -- the conservation
  monitor is pure bookkeeping, and an absent config arms nothing (the
  same discipline as the fault subsystem's rate-0 parity).
"""

import json

import numpy as np

from repro.exec.cells import open_sweep_cells, overload_cells
from repro.exec.runner import execute_cell
from repro.health.experiments import run_overload_soak, run_overload_sweep

PACKETS = 60
SEED = 5
RATE = 30_000.0


class TestZeroOverloadParity:
    """An overload cell with overload=None must not perturb a single
    timestamp relative to the plain openload cell it shadows."""

    def _pair(self, driver):
        plain_cell = open_sweep_cells(driver, [RATE], (64,), PACKETS, seed=SEED)[0]
        over_cell = overload_cells(driver, [RATE], (64,), PACKETS, seed=SEED,
                                   overload=None)[0]
        assert plain_cell.seed == over_cell.seed  # deliberate identity reuse
        plain = execute_cell(plain_cell).value
        metrics, health = execute_cell(over_cell).value
        return plain, metrics, health

    def test_virtio_bit_identical(self):
        plain, metrics, health = self._pair("virtio")
        assert np.array_equal(plain.latency_ps, metrics.latency_ps)
        assert plain.as_dict() == metrics.as_dict()
        assert health.conserved

    def test_xdma_bit_identical(self):
        plain, metrics, health = self._pair("xdma")
        assert np.array_equal(plain.latency_ps, metrics.latency_ps)
        assert plain.as_dict() == metrics.as_dict()
        assert health.conserved


class TestSweepJobsParity:
    def test_sweep_byte_identical_across_jobs(self):
        """E-O1 output is byte-identical for jobs=1 and jobs=4."""
        kwargs = dict(packets=PACKETS, seed=3, multipliers=(0.5, 4.0))
        serial = run_overload_sweep(jobs=1, **kwargs)
        parallel = run_overload_sweep(jobs=4, **kwargs)
        assert set(serial) == set(parallel) == {"virtio", "xdma"}
        for driver in serial:
            a = json.dumps(serial[driver].as_dict(), sort_keys=True)
            b = json.dumps(parallel[driver].as_dict(), sort_keys=True)
            assert a == b

    def test_soak_byte_identical_across_jobs(self):
        """E-S1 output is byte-identical for jobs=1 and jobs=2."""
        kwargs = dict(packets=50, seed=3, fault_rate=0.02)
        serial = run_overload_soak(jobs=1, **kwargs)
        parallel = run_overload_soak(jobs=2, **kwargs)
        for driver in ("virtio", "xdma"):
            a = json.dumps(serial[driver].as_dict(), sort_keys=True)
            b = json.dumps(parallel[driver].as_dict(), sort_keys=True)
            assert a == b
