"""The warm worker pool: one executor shared across fan-outs.

``run_cells`` used to build (and tear down) a ``ProcessPoolExecutor``
per call, so a calibrated open-loop sweep -- two fan-outs per
invocation -- paid pool startup twice.  The pool is now a module-level
singleton that later fan-outs reuse; these tests pin the reuse, the
grow-on-demand sizing, the serial bypass, and cleanup.
"""

import pytest

import repro.exec.runner as runner
from repro.exec.cells import latency_cells


@pytest.fixture(autouse=True)
def fresh_pool():
    runner.shutdown_pool()
    yield
    runner.shutdown_pool()


def _cells(n_payloads):
    payloads = [64, 128, 256, 512][:n_payloads]
    return latency_cells(payloads, packets=3, seed=0, drivers=("virtio",))


class TestWarmPool:
    def test_pool_reused_across_fan_outs(self):
        runner.run_cells(_cells(2), jobs=2)
        first = runner._POOL
        assert first is not None
        runner.run_cells(_cells(2), jobs=2)
        assert runner._POOL is first

    def test_pool_grows_but_never_shrinks(self):
        runner.run_cells(_cells(2), jobs=2)
        assert runner._POOL_WORKERS == 2
        runner.run_cells(_cells(4), jobs=4)
        grown = runner._POOL
        assert runner._POOL_WORKERS == 4
        runner.run_cells(_cells(2), jobs=2)
        assert runner._POOL is grown
        assert runner._POOL_WORKERS == 4

    def test_serial_and_single_cell_skip_the_pool(self):
        runner.run_cells(_cells(3), jobs=1)
        assert runner._POOL is None
        runner.run_cells(_cells(1), jobs=4)
        assert runner._POOL is None

    def test_outcomes_in_cell_order_and_identical_to_serial(self):
        cells = _cells(3)
        serial = runner.run_cells(cells, jobs=1)
        pooled = runner.run_cells(cells, jobs=2)
        assert [o.cell for o in pooled] == [o.cell for o in serial]
        # Results carry numpy arrays; repr equality is exact here.
        assert [repr(o.value) for o in pooled] == [repr(o.value) for o in serial]

    def test_shutdown_resets_state(self):
        runner.run_cells(_cells(2), jobs=2)
        runner.shutdown_pool()
        assert runner._POOL is None
        assert runner._POOL_WORKERS == 0
        # And the next fan-out transparently builds a fresh pool.
        outcomes = runner.run_cells(_cells(2), jobs=2)
        assert len(outcomes) == 2
