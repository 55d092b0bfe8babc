"""Process-pool execution of cells.

``execute_cell`` is a pure function of its :class:`~repro.exec.cells.Cell`
(it boots a fresh testbed from the cell's derived seed), so running
cells across a process pool cannot change any result -- only the
wall-clock time.  :func:`run_cells` returns the outcomes **in cell
construction order**, never completion order, and each artifact
merges them into its own result type in that order, which is what
makes the output byte-identical across ``jobs=1``, ``jobs=2``,
``jobs=4``.  This module knows cells, not artifacts: it builds no
result type.

``jobs=1`` runs the same cells in-process (no pool), so it doubles as
the bit-exact reference for the pool path and keeps single-core runs
free of fork/pickle overhead.

Two caching layers sit in front of execution (both preserve the
byte-identity guarantee):

* the content-addressed **result cache** (:mod:`repro.exec.cache`,
  when activated via ``--cache``/``REPRO_CACHE``): ``run_cells``
  consults it per cell before fanning out, runs only the misses, and
  merges hits + fresh results back in cell construction order -- the
  output is byte-identical for any ``jobs`` and any hit/miss mix;
* **snapshot boot reuse** (:mod:`repro.exec.snapshot`, default on):
  ``execute_cell`` splits every kind into a pure *boot* (testbed
  construction from (spec, seed, profile)) and a *measure* closure
  (fault-plan attachment, overload bounds, the workload), and the
  snapshot layer stamps repeated same-boot cells off one pristine
  copy-on-write image instead of re-booting.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.latency import run_payload
from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.exec import cache as result_cache
from repro.exec import snapshot
from repro.exec.cells import Cell
from repro.workload.generator import ClosedLoopGenerator, OpenLoopGenerator
from repro.workload.sweep import CALIBRATION_PACKETS


class ExecutionError(RuntimeError):
    """A cell failed or the decomposition was invalid."""


@dataclass
class CellOutcome:
    """What a worker sends back for one cell."""

    cell: Cell
    value: Any  # PayloadResult | RunMetrics | (rtt_us, rate_pps)
    events: int  # simulator events the cell executed (perf accounting)
    cached: bool = False  # served from the result cache, not executed
    boot_reused: bool = False  # measured off a pristine boot snapshot


def _builder(driver: str):
    if driver == "virtio":
        return build_virtio_testbed
    if driver == "xdma":
        return build_xdma_testbed
    raise ExecutionError(f"unknown driver {driver!r} (expected 'virtio' or 'xdma')")


def _make_sizes(payload_sizes: Sequence[int]):
    from repro.workload.sizes import FixedSize, make_sizes

    return make_sizes(list(payload_sizes)) if payload_sizes else FixedSize(64)


def execute_cell(cell: Cell) -> CellOutcome:
    """Run one cell to completion on a freshly booted testbed.

    Module-level (picklable) and a pure function of *cell*: the only
    inputs are the cell's parameters and its derived seed.

    Cyclic GC is suspended for the duration of the cell: the model
    allocates heavily but the testbed graph is alive until the cell
    ends, so collection passes mid-run only burn time.  Everything the
    cell built is reclaimed by refcounting, and its cyclic garbage --
    all of it in the youngest generation, since nothing was collected
    while the cell ran -- by one generation-0 collection as the cell
    ends.  Without it, a run of in-process cells would keep every
    finished cell's cycles until the last one ends: the next cell
    disables GC again before any automatic collection can run.  (The
    one long-lived cyclic garbage, a dropped boot snapshot, is
    collected where :mod:`repro.exec.snapshot` drops it.)  The GIL
    switch interval is widened likewise -- cells are single-threaded,
    so the default 5 ms round-robin checks are pure eval-loop
    overhead.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.1)
    try:
        return _execute_cell(cell)
    finally:
        sys.setswitchinterval(switch_interval)
        if gc_was_enabled:
            gc.enable()
            gc.collect(0)


def _measure_cell(cell: Cell, testbed: Any) -> Tuple[Any, int]:
    """Everything a single-driver cell does after boot: attach plans,
    apply bounds, run the workload.  Runs either directly on a fresh
    testbed (cold path) or inside a snapshot fork (stamped path), so it
    must never rely on parent-process side effects."""
    if cell.kind == "latency":
        value: Any = run_payload(testbed, cell.payload, cell.packets)
    elif cell.kind == "calibrate":
        generator = ClosedLoopGenerator(
            outstanding=1, sizes=_make_sizes(cell.payload_sizes),
            packets=CALIBRATION_PACKETS,
        )
        metrics = testbed.run_workload(generator)
        rtt_us = float(metrics.latency_ps.mean()) / 1e6
        value = (rtt_us, 1e6 / rtt_us)
    elif cell.kind == "openload":
        from repro.workload.arrivals import make_arrivals

        generator = OpenLoopGenerator(
            arrivals=make_arrivals(cell.arrival, cell.rate_pps),
            sizes=_make_sizes(cell.payload_sizes),
            packets=cell.packets,
        )
        value = testbed.run_workload(generator)
    elif cell.kind == "closedload":
        generator = ClosedLoopGenerator(
            outstanding=cell.outstanding,
            sizes=_make_sizes(cell.payload_sizes),
            packets=cell.packets,
        )
        value = testbed.run_workload(generator)
    elif cell.kind == "overload":
        from repro.health.bounded import apply_overload_bounds
        from repro.health.monitor import ConservationMonitor
        from repro.workload.arrivals import make_arrivals

        if cell.fault_rate:
            from repro.faults.injector import attach_fault_plan
            from repro.faults.plan import driver_fault_plan

            attach_fault_plan(testbed, driver_fault_plan(cell.driver, cell.fault_rate))
        if cell.overload is not None:
            apply_overload_bounds(testbed, cell.overload)
        monitor = ConservationMonitor(cell.driver, "open")
        generator = OpenLoopGenerator(
            arrivals=make_arrivals(cell.arrival, cell.rate_pps),
            sizes=_make_sizes(cell.payload_sizes),
            packets=cell.packets,
            overload=cell.overload,
            monitor=monitor,
        )
        metrics = generator.run(testbed)
        value = (metrics, monitor.finalize())
    elif cell.kind == "soak":
        from repro.health.soak import run_soak_on

        value = run_soak_on(
            testbed,
            driver=cell.driver,
            base_rate_pps=cell.rate_pps or 0.0,
            packets=cell.packets,
            overload=cell.overload,
            fault_rate=cell.fault_rate,
            seed=cell.seed,
            payload_sizes=cell.payload_sizes,
        )
    elif cell.kind == "faultlat":
        from repro.faults.injector import attach_fault_plan
        from repro.faults.plan import driver_fault_plan
        from repro.faults.report import ReliabilityReport

        plan = cell.fault_plan
        if plan is None:
            plan = driver_fault_plan(cell.driver, cell.fault_rate or 0.0)
        attach_fault_plan(testbed, plan)
        result = run_payload(testbed, cell.payload, cell.packets)
        report = ReliabilityReport.collect(testbed, fault_rate=cell.fault_rate)
        value = (result, report.as_dict())
    else:
        raise ExecutionError(f"unknown cell kind {cell.kind!r}")
    return value, testbed.sim.events_executed


def _cell_plan(cell: Cell):
    """``(snap_key, boot, measure)`` for any cell kind.

    ``boot`` is the pure testbed construction -- everything the
    snapshot key identifies -- and ``measure`` everything after it.
    Cells that share a key (e.g. every fault rate of one (driver,
    payload) column, which deliberately shares the latency cell's
    seed) boot identical machines, so the snapshot layer may measure
    all of them off one pristine image.
    """
    if cell.kind == "fleet":
        # Fleet cells boot the multi-device spec riding the cell.
        from repro.topology.experiments import fleet_cell_plan

        return fleet_cell_plan(cell)
    if cell.kind == "guest":
        # Guest cells boot a single-endpoint spec whose GuestSpec
        # decides whether a VMM interposes.
        from repro.guest.experiments import guest_cell_plan

        return guest_cell_plan(cell)
    builder = _builder(cell.driver)
    key = (
        f"single:{cell.driver}:{cell.seed:#x}:"
        f"{result_cache.spec_digest(cell.profile)}"
    )

    def boot() -> Any:
        return builder(seed=cell.seed, profile=cell.profile)

    def measure(testbed: Any) -> Tuple[Any, int]:
        return _measure_cell(cell, testbed)

    return key, boot, measure


def _execute_cell(cell: Cell) -> CellOutcome:
    key, boot, measure = _cell_plan(cell)
    (value, events), boot_reused = snapshot.execute(key, boot, measure)
    return CellOutcome(cell=cell, value=value, events=events, boot_reused=boot_reused)


def _pool_context():
    """Prefer fork (cheap, inherits the imported model code); fall back
    to spawn on platforms without it."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _warm_worker() -> None:
    """Pool-worker initializer: pay the model-import cost once per
    worker instead of once per cell (a no-op under fork, where imports
    are inherited; the win is on spawn platforms)."""
    import repro.core.testbed  # noqa: F401
    import repro.topology.experiments  # noqa: F401


# The warm pool: constructed on the first jobs>1 fan-out and reused by
# every later one (a calibrated open-loop sweep alone performs two
# fan-outs per call).  Reuse also keeps worker-process caches warm
# across fan-outs -- imported model modules and the ``lru_cache``-backed
# TLP segmentation plans survive from cell to cell, which a throwaway
# executor forfeits.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, grown (never shrunk) to *workers*."""
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS < workers:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_pool_context(),
            initializer=_warm_worker,
        )
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the warm pool (atexit hook; also used by tests)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def _fan_out(pool: ProcessPoolExecutor, cells: Sequence[Cell]) -> List[CellOutcome]:
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    futures = {pool.submit(execute_cell, cell): i for i, cell in enumerate(cells)}
    for future in as_completed(futures):
        outcomes[futures[future]] = future.result()
    return outcomes  # type: ignore[return-value]


def _run_cells_fresh(cells: Sequence[Cell], jobs: int) -> List[CellOutcome]:
    """Execute every cell (no cache consult), outcomes in cell order."""
    if jobs == 1 or len(cells) <= 1:
        return [execute_cell(cell) for cell in cells]
    try:
        return _fan_out(_get_pool(min(jobs, len(cells))), cells)
    except BrokenProcessPool:
        # A worker died (OOM kill, signal).  Cells are pure functions of
        # their parameters, so one retry on a fresh pool is safe.
        shutdown_pool()
        return _fan_out(_get_pool(min(jobs, len(cells))), cells)


def run_cells(cells: Sequence[Cell], jobs: int = 1) -> List[CellOutcome]:
    """Execute *cells*, returning outcomes in cell order.

    ``jobs=1`` runs in-process; ``jobs>1`` fans out over the shared
    warm pool.  Either way the returned list is indexed by the cells'
    construction order, so downstream merges are order-deterministic.

    When a result cache is active, every cell is looked up first and
    only the misses are executed; hits and fresh results merge back in
    construction order, so the output is byte-identical to an uncached
    run for any ``jobs`` and any hit/miss mix.
    """
    jobs = max(1, int(jobs))
    cache = result_cache.active_cache()
    if cache is None:
        outcomes = _run_cells_fresh(cells, jobs)
    else:
        outcomes = [cache.get(cell) for cell in cells]
        miss_at = [i for i, outcome in enumerate(outcomes) if outcome is None]
        fresh = _run_cells_fresh([cells[i] for i in miss_at], jobs)
        for i, outcome in zip(miss_at, fresh):
            cache.put(cells[i], outcome)
            outcomes[i] = outcome
    # Fold worker-side boot reuses (riding the outcome flags) into the
    # parent-side counter cache_stats() reports.
    snapshot.note_parent_reuses(sum(1 for o in outcomes if o.boot_reused))
    return outcomes
