"""Parallel execution engine.

Experiment artifacts decompose into independent *cells* -- driver x
payload for the latency artifacts (Fig. 3/4/5, Table I), driver x
offered-rate point for the load sweeps -- each of which boots its own
testbed from a seed derived via :class:`numpy.random.SeedSequence`
spawn keys.  Cells run across a :class:`concurrent.futures.ProcessPoolExecutor`
and come back in deterministic cell order, and each artifact merges
them into its own result type in that order, so a run's output is
bit-identical for a given root seed regardless of worker count or
completion order.

Two caching layers make re-runs near-free: the content-addressed
result cache (:mod:`repro.exec.cache`) returns unchanged cells from
disk, and snapshot boot reuse (:mod:`repro.exec.snapshot`) stamps
repeated same-boot cells off one pristine fork/copy-on-write image.

See ``docs/architecture.md`` ("Parallel execution" and "Result cache &
snapshot boot reuse") for the design notes and the seed-derivation
argument.
"""

from repro.exec.cache import (
    ResultCache,
    active_cache,
    cache_stats,
    code_fingerprint,
    configure,
)
from repro.exec.cells import (
    Cell,
    cell_seed,
    closed_sweep_cells,
    derive_cell_seed,
    latency_cells,
    seed_identity,
)
from repro.exec.runner import CellOutcome, execute_cell, run_cells

__all__ = [
    "Cell",
    "CellOutcome",
    "ResultCache",
    "active_cache",
    "cache_stats",
    "cell_seed",
    "closed_sweep_cells",
    "code_fingerprint",
    "configure",
    "derive_cell_seed",
    "execute_cell",
    "latency_cells",
    "run_cells",
    "seed_identity",
]
