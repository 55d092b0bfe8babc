"""Memory held across in-process cells.

``execute_cell`` suspends cyclic GC while a cell runs; each cell's
cyclic garbage must be collected as the cell ends, or a run of
in-process cells (the default CLI, no ``-j``) keeps every finished
cell's garbage until the last cell ends.
"""

import gc
import tracemalloc

from repro.exec.cells import latency_cells
from repro.exec.runner import run_cells


def _peak_bytes(cells) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run_cells(cells, jobs=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_does_not_grow_with_cells():
    # Warm the import-time and memoization caches outside the traced runs.
    run_cells(latency_cells([64], 20, seed=9, drivers=("virtio",)))
    one = _peak_bytes(latency_cells([64], 100, seed=1, drivers=("virtio",)))
    four = _peak_bytes(
        latency_cells([64, 128, 256, 512], 100, seed=1, drivers=("virtio",))
    )
    assert four < 1.5 * one, f"1 cell peaked at {one} B, 4 cells at {four} B"
