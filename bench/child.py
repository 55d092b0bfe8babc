"""One benchmark child process; ``run.py`` starts a fresh one per job.

Modes:

* ``setup`` -- import the model, build the workload's cells and boot the
  first cell's testbed; report the seconds since the parent's spawn
  call (both processes read the system-wide ``CLOCK_MONOTONIC``).
* ``timed`` -- one warm-up pass, whose outputs are checked and become
  the reference every later pass must reproduce exactly, then passes
  until ``--seconds`` have been measured.
* ``traced`` -- a warm-up pass, a pass with spans, and a pass under
  cProfile, for the per-layer metrics.

A pass runs the workload's cells through ``run_cells`` a chunk at a
time, each chunk followed by a short reference-loop sample, pinned to
the CPU that is fastest when the pass starts.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence

import reference
import tracing
import workloads
from repro.exec import cache as result_cache
from repro.exec import snapshot
from repro.exec.runner import run_cells

#: Wraps every ``run_cells`` call of a pass (spans, the profiler).
Around = Callable[[], ContextManager[Any]]


class Tally:
    """Cells attempted and failed, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, cells: int, problem: str) -> None:
        self.failed += cells
        if len(self.problems) < 20:
            self.problems.append(problem)


def _chunk(cells: Sequence[Any], tally: Tally, around: Around) -> Optional[List[Any]]:
    tally.attempted += len(cells)
    try:
        with around():
            return run_cells(cells, jobs=1)
    except Exception as exc:  # a failing cell is counted, not fatal to the run
        tally.fail(len(cells), f"run_cells raised {exc!r}")
        return None


def _score(outcomes: Sequence[Any], tally: Tally, expected: Optional[List[str]]) -> List[str]:
    """Per-cell checks; returns the per-cell digests."""
    digests = [workloads.cell_digest(o) for o in outcomes]
    for i, outcome in enumerate(outcomes):
        if not workloads.cell_ok(outcome):
            tally.fail(1, f"{outcome.cell.label}: cell check failed")
        elif expected is not None and digests[i] != expected[i]:
            tally.fail(1, f"{outcome.cell.label}: output differs from the first pass")
    return digests


def run_pass(
    workload: workloads.Workload,
    cells: Sequence[Any],
    tally: Tally,
    expected: Optional[List[str]] = None,
    around: Around = nullcontext,
) -> Optional[Dict[str, Any]]:
    """One pass over *cells*; ``None`` when a chunk raised.

    The record holds each chunk's wall time and the reference rate
    sampled right after it, the simulated event count, and the outcomes
    and per-cell digests for the checks.  A cached workload runs cold
    through a fresh result cache, then reruns warm.
    """
    snapshot.reset()  # every pass boots the same way
    cache_dir = tempfile.mkdtemp(prefix="bench-cache-") if workload.cached else None
    if cache_dir:
        result_cache.configure(enabled=True, cache_dir=cache_dir)
    record: Dict[str, Any] = {"chunk_wall_s": [], "chunk_ref_rate": [], "outcomes": []}
    try:
        with reference.on_fastest_cpu():
            step = workload.cells_per_chunk
            for start in range(0, len(cells), step):
                started = time.perf_counter()
                outcomes = _chunk(cells[start:start + step], tally, around)
                record["chunk_wall_s"].append(time.perf_counter() - started)
                record["chunk_ref_rate"].append(reference.reference_rate())
                if outcomes is None:
                    return None
                record["outcomes"] += outcomes
            if cache_dir:
                stats = result_cache.active_cache().stats
                started = time.perf_counter()
                warm = _chunk(cells, tally, around)
                record["rerun_wall_s"] = time.perf_counter() - started
                if warm is None:
                    return None
    finally:
        if cache_dir:
            result_cache.configure(enabled=False)
            shutil.rmtree(cache_dir, ignore_errors=True)
    outcomes = record["outcomes"]
    record["digests"] = _score(outcomes, tally, expected)
    record["events"] = sum(o.events for o in outcomes)
    record["boot_reuses"] = sum(1 for o in outcomes if o.boot_reused)
    record["cache_hits"] = record["cache_misses"] = 0
    if cache_dir:
        _score(warm, tally, record["digests"])
        cold_misses = len(cells)
        if stats.misses != cold_misses:
            tally.fail(stats.misses - cold_misses,
                       f"warm pass missed {stats.misses - cold_misses} cells")
        record["cache_hits"], record["cache_misses"] = stats.hits, stats.misses
    return record


def _summary(record: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in record.items() if k not in ("digests", "outcomes")}


def _check(workload: workloads.Workload, outcomes: Sequence[Any], tally: Tally) -> None:
    """The workload-level check of a pass.  When it fails, every cell of
    the pass that passed its own check is counted as failed too."""
    problems = workload.check(outcomes)
    if problems:
        tally.failed += sum(1 for o in outcomes if workloads.cell_ok(o))
        tally.problems += problems


def timed(workload: workloads.Workload, cells: Sequence[Any], seconds: float,
          tally: Tally) -> Dict[str, Any]:
    first = run_pass(workload, cells, tally)
    out: Dict[str, Any] = {"passes": []}
    if first is None:
        return out
    _check(workload, first["outcomes"], tally)
    if workload.report is not None:
        out.update(workload.report(first["outcomes"]))
    out["sim_digest"] = workloads.sim_digest(first["digests"])
    out["passes"].append(_summary(first))
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        record = run_pass(workload, cells, tally, expected=first["digests"])
        if record is None:
            break
        out["passes"].append(_summary(record))
    return out


def traced(workload: workloads.Workload, cells: Sequence[Any], tally: Tally) -> Dict[str, Any]:
    first = run_pass(workload, cells, tally)
    if first is None:
        return {}
    _check(workload, first["outcomes"], tally)
    spans = tracing.Spans()
    with spans.installed():
        span_pass = run_pass(workload, cells, tally, first["digests"],
                             around=lambda: spans.span("chunk"))
    profile = cProfile.Profile()  # a context manager: on only inside run_cells
    profile_pass = run_pass(workload, cells, tally, first["digests"], around=lambda: profile)
    if span_pass is None or profile_pass is None:
        return {}
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    return {
        "passes": [_summary(p) for p in (first, span_pass, profile_pass)],
        "spans": spans.records,
        "queue_peak_depth": spans.queue_peak_depth,
        "profile": tracing.attribute(stats),
        "pins": tracing.pin_counts(stats),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, help="seconds to measure (timed mode)")
    parser.add_argument("--spawned-at", type=float, default=0.0,
                        help="the parent's CLOCK_MONOTONIC reading at spawn (setup mode)")
    args = parser.parse_args(argv)
    if args.mode == "timed" and args.seconds is None:
        parser.error("timed mode needs --seconds")

    workload = workloads.WORKLOADS[args.workload]
    cells = workload.make_cells(args.seed, args.scale)
    if args.mode == "setup":
        workloads.boot_first(cells)
        booted = time.clock_gettime(time.CLOCK_MONOTONIC)
        print(json.dumps({"setup_wall_s": booted - args.spawned_at}))
        return 0
    tally = Tally()
    if args.mode == "timed":
        out = timed(workload, cells, args.seconds, tally)
    else:
        out = traced(workload, cells, tally)
    out.update(
        cells=len(cells),
        packets=sum(workloads.offered_packets(c) for c in cells),
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
