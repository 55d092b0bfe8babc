#!/usr/bin/env python
"""CI cache smoke: prove a warm rerun is all hits and much faster.

Runs three workloads -- the E-M1 fleet sweep, the E-V1 guest sweep and
the E-F2 reset storm -- twice in one process against a fresh cache
directory -- a cold populate pass and a warm pass -- and asserts:

* the two passes' artifacts are byte-identical (minus ``cache_stats``);
* the warm pass hits on every cell (``MIN_HIT_RATE``): it reruns the
  unchanged workload moments after populating the cache, so a miss
  means keying or invalidation is broken;
* the warm wall clock beats the cold one by at least ``MIN_SPEEDUP``.

Writes the warm pass's ``cache_stats`` plus the measured walls to
``cache_smoke.json`` (uploaded as a CI artifact) and exits non-zero on
any violation.  Run from the repo root:

    PYTHONPATH=src python scripts/cache_smoke.py
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stdout

from repro.cli import main
from repro.exec import cache as result_cache

MIN_HIT_RATE = 1.0
MIN_SPEEDUP = 3.0

#: Small but real workloads: every cell kind in each boots, runs, and
#: caches (the reset storm is one faultlat cell carrying a fault plan).
COMMANDS = [
    ["fleetsweep", "--json", "--pods", "2", "--tenants", "4",
     "--packets", "40", "--seed", "7", "-j", "2"],
    ["guestsweep", "--json", "--packets", "40", "--payloads", "64", "1024",
     "--seed", "7", "-j", "2"],
    ["faultsweep", "--json", "--scenario", "reset", "--every", "20",
     "--packets", "40", "--seed", "7"],
]


def run_pass(cache_dir: str) -> tuple[float, list[str], dict]:
    """One pass over all COMMANDS; returns (wall_s, outputs, stats).

    Each CLI invocation installs a fresh cache instance, so the
    counters are summed across the pass's commands here.
    """
    outputs = []
    totals = {"hits": 0, "misses": 0, "stores": 0, "boot_reuses": 0}
    started = time.perf_counter()
    for argv in COMMANDS:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            main(argv + ["--cache", "--cache-dir", cache_dir])
        payload = json.loads(buffer.getvalue())
        stats = payload.pop("cache_stats")
        for counter in totals:
            totals[counter] += stats[counter]
        outputs.append(json.dumps(payload, sort_keys=True))
    return time.perf_counter() - started, outputs, totals


def main_smoke() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-cache-smoke-") as cache_dir:
        cold_wall, cold_out, cold_stats = run_pass(cache_dir)
        warm_wall, warm_out, warm_stats = run_pass(cache_dir)
    result_cache.configure(enabled=False)

    warm_hits = warm_stats["hits"]
    warm_cells = warm_hits + warm_stats["misses"]
    hit_rate = warm_hits / warm_cells if warm_cells else 0.0
    speedup = cold_wall / warm_wall if warm_wall > 0 else float("inf")

    report = {
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "speedup": speedup,
        "warm_cells": warm_cells,
        "warm_hits": warm_hits,
        "warm_hit_rate": hit_rate,
        "cold_stats": cold_stats,
        "warm_stats": warm_stats,
    }
    with open("cache_smoke.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    failures = []
    if cold_out != warm_out:
        failures.append("warm artifacts differ from cold artifacts")
    if hit_rate < MIN_HIT_RATE:
        failures.append(
            f"warm hit rate {hit_rate:.0%} below the {MIN_HIT_RATE:.0%} floor "
            f"({warm_hits}/{warm_cells} cells)"
        )
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"warm speedup {speedup:.1f}x below the {MIN_SPEEDUP:.1f}x floor "
            f"(cold {cold_wall:.2f}s, warm {warm_wall:.2f}s)"
        )

    print(
        f"cache smoke: cold {cold_wall:.2f}s -> warm {warm_wall:.2f}s "
        f"({speedup:.1f}x), {warm_hits}/{warm_cells} hits ({hit_rate:.0%})"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main_smoke())
