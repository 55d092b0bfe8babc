"""The ``bench`` subcommand: record and gate the performance trajectory.

Two modes:

* **record** (default) -- time a fixed-size reproduction twice, serial
  (``jobs=1``, in process) and parallel (the requested worker count),
  run the per-subsystem microbenches, and write a ``BENCH_<rev>.json``
  record with wall-clock, events/second, the speedup, and the micro
  numbers, so the repository accumulates perf history alongside
  correctness history.  The run doubles as a parity check: the serial
  and parallel artifacts must be byte-identical (same root seed, same
  cells), and the record says whether they were.

* **check** (``bench --check``) -- the regression gate.  Re-measures
  the end-to-end events/second on the workload recorded in a committed
  ``BENCH_baseline.json`` and fails when it regresses beyond a
  tolerance.  Raw events/second is machine-dependent, so both sides
  are normalized by :func:`cpu_score`, a fixed pure-Python reference
  loop measured on the same machine at the same time -- the compared
  quantity is "simulator events per reference op", which transfers
  across hosts of different speeds.  The hot-path *copy counts* per
  packet are deterministic (they count ``PhysicalMemory`` calls, not
  time), so those are gated exactly: more materializing copies per
  packet than the baseline is a failure at any tolerance.

The microbenches cover the subsystems the zero-copy work touches:

* ``memory`` -- :class:`~repro.mem.physical.PhysicalMemory` copy
  (``read``), in-place (``read_into``), zero-copy (``view``), and
  ``fill`` bandwidth;
* ``copy_counts`` -- materializing host-memory copies per echo round
  trip for each driver (the paper's Table 1 workload);
* ``tlp_segmentation`` -- MWr segmentation rate through the memoized
  plan cache;
* ``virtqueue_walk`` -- driver-side ring bookkeeping cycle rate;
* ``end_to_end`` -- serial events/second of the comparison workload.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.calibration import PAPER_PAYLOAD_SIZES, PAPER_PROFILE, CalibrationProfile
from repro.exec import cache as result_cache
from repro.exec.runner import execute_comparison

#: Packets per payload for the cache-exercise legs (populate + warm
#: rerun).  Small on purpose: the legs prove cache behavior, not
#: throughput, and the timed legs already cover the full workload.
CACHE_RERUN_PACKETS = 50

#: Schema tag written into bench records.  ``bench-v1`` records (no
#: ``micro`` section) are still readable by ``--check`` -- the copy-count
#: gate is skipped and events/second is compared unnormalized.
BENCH_SCHEMA = "bench-v2"

#: Default committed baseline path (repo root) and gate tolerance.
DEFAULT_BASELINE = "BENCH_baseline.json"
DEFAULT_TOLERANCE = 0.15


def repo_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


# -- machine-speed reference ---------------------------------------------------


def cpu_score(repeats: int = 5, iters: int = 200_000) -> float:
    """Ops/second of a fixed pure-Python loop (best of *repeats*).

    A crude single-core speed reference: the same interpreter work the
    simulator's hot paths are made of (integer arithmetic, name lookups,
    loop overhead).  ``--check`` divides events/second by this score on
    both sides of the comparison, so a committed baseline from one
    machine gates runs on another.
    """
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iters):
            acc = (acc + i * 7) % 1_000_003
        elapsed = time.perf_counter() - t0
        if elapsed > 0:
            best = max(best, iters / elapsed)
    return best


# -- per-subsystem microbenches ------------------------------------------------


def bench_memory(block: int = 64 << 10, rounds: int = 128) -> Dict[str, Any]:
    """PhysicalMemory bandwidth: copy vs in-place vs view vs fill."""
    from repro.mem.physical import PhysicalMemory

    mem = PhysicalMemory()
    mem.write(0, (bytes(range(256)) * (block // 256 + 1))[:block])
    scratch = bytearray(block)
    mb = block * rounds / 1e6

    t0 = time.perf_counter()
    for _ in range(rounds):
        mem.read(0, block)
    read_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(rounds):
        mem.read_into(0, scratch)
    read_into_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(rounds):
        mem.view(0, block)
    view_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(rounds):
        mem.fill(0, block, 0xA5)
    fill_s = time.perf_counter() - t0

    def rate(elapsed: float) -> float:
        return mb / elapsed if elapsed > 0 else 0.0

    return {
        "block_bytes": block,
        "rounds": rounds,
        "read_copy_mb_s": rate(read_s),
        "read_into_mb_s": rate(read_into_s),
        "view_mb_s": rate(view_s),
        "fill_mb_s": rate(fill_s),
    }


def measure_copies_per_packet(
    driver: str,
    payload: int = 64,
    packets: int = 24,
    warmup: int = 4,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
) -> Dict[str, float]:
    """Materializing host-memory copies per echo round trip.

    Counts :class:`~repro.mem.physical.PhysicalMemory` calls on the
    host RAM of a booted testbed during the Table 1 latency workload:
    ``read`` materializes a ``bytes`` copy, ``read_into`` fills a
    caller buffer in place, ``view`` is zero-copy.  Two runs (*warmup*
    packets and *warmup + packets* packets) are differenced so boot,
    ring setup, and first-packet ARP traffic drop out; the result is
    the steady-state per-packet count -- a deterministic function of
    the data-plane code, not of machine speed, which is what makes it
    gateable with zero tolerance.
    """
    from repro.core.latency import run_virtio_payload, run_xdma_payload
    from repro.core.testbed import build_virtio_testbed, build_xdma_testbed

    if driver == "virtio":
        build, runner = build_virtio_testbed, run_virtio_payload
    elif driver == "xdma":
        build, runner = build_xdma_testbed, run_xdma_payload
    else:
        raise ValueError(f"unknown driver {driver!r} (expected 'virtio' or 'xdma')")

    def counted(total_packets: int) -> Dict[str, int]:
        testbed = build(seed=seed, profile=profile)
        mem = testbed.kernel.memory
        counts = {"read": 0, "read_into": 0, "view": 0, "write": 0}
        for name in counts:
            original = getattr(mem, name)

            def wrapper(*args: Any, _original=original, _name=name, **kwargs: Any):
                counts[_name] += 1
                return _original(*args, **kwargs)

            setattr(mem, name, wrapper)  # instance attr shadows the class method
        runner(testbed, payload, total_packets)
        return counts

    base = counted(warmup)
    full = counted(warmup + packets)
    return {name: (full[name] - base[name]) / packets for name in base}


def bench_copy_counts(
    payload: int = 64, packets: int = 24, seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
) -> Dict[str, Dict[str, float]]:
    """Per-driver steady-state copy counts (see
    :func:`measure_copies_per_packet`)."""
    return {
        driver: measure_copies_per_packet(
            driver, payload=payload, packets=packets, seed=seed, profile=profile
        )
        for driver in ("virtio", "xdma")
    }


def bench_tlp_segmentation(payload: int = 4096, iters: int = 2000) -> Dict[str, Any]:
    """MWr segmentation rate for an unaligned *payload*-byte transfer.

    The address is offset within its page so the split crosses a 4 KiB
    boundary -- the worst case the memoized plan has to cover.
    """
    from repro.pcie.tlp import segment_write

    data = bytes(payload)
    addr = 0x10_0040  # 64 bytes into a page: forces a boundary split
    tlps_per_call = len(segment_write(addr, data, 256))  # warm the plan cache
    t0 = time.perf_counter()
    for _ in range(iters):
        segment_write(addr, data, 256)
    elapsed = time.perf_counter() - t0
    return {
        "payload_bytes": payload,
        "max_payload": 256,
        "tlps_per_call": tlps_per_call,
        "calls_per_second": iters / elapsed if elapsed > 0 else 0.0,
        "tlps_per_second": iters * tlps_per_call / elapsed if elapsed > 0 else 0.0,
    }


def bench_virtqueue_walk(iters: int = 4000) -> Dict[str, Any]:
    """Driver-side ring bookkeeping: add_buffer + publish + get_used."""
    from repro.mem.dma import DmaAllocator
    from repro.mem.physical import PhysicalMemory
    from repro.virtio.virtqueue import DriverVirtqueue, ring_layout

    mem = PhysicalMemory()
    alloc = DmaAllocator(mem)
    _, _, _, total = ring_layout(256)
    vq = DriverVirtqueue(0, 256, alloc.alloc(total, 4096))
    used_idx = 0
    t0 = time.perf_counter()
    for _ in range(iters):
        head = vq.add_buffer([(0x10000, 1500)], [])
        vq.publish()
        elem = head.to_bytes(4, "little") + bytes(4)
        mem.write(vq.addresses.used_entry_addr(used_idx), elem)
        used_idx = (used_idx + 1) & 0xFFFF
        mem.write(vq.addresses.used_idx_addr, used_idx.to_bytes(2, "little"))
        if vq.get_used() is None:
            raise RuntimeError("virtqueue walk lost a used element")
    elapsed = time.perf_counter() - t0
    return {
        "ring_size": 256,
        "cycles_per_second": iters / elapsed if elapsed > 0 else 0.0,
    }


def bench_scheduler(
    payload: int = 64,
    packets: int = 200,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
) -> Dict[str, Any]:
    """Event-kernel statistics over one serial latency cell.

    Boots a VirtIO testbed (the denser of the two drivers' event
    streams), runs the Table 1 ping-pong workload, and reports the
    event queue's counters (``Simulator.scheduler_stats``) plus
    wall-normalized schedule/pop rates.  The counters are
    deterministic; only the rates are machine-dependent.
    """
    from repro.core.latency import run_virtio_payload
    from repro.core.testbed import build_virtio_testbed

    testbed = build_virtio_testbed(seed=seed, profile=profile)
    t0 = time.perf_counter()
    run_virtio_payload(testbed, payload, packets)
    elapsed = time.perf_counter() - t0
    stats = dict(testbed.sim.scheduler_stats)
    stats["payload_bytes"] = payload
    stats["packets"] = packets
    stats["wall_s"] = elapsed
    if elapsed > 0:
        stats["schedules_per_second"] = stats.get("schedules", 0) / elapsed
        stats["pops_per_second"] = stats.get("executed", 0) / elapsed
    return stats


def run_microbench(
    packets: int = 400,
    payload_sizes: Sequence[int] = PAPER_PAYLOAD_SIZES,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    end_to_end: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """All per-subsystem microbenches as one JSON-ready dict.

    Pass *end_to_end* (``{"wall_s", "events", "events_per_second"}``)
    to reuse a serial comparison that was already timed instead of
    running another one.
    """
    if end_to_end is None:
        _, stats = execute_comparison(payload_sizes, packets, seed, profile, jobs=1)
        end_to_end = {
            "wall_s": stats.wall_s,
            "events": stats.events,
            "events_per_second": stats.events_per_second,
        }
    return {
        "cpu_score": cpu_score(),
        "memory": bench_memory(),
        "copy_counts": bench_copy_counts(seed=seed, profile=profile),
        "tlp_segmentation": bench_tlp_segmentation(),
        "virtqueue_walk": bench_virtqueue_walk(),
        "scheduler": bench_scheduler(seed=seed, profile=profile),
        "end_to_end": end_to_end,
    }


# -- record mode ---------------------------------------------------------------


def run_bench(
    packets: int = 2000,
    jobs: int = 4,
    payload_sizes: Sequence[int] = PAPER_PAYLOAD_SIZES,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    out_dir: str = ".",
    rev: Optional[str] = None,
    profile_hot: bool = False,
) -> Tuple[dict, str]:
    """Time serial vs parallel reproduction; write ``BENCH_<rev>.json``.

    With *profile_hot* the serial run executes under :mod:`cProfile`
    and the top-30 cumulative-time table is written next to the record
    as ``BENCH_<rev>.profile.txt`` (the serial wall then includes
    profiler overhead, so such records are for hot-spot hunting, not
    for committing as baselines).

    Returns ``(record, path)``.

    The timed legs always run with the result cache bypassed -- a
    cache hit would measure disk reads, not the simulator.  When a
    cache is active, one extra (small) comparison runs through it
    afterwards and its counters land in the record's ``cache_stats``
    section: all misses on a first run, all hits on a warm rerun (the
    CI two-pass job reads exactly that).
    """
    if jobs < 2:
        raise ValueError(f"bench compares serial vs parallel; need jobs >= 2, got {jobs}")
    profiler = None
    if profile_hot:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    with result_cache.bypass():
        serial_comparison, serial_stats = execute_comparison(
            payload_sizes, packets, seed, profile, jobs=1
        )
        if profiler is not None:
            profiler.disable()
        parallel_comparison, parallel_stats = execute_comparison(
            payload_sizes, packets, seed, profile, jobs=jobs
        )
    identical = serial_comparison.table1_rows() == parallel_comparison.table1_rows()
    speedup = (
        serial_stats.wall_s / parallel_stats.wall_s if parallel_stats.wall_s > 0 else 0.0
    )
    with result_cache.bypass():
        micro = run_microbench(
            packets=packets, payload_sizes=payload_sizes, seed=seed, profile=profile,
            end_to_end={
                "wall_s": serial_stats.wall_s,
                "events": serial_stats.events,
                "events_per_second": serial_stats.events_per_second,
            },
        )
    cache_section = None
    if result_cache.active_cache() is not None:
        execute_comparison(
            payload_sizes, CACHE_RERUN_PACKETS, seed, profile, jobs=1
        )
        cache_section = result_cache.cache_stats()
    record = {
        "schema": BENCH_SCHEMA,
        "rev": rev if rev is not None else repo_revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "workload": {
            "artifact": "comparison",
            "packets": packets,
            "payload_sizes": list(payload_sizes),
            "seed": seed,
            "cells": serial_stats.cells,
        },
        "serial": {
            "wall_s": serial_stats.wall_s,
            "events": serial_stats.events,
            "events_per_second": serial_stats.events_per_second,
        },
        "parallel": {
            "jobs": jobs,
            "wall_s": parallel_stats.wall_s,
            "events": parallel_stats.events,
            "events_per_second": parallel_stats.events_per_second,
        },
        "speedup": speedup,
        "parallel_matches_serial": identical,
        "micro": micro,
        "cache_stats": cache_section,
    }
    path = os.path.join(out_dir, f"BENCH_{record['rev']}.json")
    if profiler is not None:
        import io
        import pstats

        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(30)
        profile_path = os.path.join(out_dir, f"BENCH_{record['rev']}.profile.txt")
        with open(profile_path, "w", encoding="utf-8") as handle:
            handle.write(
                f"# cProfile of the serial (jobs=1) bench run @ {record['rev']}\n"
                f"# workload: {packets} packets x {list(payload_sizes)} x 2 drivers\n"
            )
            handle.write(buffer.getvalue())
        record["profile_path"] = profile_path
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return record, path


def render_bench(record: dict) -> str:
    """Human-readable summary of a bench record."""
    serial = record["serial"]
    parallel = record["parallel"]
    lines = [
        f"Bench @ {record['rev']} "
        f"({record['workload']['packets']} packets x "
        f"{len(record['workload']['payload_sizes'])} payloads x 2 drivers, "
        f"{record['workload']['cells']} cells, {record['host']['cpus']} CPUs)",
        f"  serial   (jobs=1): {serial['wall_s']:8.2f} s  "
        f"{serial['events_per_second']:>12,.0f} events/s",
        f"  parallel (jobs={parallel['jobs']}): {parallel['wall_s']:8.2f} s  "
        f"{parallel['events_per_second']:>12,.0f} events/s",
        f"  speedup: {record['speedup']:.2f}x; parallel output "
        + ("bit-identical to serial" if record["parallel_matches_serial"]
           else "DIFFERS from serial (BUG)"),
    ]
    micro = record.get("micro")
    if micro:
        mem = micro["memory"]
        copies = micro["copy_counts"]
        lines += [
            "  micro:",
            f"    memory      copy {mem['read_copy_mb_s']:,.0f} MB/s | "
            f"in-place {mem['read_into_mb_s']:,.0f} MB/s | "
            f"view {mem['view_mb_s']:,.0f} MB/s | fill {mem['fill_mb_s']:,.0f} MB/s",
            f"    copies/pkt  virtio {copies['virtio']['read']:.1f} reads | "
            f"xdma {copies['xdma']['read']:.1f} reads (materializing)",
            f"    tlp seg     {micro['tlp_segmentation']['tlps_per_second']:,.0f} TLPs/s "
            f"({micro['tlp_segmentation']['tlps_per_call']} per 4 KiB call)",
            f"    vq walk     {micro['virtqueue_walk']['cycles_per_second']:,.0f} cycles/s",
            f"    cpu score   {micro['cpu_score']:,.0f} ref-ops/s",
        ]
        sched = micro.get("scheduler")
        if sched:
            lines.append(
                f"    scheduler   peak depth {sched.get('peak_depth', 0)}, "
                f"{sched.get('schedules_per_second', 0.0):,.0f} sched/s | "
                f"{sched.get('pops_per_second', 0.0):,.0f} pops/s"
            )
    if record.get("profile_path"):
        lines.append(f"  profile: top-30 cumulative written to {record['profile_path']}")
    return "\n".join(lines)


# -- check mode ----------------------------------------------------------------


def evaluate_check(
    baseline: dict, current: dict, tolerance: float = DEFAULT_TOLERANCE
) -> Tuple[bool, List[str], Dict[str, Any]]:
    """Pure comparison of a *current* measurement against a *baseline*.

    *current* needs ``end_to_end.events_per_second`` and optionally
    ``cpu_score`` and ``copy_counts`` (same shapes as a record's
    ``micro`` section).  Returns ``(ok, failures, details)``; the gate
    rules are:

    * normalized events/second below ``(1 - tolerance) x`` baseline
      fails (normalization by :func:`cpu_score` when both sides have
      one, raw comparison otherwise);
    * any driver's materializing ``read`` copies per packet above the
      baseline count fails -- the count is deterministic, so there is
      no noise to tolerate;
    * when *current* carries a ``parallel`` section
      (``{"jobs", "speedup", "cpus"}``), a speedup at or below 1.0
      fails **if** the host has at least ``jobs`` CPUs -- warm-pool
      fan-out must actually beat the serial path on real multi-core
      hardware, while 1-vCPU runners skip the assertion;
    * when *current* carries a ``cache_rerun`` section
      (``{"cells", "hits", "misses"}``), any miss fails -- the rerun
      executed the identical workload moments after populating the
      cache, so a miss means keying or invalidation is broken.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    failures: List[str] = []
    base_micro = baseline.get("micro", {})
    base_eps = (
        base_micro.get("end_to_end", {}).get("events_per_second")
        or baseline.get("serial", {}).get("events_per_second")
    )
    if not base_eps:
        raise ValueError("baseline record has no serial events/second")
    cur_eps = current["end_to_end"]["events_per_second"]
    base_score = base_micro.get("cpu_score")
    cur_score = current.get("cpu_score")
    normalized = bool(base_score and cur_score)
    if normalized:
        ratio = (cur_eps / cur_score) / (base_eps / base_score)
    else:
        ratio = cur_eps / base_eps
    if ratio < 1.0 - tolerance:
        failures.append(
            f"end-to-end events/s regressed to {ratio:.2f}x of baseline "
            f"({'normalized' if normalized else 'raw'}; "
            f"floor is {1.0 - tolerance:.2f}x)"
        )
    parallel = current.get("parallel")
    if parallel:
        cpus = parallel.get("cpus") or 0
        par_jobs = parallel.get("jobs") or 0
        if cpus >= par_jobs > 1 and parallel["speedup"] <= 1.0:
            failures.append(
                f"jobs={par_jobs} speedup is {parallel['speedup']:.2f}x on a "
                f"{cpus}-CPU host (must exceed 1.0x)"
            )
    base_copies = base_micro.get("copy_counts", {})
    cur_copies = current.get("copy_counts", {})
    for driver in sorted(base_copies.keys() & cur_copies.keys()):
        base_reads = base_copies[driver]["read"]
        cur_reads = cur_copies[driver]["read"]
        if cur_reads > base_reads + 1e-9:
            failures.append(
                f"{driver}: {cur_reads:.2f} materializing copies/packet "
                f"(baseline {base_reads:.2f}; counts are deterministic, "
                f"any increase fails)"
            )
    cache_rerun = current.get("cache_rerun")
    if cache_rerun and cache_rerun.get("misses", 0) > 0:
        failures.append(
            f"warm cache rerun missed on {cache_rerun['misses']} of "
            f"{cache_rerun['cells']} cells (an unchanged workload must "
            f"hit the result cache on every cell)"
        )
    details = {
        "events_per_second": {
            "baseline": base_eps,
            "current": cur_eps,
            "ratio": ratio,
            "normalized": normalized,
            "floor": 1.0 - tolerance,
        },
        "copy_counts": {
            driver: {
                "baseline": base_copies.get(driver, {}).get("read"),
                "current": cur_copies.get(driver, {}).get("read"),
            }
            for driver in sorted(base_copies.keys() | cur_copies.keys())
        },
    }
    if cache_rerun is not None:
        details["cache_rerun"] = dict(cache_rerun)
    return not failures, failures, details


def run_check(
    baseline_path: str = DEFAULT_BASELINE,
    tolerance: float = DEFAULT_TOLERANCE,
    packets: Optional[int] = None,
    seed: Optional[int] = None,
    profile: CalibrationProfile = PAPER_PROFILE,
) -> Tuple[bool, dict]:
    """Measure the current tree and gate it against *baseline_path*.

    The workload (packets, payload sizes, seed) is taken from the
    baseline record so the comparison is apples-to-apples; *packets*
    and *seed* override it (events/second is a throughput, so a
    shorter run stays comparable up to boot overhead).  On hosts with
    at least 4 CPUs the same workload is also fanned out at ``jobs=4``
    and the speedup must exceed 1.0x (skipped on smaller hosts, where
    a process pool cannot beat the serial path).  The timed legs run
    with the result cache bypassed; when a cache is active, a small
    populate + warm-rerun pair runs through it afterwards and any
    warm-pass miss fails the gate.  Returns ``(ok, report)``.
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    workload = baseline.get("workload", {})
    run_packets = packets if packets is not None else workload.get("packets", 400)
    run_payloads = workload.get("payload_sizes") or list(PAPER_PAYLOAD_SIZES)
    run_seed = seed if seed is not None else workload.get("seed", 0)
    with result_cache.bypass():
        _, stats = execute_comparison(
            run_payloads, run_packets, run_seed, profile, jobs=1
        )
    current = {
        "cpu_score": cpu_score(),
        "copy_counts": bench_copy_counts(seed=run_seed, profile=profile),
        "end_to_end": {
            "wall_s": stats.wall_s,
            "events": stats.events,
            "events_per_second": stats.events_per_second,
        },
    }
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        with result_cache.bypass():
            _, par_stats = execute_comparison(
                run_payloads, run_packets, run_seed, profile, jobs=4
            )
        current["parallel"] = {
            "jobs": 4,
            "cpus": cpus,
            "wall_s": par_stats.wall_s,
            "speedup": (
                stats.wall_s / par_stats.wall_s if par_stats.wall_s > 0 else 0.0
            ),
        }
    if result_cache.active_cache() is not None:
        rerun_packets = min(run_packets, CACHE_RERUN_PACKETS)
        execute_comparison(  # populate pass
            run_payloads, rerun_packets, run_seed, profile, jobs=1
        )
        _, warm_stats = execute_comparison(  # warm pass: must be all hits
            run_payloads, rerun_packets, run_seed, profile, jobs=1
        )
        current["cache_rerun"] = {
            "cells": warm_stats.cells,
            "hits": warm_stats.cache_hits,
            "misses": warm_stats.cells - warm_stats.cache_hits,
        }
    ok, failures, details = evaluate_check(baseline, current, tolerance)
    report = {
        "schema": "bench-check-v1",
        "baseline": {"path": baseline_path, "rev": baseline.get("rev", "unknown")},
        "rev": repo_revision(),
        "workload": {
            "packets": run_packets,
            "payload_sizes": list(run_payloads),
            "seed": run_seed,
        },
        "tolerance": tolerance,
        "ok": ok,
        "failures": failures,
        "details": details,
        "current": current,
    }
    return ok, report


def render_check(report: dict) -> str:
    """Human-readable summary of a ``--check`` report."""
    eps = report["details"]["events_per_second"]
    copies = report["details"]["copy_counts"]
    lines = [
        f"Bench check @ {report['rev']} vs baseline "
        f"{report['baseline']['rev']} ({report['baseline']['path']})",
        f"  events/s: {eps['current']:,.0f} now vs {eps['baseline']:,.0f} baseline "
        f"-> {eps['ratio']:.2f}x "
        f"({'cpu-score normalized' if eps['normalized'] else 'raw'}; "
        f"floor {eps['floor']:.2f}x)",
    ]
    for driver, counts in copies.items():
        if counts["baseline"] is None or counts["current"] is None:
            continue
        lines.append(
            f"  {driver} copies/pkt: {counts['current']:.2f} now vs "
            f"{counts['baseline']:.2f} baseline (exact gate)"
        )
    parallel = report.get("current", {}).get("parallel")
    if parallel:
        lines.append(
            f"  jobs={parallel['jobs']} speedup: {parallel['speedup']:.2f}x "
            f"on {parallel['cpus']} CPUs (must exceed 1.0x)"
        )
    cache_rerun = report.get("current", {}).get("cache_rerun")
    if cache_rerun:
        lines.append(
            f"  cache rerun: {cache_rerun['hits']}/{cache_rerun['cells']} "
            f"hits (any miss fails)"
        )
    if report["ok"]:
        lines.append("  PASS")
    else:
        lines.append("  FAIL")
        lines += [f"    - {failure}" for failure in report["failures"]]
    return "\n".join(lines)
