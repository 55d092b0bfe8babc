"""Run the simulator benchmark and print every metric with its unit.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Each job runs in a fresh child process (``bench/child.py``), one at a
time, with every ``REPRO_*`` variable removed from its environment so
the defaults are what is measured.  The children's temporary files
(the result cache of ``fault_sweep_cached``) go to a scratch directory
in the checkout that this process removes when it ends, even after it
has killed a child.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``.  ``--trace 0`` (the default) reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
from a timed child and a separately traced one.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every correctness check passed, 1 when one failed
(the result is still printed), 2 when the benchmark could not run (no
result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from reference import normalised, on_fastest_cpu  # noqa: E402  (no model import here)
from tracing import ALL_LAYERS, PINS, durations_ms  # noqa: E402

WORKLOADS = ("paper_pingpong", "fleet_open", "guest_trap", "fault_sweep_cached")

#: Timed set-up starts per run; one more runs first and is discarded,
#: so every timed start finds a warm bytecode cache.
SETUP_STARTS = 9

#: The reference start for set-up time, and the seconds it takes on the
#: nominal machine.
REFERENCE_START = "import numpy, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
NOMINAL_START_S = 0.1

#: Wall-clock budget for one workload, all of its children included.
WORKLOAD_BUDGET_S = 170.0

#: The traced run's unexplained time (``other`` layer plus time with no
#: ``repro`` caller) may not exceed this share.
MAX_UNEXPLAINED_SHARE = 0.05


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The parent's environment without ``REPRO_*`` knobs, model on the path.

    Bytecode writing is left on so the discarded set-up start warms the
    cache, and string hashing is fixed so runs are repeatable.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update(extra or {})
    return env


def _run(cmd: List[str], deadline: float, extra_env: Optional[Dict[str, str]] = None) -> str:
    """Run *cmd* from the repository root to completion; its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(extra_env),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its own process group, killed as one
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1:3]} exceeded the time budget") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{cmd[1:3]} exited with status {proc.returncode}")
    return out


def run_child(args: List[str], deadline: float,
              extra_env: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
    """Run ``child.py *args``; its last stdout line as JSON."""
    out = _run([sys.executable, str(BENCH / "child.py"), *args], deadline, extra_env)
    return json.loads(out.strip().splitlines()[-1])


# -- end-to-end -------------------------------------------------------------------


def _reference_start_s(deadline: float) -> float:
    """Seconds from spawn to a fresh interpreter having imported numpy."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    return float(_run([sys.executable, "-c", REFERENCE_START], deadline)) - spawned_at


def setup_seconds(common: List[str], deadline: float) -> Tuple[float, float]:
    """Median normalised and raw set-up seconds over fresh interpreters.

    Each start of the workload is followed at once by a reference start
    (the interpreter importing numpy, code this repository does not
    own), and the start is normalised by that pair's reference:
    ``NOMINAL_START_S`` x set-up / reference.  Start-up slows with the
    host's load far more than the reference loop does, so the loop
    cannot normalise it; a neighbouring reference start can.
    """
    walls, ratios = [], []
    for start in range(SETUP_STARTS + 1):
        with on_fastest_cpu():  # both starts inherit the pinning
            spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
            out = run_child(["setup", *common, "--spawned-at", repr(spawned_at)], deadline)
            reference_s = _reference_start_s(deadline)
        if start:
            walls.append(out["setup_wall_s"])
            ratios.append(out["setup_wall_s"] / reference_s)
    return NOMINAL_START_S * statistics.median(ratios), statistics.median(walls)


def machine_rate(passes: List[Dict[str, Any]]) -> float:
    """The run's reference rate: the 90th percentile of its samples.

    Interference from other tenants of the host only ever slows the
    loop, so a high percentile estimates the machine's own speed; the
    very highest sample is a noisier estimate of the same.
    """
    rates = [rate for p in passes for rate in p["chunk_ref_rate"]]
    return statistics.quantiles(rates, n=10)[-1] if len(rates) > 1 else rates[0]


def fastest_pass_s(timed: Dict[str, Any]) -> float:
    """Normalised seconds of a pass made of each chunk's fastest run.

    Interference from other tenants of the host only ever slows a chunk
    down, so the fastest of a chunk's repeats is the best estimate of
    its own cost, as :func:`machine_rate` is of the machine's speed.
    """
    measured = timed["passes"][1:]
    chunks = len(measured[0]["chunk_wall_s"])
    fastest = sum(min(p["chunk_wall_s"][k] for p in measured) for k in range(chunks))
    return normalised(fastest, machine_rate(timed["passes"]))


def end_to_end(timed: Dict[str, Any], setup: Tuple[float, float]) -> Tuple[dict, dict]:
    packets = timed["packets"]
    median_pass_s = statistics.median(sum(p["chunk_wall_s"]) for p in timed["passes"][1:])
    metrics = {
        "sim_pps": (packets / fastest_pass_s(timed), "packets/s"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (timed["peak_rss_kb"] / 1024.0, "MB"),
    }
    raw = {
        "raw_sim_pps": packets / median_pass_s,
        "raw_setup_s": setup[1],
        "measured_passes": len(timed["passes"]) - 1,
        "packets_per_pass": packets,
        "fail_frac": timed["failed"] / max(1, timed["attempted"]),
    }
    if "table1_err_pct" in timed:
        raw["table1_err_pct"] = timed["table1_err_pct"]
    return metrics, raw


# -- per-layer --------------------------------------------------------------------


def per_layer(timed: Dict[str, Any], traced: Dict[str, Any]) -> Tuple[dict, List[str]]:
    """The per-layer metrics and any trace-consistency problems."""
    packets = timed["packets"]
    first = timed["passes"][0]
    measured = timed["passes"][1:]
    pass_s = fastest_pass_s(timed)
    events = first["events"]
    rerun_s = min(p.get("rerun_wall_s", 0.0) for p in measured)
    metrics: Dict[str, Tuple[float, str]] = {
        "sim.events_per_packet": (events / packets, "events/packet"),
        "sim.ns_per_event": (pass_s * 1e9 / events, "ns"),
        "exec.cells": (timed["cells"], "count"),
        "exec.boot_reuses": (first["boot_reuses"], "count"),
        "exec.cache.hits": (first["cache_hits"], "count"),
        "exec.cache.misses": (first["cache_misses"], "count"),
        "exec.cache.rerun_s": (normalised(rerun_s, machine_rate(timed["passes"])), "s"),
    }
    profile = traced["profile"]
    total = profile["total_s"]
    for layer in ALL_LAYERS:
        metrics[f"{layer}.share"] = (profile["self_s"][layer] / total, "ratio")
        metrics[f"{layer}.calls_per_packet"] = (profile["calls"][layer] / packets, "calls/packet")
    for name in PINS:
        metrics[name] = (traced["pins"][name] / packets, "calls/packet")
    metrics["sim.queue_peak_depth"] = (traced["queue_peak_depth"], "events")

    rate = machine_rate(traced["passes"])
    for metric, name, outermost in (
        ("topology.boot_ms", "boot", True),
        ("exec.cache.get_ms", "cache.get", False),
        ("exec.cache.put_ms", "cache.put", False),
    ):
        durations = durations_ms(traced["spans"], name, outermost)
        value = normalised(statistics.median(durations), rate) if durations else 0.0
        metrics[metric] = (value, "ms")

    profiled_s = sum(traced["passes"][-1]["chunk_wall_s"])
    metrics["trace.overhead_x"] = (normalised(profiled_s, rate) / pass_s, "x")
    unattributed = profile["unattributed_s"] / total
    metrics["trace.unattributed_share"] = (unattributed, "ratio")

    problems = []
    share_sum = sum(metrics[f"{layer}.share"][0] for layer in ALL_LAYERS) + unattributed
    if abs(share_sum - 1.0) > 0.01:
        problems.append(f"layer shares sum to {share_sum:.4f}, not 1")
    unexplained = metrics["other.share"][0] + unattributed
    if unexplained > MAX_UNEXPLAINED_SHARE:
        problems.append(f"other + unattributed share is {unexplained:.3f}")
    return metrics, problems


# -- one workload -------------------------------------------------------------------


def bench_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    common = [name, "--seed", str(args.seed), "--scale", repr(args.scale)]
    timed_args = ["timed", *common, "--seconds", repr(args.seconds)]
    if args.trace:
        timed = run_child(timed_args, deadline)
        # Stamped cells run in fork children the profiler cannot see.
        traced = run_child(["traced", *common], deadline, {"REPRO_SNAPSHOT_BOOT": "0"})
        children = [timed, traced]
    else:
        setup = setup_seconds(common, deadline)
        timed = run_child(timed_args, deadline)
        children = [timed]
    problems = [p for child in children for p in child["problems"]]
    result: Dict[str, Any] = {
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "sim_digest": timed.get("sim_digest"),
        "passes": timed["passes"],
    }
    if len(timed["passes"]) < 2 or (args.trace and not traced.get("profile")):
        problems.append("no measured pass completed")
        metrics: Dict[str, Tuple[float, str]] = {}
    elif args.trace:
        metrics, trace_problems = per_layer(timed, traced)
        problems += trace_problems
        result["spans"] = traced["spans"]
    else:
        metrics, result["raw"] = end_to_end(timed, setup)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["problems"] = problems
    result["correct"] = not problems and result["failed"] == 0
    return result


def _print_workload(name: str, result: Dict[str, Any]) -> None:
    print(f"== {name}: {'ok' if result['correct'] else 'FAILED'} "
          f"({result['failed']} of {result['attempted']} cells failed)")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<32} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in result.get("raw", {}).items():
        print(f"  {key:<32} {value:>16.6g}  (not gated)")
    print(f"  sim_digest {result['sim_digest']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload, after one warm-up pass "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="packet-count multiplier (self-tests use 0.02)")
    parser.add_argument("--out", help="write the full record, spans included, here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    record: Dict[str, Any] = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "started_unix": time.time(), "workloads": {},
    }
    try:
        with tempfile.TemporaryDirectory(prefix=".bench_run-", dir=ROOT) as scratch:
            os.environ["TMPDIR"] = scratch  # inherited by every child
            for name in names:
                record["workloads"][name] = result = bench_workload(name, args)
                _print_workload(name, result)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    record["finished_unix"] = time.time()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")

    results = record["workloads"].values()
    if len(names) == 1:
        metrics = record["workloads"][names[0]]["metrics"]
    else:
        metrics = {f"{n}/{m}": entry for n in names
                   for m, entry in record["workloads"][n]["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
