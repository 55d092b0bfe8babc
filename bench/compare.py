"""Compare benchmark runs of a parent commit and a change, pair by pair.

    python3 bench/compare.py --parent P1.json ... --change C1.json ...

Each file is a record written by ``run.py --out``.  File *i* of each
side is one pair: both runs used the same seed and settings, and the
side that ran first alternates from pair to pair.  The rule applied is
the one in bench/README.md ("Running an A/B"):

* at least ten pairs;
* for every workload and end-to-end metric, each side's median and
  quartiles, the change's wins (ties count for neither side), and a
  verdict: ``gain`` when the change wins at least 9 pairs in 10 and the
  medians differ by more than the parent's interquartile range,
  ``regressed`` when the change's median is worse than the parent's by
  more than the metric's bound, ``unresolved`` when the parent's
  interquartile range is wider than the bound (unless every change run
  beats every parent run), else ``within bound``;
* count metrics (``sim_digest`` and every per-layer metric counted
  rather than timed) must repeat exactly on each side; a count that
  differs between the sides is reported as changed.

Exit status 1 when a metric regressed, a count did not repeat, or the
runs do not form ten alternating pairs; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9

#: Units of per-layer metrics that count work rather than time it.
COUNT_UNITS = ("count", "events", "events/packet", "calls/packet")


def load(paths: List[str]) -> List[Dict[str, Any]]:
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_pairs(parent: List[dict], change: List[dict]) -> List[str]:
    """Problems with the pairing itself (count, seeds, settings, order)."""
    problems = []
    if len(parent) != len(change):
        problems.append(f"{len(parent)} parent runs but {len(change)} change runs")
    if min(len(parent), len(change)) < MIN_PAIRS:
        problems.append(f"fewer than {MIN_PAIRS} pairs")
    first_sides = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for key in ("seed", "seconds", "trace", "scale"):
            if p[key] != c[key]:
                problems.append(f"pair {i}: {key} differs ({p[key]} vs {c[key]})")
        first_sides.append("parent" if p["started_unix"] < c["started_unix"] else "change")
    if any(a == b for a, b in zip(first_sides, first_sides[1:])):
        problems.append(f"pairs do not alternate which side runs first: {first_sides}")
    return problems


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Dict[str, Any]:
    """Apply the pairwise rule to one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    if wins >= WIN_SHARE * len(parent) and sign * (cm - pm) > (p3 - p1):
        result = "gain"
    elif worse_by > bound:
        result = "regressed"
    elif spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        result = "unresolved"
    else:
        result = "within bound"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins, "losses": losses,
        "delta": (cm - pm) / abs(pm) if pm else 0.0, "verdict": result,
    }


def count_problems(side: str, records: List[dict]) -> Tuple[List[str], Dict[tuple, Any]]:
    """Counts that fail to repeat across *records* of one seed; and the
    value of each (workload, seed, count) on this side."""
    problems: List[str] = []
    values: Dict[tuple, Any] = {}
    for record in records:
        for workload, result in record["workloads"].items():
            counts = {"sim_digest": result.get("sim_digest")}
            counts.update(
                (name, entry["value"]) for name, entry in result["metrics"].items()
                if entry["unit"] in COUNT_UNITS
            )
            for name, value in counts.items():
                key = (workload, record["seed"], name)
                if key in values and values[key] != value:
                    problems.append(f"{side}: {workload} seed {record['seed']} {name} "
                                    f"did not repeat ({values[key]} vs {value})")
                values.setdefault(key, value)
    return problems, values


def compare(parent: List[dict], change: List[dict],
            spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether the comparison passes."""
    lines: List[str] = []
    parent_problems, parent_counts = count_problems("parent", parent)
    change_problems, change_counts = count_problems("change", change)
    problems = check_pairs(parent, change) + parent_problems + change_problems
    for key, value in change_counts.items():
        if key in parent_counts and parent_counts[key] != value:
            workload, seed, name = key
            lines.append(f"count changed: {workload} seed {seed} {name}: "
                         f"{parent_counts[key]} -> {value}")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    passed = not problems
    lines.insert(0, f"{'workload':<20} {'metric':<12} {'parent q1/med/q3':>30} "
                    f"{'change q1/med/q3':>30} {'delta':>7} {'wins':>5}  verdict")
    for workload in parent[0]["workloads"] if parent else []:
        for name, metric in metrics.items():
            try:
                p = [r["workloads"][workload]["metrics"][name]["value"] for r in parent]
                c = [r["workloads"][workload]["metrics"][name]["value"] for r in change]
            except KeyError:
                continue  # per-layer records carry no end-to-end metrics
            v = verdict(p, c, metric["better"], metric["bound"])
            passed &= v["verdict"] != "regressed"
            lines.append(
                f"{workload:<20} {name:<12} "
                f"{'/'.join(f'{x:.4g}' for x in v['parent']):>30} "
                f"{'/'.join(f'{x:.4g}' for x in v['change']):>30} "
                f"{v['delta']:>+7.1%} {v['wins']:>2}/{len(p):<2}  {v['verdict']}"
            )
    lines += [f"problem: {problem}" for problem in problems]
    return lines, passed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent records, pair order")
    parser.add_argument("--change", nargs="+", required=True, help="change records, pair order")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, passed = compare(load(args.parent), load(args.change), spec)
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
