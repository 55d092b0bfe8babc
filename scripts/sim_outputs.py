#!/usr/bin/env python
"""Print a digest of every benchmark workload's simulated outputs.

For each workload of ``bench/workloads.py`` and each seed, runs one pass
of the workload's cells in-process (``run_cells``, ``jobs=1``, no result
cache, every ``REPRO_*`` variable removed) and prints one line:

    <workload> seed <N> values <sha256> events/packet <E>

``values`` is a sha256 over each cell's label and simulated value, fed
through ``bench/workloads._feed`` -- the encoding of the benchmark's own
``sim_digest`` -- but without the simulator event counts: the event
count inside a fleet pod's report (``FleetPodReport.events``) is set to
0.  So two versions of the simulator that schedule different events
but simulate the same thing print the same ``values``; a change that
moves any simulated number, however little, changes it.  ``events/packet``
is the pass's simulator events divided by the packets it offered.

Run it once per version, with that version's ``src`` first on the path,
and diff the output:

    PYTHONPATH=src python scripts/sim_outputs.py --seeds 0-19 [--scale 1]

``bench/workloads.py`` is imported, never modified.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent.parent / "bench"


def parse_seeds(text: str) -> List[int]:
    """``"A-B"`` (inclusive) or a single ``"A"`` as a list of seeds."""
    first, _, last = text.partition("-")
    try:
        low = int(first)
        high = int(last) if last else low
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A-B or A, got {text!r}") from None
    if low < 0 or high < low:
        raise argparse.ArgumentTypeError(f"seeds must be 0 <= A <= B, got {text!r}")
    return list(range(low, high + 1))


def simulated_value(outcome: Any) -> Any:
    """The outcome's value with the fleet report's event count zeroed."""
    value = outcome.value
    if outcome.cell.kind == "fleet":
        value = dataclasses.replace(value, events=0)
    return value


def digest_pass(workloads: Any, outcomes: Sequence[Any]) -> Tuple[str, float]:
    """(values sha256, simulator events per offered packet) of one pass."""
    hasher = hashlib.sha256()
    for outcome in outcomes:
        workloads._feed(hasher, outcome.cell.label)
        workloads._feed(hasher, simulated_value(outcome))
    packets = sum(workloads.offered_packets(o.cell) for o in outcomes)
    events = sum(o.events for o in outcomes)
    return hasher.hexdigest(), events / packets


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="inclusive seed range A-B (or one seed A)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every packet count (default 1)")
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error(f"--scale must be positive, got {args.scale}")

    # The defaults are what the benchmark measures.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(BENCH))
    import workloads
    from repro.exec.runner import run_cells

    for name, workload in workloads.WORKLOADS.items():
        for seed in args.seeds:
            outcomes = run_cells(workload.make_cells(seed, args.scale), jobs=1)
            values, per_packet = digest_pass(workloads, outcomes)
            print(f"{name} seed {seed} values {values} events/packet {per_packet:.3f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
