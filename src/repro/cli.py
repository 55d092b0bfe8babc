"""Command-line interface.

``virtio-fpga-repro <artifact>`` regenerates a paper artifact on the
simulation substrate::

    virtio-fpga-repro fig3 --packets 5000
    virtio-fpga-repro table1 --packets 50000 --seed 3
    virtio-fpga-repro table1 --json
    virtio-fpga-repro claims
    virtio-fpga-repro all

``loadsweep`` goes beyond the paper: open/closed-loop traffic from the
workload engine, swept across offered-load points::

    virtio-fpga-repro loadsweep --seed 0
    virtio-fpga-repro loadsweep --rate 20000 40000 80000 --distribution bursty
    virtio-fpga-repro loadsweep --outstanding 1 2 4 8 --json

``faultsweep`` exercises the fault-injection subsystem: each driver's
canonical recoverable fault across increasing rates (E-F1), or the
VirtIO reset/renegotiation storm (E-F2)::

    virtio-fpga-repro faultsweep --json
    virtio-fpga-repro faultsweep --fault-rates 0 0.01 0.05 -j 4
    virtio-fpga-repro faultsweep --scenario reset --every 25

``overload`` drives the end-to-end overload-protection stack: E-O1
graceful-degradation sweeps far beyond the saturation knee, or the
E-S1 three-phase soak (baseline / sustained overload with faults /
recovery), each point audited by a conservation ledger::

    virtio-fpga-repro overload --json
    virtio-fpga-repro overload --multipliers 0.5 1 4 16 -j 4
    virtio-fpga-repro overload --soak --fault-rate 0.02

``fleetsweep`` runs E-M1 on the fleet topology subsystem: pods of
multi-queue virtio-net devices (plain + SR-IOV virtual functions)
behind a shared PCIe switch uplink, each pod serving a set of tenant
flows under admission control, with per-VF/per-queue conservation
lanes, Jain fairness, and p99 isolation::

    virtio-fpga-repro fleetsweep --json
    virtio-fpga-repro fleetsweep --pods 2 --tenants 8 --queue-pairs 4 -j 2
    virtio-fpga-repro fleetsweep --arbiter weighted --vfs 4

``guestsweep`` runs E-V1 on the guest VM layer: the paper's ping-pong
sweep re-measured inside a minimal VMM under each interposition mode
(bare / trap-and-emulate / vhost-style fast path), over the virtio-pci
or virtio-mmio transport, with a trap-time column in the breakdown::

    virtio-fpga-repro guestsweep --json
    virtio-fpga-repro guestsweep --modes bare vhost --payloads 64 1024 -j 4
    virtio-fpga-repro guestsweep --transport mmio --packets 200

Every artifact runs through the cell engine; ``--jobs/-j`` fans it out
over a process pool (default: one in-process worker; bit-identical
output for any worker count)::

    virtio-fpga-repro table1 --packets 50000 -j 8

Simulator speed is measured by ``bench/run.py`` and compared across
revisions by ``bench/compare.py`` (see ``bench/README.md``), not by
this CLI.

``--cache`` turns on the content-addressed result cache: cells whose
(kind, spec, seed, code fingerprint) already have a stored outcome are
served from disk, so a warm rerun of an unchanged tree is near-free
and byte-identical to the cold run.  Every ``--json`` report then
carries a ``cache_stats`` section (hits/misses/bytes/boot-reuses)::

    virtio-fpga-repro table1 --cache --json        # cold: populates
    virtio-fpga-repro table1 --cache --json        # warm: all hits
    virtio-fpga-repro fleetsweep --cache --cache-dir /tmp/repro-cache
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.core.calibration import PAPER_PAYLOAD_SIZES
from repro.core.experiments import (
    default_packets,
    figure3,
    figure4,
    figure5,
    render_claims,
    run_comparison,
    run_load_sweep,
    table1,
    verify_paper_claims,
)
from repro.core.results import breakdown_rows
from repro.workload.arrivals import ARRIVAL_KINDS
from repro.workload.sizes import MAX_PAYLOAD, MIN_PAYLOAD
from repro import env

#: The artifact registry: subcommand name -> whether it has a
#: machine-readable ``--json`` rendering.  The parser's choices and the
#: ``--json`` support list (including its error message) are derived
#: from this one table, so registering an artifact here is the only
#: step the CLI surface needs.
ARTIFACTS = {
    "fig3": True,
    "fig4": True,
    "fig5": True,
    "table1": True,
    "claims": False,
    "loadsweep": True,
    "faultsweep": True,
    "overload": True,
    "fleetsweep": True,
    "guestsweep": True,
    "all": False,
}

#: Artifacts with a machine-readable rendering behind ``--json``
#: (derived; never hand-edit).
JSON_ARTIFACTS = tuple(name for name, has_json in ARTIFACTS.items() if has_json)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virtio-fpga-repro",
        description=(
            "Reproduce the artifacts of 'Performance Evaluation of VirtIO Device "
            "Drivers for Host-FPGA PCIe Communication' (IPDPSW 2024) on a "
            "transaction-level simulation substrate."
        ),
    )
    parser.add_argument(
        "artifact",
        choices=list(ARTIFACTS),
        help="which artifact to regenerate (loadsweep: workload-engine "
        "offered-load sweep, beyond the paper; faultsweep: fault-injection "
        "reliability sweep, beyond the paper; overload: overload-protection "
        "sweep/soak with conservation audit, beyond the paper; fleetsweep: "
        "E-M1 multi-tenant fleet topology sweep, beyond the paper; "
        "guestsweep: E-V1 guest-mode latency comparison, beyond the paper)",
    )
    parser.add_argument(
        "--packets",
        type=int,
        default=None,
        help="packets per payload size, or per load point for loadsweep "
        "(default: REPRO_PACKETS env, 2000 for paper artifacts, 400 for "
        "loadsweep; the paper used 50000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="fan the run's cells out over N worker processes (output is "
        "bit-identical for any N; default: 1, in-process)",
    )
    parser.add_argument(
        "--payloads",
        type=int,
        nargs="+",
        default=None,
        help=f"payload sizes in bytes, each in [{MIN_PAYLOAD}, {MAX_PAYLOAD}] "
        "(default: the paper's sweep; for loadsweep and overload one size "
        "is fixed traffic, several are an empirical mix, default 64; "
        "faultsweep and fleetsweep take one size, default 64)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of text tables "
        f"(supported: {', '.join(JSON_ARTIFACTS)})",
    )
    sweep = parser.add_argument_group("loadsweep options")
    sweep.add_argument(
        "--rate",
        type=float,
        nargs="+",
        default=None,
        metavar="PPS",
        help="explicit offered-load points in packets/s (default: "
        "auto-placed multiples of each driver's measured ping-pong rate)",
    )
    sweep.add_argument(
        "--outstanding",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="run a closed-loop sweep over these outstanding-request "
        "counts instead of the open-loop rate sweep (N=1 reproduces the "
        "paper's ping-pong)",
    )
    sweep.add_argument(
        "--distribution",
        choices=list(ARRIVAL_KINDS),
        default="poisson",
        help="open-loop arrival process (default: poisson)",
    )
    faults = parser.add_argument_group("faultsweep options")
    faults.add_argument(
        "--fault-rates",
        type=float,
        nargs="+",
        default=None,
        metavar="P",
        help="per-opportunity fault probabilities to sweep (default: "
        "0 0.002 0.01 0.05; rate 0 is the fault-free baseline and is "
        "bit-identical to a run without any fault plan)",
    )
    faults.add_argument(
        "--scenario",
        choices=["rate", "reset"],
        default="rate",
        help="'rate' (E-F1): tail latency vs fault rate for both drivers; "
        "'reset' (E-F2): VirtIO reset/renegotiation recovery under a "
        "malformed-chain storm (default: rate)",
    )
    faults.add_argument(
        "--every",
        type=int,
        default=25,
        metavar="N",
        help="reset scenario: corrupt every N-th TX descriptor-chain "
        "fetch (default: 25)",
    )
    over = parser.add_argument_group("overload options")
    over.add_argument(
        "--soak",
        action="store_true",
        help="run the E-S1 three-phase soak (baseline / 8x overload with "
        "faults / recovery) instead of the E-O1 load sweep",
    )
    over.add_argument(
        "--multipliers",
        type=float,
        nargs="+",
        default=None,
        metavar="M",
        help="offered-load multiples of each driver's measured base rate "
        "for the E-O1 sweep (default: 0.5 1 2 4 8 16; --rate overrides "
        "with explicit pps points)",
    )
    over.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        metavar="P",
        help="per-opportunity fault probability layered on top of the "
        "overload (sweep default: none; soak default: 0.02)",
    )
    fleet = parser.add_argument_group("fleetsweep options")
    fleet.add_argument(
        "--pods",
        type=int,
        default=4,
        metavar="N",
        help="independent fleet pods, one cell each (default: 4; a pod is "
        "a plain multi-queue device plus an SR-IOV device behind a shared "
        "PCIe switch uplink)",
    )
    fleet.add_argument(
        "--tenants",
        type=int,
        default=16,
        metavar="N",
        help="tenant flows per pod, assigned round-robin across the pod's "
        "functions (default: 16, so the default sweep runs 64 flows)",
    )
    fleet.add_argument(
        "--queue-pairs",
        type=int,
        default=2,
        metavar="N",
        help="TX/RX virtqueue pairs per function (default: 2)",
    )
    fleet.add_argument(
        "--vfs",
        type=int,
        default=2,
        metavar="N",
        help="virtual functions on each pod's SR-IOV device (default: 2)",
    )
    fleet.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        metavar="PPS",
        help="offered rate per tenant in packets/s (default: 4000)",
    )
    fleet.add_argument(
        "--arbiter",
        choices=["rr", "weighted"],
        default="rr",
        help="DMA bandwidth arbiter across each SR-IOV device's functions "
        "(default: rr)",
    )
    guest = parser.add_argument_group("guestsweep options")
    guest.add_argument(
        "--modes",
        choices=["bare", "trapped", "vhost"],
        nargs="+",
        default=["bare", "trapped", "vhost"],
        metavar="MODE",
        help="guest modes to sweep: bare, trapped, and/or vhost "
        "(default: all three)",
    )
    guest.add_argument(
        "--transport",
        choices=["pci", "mmio"],
        default="pci",
        help="VirtIO bus binding the guest drives the device through: "
        "pci (the paper's path, per-queue MSI-X) or mmio (the 4.2 flat "
        "register block with one shared interrupt line; virtio driver "
        "only) (default: pci)",
    )
    cachegrp = parser.add_argument_group("result cache options")
    cachegrp.add_argument(
        "--cache",
        action="store_true",
        help="consult and populate the content-addressed cell result "
        "cache; unchanged cells are served from disk byte-identically "
        "(default: the REPRO_CACHE env knob)",
    )
    cachegrp.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even when REPRO_CACHE=1",
    )
    cachegrp.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-cache directory, created if missing (default: "
        "REPRO_CACHE_DIR, else .repro-cache)",
    )
    return parser


def _emit_json(payload: dict) -> None:
    """Print a ``--json`` rendering, appending ``cache_stats`` when the
    result cache is active (disabled runs stay byte-identical to the
    committed goldens)."""
    from repro.exec.cache import cache_stats

    stats = cache_stats()
    if stats is not None:
        payload = dict(payload, cache_stats=stats)
    print(json.dumps(payload, indent=2))


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        env.check_environment()
    except env.EnvError as exc:
        parser.error(str(exc))
    if args.json and args.artifact not in JSON_ARTIFACTS:
        parser.error(
            f"--json is not supported for {args.artifact!r} "
            f"(supported: {', '.join(JSON_ARTIFACTS)})"
        )
    if args.packets is not None and args.packets < 1:
        parser.error("--packets must be >= 1")
    if args.payloads and any(
        not MIN_PAYLOAD <= size <= MAX_PAYLOAD for size in args.payloads
    ):
        parser.error(
            f"--payloads values must be in [{MIN_PAYLOAD}, {MAX_PAYLOAD}] bytes"
        )
    if args.payloads and len(args.payloads) > 1 and args.artifact in (
        "faultsweep", "fleetsweep"
    ):
        parser.error(f"{args.artifact} takes one --payloads size")
    if args.rate and any(r <= 0 for r in args.rate):
        parser.error("--rate values must be positive (packets/s)")
    if args.outstanding and any(n <= 0 for n in args.outstanding):
        parser.error("--outstanding values must be positive")
    if args.fault_rates and any(not 0.0 <= p <= 1.0 for p in args.fault_rates):
        parser.error("--fault-rates values must be probabilities in [0, 1]")
    if args.every <= 0:
        parser.error("--every must be positive")
    if args.multipliers and any(m <= 0 for m in args.multipliers):
        parser.error("--multipliers values must be positive")
    if args.fault_rate is not None and not 0.0 <= args.fault_rate <= 1.0:
        parser.error("--fault-rate must be a probability in [0, 1]")
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.pods < 1:
        parser.error("--pods must be >= 1")
    if args.tenants < 1:
        parser.error("--tenants must be >= 1")
    if args.queue_pairs < 1:
        parser.error("--queue-pairs must be >= 1")
    if args.vfs < 1:
        parser.error("--vfs must be >= 1")
    if args.tenant_rate is not None and args.tenant_rate <= 0:
        parser.error("--tenant-rate must be positive (packets/s)")
    if args.cache and args.no_cache:
        parser.error("--cache and --no-cache are mutually exclusive")
    cache_dir = args.cache_dir
    if cache_dir and os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        parser.error(f"--cache-dir {cache_dir!r} exists and is not a directory")

    from repro.exec import cache as result_cache

    result_cache.configure(
        enabled=(args.cache or env.result_cache()) and not args.no_cache,
        cache_dir=cache_dir,
    )

    started = time.time()
    jobs = args.jobs if args.jobs is not None else 1
    if args.artifact == "loadsweep":
        packets = args.packets if args.packets is not None else default_packets(400)
        payloads = args.payloads if args.payloads is not None else [64]
        results, text = run_load_sweep(
            packets=packets,
            seed=args.seed,
            rates=args.rate,
            outstanding=args.outstanding,
            arrival=args.distribution,
            payload_sizes=payloads,
            jobs=jobs,
        )
        if args.json:
            _emit_json(
                {
                    "artifact": "loadsweep",
                    "mode": "closed" if args.outstanding else "open",
                    "seed": args.seed,
                    "packets": packets,
                    "payloads": payloads,
                    "drivers": {name: r.as_dict() for name, r in results.items()},
                }
            )
        else:
            print(text)
        print(
            f"\n[loadsweep: {packets} packets/point, seed {args.seed}, "
            f"{time.time() - started:.1f}s]",
            file=sys.stderr,
        )
        return 0
    if args.artifact == "faultsweep":
        from repro.faults.experiments import (
            DEFAULT_FAULT_RATES,
            run_fault_sweep,
            run_reset_recovery,
        )

        packets = args.packets if args.packets is not None else default_packets(300)
        payload = args.payloads[0] if args.payloads else 64
        if args.scenario == "reset":
            result, text = run_reset_recovery(
                every=args.every, payload=payload, packets=packets, seed=args.seed
            )
        else:
            rates = tuple(args.fault_rates) if args.fault_rates else DEFAULT_FAULT_RATES
            result, text = run_fault_sweep(
                rates=rates, payload=payload, packets=packets, seed=args.seed,
                jobs=jobs,
            )
        if args.json:
            _emit_json(
                dict(result.as_dict(), artifact="faultsweep", scenario=args.scenario)
            )
        else:
            print(text)
        print(
            f"\n[faultsweep/{args.scenario}: {packets} packets/cell, "
            f"seed {args.seed}, {time.time() - started:.1f}s]",
            file=sys.stderr,
        )
        return 0

    if args.artifact == "overload":
        from repro.health.experiments import (
            OVERLOAD_MULTIPLIERS,
            run_overload_soak,
            run_overload_sweep,
        )

        payloads = args.payloads if args.payloads is not None else [64]
        if args.soak:
            packets = args.packets if args.packets is not None else default_packets(300)
            fault_rate = args.fault_rate if args.fault_rate is not None else 0.02
            results = run_overload_soak(
                packets=packets, seed=args.seed, payload_sizes=payloads,
                fault_rate=fault_rate, jobs=jobs,
            )
        else:
            packets = args.packets if args.packets is not None else default_packets(400)
            multipliers = (
                tuple(args.multipliers) if args.multipliers else OVERLOAD_MULTIPLIERS
            )
            results = run_overload_sweep(
                packets=packets, seed=args.seed, multipliers=multipliers,
                rates=args.rate, arrival=args.distribution,
                payload_sizes=payloads, fault_rate=args.fault_rate, jobs=jobs,
            )
        mode = "soak" if args.soak else "sweep"
        if args.json:
            _emit_json(
                {
                    "artifact": "overload",
                    "mode": mode,
                    "seed": args.seed,
                    "packets": packets,
                    "drivers": {name: r.as_dict() for name, r in results.items()},
                }
            )
        else:
            print("\n\n".join(r.render() for r in results.values()))
        print(
            f"\n[overload/{mode}: {packets} packets/"
            f"{'phase' if args.soak else 'point'}, seed {args.seed}, "
            f"{time.time() - started:.1f}s]",
            file=sys.stderr,
        )
        all_pass = all(r.verdict == "PASS" for r in results.values())
        return 0 if all_pass else 1

    if args.artifact == "fleetsweep":
        from repro.topology.experiments import (
            DEFAULT_TENANT_RATE_PPS,
            run_fleet_sweep,
        )

        packets = args.packets if args.packets is not None else default_packets(50)
        payload = args.payloads[0] if args.payloads else 64
        rate = (
            args.tenant_rate if args.tenant_rate is not None
            else DEFAULT_TENANT_RATE_PPS
        )
        result = run_fleet_sweep(
            pods=args.pods,
            tenants=args.tenants,
            packets=packets,
            seed=args.seed,
            queue_pairs=args.queue_pairs,
            rate_pps=rate,
            arrival=args.distribution,
            payload=payload,
            vfs_per_device=args.vfs,
            arbiter=args.arbiter,
            jobs=jobs,
        )
        if args.json:
            _emit_json(result.as_dict())
        else:
            print(result.render())
        print(
            f"\n[fleetsweep: {args.pods} pods x {args.tenants} tenants, "
            f"{packets} packets/tenant, seed {args.seed}, "
            f"{time.time() - started:.1f}s]",
            file=sys.stderr,
        )
        return 0 if result.verdict == "PASS" else 1

    if args.artifact == "guestsweep":
        from repro.guest.experiments import run_guest_sweep

        packets = args.packets if args.packets is not None else default_packets(500)
        payloads = (
            args.payloads if args.payloads is not None else list(PAPER_PAYLOAD_SIZES)
        )
        modes = tuple(dict.fromkeys(args.modes))  # dedupe, keep order
        report = run_guest_sweep(
            payload_sizes=payloads,
            packets=packets,
            seed=args.seed,
            modes=modes,
            transport=args.transport,
            jobs=jobs,
        )
        if args.json:
            _emit_json(report.as_dict())
        else:
            print(report.render())
        print(
            f"\n[guestsweep/{args.transport}: modes {'+'.join(modes)}, "
            f"{packets} packets/cell, seed {args.seed}, "
            f"{time.time() - started:.1f}s]",
            file=sys.stderr,
        )
        return 0

    packets = args.packets if args.packets is not None else default_packets()
    payloads = args.payloads if args.payloads is not None else list(PAPER_PAYLOAD_SIZES)
    kwargs = dict(payload_sizes=payloads, packets=packets, seed=args.seed, jobs=jobs)
    checks = []  # claims/all exit 1 on any failed claim

    if args.artifact == "fig3":
        comparison, text = figure3(**kwargs)
        if args.json:
            drivers = {
                name: {
                    str(payload): sweep[payload].rtt_summary().as_dict()
                    for payload in sweep.payload_sizes()
                }
                for name, sweep in (
                    ("virtio", comparison.virtio), ("xdma", comparison.xdma)
                )
            }
            _emit_json(
                {
                    "artifact": "fig3",
                    "seed": args.seed,
                    "packets": packets,
                    "drivers": drivers,
                }
            )
        else:
            print(text)
    elif args.artifact in ("fig4", "fig5"):
        sweep, text = (figure4 if args.artifact == "fig4" else figure5)(**kwargs)
        if args.json:
            _emit_json(
                {
                    "artifact": args.artifact,
                    "driver": sweep.driver,
                    "seed": args.seed,
                    "packets": packets,
                    "breakdown": [
                        {
                            "payload": row.payload,
                            "hw_mean_us": row.hw_mean_us,
                            "hw_std_us": row.hw_std_us,
                            "sw_mean_us": row.sw_mean_us,
                            "sw_std_us": row.sw_std_us,
                            "total_mean_us": row.total_mean_us,
                        }
                        for row in breakdown_rows(sweep)
                    ],
                }
            )
        else:
            print(text)
    elif args.artifact == "table1":
        comparison, text = table1(**kwargs)
        if args.json:
            _emit_json(
                {
                    "artifact": "table1",
                    "seed": args.seed,
                    "packets": packets,
                    "rows": comparison.table1_rows(),
                }
            )
        else:
            print(text)
    elif args.artifact == "claims":
        checks = verify_paper_claims(run_comparison(**kwargs))
        print(render_claims(checks))
    elif args.artifact == "all":
        comparison, text = table1(**kwargs)
        print(text)
        print()
        from repro.core.results import render_breakdown

        print(render_breakdown(comparison.virtio, "Figure 4: VirtIO breakdown"))
        print()
        print(render_breakdown(comparison.xdma, "Figure 5: XDMA breakdown"))
        print()
        checks = verify_paper_claims(comparison)
        print(render_claims(checks))
    print(
        f"\n[{args.artifact}: {packets} packets/size x {len(payloads)} sizes, "
        f"seed {args.seed}, {time.time() - started:.1f}s]",
        file=sys.stderr,
    )
    return 0 if all(check.holds for check in checks) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
