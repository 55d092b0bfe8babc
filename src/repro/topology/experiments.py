"""E-M1: the tenant-fleet sweep on the topology subsystem.

One *pod* is the canonical fleet shape of
:meth:`~repro.topology.spec.TopologySpec.fleet_pod`: a plain
multi-queue virtio-net device plus an SR-IOV device carved into
virtual functions, all behind a shared-uplink PCIe switch.  Each pod
hosts a set of *tenants* -- independent open-loop UDP flows, one per
tenant, assigned round-robin across the pod's functions and kept on
one queue pair by RSS (distinct source ports make distinct flows).
Each tenant is the workload engine's
:class:`~repro.workload.generator.VirtioFlow` with its own socket,
arrival stream, admission window and
:class:`~repro.workload.metrics.RunRecorder`.

Every tenant runs under the PR-4 overload machinery: a per-tenant
admission window, a bounded socket receive backlog, TX avail-ring
depth limits on every pair, and drop-with-reason accounting.  A
:class:`~repro.health.ConservationMonitor` rides the whole pod with
per-function *lane* tags (``dev<d>/vf<v>/q<pair>``), so the ledger
reconciles per virtual function and queue, not just in aggregate.

The headline metrics:

* **aggregate goodput** -- delivered packets/s summed over tenants;
* **fairness** -- Jain's index over per-tenant goodput
  (:func:`repro.stats.fairness.jain_index`);
* **tail isolation** -- per-tenant p99 latency and the max/min p99
  spread across tenants (a noisy neighbour shows up as a big spread).

Pods share nothing (each boots its own simulator), so they are the
cell decomposition: ``run_fleet_sweep`` fans pods out over the
process pool and merges in pod order, bit-identical for any
``--jobs`` (the same discipline every other artifact follows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.calibration import PAPER_PROFILE, TEST_DST_PORT, CalibrationProfile
from repro.exec.cells import Cell, cell_seed
from repro.exec.runner import run_cells
from repro.health.monitor import ConservationMonitor, HealthReport
from repro.host.netstack.rss import flow_hash
from repro.stats.fairness import jain_index
from repro.topology.builder import FleetTestbed, build_from_spec
from repro.topology.spec import ARBITER_ROUND_ROBIN, TopologySpec
from repro.workload.admission import AdmissionController
from repro.workload.arrivals import make_arrivals
from repro.workload.generator import VirtioFlow, note_virtio_hops
from repro.workload.metrics import RunRecorder

#: First UDP source port of the tenant sockets (above the workload
#: engine's open/closed-loop ranges, so the ports never collide).
FLEET_PORT_BASE = 49000

#: Default per-tenant offered rate.  With the default pod (3 functions,
#: ~5 tenants each) this sits around each function's saturation knee,
#: so admission and bounded queues actually engage.
DEFAULT_TENANT_RATE_PPS = 4000.0

#: Named per-tenant arrival streams (independent of every model stream).
TENANT_ARRIVAL_STREAM = "fleet.arrivals.t{tenant}"

#: Per-tenant overload bounds: the admission window, the TX avail-ring
#: depth limit of every queue pair, and the receive backlog of every
#: tenant socket.
TENANT_ADMISSION_LIMIT = 64
TX_DEPTH_LIMIT = 64
SOCKET_RX_LIMIT = 256


@dataclass(frozen=True)
class FleetConfig:
    """Per-pod workload + topology parameters (picklable, rides the Cell)."""

    tenants: int = 16
    queue_pairs: int = 2
    vfs_per_device: int = 2
    arbiter: str = ARBITER_ROUND_ROBIN
    rate_pps: float = DEFAULT_TENANT_RATE_PPS
    arrival: str = "poisson"
    payload: int = 64

    def spec(self) -> TopologySpec:
        return TopologySpec.fleet_pod(
            queue_pairs=self.queue_pairs,
            vfs_per_device=self.vfs_per_device,
            arbiter=self.arbiter,
        )


@dataclass
class TenantStats:
    """One tenant's share of a pod run."""

    tenant: int
    function: int  # global function index within the pod
    lane: str
    queue_pair: int
    offered: int
    delivered: int
    dropped: int
    goodput_pps: float
    p50_us: float
    p99_us: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "function": self.function,
            "lane": self.lane,
            "queue_pair": self.queue_pair,
            "offered": self.offered,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "goodput_pps": self.goodput_pps,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
        }


@dataclass
class FleetPodReport:
    """One pod's booted-fleet run with its conservation verdict."""

    pod: int
    seed: int
    functions: int
    devices: int
    queue_pairs: int
    tenants: List[TenantStats]
    health: HealthReport
    switch_stats: Dict[str, int]
    arbiter_stats: List[Dict[str, int]]
    rx_steered: Dict[str, List[int]] = field(default_factory=dict)
    #: simulator events the pod executed (perf accounting, not JSON).
    events: int = 0

    @property
    def aggregate_goodput_pps(self) -> float:
        return sum(t.goodput_pps for t in self.tenants)

    @property
    def fairness(self) -> float:
        return jain_index([t.goodput_pps for t in self.tenants])

    @property
    def p99_spread(self) -> float:
        """max/min per-tenant p99 over tenants that delivered (1.0 when
        fewer than two tenants have samples)."""
        tails = [t.p99_us for t in self.tenants if t.delivered > 0]
        if len(tails) < 2 or min(tails) <= 0.0:
            return 1.0
        return max(tails) / min(tails)

    @property
    def conserved(self) -> bool:
        return self.health.conserved

    def as_dict(self) -> Dict[str, Any]:
        return {
            "pod": self.pod,
            "seed": self.seed,
            "functions": self.functions,
            "devices": self.devices,
            "queue_pairs": self.queue_pairs,
            "aggregate_goodput_pps": self.aggregate_goodput_pps,
            "fairness": self.fairness,
            "p99_spread": self.p99_spread,
            "tenants": [t.as_dict() for t in self.tenants],
            "health": self.health.as_dict(),
            "switch": dict(sorted(self.switch_stats.items())),
            "arbiters": [dict(sorted(s.items())) for s in self.arbiter_stats],
            "rx_steered": self.rx_steered,
        }


@dataclass
class FleetSweepResult:
    """The whole E-M1 artifact: every pod's report plus fleet rollups."""

    seed: int
    packets: int
    config: FleetConfig
    pods: List[FleetPodReport]

    @property
    def flows(self) -> int:
        return sum(len(pod.tenants) for pod in self.pods)

    @property
    def aggregate_goodput_pps(self) -> float:
        return sum(pod.aggregate_goodput_pps for pod in self.pods)

    @property
    def fairness(self) -> float:
        """Jain's index over every tenant of every pod."""
        return jain_index(
            [t.goodput_pps for pod in self.pods for t in pod.tenants]
        )

    @property
    def all_conserved(self) -> bool:
        return all(pod.conserved for pod in self.pods)

    @property
    def verdict(self) -> str:
        return "PASS" if self.all_conserved else "FAIL"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "artifact": "fleetsweep",
            "seed": self.seed,
            "packets": self.packets,
            "tenants_per_pod": self.config.tenants,
            "queue_pairs": self.config.queue_pairs,
            "rate_pps": self.config.rate_pps,
            "arbiter": self.config.arbiter,
            "flows": self.flows,
            "aggregate_goodput_pps": self.aggregate_goodput_pps,
            "fairness": self.fairness,
            "all_conserved": self.all_conserved,
            "verdict": self.verdict,
            "pods": [pod.as_dict() for pod in self.pods],
        }

    def render(self) -> str:
        rows = [
            f"Fleet sweep (E-M1): {len(self.pods)} pods x "
            f"{self.config.tenants} tenants = {self.flows} flows, "
            f"{self.config.queue_pairs} queue pairs/function, "
            f"{self.config.arbiter} DMA arbiter",
            f"{'pod':>4} {'goodput':>10} {'jain':>6} {'p99 spread':>11} "
            f"{'health':>7}   (kpps)",
        ]
        for pod in self.pods:
            rows.append(
                f"{pod.pod:>4} {pod.aggregate_goodput_pps / 1e3:>10.1f} "
                f"{pod.fairness:>6.3f} {pod.p99_spread:>10.2f}x "
                f"{pod.health.verdict:>7}"
            )
        rows.append(
            f"  fleet: {self.aggregate_goodput_pps / 1e3:.1f} kpps aggregate, "
            f"Jain {self.fairness:.3f} over {self.flows} tenants, "
            f"conservation: {self.verdict}"
        )
        lanes: Dict[str, Dict[str, int]] = {}
        for pod in self.pods:
            for lane, counters in pod.health.lanes.items():
                rollup = lanes.setdefault(
                    lane, {"offered": 0, "delivered": 0, "dropped": 0}
                )
                for key in rollup:
                    rollup[key] += counters.get(key, 0)
        if lanes:
            rows.append("  per-lane ledger (summed over pods):")
            for lane, counters in sorted(lanes.items()):
                rows.append(
                    f"    {lane:<14} offered {counters['offered']:>6} "
                    f"delivered {counters['delivered']:>6} "
                    f"dropped {counters['dropped']:>6}"
                )
        return "\n".join(rows)


# -- one pod ---------------------------------------------------------------------


def tenant_queue_pair(host_ip: int, fpga_ip: int, src_port: int,
                      queue_pairs: int) -> int:
    """The TX queue pair RSS steers a tenant's flow onto (the same
    reduction :func:`repro.host.netstack.rss.steer` applies to the
    tenant's outbound frames)."""
    if queue_pairs <= 1:
        return 0
    return flow_hash(host_ip, fpga_ip, src_port, TEST_DST_PORT) % queue_pairs


def run_fleet_pod(
    pod: int,
    seed: int,
    packets: int,
    config: FleetConfig,
    profile: CalibrationProfile = PAPER_PROFILE,
    testbed: Optional[FleetTestbed] = None,
) -> FleetPodReport:
    """Boot one pod and drive all its tenants to completion.

    Pure function of its arguments (fresh simulator from *seed*), so
    pods can run on any process-pool worker in any order.  Pass a
    pre-booted *testbed* (same spec, seed, profile) to skip the boot --
    the snapshot layer uses this to stamp cells from a pristine image.
    """
    from repro.drivers.virtio_net import tx_queue_index

    if testbed is None:
        testbed = build_from_spec(config.spec(), seed=seed, profile=profile)
    sim = testbed.sim
    functions = testbed.functions
    monitor = ConservationMonitor("virtio", "fleet")

    # PR-4 bounds on every hop: TX avail-ring depth per pair, a qdisc
    # gate on the netdev, and (below) a receive-backlog bound per socket.
    for function in functions:
        driver = function.driver
        for pair in range(driver.queue_pairs):
            driver.transport.queue(tx_queue_index(pair)).depth_limit = TX_DEPTH_LIMIT
        if driver.netdev is not None and driver.netdev.can_xmit is None:
            driver.netdev.can_xmit = driver.tx_has_room

    arrivals = make_arrivals(config.arrival, config.rate_pps)
    t0 = sim.now
    flows: List[Tuple[Any, int, VirtioFlow]] = []  # (function, queue pair, flow)
    done_events = []
    for tenant in range(config.tenants):
        function = functions[tenant % len(functions)]
        src_port = FLEET_PORT_BASE + tenant
        socket = testbed.open_socket(src_port)
        socket.rx_queue_limit = SOCKET_RX_LIMIT
        pair = tenant_queue_pair(
            function.host_ip, function.fpga_ip, src_port, function.spec.queue_pairs
        )
        gaps = arrivals.intervals(
            sim.rng(TENANT_ARRIVAL_STREAM.format(tenant=tenant)), packets
        )
        flow = VirtioFlow(
            sim, socket, RunRecorder("virtio", "open"), gaps, [config.payload] * packets,
            has_room=function.driver.tx_has_room, dst_ip=function.fpga_ip,
            admission=AdmissionController(TENANT_ADMISSION_LIMIT), monitor=monitor,
            lane=f"{function.lane}/q{pair}", first_seq=tenant * packets,
        )
        flows.append((function, pair, flow))
        done_events.append(sim.spawn(flow.injector(), name=f"fleet-tx-t{tenant}"))
        sim.spawn(flow.collector(), name=f"fleet-rx-t{tenant}")

    for done in done_events:
        sim.run_until_triggered(done)
    sim.run()  # drain in-flight echoes across all tenants

    # Hop-side evidence for the ledger reconciliation.
    note_virtio_hops(
        monitor, [flow.socket for _, _, flow in flows], [f.driver for f in functions]
    )
    span_s = max(sim.now - t0, 1) / 1e12
    tenants: List[TenantStats] = []
    for tenant, (function, pair, flow) in enumerate(flows):
        metrics = flow.finish()
        latencies = metrics.latency_ps.astype(np.float64)
        tenants.append(
            TenantStats(
                tenant=tenant,
                function=function.index,
                lane=flow.lane,
                queue_pair=pair,
                offered=metrics.offered_total,
                delivered=metrics.completed,
                dropped=metrics.dropped,
                goodput_pps=metrics.completed / span_s,
                p50_us=float(np.percentile(latencies, 50)) / 1e6 if latencies.size else 0.0,
                p99_us=float(np.percentile(latencies, 99)) / 1e6 if latencies.size else 0.0,
            )
        )
    health = monitor.finalize()
    return FleetPodReport(
        pod=pod,
        seed=seed,
        functions=len(functions),
        devices=len(testbed.spec.devices),
        queue_pairs=config.queue_pairs,
        tenants=tenants,
        health=health,
        switch_stats=dict(testbed.switch.stats) if testbed.switch else {},
        arbiter_stats=[dict(a.stats) for a in testbed.arbiters],
        rx_steered={
            f.lane: list(f.device.personality.rx_steered) for f in functions
        },
        events=sim.events_executed,
    )


# -- cells + sweep ---------------------------------------------------------------


def fleet_cells(
    pods: int,
    packets: int,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    config: Optional[FleetConfig] = None,
) -> List[Cell]:
    """One cell per pod; the seed identity is (kind, pod index), so the
    same root seed gives every pod its own independent stream
    regardless of worker count or completion order."""
    config = config if config is not None else FleetConfig()
    return [
        Cell(
            kind="fleet",
            driver="virtio",
            packets=packets,
            profile=profile,
            pod=pod,
            fleet=config,
            seed=cell_seed(seed, "fleet", pod=pod),
        )
        for pod in range(pods)
    ]


def fleet_cell_plan(cell: Cell):
    """``(snap_key, boot, measure)`` for a ``kind="fleet"`` cell.

    ``boot`` is the pure :func:`build_from_spec` of the pod's spec;
    ``measure`` drives the tenants on a booted testbed.  The snapshot
    key covers everything the boot reads: the fleet config (which
    defines the spec), the cell seed, and the profile.
    """
    from repro.exec.cache import spec_digest

    config = cell.fleet if isinstance(cell.fleet, FleetConfig) else FleetConfig()
    key = (
        f"fleet:{spec_digest(config)}:{cell.seed:#x}:{spec_digest(cell.profile)}"
    )

    def boot() -> FleetTestbed:
        return build_from_spec(config.spec(), seed=cell.seed, profile=cell.profile)

    def measure(testbed: FleetTestbed) -> Tuple[FleetPodReport, int]:
        report = run_fleet_pod(
            pod=cell.pod or 0,
            seed=cell.seed,
            packets=cell.packets,
            config=config,
            profile=cell.profile,
            testbed=testbed,
        )
        return report, report.events

    return key, boot, measure


def run_fleet_sweep(
    pods: int = 4,
    tenants: int = 16,
    packets: int = 50,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    queue_pairs: int = 2,
    rate_pps: float = DEFAULT_TENANT_RATE_PPS,
    arrival: str = "poisson",
    payload: int = 64,
    vfs_per_device: int = 2,
    arbiter: str = ARBITER_ROUND_ROBIN,
    jobs: int = 1,
) -> FleetSweepResult:
    """E-M1: the tenant-fleet sweep, one cell per pod.

    Defaults give 4 pods x 16 tenants = 64 concurrent flows over
    4 x (1 plain + 1 two-VF) = 8 physical devices / 12 functions /
    24 queue pairs.  *packets* is per tenant.
    """
    config = FleetConfig(
        tenants=tenants,
        queue_pairs=queue_pairs,
        vfs_per_device=vfs_per_device,
        arbiter=arbiter,
        rate_pps=rate_pps,
        arrival=arrival,
        payload=payload,
    )
    cells = fleet_cells(pods, packets, seed, profile, config)
    reports = [outcome.value for outcome in run_cells(cells, jobs)]  # pod order
    return FleetSweepResult(seed=seed, packets=packets, config=config, pods=reports)
