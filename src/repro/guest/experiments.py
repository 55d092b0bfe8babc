"""Experiment family E-V1: the guest-mode latency comparison.

The paper measures its drivers on bare metal.  Virtualized deployments
-- the home turf of VirtIO -- add a hypervisor between the driver and
the device, and the cost of that interposition depends entirely on how
the data path is wired: full trap-and-emulate, a vhost-style split
where only the control path traps, or direct assignment.  E-V1 reruns
the paper's ping-pong sweep (Section III-B3) under each
:mod:`repro.guest` mode and reports the Fig. 3 RTT curves plus a
Fig. 4-style breakdown extended with a *trap* column: the VMM
world-switch time attributable to each round trip, measured by
snapshotting the VMM's trap accumulator around every packet.

Determinism: guest cells reuse the plain latency cells' seed identity
(kind "latency", driver, payload), so the ``bare``/``pci`` column boots
the same machine from the same seed as the paper artifacts and
reproduces their numbers byte-identically; the other modes differ only
in what the VMM interposes.  Results merge in cell construction order,
bit-identical across ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.calibration import PAPER_PAYLOAD_SIZES, PAPER_PROFILE, CalibrationProfile
from repro.core.latency import run_payload
from repro.core.results import PayloadResult, SweepResult
from repro.exec.cells import Cell, guest_cells
from repro.exec.runner import run_cells
from repro.guest.vmm import GUEST_MODES
from repro.topology.builder import build_from_spec
from repro.topology.spec import GuestSpec, TopologySpec


# -- cell worker --------------------------------------------------------------------


def guest_cell_plan(cell: Cell):
    """``(snap_key, boot, measure)`` for a ``kind="guest"`` cell.

    ``boot`` builds through the topology builder (the GuestSpec decides
    whether and how a VMM interposes); ``measure`` runs the paper's
    ping-pong (which records per-packet trap time whenever a VMM is
    present) and collects the VMM counters.  The key covers the mode
    and transport -- a bare boot and a trapped boot are different
    machines even at the same seed.
    """
    from repro.exec.cache import spec_digest

    guest = GuestSpec(mode=cell.guest_mode or "bare", transport=cell.guest_transport)
    if cell.driver == "virtio":
        spec = TopologySpec.single_virtio(guest)
    elif cell.driver == "xdma":
        spec = TopologySpec.single_xdma(guest)
    else:
        raise ValueError(f"unknown guest-cell driver {cell.driver!r}")
    key = (
        f"guest:{cell.driver}:{guest.mode}:{guest.transport}:"
        f"{cell.seed:#x}:{spec_digest(cell.profile)}"
    )

    def boot():
        return build_from_spec(spec, seed=cell.seed, profile=cell.profile)

    def measure(testbed) -> Tuple[Tuple[PayloadResult, Dict[str, Any]], int]:
        result = run_payload(testbed, cell.payload, cell.packets)
        stats = dict(testbed.vmm.stats) if testbed.vmm is not None else {}
        return (result, stats), testbed.sim.events_executed

    return key, boot, measure


# -- the sweep ----------------------------------------------------------------------


@dataclass
class GuestModeSweep:
    """One (driver, mode) column of the E-V1 comparison."""

    mode: str
    sweep: SweepResult
    #: payload -> cumulative VMM counters for that cell (empty for bare).
    vmm_stats: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    def breakdown_rows(self) -> List[Dict[str, float]]:
        """Fig. 4-style rows with the trap share broken out."""
        rows: List[Dict[str, float]] = []
        for payload in self.sweep.payload_sizes():
            result = self.sweep[payload]
            hw = result.hw_summary()
            sw = result.sw_summary()
            if result.trap_ps is not None:
                trap = result.trap_summary()
                trap_mean, trap_std = trap.mean_us, trap.std_us
            else:
                trap_mean = trap_std = 0.0
            rows.append(
                {
                    "payload": payload,
                    "hw_mean_us": hw.mean_us,
                    "hw_std_us": hw.std_us,
                    "sw_mean_us": sw.mean_us,
                    "sw_std_us": sw.std_us,
                    "trap_mean_us": trap_mean,
                    "trap_std_us": trap_std,
                    "total_mean_us": hw.mean_us + sw.mean_us + trap_mean,
                }
            )
        return rows


@dataclass
class GuestSweepReport:
    """The full E-V1 result: driver x mode sweeps over one payload set."""

    seed: int
    packets: int
    transport: str
    modes: Tuple[str, ...]
    drivers: Tuple[str, ...]
    #: driver -> mode -> that column's sweep.
    results: Dict[str, Dict[str, GuestModeSweep]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Machine-readable report (the CLI's ``--json`` rendering)."""
        out: Dict[str, Any] = {
            "experiment": "E-V1",
            "seed": self.seed,
            "packets": self.packets,
            "transport": self.transport,
            "modes": list(self.modes),
            "drivers": list(self.drivers),
            "results": {},
        }
        for driver in self.drivers:
            out["results"][driver] = {}
            for mode in self.modes:
                column = self.results[driver][mode]
                per_payload = {}
                for row in column.breakdown_rows():
                    payload = int(row["payload"])
                    result = column.sweep[payload]
                    summary = result.rtt_summary()
                    tails = result.tail_latencies_us()
                    per_payload[str(payload)] = {
                        "rtt_mean_us": summary.mean_us,
                        "rtt_std_us": summary.std_us,
                        "p95_us": tails[95.0],
                        "p99_us": tails[99.0],
                        "p999_us": tails[99.9],
                        "hw_mean_us": row["hw_mean_us"],
                        "sw_mean_us": row["sw_mean_us"],
                        "trap_mean_us": row["trap_mean_us"],
                        "vmm": column.vmm_stats.get(payload, {}),
                    }
                out["results"][driver][mode] = per_payload
        return out

    def render(self) -> str:
        """Text rendering: one breakdown block per driver x mode."""
        lines = [
            f"E-V1 guest sweep: transport={self.transport} seed={self.seed} "
            f"packets={self.packets}"
        ]
        for driver in self.drivers:
            for mode in self.modes:
                column = self.results[driver][mode]
                lines.append("")
                lines.append(f"-- {driver} / {mode} --")
                lines.append(
                    f"{'payload':>8} {'rtt mean':>9} {'hw mean':>9} {'sw mean':>9} "
                    f"{'trap mean':>10} {'total':>9}  (us)"
                )
                for row in column.breakdown_rows():
                    payload = int(row["payload"])
                    rtt = column.sweep[payload].rtt_summary()
                    lines.append(
                        f"{payload:>8} {rtt.mean_us:>9.1f} {row['hw_mean_us']:>9.1f} "
                        f"{row['sw_mean_us']:>9.1f} {row['trap_mean_us']:>10.2f} "
                        f"{row['total_mean_us']:>9.1f}"
                    )
        return "\n".join(lines)


def run_guest_sweep(
    payload_sizes: Sequence[int] = PAPER_PAYLOAD_SIZES,
    packets: int = 2000,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    modes: Sequence[str] = GUEST_MODES,
    transport: str = "pci",
    drivers: Sequence[str] = ("virtio", "xdma"),
    jobs: int = 1,
) -> GuestSweepReport:
    """E-V1: the ping-pong sweep under each guest mode.

    With ``transport="mmio"`` the XDMA driver is dropped from
    *drivers* -- XDMA has no VirtIO transport to rebind (the spec layer
    rejects the combination outright).
    """
    for mode in modes:
        if mode not in GUEST_MODES:
            raise ValueError(f"unknown guest mode {mode!r} (expected {GUEST_MODES})")
    if transport == "mmio":
        drivers = tuple(d for d in drivers if d != "xdma")
        if not drivers:
            raise ValueError("the mmio transport needs the virtio driver")
    cells = guest_cells(
        payload_sizes, packets, seed, profile, tuple(drivers), tuple(modes), transport
    )
    report = GuestSweepReport(
        seed=seed,
        packets=packets,
        transport=transport,
        modes=tuple(modes),
        drivers=tuple(drivers),
    )
    for outcome in run_cells(cells, jobs):  # cell order: driver, mode, payload
        cell = outcome.cell
        payload_result, vmm_counters = outcome.value
        column = report.results.setdefault(cell.driver, {}).setdefault(
            cell.guest_mode,
            GuestModeSweep(
                mode=cell.guest_mode,
                sweep=SweepResult(driver=cell.driver, seed=seed),
            ),
        )
        column.sweep.add(payload_result)
        if vmm_counters:
            column.vmm_stats[cell.payload] = vmm_counters
    return report
