"""The benchmark's workloads: one pass of fixed input each, built from a seed.

A workload is a list of cells (``repro.exec.cells.Cell``) made by the
public cell factories.  ``--seed`` is only used to build those cells;
the program then receives nothing but the cells.  Each workload also
carries its correctness check and knows how many packets it offers, so
the harness can turn wall time into packets per second.

One *pass* of a workload is sized to take one to two seconds on a
2-vCPU x86 host, so a timed run repeats it several times.  ``scale``
multiplies every packet count (the self-tests run at ``scale=0.02``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.calibration import PAPER_PAYLOAD_SIZES
from repro.exec.cells import Cell, fault_cells, guest_cells, latency_cells
from repro.topology.experiments import fleet_cells

DRIVERS = ("virtio", "xdma")

#: Fault rates of ``fault_sweep_cached``, 0 included so the rate-0
#: column is the fault-free baseline.
FAULT_RATES = (0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.03, 0.05)

#: Table I of the paper, microseconds: (driver, payload) -> (p95, p99).
PAPER_TABLE1_US = {
    ("virtio", 64): (35.1, 44.8), ("xdma", 64): (51.3, 70.1),
    ("virtio", 128): (33.6, 48.1), ("xdma", 128): (51.4, 60.0),
    ("virtio", 256): (39.6, 53.8), ("xdma", 256): (51.5, 57.5),
    ("virtio", 512): (44.1, 57.4), ("xdma", 512): (59.1, 64.5),
    ("virtio", 1024): (57.8, 65.9), ("xdma", 1024): (72.8, 76.7),
}


def _scaled(packets: int, scale: float) -> int:
    return max(1, round(packets * scale))


def offered_packets(cell: Cell) -> int:
    """Packets the cell offers: per tenant for fleet pods, else per cell."""
    if cell.kind == "fleet":
        return cell.packets * cell.fleet.tenants
    return cell.packets


def _payload_result(outcome: Any):
    """The ``PayloadResult`` inside a latency, guest or fault outcome."""
    value = outcome.value
    return value[0] if isinstance(value, tuple) else value


def cell_ok(outcome: Any) -> bool:
    """The per-cell check: the cell delivered what it was asked for."""
    cell = outcome.cell
    if cell.kind == "fleet":
        report = outcome.value
        offered = sum(t.offered for t in report.tenants)
        return report.conserved and offered == offered_packets(cell)
    return _payload_result(outcome).packets == cell.packets


# -- workload-level checks ---------------------------------------------------------


def _comparison(outcomes: Sequence[Any]):
    from repro.core.results import ComparisonResult, SweepResult

    sweeps = {driver: SweepResult(driver=driver) for driver in DRIVERS}
    for outcome in outcomes:
        sweeps[outcome.cell.driver].add(outcome.value)
    return ComparisonResult(virtio=sweeps["virtio"], xdma=sweeps["xdma"])


def table1_err_pct(outcomes: Sequence[Any]) -> float:
    """Mean |sim - paper| / paper over Table I's 20 p95/p99 cells, in %."""
    errors = []
    for outcome in outcomes:
        tails = outcome.value.tail_latencies_us()
        key = (outcome.cell.driver, outcome.cell.payload)
        for point, paper in zip((95.0, 99.0), PAPER_TABLE1_US[key]):
            errors.append(abs(tails[point] - paper) / paper)
    return 100.0 * sum(errors) / len(errors)


def _tail_resolved(claim: str, packets: int) -> bool:
    """Whether every percentile a claim names has >= 10 samples beyond it.

    A percentile with fewer rests on a handful of packets: p99 of 200
    packets is the second largest, and ``VirtIO p99 <= XDMA p99`` fails
    on some seeds for no reason but sampling.
    """
    return all(
        packets * (100 - float(point)) >= 1000 - 1e-6
        for point in re.findall(r"\bp(\d+(?:\.\d+)?)", claim)
    )


def _check_paper(outcomes: Sequence[Any]) -> List[str]:
    from repro.core.experiments import verify_paper_claims

    packets = min(o.cell.packets for o in outcomes)
    return [
        f"claim failed: {check.claim} ({check.evidence})"
        for check in verify_paper_claims(_comparison(outcomes))
        if not check.holds and _tail_resolved(check.claim, packets)
    ]


def _check_guest(outcomes: Sequence[Any]) -> List[str]:
    problems = []
    means: Dict[tuple, float] = {}
    for outcome in outcomes:
        cell = outcome.cell
        result, vmm = outcome.value
        if not (vmm.get("vmexits", 0) or vmm.get("vhost_doorbells", 0)):
            problems.append(f"{cell.label}/{cell.guest_transport}: VMM counters are zero")
        if cell.guest_transport == "pci":
            means[(cell.driver, cell.payload, cell.guest_mode)] = float(result.rtt_ps.mean())
    for (driver, payload, mode), trapped in means.items():
        if mode == "trapped" and not trapped > means[(driver, payload, "vhost")]:
            problems.append(f"{driver}/{payload}B: trapped mean RTT <= vhost mean RTT")
    return problems


def _no_workload_check(outcomes: Sequence[Any]) -> List[str]:
    """For workloads checked cell by cell (:func:`cell_ok`) only."""
    return []


# -- the cell lists ------------------------------------------------------------------


def _paper_cells(seed: int, scale: float) -> List[Cell]:
    return latency_cells(PAPER_PAYLOAD_SIZES, _scaled(200, scale), seed)


def _fleet_cells(seed: int, scale: float) -> List[Cell]:
    return fleet_cells(pods=4, packets=_scaled(16, scale), seed=seed)


def _guest_cells(seed: int, scale: float) -> List[Cell]:
    packets = _scaled(150, scale)
    return guest_cells((64, 1024), packets, seed, modes=("trapped", "vhost")) + guest_cells(
        (64, 1024), packets, seed, drivers=("virtio",), modes=("trapped",), transport="mmio"
    )


def _fault_cells(seed: int, scale: float) -> List[Cell]:
    cells: List[Cell] = []
    for payload in (64, 1024):
        cells += fault_cells(DRIVERS, FAULT_RATES, payload, _scaled(50, scale), seed)
    return cells


@dataclass(frozen=True)
class Workload:
    name: str
    make_cells: Callable[[int, float], List[Cell]]
    #: Cells per ``run_cells`` call; the reference loop runs after each.
    cells_per_chunk: int
    check: Callable[[Sequence[Any]], List[str]] = _no_workload_check
    #: Run each pass cold through a fresh result cache, then rerun it warm.
    cached: bool = False
    #: Extra figures printed beside the metrics (not gated).
    report: Optional[Callable[[Sequence[Any]], Dict[str, float]]] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_pingpong", _paper_cells, cells_per_chunk=1, check=_check_paper,
            report=lambda outcomes: {"table1_err_pct": table1_err_pct(outcomes)},
        ),
        Workload("fleet_open", _fleet_cells, cells_per_chunk=1),
        Workload("guest_trap", _guest_cells, cells_per_chunk=1, check=_check_guest),
        # A chunk is one (driver, payload) column: eight cells, one boot key.
        Workload("fault_sweep_cached", _fault_cells, cells_per_chunk=8, cached=True),
    )
}


def boot_first(cells: Sequence[Cell]) -> Any:
    """Boot the testbed of the workload's first cell and return it."""
    cell = cells[0]
    if cell.kind == "fleet":
        from repro.topology.experiments import fleet_cell_plan

        return fleet_cell_plan(cell)[1]()
    if cell.kind == "guest":
        from repro.guest.experiments import guest_cell_plan

        return guest_cell_plan(cell)[1]()
    from repro.core.testbed import build_virtio_testbed, build_xdma_testbed

    build = build_virtio_testbed if cell.driver == "virtio" else build_xdma_testbed
    return build(seed=cell.seed, profile=cell.profile)


# -- digest of the simulated outputs ------------------------------------------------


def _feed(hasher: Any, value: Any) -> None:
    """Feed a canonical, type-tagged encoding of *value* to *hasher*."""
    if isinstance(value, np.ndarray):
        hasher.update(f"nd:{value.dtype.str}:{value.shape}:".encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, bool) or value is None:
        hasher.update(f"{value!r};".encode())
    elif isinstance(value, (int, np.integer)):
        hasher.update(f"i:{int(value)};".encode())
    elif isinstance(value, (float, np.floating)):
        hasher.update(b"f:" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        hasher.update(f"s:{len(value)}:{value}".encode())
    elif isinstance(value, (list, tuple)):
        hasher.update(f"l:{len(value)}[".encode())
        for item in value:
            _feed(hasher, item)
        hasher.update(b"]")
    elif isinstance(value, dict):
        hasher.update(f"d:{len(value)}{{".encode())
        for key in sorted(value, key=repr):
            _feed(hasher, key)
            _feed(hasher, value[key])
        hasher.update(b"}")
    elif dataclasses.is_dataclass(value):
        hasher.update(f"c:{type(value).__qualname__}(".encode())
        for field in dataclasses.fields(value):
            _feed(hasher, field.name)
            _feed(hasher, getattr(value, field.name))
        hasher.update(b")")
    else:
        raise TypeError(f"cannot digest {type(value).__qualname__}")


def cell_digest(outcome: Any) -> str:
    """sha256 over one cell's simulated output and event count."""
    hasher = hashlib.sha256()
    _feed(hasher, outcome.cell.label)
    _feed(hasher, outcome.value)
    _feed(hasher, outcome.events)
    return hasher.hexdigest()


def sim_digest(cell_digests: Sequence[str]) -> str:
    """sha256 over the per-cell digests, in cell order."""
    return hashlib.sha256("".join(cell_digests).encode()).hexdigest()
