"""Cell decomposition and per-cell seed derivation.

A *cell* is the smallest unit of experiment work whose result depends
on nothing but its own parameters: one (driver, payload) latency
measurement, one (driver, offered-rate) load point, one calibration
ping-pong.  Decomposing an artifact into cells is what makes the
process-pool fan-out legal -- cells share no simulator state, so they
can run in any order on any worker.

Seed derivation
---------------

Each cell's simulator seed is derived from the experiment's root seed
through a :class:`numpy.random.SeedSequence` spawn key built from the
cell's *identity* (kind, driver, payload / point index) -- never from
worker IDs, submission order, or wall-clock time.  Two consequences:

* the same root seed always produces the same per-cell seeds, so a
  run is bit-reproducible regardless of worker count or completion
  order;
* distinct cells get statistically independent streams (SeedSequence's
  spawn-key mixing), so fanning out does not correlate the noise
  processes of different cells.

This mirrors how the simulation kernel derives named random streams
(:meth:`repro.sim.kernel.Simulator.rng` hashes the stream name into
spawn-key material), extended one level up the hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.calibration import PAPER_PROFILE, CalibrationProfile


def derive_cell_seed(root_seed: int, *identity: object) -> int:
    """A 128-bit simulator seed for the cell named by *identity*.

    The identity parts are joined into spawn-key material byte-wise, the
    same scheme the kernel uses for named random streams, so the value
    is stable across platforms and numpy versions that keep the
    SeedSequence hashing contract.
    """
    material = ":".join(str(part) for part in identity).encode("utf-8")
    child = np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(material))
    seed = 0
    for shift, word in enumerate(child.generate_state(4, np.uint32)):
        seed |= int(word) << (32 * shift)
    return seed


#: The driver stacks a single-driver cell can boot.
DRIVERS = ("virtio", "xdma")

#: Kinds whose cells deliberately reuse another kind's seed identity.
#: These aliases are the determinism guards the layered experiments
#: rest on: a fault/guest cell boots the very machine the plain latency
#: cell booted (so the rate-0 / bare column is bit-identical to the
#: paper artifact), and an overload point boots the plain load-sweep
#: point's machine (so an all-off OverloadConfig reproduces it).
SEED_IDENTITY_ALIASES = {
    "faultlat": "latency",
    "guest": "latency",
    "overload": "openload",
}


def seed_identity(
    kind: str,
    driver: Optional[str] = None,
    *,
    payload: Optional[int] = None,
    index: Optional[int] = None,
    outstanding: Optional[int] = None,
    pod: Optional[int] = None,
) -> Tuple[object, ...]:
    """The spawn-key identity tuple for one cell of *kind*.

    This is the single source of truth for per-kind seed identities --
    the cell factories, the fleet sweep, and the result cache all
    derive from it, so the runners and the cache key cannot drift.
    Aliased kinds (see :data:`SEED_IDENTITY_ALIASES`) resolve to the
    identity of the kind they must reproduce byte-identically.

    Open-loop points are identified by *index*, never by the rate
    value: auto-placed rates are floats whose textual form could vary,
    while the point index is exact and stable.

    Every cell factory passes through here, so an unknown *driver* is
    rejected with :class:`ValueError` before any cell boots, whatever
    the artifact and worker count.
    """
    base = SEED_IDENTITY_ALIASES.get(kind, kind)
    if base == "latency":
        parts: Tuple[object, ...] = (base, driver, payload)
    elif base in ("calibrate", "soak"):
        parts = (base, driver)
    elif base == "openload":
        parts = (base, driver, index)
    elif base == "closedload":
        parts = (base, driver, outstanding)
    elif base == "fleet":
        parts = (base, pod)
    else:
        raise ValueError(f"no seed identity for cell kind {kind!r}")
    if any(part is None for part in parts):
        raise ValueError(f"incomplete seed identity for kind {kind!r}: {parts}")
    if base != "fleet" and driver not in DRIVERS:
        raise ValueError(f"unknown driver {driver!r} (expected 'virtio' or 'xdma')")
    return parts


def cell_seed(
    root_seed: int,
    kind: str,
    driver: Optional[str] = None,
    *,
    payload: Optional[int] = None,
    index: Optional[int] = None,
    outstanding: Optional[int] = None,
    pod: Optional[int] = None,
) -> int:
    """:func:`derive_cell_seed` over the kind's :func:`seed_identity`."""
    return derive_cell_seed(
        root_seed,
        *seed_identity(
            kind, driver, payload=payload, index=index,
            outstanding=outstanding, pod=pod,
        ),
    )


@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    ``kind`` selects the worker routine:

    * ``"latency"`` -- one payload size of the paper's ping-pong sweep
      (uses ``payload``);
    * ``"calibrate"`` -- the short closed-loop run that measures a
      driver's base rate for auto-placing load points (uses
      ``payload_sizes``);
    * ``"openload"`` -- one offered-rate point of an open-loop sweep
      (uses ``rate_pps``, ``arrival``, ``payload_sizes``);
    * ``"closedload"`` -- one outstanding-count point of a closed-loop
      sweep (uses ``outstanding``, ``payload_sizes``);
    * ``"faultlat"`` -- one ping-pong measurement under fault injection
      (uses ``payload`` plus either ``fault_rate``, the driver's
      canonical fault at that rate, or ``fault_plan``, as the E-F2
      reset storm does);
    * ``"overload"`` -- one offered-rate point of an overload-protected
      open-loop sweep with conservation monitoring (uses ``rate_pps``,
      ``arrival``, ``payload_sizes``, ``overload``, optionally
      ``fault_rate``);
    * ``"soak"`` -- one driver's three-phase overload soak on a single
      testbed (uses ``rate_pps`` as the measured base rate plus
      ``overload``, ``fault_rate`` and ``payload_sizes``);
    * ``"fleet"`` -- one pod of the E-M1 tenant-fleet sweep (uses
      ``pod`` plus the ``fleet`` config; ``packets`` is per tenant);
    * ``"guest"`` -- one (driver, guest mode, payload) ping-pong
      measurement of the E-V1 guest sweep (uses ``payload`` plus
      ``guest_mode`` / ``guest_transport``).
    """

    kind: str
    driver: str
    seed: int
    packets: int
    profile: CalibrationProfile
    payload: Optional[int] = None
    payload_sizes: Tuple[int, ...] = ()
    rate_pps: Optional[float] = None
    arrival: str = "poisson"
    outstanding: Optional[int] = None
    fault_rate: Optional[float] = None
    fault_plan: Optional[object] = None  # repro.faults.FaultPlan (picklable)
    overload: Optional[object] = None  # repro.workload.OverloadConfig (picklable)
    pod: Optional[int] = None
    fleet: Optional[object] = None  # repro.topology.experiments.FleetConfig
    guest_mode: Optional[str] = None  # "bare" | "trapped" | "vhost"
    guest_transport: str = "pci"  # "pci" | "mmio"

    def __post_init__(self) -> None:
        # Every factory builds its cells before any of them boots, so a
        # bad count fails the whole run up front.
        if self.packets < 1:
            raise ValueError(f"packets must be positive, got {self.packets}")

    @property
    def label(self) -> str:
        """Human-readable identity (progress messages, benchmark check failures)."""
        if self.kind == "latency":
            return f"{self.driver}/{self.payload}B"
        if self.kind == "calibrate":
            return f"{self.driver}/calibrate"
        if self.kind in ("openload", "overload"):
            return f"{self.driver}/{self.rate_pps:.0f}pps"
        if self.kind == "faultlat":
            if self.fault_rate is None:
                return f"{self.driver}/{self.payload}B/plan"
            return f"{self.driver}/r{self.fault_rate:g}"
        if self.kind == "soak":
            return f"{self.driver}/soak"
        if self.kind == "fleet":
            return f"fleet/pod{self.pod}"
        if self.kind == "guest":
            return f"{self.driver}/{self.guest_mode}/{self.payload}B"
        return f"{self.driver}/N={self.outstanding}"


def latency_cells(
    payload_sizes: Sequence[int],
    packets: int,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    drivers: Sequence[str] = ("virtio", "xdma"),
) -> list[Cell]:
    """Driver x payload decomposition of the latency artifacts."""
    return [
        Cell(
            kind="latency",
            driver=driver,
            payload=payload,
            packets=packets,
            profile=profile,
            seed=cell_seed(seed, "latency", driver, payload=payload),
        )
        for driver in drivers
        for payload in payload_sizes
    ]


def guest_cells(
    payload_sizes: Sequence[int],
    packets: int,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    drivers: Sequence[str] = ("virtio", "xdma"),
    modes: Sequence[str] = ("bare", "trapped", "vhost"),
    transport: str = "pci",
) -> list[Cell]:
    """Driver x guest-mode x payload decomposition of the E-V1 sweep.

    The seed identity is deliberately the *latency* identity (kind
    "latency", driver, payload), not a guest-specific one: every mode
    of a (driver, payload) column then boots from the same seed, so the
    ``bare``/``pci`` column reproduces the plain latency cell
    byte-identically -- the determinism guard the guest experiments
    rest on (same discipline as :func:`fault_cells`).
    """
    return [
        Cell(
            kind="guest",
            driver=driver,
            payload=payload,
            packets=packets,
            profile=profile,
            guest_mode=mode,
            guest_transport=transport,
            seed=cell_seed(seed, "guest", driver, payload=payload),
        )
        for driver in drivers
        for mode in modes
        for payload in payload_sizes
    ]


def fault_cells(
    drivers: Sequence[str],
    rates: Sequence[float],
    payload: int,
    packets: int,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
) -> list[Cell]:
    """Driver x fault-rate decomposition of the fault sweep.

    The seed identity is deliberately the *latency* identity (kind
    "latency", driver, payload) rather than a fault-specific one: every
    rate of a (driver, payload) column then boots an identical testbed
    and differs only in what the injector does, so the rate-0 column is
    bit-identical to the fault-free latency cell -- the determinism
    guard the fault experiments rest on.
    """
    return [
        Cell(
            kind="faultlat",
            driver=driver,
            payload=payload,
            packets=packets,
            profile=profile,
            fault_rate=rate,
            seed=cell_seed(seed, "faultlat", driver, payload=payload),
        )
        for driver in drivers
        for rate in rates
    ]


def calibration_cells(
    drivers: Sequence[str],
    payload_sizes: Sequence[int],
    packets: int,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
) -> list[Cell]:
    """One base-rate calibration cell per driver."""
    return [
        Cell(
            kind="calibrate",
            driver=driver,
            payload_sizes=tuple(payload_sizes),
            packets=packets,
            profile=profile,
            seed=cell_seed(seed, "calibrate", driver),
        )
        for driver in drivers
    ]


def open_sweep_cells(
    driver: str,
    rates: Sequence[float],
    payload_sizes: Sequence[int],
    packets: int,
    seed: int = 0,
    arrival: str = "poisson",
    profile: CalibrationProfile = PAPER_PROFILE,
) -> list[Cell]:
    """Driver x offered-rate decomposition of an open-loop sweep.

    The seed identity uses the *point index*, not the rate value: rates
    auto-placed from a measured base rate are floats whose textual form
    could vary, while the index is exact and stable.
    """
    return [
        Cell(
            kind="openload",
            driver=driver,
            rate_pps=rate,
            arrival=arrival,
            payload_sizes=tuple(payload_sizes),
            packets=packets,
            profile=profile,
            seed=cell_seed(seed, "openload", driver, index=index),
        )
        for index, rate in enumerate(rates)
    ]


def overload_cells(
    driver: str,
    rates: Sequence[float],
    payload_sizes: Sequence[int],
    packets: int,
    seed: int = 0,
    arrival: str = "poisson",
    profile: CalibrationProfile = PAPER_PROFILE,
    overload: Optional[object] = None,
    fault_rate: Optional[float] = None,
) -> list[Cell]:
    """Driver x offered-rate decomposition of an overload sweep (E-O1).

    The seed identity is deliberately the *openload* identity (kind
    "openload", driver, point index), not an overload-specific one: a
    point run with an all-off :class:`OverloadConfig` then boots an
    identical testbed and draws identical schedules, so its metrics are
    bit-identical to the plain load-sweep cell -- the determinism guard
    the overload experiments rest on (same discipline as
    :func:`fault_cells`).
    """
    return [
        Cell(
            kind="overload",
            driver=driver,
            rate_pps=rate,
            arrival=arrival,
            payload_sizes=tuple(payload_sizes),
            packets=packets,
            profile=profile,
            overload=overload,
            fault_rate=fault_rate,
            seed=cell_seed(seed, "overload", driver, index=index),
        )
        for index, rate in enumerate(rates)
    ]


def soak_cells(
    drivers: Sequence[str],
    base_rates: dict,
    packets: int,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    overload: Optional[object] = None,
    fault_rate: Optional[float] = None,
    payload_sizes: Sequence[int] = (64,),
) -> list[Cell]:
    """One three-phase soak cell per driver (E-S1); ``base_rates`` maps
    driver -> measured base rate in pps."""
    return [
        Cell(
            kind="soak",
            driver=driver,
            rate_pps=base_rates[driver],
            payload_sizes=tuple(payload_sizes),
            packets=packets,
            profile=profile,
            overload=overload,
            fault_rate=fault_rate,
            seed=cell_seed(seed, "soak", driver),
        )
        for driver in drivers
    ]


def closed_sweep_cells(
    driver: str,
    outstanding: Sequence[int],
    payload_sizes: Sequence[int],
    packets: int,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
) -> list[Cell]:
    """Driver x outstanding-count decomposition of a closed-loop sweep."""
    return [
        Cell(
            kind="closedload",
            driver=driver,
            outstanding=n,
            payload_sizes=tuple(payload_sizes),
            packets=packets,
            profile=profile,
            seed=cell_seed(seed, "closedload", driver, outstanding=n),
        )
        for n in outstanding
    ]
