"""Declarative fault plans.

A :class:`FaultPlan` is a frozen tuple of :class:`FaultSpec` entries;
each spec names an injection **site** (where in the model the fault
strikes), a **kind** (what goes wrong there), and a **trigger** (when).
Plans carry no simulator state, so they hash, pickle, and travel to
pool workers inside :class:`~repro.exec.cells.Cell` unchanged -- the
compilation against a live testbed happens in
:class:`~repro.faults.injector.FaultInjector`.

There are two sites and three kinds: the XDMA SGDMA engine corrupts a
fetched descriptor (``desc_error``), and the VirtIO controller
swallows a doorbell (``lost_notify``) or corrupts a fetched chain into
a self-referential one (``malformed_chain``).  These are the faults
the E-F1 sweep and the E-F2 reset storm arm.  Triggers fire at the
*n*-th opportunity, at every *n*-th, or per opportunity with a fixed
probability.

Sites and kinds are plain strings so the low-level layers (XDMA
engines, VirtIO controller) can reference them without importing
anything above :mod:`repro.faults.plan`, which itself imports nothing
from the model -- the dependency arrow only ever points downward into
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

# -- injection sites -----------------------------------------------------------------

#: XDMA SGDMA engines (descriptor fetch).
SITE_XDMA_ENGINE = "xdma.engine"
#: VirtIO controller (notify region, queue engines).
SITE_VIRTIO_CTRL = "virtio.controller"

# -- fault kinds ---------------------------------------------------------------------

#: Corrupt a fetched SGDMA descriptor so magic/format validation fails
#: and the engine error-stops without completing or interrupting.
KIND_DESC_ERROR = "desc_error"
#: Swallow a doorbell write in the VirtIO notify region.
KIND_LOST_NOTIFY = "lost_notify"
#: Corrupt a fetched descriptor into a self-referential chain -- the
#: controller detects it and latches ``STATUS_DEVICE_NEEDS_RESET``.
KIND_MALFORMED_CHAIN = "malformed_chain"


# -- triggers ------------------------------------------------------------------------


@dataclass(frozen=True)
class NthEvent:
    """Fire exactly once, at the *n*-th opportunity (1-based)."""

    n: int


@dataclass(frozen=True)
class EveryNth:
    """Fire at every *n*-th opportunity (n, 2n, 3n, ...)."""

    n: int


@dataclass(frozen=True)
class PoissonRate:
    """Per-opportunity Bernoulli draw with probability *probability*.

    Thinning the site's opportunity stream this way yields Poisson
    fault arrivals in event count.  Draws come from the dedicated
    ``faults.<site>.<kind>`` named RNG stream, never from the model's
    calibrated noise streams -- and the stream is drawn even when
    ``probability`` is 0, so raising the rate never re-aligns which
    opportunity sees which uniform variate.
    """

    probability: float


Trigger = Union[NthEvent, EveryNth, PoissonRate]


@dataclass(frozen=True)
class FaultSpec:
    """One fault: *kind* at *site*, fired per *trigger*."""

    site: str
    kind: str
    trigger: Trigger


@dataclass(frozen=True)
class FaultPlan:
    """An immutable collection of fault specs for one run."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"FaultPlan entries must be FaultSpec, got {spec!r}")


def driver_fault_plan(driver: str, rate: float) -> FaultPlan:
    """The ``faultsweep`` chaos plan: the canonical recoverable fault
    of each stack at per-opportunity probability *rate*.

    * ``virtio`` -- lost queue notifications (the doorbell never reaches
      the controller); the driver's TX watchdog must detect and re-kick.
    * ``xdma`` -- corrupted SGDMA descriptors (the engine error-stops
      without an interrupt); the driver's request timeout must detect
      and retry with backoff.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate must be in [0, 1], got {rate}")
    if driver == "virtio":
        return FaultPlan(
            (FaultSpec(SITE_VIRTIO_CTRL, KIND_LOST_NOTIFY, PoissonRate(rate)),)
        )
    if driver == "xdma":
        return FaultPlan(
            (FaultSpec(SITE_XDMA_ENGINE, KIND_DESC_ERROR, PoissonRate(rate)),)
        )
    raise ValueError(f"unknown driver {driver!r} (expected 'virtio' or 'xdma')")


def reset_storm_plan(every: int) -> FaultPlan:
    """E-F2 plan: a malformed TX descriptor chain at every *every*-th
    chain fetch, forcing repeated ``STATUS_DEVICE_NEEDS_RESET`` ->
    driver reset/renegotiation cycles."""
    if every <= 0:
        raise ValueError(f"reset interval must be positive, got {every}")
    return FaultPlan(
        (FaultSpec(SITE_VIRTIO_CTRL, KIND_MALFORMED_CHAIN, EveryNth(every)),)
    )
