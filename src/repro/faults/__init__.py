"""Deterministic fault injection and reliability accounting.

The paper measures both driver stacks only on the happy path; this
package lets experiments ask how each stack behaves when the DMA
engine or the rings misbehave -- the validation role SystemC-TLM
virtual platforms and QEMU co-simulation play for real driver bring-up.

* :mod:`repro.faults.plan` -- declarative, picklable fault specs
  (site, kind, trigger) grouped into a :class:`~repro.faults.plan.FaultPlan`:
  corrupted XDMA descriptors, lost VirtIO doorbells and malformed
  VirtIO descriptor chains.
* :mod:`repro.faults.injector` -- compiles a plan against a booted
  testbed: every instrumented site asks ``injector.fire(site, kind)``
  at each opportunity and acts on the returned spec.
* :mod:`repro.faults.report` -- per-run :class:`~repro.faults.report.
  ReliabilityReport`: injected/detected faults, retries, recovery-
  latency distribution, lost requests.

Determinism guarantees:

* a testbed without a plan attached runs byte-identical to a testbed
  built before this package existed (every hook is gated on
  ``injector is not None``);
* Poisson-rate triggers draw from dedicated ``faults.<site>.<kind>``
  named streams, so the calibrated noise streams of the model are
  untouched and a **zero-rate** plan produces latency samples
  bit-identical to the fault-free run;
* all trigger state is per-(site, kind) opportunity counting inside the
  simulator -- nothing depends on wall clock or host state, so fault
  runs parallelize across a process pool with bit-identical output.

The experiment layer (E-F1 fault-rate sweeps, E-F2 reset-recovery
distribution) lives in :mod:`repro.faults.experiments`; it is imported
explicitly to keep this package free of circular imports with
``repro.core``.
"""

from repro.faults.injector import FaultInjector, attach_fault_plan
from repro.faults.plan import (
    KIND_DESC_ERROR,
    KIND_LOST_NOTIFY,
    KIND_MALFORMED_CHAIN,
    SITE_VIRTIO_CTRL,
    SITE_XDMA_ENGINE,
    EveryNth,
    FaultPlan,
    FaultSpec,
    NthEvent,
    PoissonRate,
    driver_fault_plan,
)
from repro.faults.report import ReliabilityReport

__all__ = [
    "EveryNth",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "NthEvent",
    "PoissonRate",
    "ReliabilityReport",
    "attach_fault_plan",
    "driver_fault_plan",
    "KIND_DESC_ERROR",
    "KIND_LOST_NOTIFY",
    "KIND_MALFORMED_CHAIN",
    "SITE_VIRTIO_CTRL",
    "SITE_XDMA_ENGINE",
]
