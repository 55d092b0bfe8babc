"""Workload engine: traffic generation and load-sweep experiments.

The paper measures ping-pong round trips -- exactly one request in
flight.  That loop is this package's closed loop at N=1
(:mod:`repro.core.latency` adds the FPGA counter collection around it);
the package also adds the *offered load* axis the ping-pong cannot
express:

* :mod:`repro.workload.arrivals` -- seeded arrival processes
  (deterministic rate, Poisson, bursty on-off MMPP),
* :mod:`repro.workload.sizes` -- payload-size distributions over the
  paper's 64 B - 1 KB operating points,
* :mod:`repro.workload.generator` -- the only code that issues
  traffic: an open-loop generator that injects at an offered rate
  regardless of completions (its VirtIO flow also carries every fleet
  tenant), and a closed-loop generator with N outstanding requests
  (N=1 is the paper's ping-pong, N=window the pipelined-load
  extension),
* :mod:`repro.workload.metrics` -- per-run accounting: achieved
  throughput, in-flight occupancy time series, drop/backpressure
  counts, latency samples feeding the ``stats`` percentile machinery,
* :mod:`repro.workload.sweep` -- the offered-load sweep results that
  locate the saturation knee for both driver stacks (the sweep itself
  runs through the cell engine, :func:`repro.core.experiments.run_load_sweep`).
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    MmppArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.workload.generator import (
    ClosedLoopGenerator,
    OpenLoopGenerator,
    WorkloadError,
)
from repro.workload.metrics import RunMetrics, RunRecorder
from repro.workload.sizes import (
    EmpiricalMix,
    FixedSize,
    SizeDistribution,
    UniformSize,
    make_sizes,
)
from repro.workload.sweep import (
    ClosedSweepResult,
    LoadPoint,
    LoadSweepResult,
)

__all__ = [
    "ArrivalProcess",
    "ClosedLoopGenerator",
    "ClosedSweepResult",
    "DeterministicArrivals",
    "EmpiricalMix",
    "FixedSize",
    "LoadPoint",
    "LoadSweepResult",
    "MmppArrivals",
    "OpenLoopGenerator",
    "PoissonArrivals",
    "RunMetrics",
    "RunRecorder",
    "SizeDistribution",
    "UniformSize",
    "WorkloadError",
    "make_arrivals",
    "make_sizes",
]
