"""Compiling a :class:`~repro.faults.plan.FaultPlan` onto a testbed.

The injector is deliberately passive: instrumented sites call
:meth:`FaultInjector.fire` at each *opportunity* (a descriptor or a
descriptor chain being fetched, a doorbell landing) and receive either
``None`` (proceed normally) or the matching
:class:`~repro.faults.plan.FaultSpec` (misbehave as that spec says).
All trigger bookkeeping -- opportunity counters, one-shot state,
Bernoulli draws from the dedicated ``faults.<site>.<kind>`` streams --
lives here, so the model layers stay free of trigger logic.

``attach_fault_plan`` wires one injector onto every instrumented hook
of a booted testbed.  Attachment happens *after* boot, so enumeration
and driver probe are never exposed to faults; only the measured
runtime path is.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.faults.plan import EveryNth, FaultPlan, FaultSpec, NthEvent, PoissonRate

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class _SpecState:
    """Runtime trigger state for one spec (one-shot latch)."""

    __slots__ = ("spec", "exhausted")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.exhausted = False


class FaultInjector:
    """A plan compiled against one simulator."""

    def __init__(self, plan: FaultPlan, sim: "Simulator") -> None:
        self.plan = plan
        self.sim = sim
        self._hooks: Dict[Tuple[str, str], List[_SpecState]] = {}
        for spec in plan.specs:
            self._hooks.setdefault((spec.site, spec.kind), []).append(_SpecState(spec))
        #: (site, kind) -> opportunities seen (fire() calls).
        self.opportunities: Dict[Tuple[str, str], int] = {}
        #: (site, kind) -> faults actually injected.
        self.injected: Dict[Tuple[str, str], int] = {}
        #: (sim_time_ps, site, kind) for every injection, in order.
        self.events: List[Tuple[int, str, str]] = []

    # -- the hook API ----------------------------------------------------------------

    def fire(self, site: str, kind: str) -> Optional[FaultSpec]:
        """One opportunity at (*site*, *kind*); returns the spec to act
        on, or ``None``.  The first matching spec wins an opportunity."""
        key = (site, kind)
        states = self._hooks.get(key)
        if not states:
            return None
        count = self.opportunities.get(key, 0) + 1
        self.opportunities[key] = count
        for state in states:
            if state.exhausted:
                continue
            if self._evaluate(state, key, count):
                self.injected[key] = self.injected.get(key, 0) + 1
                self.events.append((self.sim.now, site, kind))
                return state.spec
        return None

    def _evaluate(self, state: _SpecState, key: Tuple[str, str], count: int) -> bool:
        trigger = state.spec.trigger
        if isinstance(trigger, NthEvent):
            if count == trigger.n:
                state.exhausted = True
                return True
            return False
        if isinstance(trigger, EveryNth):
            return trigger.n > 0 and count % trigger.n == 0
        if isinstance(trigger, PoissonRate):
            # Always draw, even at probability 0: keeps the uniform
            # stream aligned with the opportunity stream across rates.
            draw = self.sim.rng(f"faults.{key[0]}.{key[1]}").random()
            return draw < trigger.probability
        raise TypeError(f"unknown trigger type {type(trigger).__name__}")

    # -- accounting ------------------------------------------------------------------

    def injected_by_hook(self) -> Dict[str, int]:
        """``"site/kind" -> count`` with deterministic key order."""
        return {
            f"{site}/{kind}": count
            for (site, kind), count in sorted(self.injected.items())
        }

    def opportunities_by_hook(self) -> Dict[str, int]:
        return {
            f"{site}/{kind}": count
            for (site, kind), count in sorted(self.opportunities.items())
        }


def attach_fault_plan(testbed, plan: FaultPlan) -> FaultInjector:
    """Wire a fresh injector for *plan* onto every instrumented hook of
    a booted testbed (VirtIO or XDMA): the controller and the XDMA IP
    it drives, the driver's recovery paths.  Returns the injector; it
    is also stored as ``testbed.injector`` so measurement code can
    detect fault-mode runs."""
    injector = FaultInjector(plan, testbed.sim)
    device = getattr(testbed, "device", None)
    if device is not None:  # VirtIO testbed: controller + its XDMA IP
        device.injector = injector
        core = device.xdma
    else:  # XDMA example-design testbed
        core = testbed.xdma
    core.injector = injector
    testbed.driver.injector = injector
    testbed.injector = injector
    return injector
