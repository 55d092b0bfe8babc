"""The discrete-event simulation kernel.

A minimal, deterministic event-driven kernel in the style of SimPy but
specialized for this codebase:

* integer-picosecond timestamps (see :mod:`repro.sim.time`),
* a single binary-heap event queue (a plain list driven by
  :mod:`heapq`) with a monotonically increasing sequence number as
  tie-breaker, so same-time events always run in schedule order (full
  determinism across runs and platforms),
* generator-based processes (:mod:`repro.sim.process`),
* named, hierarchically seeded NumPy random streams so that adding a new
  consumer of randomness never perturbs existing streams.

The kernel is intentionally free of model knowledge; hardware and OS
models live in higher layers and interact only through ``schedule``,
``spawn``, events, and random streams.
"""

from __future__ import annotations

import functools
import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.event import Event, Timeout
from repro.sim.process import Process, ProcessError, ProcessGenerator, process_name
from repro.sim.time import SimTime


#: Sentinel bound for "no limit" in the event loop: comparing integer
#: timestamps / counters against +inf is branch-predictable and avoids a
#: per-event ``is not None`` check on the hot path.
_NO_LIMIT = float("inf")

#: An event entry: ``(time_ps, seq, callback, args)``.  ``seq`` is
#: unique, so heap comparisons always resolve at the first two elements
#: and never reach the callback.
Entry = Tuple[SimTime, int, Callable[..., None], tuple]


class SimulationError(RuntimeError):
    """Raised for kernel-level protocol violations."""


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all random streams.  Two simulators constructed
        with the same seed and driven by the same model code produce
        bit-identical event orders and random draws.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: SimTime = 0
        self._q: List[Entry] = []
        # Bound once: ``schedule`` runs once per future event, and the
        # process-step and link hot paths push through this binding
        # directly; a partial over the C ``heappush`` adds no Python
        # frame.
        self._push = functools.partial(heapq.heappush, self._q)
        self._peak = 0
        self._seq = 0
        self._seed = seed
        self._seed_root = np.random.SeedSequence(seed)
        self._rngs: Dict[str, np.random.Generator] = {}
        self._pending_failure: Optional[ProcessError] = None
        self._events_executed = 0

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> SimTime:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def seed(self) -> int:
        """The root seed the simulator was constructed with."""
        return self._seed

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: SimTime, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after *delay* picoseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        self._push((self._now + delay, seq, callback, args))

    def schedule_at(self, when: SimTime, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time *when*."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: requested t={when}ps, now t={self._now}ps"
            )
        self.schedule(when - self._now, callback, *args)

    def timeout(self, delay: SimTime, value: Any = None, name: str = "") -> Timeout:
        """An event that fires after *delay* picoseconds with *value*."""
        ev = Timeout(delay, name=name)
        self.schedule(delay, ev.trigger, value)
        return ev

    def event(self, name: str = "") -> Event:
        """A fresh pending event."""
        return Event(name=name)

    # -- processes -----------------------------------------------------------

    def spawn(self, body: ProcessGenerator, name: str = "") -> Process:
        """Start a new process running *body* at the current time.

        The first step of the body runs when the event loop reaches the
        current timestamp, not synchronously inside ``spawn`` -- this
        matches hardware semantics where a newly started FSM acts on the
        next delta cycle.
        """
        proc = Process(self, body, name=name or process_name(body))
        self.schedule(0, proc._start)
        return proc

    def _process_failed(self, error: ProcessError) -> None:
        """Record a process failure; the run loops re-raise it promptly."""
        if self._pending_failure is None:
            self._pending_failure = error

    def _raise_pending_failure(self) -> None:
        failure, self._pending_failure = self._pending_failure, None
        raise failure

    # -- event loop ------------------------------------------------------------

    def run(self, until: Optional[SimTime] = None, max_events: Optional[int] = None) -> SimTime:
        """Execute events until the queue drains or *until* is reached.

        Parameters
        ----------
        until:
            Absolute stop time (inclusive of events at exactly *until*).
        max_events:
            Safety valve for runaway models; raises as soon as a
            further callback would exceed the budget, so exactly
            *max_events* callbacks have run when it fires.

        Returns
        -------
        The simulation time when the loop stopped.

        A process failure recorded before the call raises immediately;
        one recorded by an executed event raises right after that event,
        before any further event runs.  ``run_until_triggered`` surfaces
        failures at the same points.
        """
        # The loop body is the hottest code in the repository (one
        # iteration per simulated event); bind the queue, the pop, the
        # peak depth and the stop bounds to locals so each iteration
        # avoids repeated attribute and global lookups.  The head is
        # examined in place and only popped once it will run, so a stop
        # on ``until`` or ``max_events`` leaves the queue untouched.
        executed = 0
        q = self._q
        heappop = heapq.heappop
        peak = self._peak
        stop = _NO_LIMIT if until is None else until
        budget = _NO_LIMIT if max_events is None else max_events
        if self._pending_failure is not None:
            self._raise_pending_failure()
        try:
            while True:
                # Peak depth: the pending count at every event boundary.
                depth = len(q)
                if not depth:
                    break
                if depth > peak:
                    peak = depth
                when = q[0][0]
                if when > stop:
                    self._now = until
                    break
                if executed >= budget:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={self._now}ps"
                    )
                entry = heappop(q)
                self._now = when
                entry[2](*entry[3])
                executed += 1
                if self._pending_failure is not None:
                    self._raise_pending_failure()
        finally:
            self._events_executed += executed
            if peak > self._peak:
                self._peak = peak
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_triggered(self, event: Event, limit: Optional[SimTime] = None) -> Any:
        """Run until *event* fires; return its value.

        Raises
        ------
        SimulationError
            If the queue drains (or *limit* passes) with the event still
            pending -- a deadlock in the model.

        Process failures surface at the same points as in :meth:`run`:
        a pre-recorded failure raises before any event executes, and a
        failure recorded by an executed event raises right after it.
        """
        q = self._q
        heappop = heapq.heappop
        peak = self._peak
        stop = _NO_LIMIT if limit is None else limit
        executed = 0
        if self._pending_failure is not None:
            self._raise_pending_failure()
        try:
            while not event._triggered:
                depth = len(q)
                if not depth:
                    raise SimulationError(
                        f"deadlock: queue empty while waiting for {event!r}"
                    )
                if depth > peak:
                    peak = depth
                when = q[0][0]
                if when > stop:
                    raise SimulationError(f"timeout at {limit}ps waiting for {event!r}")
                entry = heappop(q)
                self._now = when
                entry[2](*entry[3])
                executed += 1
                if self._pending_failure is not None:
                    self._raise_pending_failure()
        finally:
            self._events_executed += executed
            if peak > self._peak:
                self._peak = peak
        return event.value

    @property
    def events_executed(self) -> int:
        """Total events executed since construction (diagnostics)."""
        return self._events_executed

    @property
    def scheduler_stats(self) -> dict:
        """Event-queue counters: events pending now, the peak pending
        count seen at an event-loop iteration, events scheduled, and
        events executed."""
        return {
            "pending": len(self._q),
            "peak_depth": self._peak,
            "schedules": self._seq,
            "executed": self._events_executed,
        }

    # -- randomness ---------------------------------------------------------------

    def rng(self, stream: str) -> np.random.Generator:
        """Named random stream, derived deterministically from the root seed.

        Each distinct *stream* name gets an independent generator seeded
        from ``(root_seed, stream_name)``, so the draw sequence of one
        stream is unaffected by how often other streams are used.
        """
        gen = self._rngs.get(stream)
        if gen is None:
            # Derive a child seed from the stream name so allocation order
            # does not matter: hash the name into spawn-key material.
            name_key = [b for b in stream.encode("utf-8")]
            child = np.random.SeedSequence(
                entropy=self._seed_root.entropy, spawn_key=tuple(name_key)
            )
            gen = np.random.default_rng(child)
            self._rngs[stream] = gen
        return gen

    def __repr__(self) -> str:
        return (
            f"<Simulator t={self._now}ps queued={len(self._q)} "
            f"executed={self._events_executed} seed={self._seed}>"
        )
