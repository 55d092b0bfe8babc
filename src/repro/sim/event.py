"""Events: the synchronization primitive of the simulation kernel.

An :class:`Event` starts *pending* and is *triggered* exactly once with an
optional value.  Processes wait on events by yielding them; callbacks can
also be attached directly.  The composite :class:`AnyOf` builds select
semantics on top (the XDMA driver's request timeout waits on it).

Events deliberately do not reference the simulator; triggering is a pure
state change plus callback fan-out, which keeps them usable both from
process context and from component callbacks.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional


class EventError(RuntimeError):
    """Raised on event protocol violations (double trigger, etc.)."""


class Event:
    """A one-shot level-triggered event carrying an optional value.

    Attributes
    ----------
    name:
        Optional diagnostic label (appears in traces and reprs).
    """

    __slots__ = ("name", "_value", "_triggered", "_callbacks")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value: Any = None
        self._triggered = False
        # Lazily allocated: most events acquire exactly one waiter (or
        # none), so the callback list is only built on demand.
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None

    @property
    def triggered(self) -> bool:
        """Whether the event has fired."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value the event was triggered with (``None`` if pending)."""
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event, delivering *value* to all waiters.

        Raises
        ------
        EventError
            If the event has already been triggered.
        """
        if self._triggered:
            raise EventError(f"event {self!r} triggered twice")
        self._triggered = True
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for cb in callbacks:
                cb(self)
        return self

    def on_trigger(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback*; runs immediately if already triggered."""
        if self._triggered:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Unregister a previously added callback (no-op if absent)."""
        if self._callbacks is None:
            return
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def __repr__(self) -> str:
        state = "triggered" if self._triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event scheduled to fire after a fixed delay.

    Instances are created by :meth:`repro.sim.kernel.Simulator.timeout`;
    the class exists so traces can distinguish timer wakeups from
    synchronization events.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: int, name: str = "") -> None:
        super().__init__(name=name)
        self.delay = delay


class AnyOf(Event):
    """Fires when *any* child event fires; value is ``(index, child_value)``.

    Later child triggers are ignored (the composite is one-shot).  If a
    child is already triggered at construction time, the composite fires
    immediately with that child.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event], name: str = "") -> None:
        super().__init__(name=name)
        self.events: List[Event] = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        for i, ev in enumerate(self.events):
            ev.on_trigger(self._make_child_callback(i))

    def _make_child_callback(self, index: int) -> Callable[[Event], None]:
        def _cb(child: Event) -> None:
            if not self.triggered:
                self.trigger((index, child.value))

        return _cb
