"""Generator-based simulation processes.

A process is a Python generator driven by the kernel.  At each step it
yields a *wait target* and is resumed with that target's value:

``yield <int>``
    Sleep for that many picoseconds (resumed with ``None``).
``yield <Event>``
    Wait for the event (resumed with ``event.value``).
``yield <Process>``
    Join another process (resumed with its return value).

Processes terminate by returning (``return value`` inside the generator
sets the process result) or by raising.  Unhandled exceptions are
re-raised out of :meth:`repro.sim.kernel.Simulator.run` with the process
name attached, so model bugs fail loudly instead of silently deadlocking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: The generator type a process body must have.
ProcessGenerator = Generator[Any, Any, Any]

#: Shared args tuple for timer resumptions (``_step(None)``), so the hot
#: sleep path does not allocate a fresh one-element tuple per event.
_RESUME_NONE = (None,)


class ProcessError(RuntimeError):
    """Wraps an exception escaping a process body with process context."""

    def __init__(self, process_name: str, original: BaseException) -> None:
        super().__init__(f"process {process_name!r} failed: {original!r}")
        self.process_name = process_name
        self.original = original


class Process(Event):
    """A running simulation process.

    A ``Process`` *is an* :class:`Event` that triggers with the process
    return value when the body finishes -- this is what makes
    ``yield other_process`` (join) work with no extra machinery.
    """

    __slots__ = ("sim", "body", "_started", "_send", "_step_cb")

    def __init__(self, sim: "Simulator", body: ProcessGenerator, name: str = "") -> None:
        super().__init__(name=name or getattr(body, "__name__", "process"))
        self.sim = sim
        self.body = body
        self._started = False
        # Pre-bound hot-path callables: ``body.send`` runs once per yield
        # and a fresh bound method would otherwise be allocated for every
        # sleep the process schedules.
        self._send = body.send
        self._step_cb = self._step

    @property
    def result(self) -> Any:
        """The process return value (``None`` until finished)."""
        return self.value

    # -- kernel interface -------------------------------------------------

    def _start(self) -> None:
        """First resumption; called by the kernel at spawn time."""
        if self._started:
            raise RuntimeError(f"process {self.name!r} started twice")
        self._started = True
        self._step(None)

    def _step(self, send_value: Any) -> None:
        """Advance the body by one yield and arm the next wait target.

        The arming logic is inlined (not a helper) because ``_step``
        runs once per yield of every process in the simulation.
        """
        try:
            target = self._send(send_value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except Exception as exc:
            self.sim._process_failed(ProcessError(self.name, exc))
            return
        if isinstance(target, int):
            if target >= 0:
                # Inlined ``sim.schedule(target, self._step, None)``:
                # sleeping for a sampled duration is the single most
                # frequent wait in the repository, worth skipping the
                # schedule call and the bound-method allocation for.
                sim = self.sim
                sim._seq = seq = sim._seq + 1
                sim._push((sim._now + target, seq, self._step_cb, _RESUME_NONE))
                return
            self.sim._process_failed(
                ProcessError(self.name, ValueError(f"negative delay {target}"))
            )
        elif isinstance(target, Event):
            target.on_trigger(self._resume_from_event)
        else:
            self.sim._process_failed(
                ProcessError(
                    self.name,
                    TypeError(
                        f"process yielded {target!r}; expected int delay, Event, or Process"
                    ),
                )
            )

    def _resume_from_event(self, event: Event) -> None:
        # Resume in the same delta-cycle the event fired; the kernel's
        # callback queue already provides deterministic ordering.
        self._step(event.value)

    def __repr__(self) -> str:
        state = "done" if self.triggered else ("running" if self._started else "new")
        return f"<Process {self.name!r} {state}>"


def process_name(body: ProcessGenerator, fallback: str = "process") -> str:
    """Best-effort readable name for a generator body."""
    name = getattr(body, "__name__", "")
    if name and name != "<genexpr>":
        return name
    return fallback
