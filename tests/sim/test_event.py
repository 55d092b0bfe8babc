"""Tests for events and composites."""

import pytest

from repro.sim.event import AnyOf, Event, EventError


class TestEvent:
    def test_starts_pending(self):
        ev = Event()
        assert not ev.triggered
        assert ev.value is None

    def test_trigger_delivers_value(self):
        ev = Event()
        ev.trigger(42)
        assert ev.triggered
        assert ev.value == 42

    def test_double_trigger_rejected(self):
        ev = Event()
        ev.trigger()
        with pytest.raises(EventError):
            ev.trigger()

    def test_callback_on_trigger(self):
        ev = Event()
        seen = []
        ev.on_trigger(lambda e: seen.append(e.value))
        ev.trigger("x")
        assert seen == ["x"]

    def test_callback_after_trigger_runs_immediately(self):
        ev = Event()
        ev.trigger(7)
        seen = []
        ev.on_trigger(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_callbacks_run_in_registration_order(self):
        ev = Event()
        order = []
        ev.on_trigger(lambda e: order.append(1))
        ev.on_trigger(lambda e: order.append(2))
        ev.trigger()
        assert order == [1, 2]

    def test_remove_callback(self):
        ev = Event()
        seen = []
        cb = lambda e: seen.append(1)  # noqa: E731
        ev.on_trigger(cb)
        ev.remove_callback(cb)
        ev.trigger()
        assert seen == []

    def test_remove_absent_callback_is_noop(self):
        Event().remove_callback(lambda e: None)


class TestAnyOf:
    def test_fires_on_first_child(self):
        a, b = Event(), Event()
        any_ev = AnyOf([a, b])
        b.trigger("bee")
        assert any_ev.triggered
        assert any_ev.value == (1, "bee")

    def test_later_children_ignored(self):
        a, b = Event(), Event()
        any_ev = AnyOf([a, b])
        a.trigger("ay")
        b.trigger("bee")
        assert any_ev.value == (0, "ay")

    def test_pretriggered_child_fires_composite(self):
        a = Event()
        a.trigger(1)
        assert AnyOf([a, Event()]).triggered

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AnyOf([])
