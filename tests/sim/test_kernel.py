"""Tests for the event loop and process scheduling."""

import numpy as np
import pytest

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import ProcessError
from repro.sim.time import ns


class TestScheduling:
    def test_callbacks_run_in_time_order(self, sim):
        order = []
        sim.schedule(ns(30), order.append, 3)
        sim.schedule(ns(10), order.append, 1)
        sim.schedule(ns(20), order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_same_time_runs_in_schedule_order(self, sim):
        order = []
        for i in range(5):
            sim.schedule(ns(10), order.append, i)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances(self, sim):
        stamps = []
        sim.schedule(ns(5), lambda: stamps.append(sim.now))
        sim.schedule(ns(9), lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == [ns(5), ns(9)]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute(self, sim):
        hit = []
        sim.schedule(ns(3), lambda: sim.schedule_at(ns(10), lambda: hit.append(sim.now)))
        sim.run()
        assert hit == [ns(10)]

    def test_run_until_stops_at_boundary(self, sim):
        hit = []
        sim.schedule(ns(5), hit.append, "early")
        sim.schedule(ns(50), hit.append, "late")
        sim.run(until=ns(10))
        assert hit == ["early"]
        assert sim.now == ns(10)
        sim.run()
        assert hit == ["early", "late"]

    def test_max_events_guard(self, sim):
        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_stops_at_exactly_the_budget(self, sim):
        """Regression: the guard used to fire only after max_events + 1
        callbacks; it must stop at exactly max_events."""
        executed = []

        def rearm():
            executed.append(sim.now)
            sim.schedule(1, rearm)

        sim.schedule(0, rearm)
        with pytest.raises(SimulationError, match="max_events=5"):
            sim.run(max_events=5)
        assert len(executed) == 5
        assert sim.events_executed == 5

    def test_max_events_not_raised_when_queue_drains_at_budget(self, sim):
        hits = []
        for i in range(5):
            sim.schedule(ns(i), hits.append, i)
        sim.run(max_events=5)
        assert hits == [0, 1, 2, 3, 4]

    def test_until_clamp_then_earlier_schedule(self, sim):
        """After an ``until`` clamp moved now up to the boundary, an event
        scheduled before the still-pending head must run first."""
        order = []
        sim.schedule(ns(100), order.append, "late")
        sim.run(until=ns(10))
        assert sim.now == ns(10)
        sim.schedule(ns(5), order.append, "early")
        sim.run()
        assert order == ["early", "late"]

    def test_schedule_at_past_reports_absolute_times(self, sim):
        sim.schedule(ns(10), lambda: None)
        sim.run()
        assert sim.now == ns(10)
        with pytest.raises(SimulationError) as excinfo:
            sim.schedule_at(ns(3), lambda: None)
        message = str(excinfo.value)
        assert f"requested t={ns(3)}ps" in message
        assert f"now t={ns(10)}ps" in message


class TestProcesses:
    def test_process_yields_delay(self, sim):
        marks = []

        def body():
            marks.append(sim.now)
            yield ns(100)
            marks.append(sim.now)

        sim.spawn(body())
        sim.run()
        assert marks == [0, ns(100)]

    def test_process_returns_value(self, sim, run):
        def body():
            yield ns(1)
            return "done"

        assert run(sim, body()) == "done"

    def test_process_waits_event(self, sim):
        result = []

        def waiter(ev):
            value = yield ev
            result.append(value)

        ev = sim.event()
        sim.spawn(waiter(ev))
        sim.schedule(ns(50), ev.trigger, "ping")
        sim.run()
        assert result == ["ping"]

    def test_join_returns_child_result(self, sim, run):
        def child():
            yield ns(10)
            return 99

        def parent():
            value = yield sim.spawn(child())
            return value

        assert run(sim, parent()) == 99

    def test_exception_propagates_with_name(self, sim):
        def bad():
            yield ns(1)
            raise ValueError("boom")

        sim.spawn(bad(), name="badproc")
        with pytest.raises(ProcessError, match="badproc"):
            sim.run()

    def test_bad_yield_type_fails(self, sim):
        def bad():
            yield "not a wait target"

        sim.spawn(bad())
        with pytest.raises(ProcessError):
            sim.run()

    def test_timeout_event(self, sim, run):
        def body():
            value = yield sim.timeout(ns(25), value="tick")
            return (sim.now, value)

        assert run(sim, body()) == (ns(25), "tick")

    def test_run_until_triggered_detects_deadlock(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_triggered(ev)


class TestUnifiedFailureSurfacing:
    """``run`` and ``run_until_triggered`` must surface process
    failures at identical points: a pre-recorded failure raises before
    any event executes, a mid-run failure right after its event."""

    @staticmethod
    def _failing_sim():
        sim = Simulator()

        def bad():
            yield ns(1)
            raise ValueError("boom")

        sim.spawn(bad(), name="badproc")
        return sim

    def test_run_raises_promptly(self):
        sim = self._failing_sim()
        ran_after = []
        sim.schedule(ns(2), ran_after.append, True)
        with pytest.raises(ProcessError, match="badproc"):
            sim.run()
        assert not ran_after

    def test_run_until_triggered_raises_promptly(self):
        sim = self._failing_sim()
        ran_after = []
        sim.schedule(ns(2), ran_after.append, True)
        with pytest.raises(ProcessError, match="badproc"):
            sim.run_until_triggered(sim.event())
        assert not ran_after

    def test_pending_failure_raises_before_events_in_both_loops(self):
        for runner in ("run", "run_until_triggered"):
            sim = self._failing_sim()
            with pytest.raises(ProcessError):
                sim.run()
            # Failure consumed; record another and call the other loop.
            sim._process_failed(ProcessError("stale", RuntimeError("x")))
            ran = []
            sim.schedule(ns(5), ran.append, True)
            with pytest.raises(ProcessError, match="stale"):
                if runner == "run":
                    sim.run()
                else:
                    sim.run_until_triggered(sim.event())
            assert not ran


class TestSchedulerStats:
    def test_keys_and_peak_depth_at_stopping_iterations(self, sim):
        """``peak_depth`` is the pending count seen at every loop
        iteration, including one that stops on ``until`` or
        ``max_events`` without running an event."""

        def fan_out():
            sim.schedule(ns(200), lambda: None)
            sim.schedule(ns(200), lambda: None)

        for _ in range(4):
            sim.schedule(ns(100), fan_out)
        sim.run(until=ns(10))
        # One iteration, 4 pending, stopped on ``until``.
        assert sim.scheduler_stats == {
            "pending": 4, "peak_depth": 4, "schedules": 4, "executed": 0,
        }
        with pytest.raises(SimulationError, match="max_events=2"):
            sim.run(max_events=2)
        # Iterations saw 4, 5 and 6 pending; the third stopped on the
        # budget, so only it saw the peak.
        assert sim.scheduler_stats == {
            "pending": 6, "peak_depth": 6, "schedules": 8, "executed": 2,
        }


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = Simulator(seed=99).rng("x").random(5)
        b = Simulator(seed=99).rng("x").random(5)
        assert np.allclose(a, b)

    def test_different_streams_independent(self):
        sim = Simulator(seed=99)
        a = sim.rng("a").random(5)
        b = sim.rng("b").random(5)
        assert not np.allclose(a, b)

    def test_stream_unaffected_by_other_stream_usage(self):
        sim1 = Simulator(seed=5)
        sim1.rng("noise").random(1000)
        a = sim1.rng("target").random(3)
        sim2 = Simulator(seed=5)
        b = sim2.rng("target").random(3)
        assert np.allclose(a, b)

    def test_stream_is_cached(self):
        sim = Simulator(seed=1)
        assert sim.rng("s") is sim.rng("s")
