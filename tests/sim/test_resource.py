"""Tests for resources and mutexes."""

import pytest

from repro.sim.resource import Mutex, Resource
from repro.sim.time import ns


class TestResource:
    def test_grants_up_to_slots(self, sim):
        res = Resource(sim, slots=2)
        grants = []

        def worker(i):
            yield res.acquire()
            grants.append((i, sim.now))
            yield ns(100)
            res.release()

        for i in range(3):
            sim.spawn(worker(i))
        sim.run()
        # Two immediate grants, third waits for a release.
        assert grants[0][1] == 0 and grants[1][1] == 0
        assert grants[2][1] == ns(100)

    def test_fifo_grant_order(self, sim):
        res = Mutex(sim)
        order = []

        def worker(i):
            yield res.acquire()
            order.append(i)
            yield ns(10)
            res.release()

        for i in range(4):
            sim.spawn(worker(i))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_release_idle_rejected(self, sim):
        with pytest.raises(RuntimeError):
            Resource(sim).release()

    def test_invalid_slots(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, slots=0)
