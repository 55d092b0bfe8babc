"""Tests for the hardware performance counters."""

import numpy as np
import pytest

from repro.fpga.perf_counter import CounterError, PerfCounterBank
from repro.sim.time import ns


class TestPerfCounterBank:
    def test_interval_quantized_to_8ns(self, sim):
        bank = PerfCounterBank(sim)
        bank.start("op")
        sim.schedule(ns(100), lambda: bank.stop("op"))
        sim.run()
        # 100 ns = 12.5 cycles -> 12 whole cycles = 96 ns.
        assert bank.last("op") == ns(96)

    def test_sub_cycle_interval_reads_zero(self, sim):
        bank = PerfCounterBank(sim)
        bank.start("op")
        sim.schedule(ns(7), lambda: bank.stop("op"))
        sim.run()
        assert bank.last("op") == 0

    def test_multiple_intervals_accumulate(self, sim):
        bank = PerfCounterBank(sim)

        def body():
            for _ in range(3):
                bank.start("op")
                yield ns(16)
                bank.stop("op")

        sim.spawn(body())
        sim.run()
        assert bank.intervals_array("op").tolist() == [ns(16)] * 3

    def test_intervals_array(self, sim):
        bank = PerfCounterBank(sim)
        bank.start("x")
        bank.stop("x")
        arr = bank.intervals_array("x")
        assert arr.dtype == np.int64
        assert len(arr) == 1

    def test_double_start_rejected(self, sim):
        bank = PerfCounterBank(sim)
        bank.start("op")
        with pytest.raises(CounterError):
            bank.start("op")

    def test_stop_without_start_rejected(self, sim):
        with pytest.raises(CounterError):
            PerfCounterBank(sim).stop("op")

    def test_is_running(self, sim):
        bank = PerfCounterBank(sim)
        assert not bank.is_running("op")
        bank.start("op")
        assert bank.is_running("op")
        bank.stop("op")
        assert not bank.is_running("op")

    def test_last_of_empty_rejected(self, sim):
        with pytest.raises(CounterError):
            PerfCounterBank(sim).last("nope")

    def test_clear_keeps_open_intervals(self, sim):
        bank = PerfCounterBank(sim)
        bank.start("op")
        bank.clear()
        sim.schedule(ns(8), lambda: bank.stop("op"))
        sim.run()
        assert len(bank.intervals_array("op")) == 1
