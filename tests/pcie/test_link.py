"""Tests for link timing and FIFO ordering."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pcie.link import PAPER_LINK, LinkConfig, PcieLink
from repro.pcie.tlp import memory_write
from repro.sim.kernel import Simulator
from repro.sim.time import ns


class TestLinkConfig:
    def test_gen2_x2_bandwidth(self):
        """Gen2 x2: 5 GT/s * 2 lanes * 0.8 (8b/10b) / 8 = 1 GB/s before
        DLLP overhead."""
        config = LinkConfig(generation=2, lanes=2, dllp_efficiency=1.0)
        assert config.bytes_per_second == pytest.approx(1e9)

    def test_gen1_half_of_gen2(self):
        gen1 = LinkConfig(generation=1, lanes=2)
        gen2 = LinkConfig(generation=2, lanes=2)
        assert gen2.bytes_per_second == pytest.approx(2 * gen1.bytes_per_second)

    def test_gen3_uses_128b130b(self):
        config = LinkConfig(generation=3, lanes=1, dllp_efficiency=1.0)
        assert config.bytes_per_second == pytest.approx(8e9 * 128 / 130 / 8)

    def test_serialization_time_proportional(self):
        config = LinkConfig(generation=2, lanes=2)
        assert config.serialization_time(2000) == pytest.approx(
            2 * config.serialization_time(1000), abs=1
        )

    def test_paper_link_is_gen2_x2(self):
        assert PAPER_LINK.generation == 2
        assert PAPER_LINK.lanes == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(generation=7)
        with pytest.raises(ValueError):
            LinkConfig(lanes=3)
        with pytest.raises(ValueError):
            LinkConfig(max_payload=100)
        with pytest.raises(ValueError):
            LinkConfig(dllp_efficiency=0)
        with pytest.raises(ValueError):
            LinkConfig(propagation_ns=-1)


class TestLinkTransmission:
    def make(self, sim):
        config = LinkConfig(generation=2, lanes=2, propagation_ns=100)
        link = PcieLink(sim, config)
        self.arrived = []
        link.attach_endpoint_rx(lambda tlp: self.arrived.append((sim.now, tlp)))
        link.attach_root_rx(lambda tlp: None)
        return link, config

    def test_delivery_after_serialization_plus_propagation(self, sim):
        link, config = self.make(sim)
        tlp = memory_write(0x0, b"x" * 100)
        link.post_downstream(tlp)
        sim.run()
        expected = config.serialization_time(tlp.wire_bytes) + ns(100)
        assert self.arrived[0][0] == expected

    def test_fifo_ordering_preserved(self, sim):
        link, _ = self.make(sim)
        first = memory_write(0x0, b"a" * 512)
        second = memory_write(0x1000, b"b" * 4)
        link.post_downstream(first)
        link.post_downstream(second)
        sim.run()
        assert [t.addr for _, t in self.arrived] == [0x0, 0x1000]

    def test_second_tlp_waits_for_first_serialization(self, sim):
        link, config = self.make(sim)
        first = memory_write(0x0, b"a" * 1000)
        second = memory_write(0x1000, b"b")
        link.post_downstream(first)
        link.post_downstream(second)
        sim.run()
        gap = self.arrived[1][0] - self.arrived[0][0]
        assert gap == config.serialization_time(second.wire_bytes)

    def test_delivery_event_fires(self, sim):
        link, _ = self.make(sim)
        done = link.downstream.send_many([memory_write(0, b"x")])
        assert not done.triggered
        sim.run()
        assert done.triggered

    def test_send_many_needs_a_tlp(self, sim):
        link, _ = self.make(sim)
        with pytest.raises(ValueError):
            link.downstream.send_many([])

    def test_posted_tlp_costs_one_event(self, sim):
        """The departure is computed, not simulated: the arrival is the
        only event a TLP schedules."""
        link, _ = self.make(sim)
        before = sim.scheduler_stats["schedules"]
        link.post_downstream(memory_write(0, b"x" * 100))
        sim.run()
        assert sim.scheduler_stats["schedules"] - before == 1
        assert len(self.arrived) == 1

    def test_directions_independent(self, sim):
        config = LinkConfig(propagation_ns=50)
        link = PcieLink(sim, config)
        down, up = [], []
        link.attach_endpoint_rx(lambda t: down.append(sim.now))
        link.attach_root_rx(lambda t: up.append(sim.now))
        link.post_downstream(memory_write(0, b"x" * 1024))
        link.post_upstream(memory_write(0, b"y"))
        sim.run()
        # The small upstream TLP is not delayed by the big downstream one.
        assert up[0] < down[0]

    def test_unattached_direction_rejected(self, sim):
        link = PcieLink(sim, LinkConfig())
        with pytest.raises(RuntimeError):
            link.post_downstream(memory_write(0, b"x"))
        with pytest.raises(RuntimeError):
            link.post_upstream(memory_write(0, b"x"))

    def test_statistics(self, sim):
        link, _ = self.make(sim)
        link.post_downstream(memory_write(0, b"x" * 10))
        sim.run()
        assert link.downstream.tlps_sent == 1
        assert link.downstream.bytes_sent > 10


#: One enqueue call: (method, instant, payload sizes).  The instant is
#: "same" (the previous call's instant), "departure" (exactly when the
#: last TLP enqueued so far leaves the transmitter) or a gap in ps after
#: the previous call.
_calls = st.lists(
    st.tuples(
        st.sampled_from(("post", "post_many", "send_many")),
        st.one_of(st.sampled_from(("same", "departure")), st.integers(1, 3_000_000)),
        st.lists(st.integers(0, 1024), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=12,
)


class TestLinkFifoProperty:
    @given(_calls)
    @example([
        ("post", 0, [64]),
        ("post_many", "same", [1024, 8]),
        ("send_many", "departure", [256, 0]),
        ("post", 5_000_000, [16]),
    ])
    @settings(max_examples=150, deadline=None)
    def test_arrivals_match_fifo_reference(self, calls):
        """Departure = max(enqueue, previous departure) + serialization;
        arrival = departure + propagation, in enqueue order, whichever
        of ``post``, ``post_many`` and ``send_many`` enqueued the TLP."""
        sim = Simulator(seed=0)
        config = LinkConfig(generation=2, lanes=2, propagation_ns=150)
        link = PcieLink(sim, config)
        arrived = []
        link.attach_endpoint_rx(lambda tlp: arrived.append((sim.now, tlp)))
        direction = link.downstream

        expected = []  # (arrival, tlp) in enqueue order
        bursts = []  # (delivered-event record, last TLP's index in expected)
        instant = free_at = 0
        for method, when, sizes in calls:
            if when == "departure":
                instant = free_at
            elif when != "same":
                instant += when
            # Distinct addresses, so equal TLPs cannot hide a reordering.
            tlps = [
                memory_write(0x1000 * (len(expected) + i), bytes(n))
                for i, n in enumerate(sizes)
            ]
            if method == "post":
                tlps = tlps[:1]
            for tlp in tlps:
                free_at = max(instant, free_at) + config.serialization_time(tlp.wire_bytes)
                expected.append((free_at + config.propagation_time, tlp))
            fired = []
            if method == "send_many":
                bursts.append((fired, len(expected) - 1))

            def enqueue(method=method, tlps=tlps, fired=fired):
                if method == "post":
                    direction.post(tlps[0])
                elif method == "post_many":
                    direction.post_many(tlps)
                else:
                    done = direction.send_many(tlps)
                    done.on_trigger(lambda _: fired.append((sim.now, len(arrived))))

            sim.schedule_at(instant, enqueue)
        sim.run()

        assert [t for _, t in arrived] == [t for _, t in expected]
        assert [when for when, _ in arrived] == [when for when, _ in expected]
        for fired, last in bursts:
            # Fired exactly once, as the burst's last TLP was delivered.
            assert fired == [(expected[last][0], last + 1)]
