"""Property-based conservation tests (hypothesis).

For *any* combination of admission window, per-hop queue bounds and
fault rate -- on either driver -- every offered packet must end in
exactly one terminal state: delivered, or dropped with a recorded
reason.  This is the invariant the whole overload
subsystem rests on; hypothesis searches the configuration space for a
combination that leaks a packet.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.health.bounded import apply_overload_bounds
from repro.health.monitor import ConservationMonitor
from repro.workload.admission import OverloadConfig
from repro.workload.arrivals import make_arrivals
from repro.workload.generator import OpenLoopGenerator
from repro.workload.sizes import FixedSize

PACKETS = 40

maybe_small = st.one_of(st.none(), st.integers(min_value=2, max_value=64))


@st.composite
def overload_configs(draw):
    return OverloadConfig(
        admission_limit=draw(maybe_small),
        socket_rx_limit=draw(maybe_small),
        tx_depth_limit=draw(maybe_small),
        xdma_queue_limit=draw(st.integers(min_value=4, max_value=64)),
        xdma_max_pending=draw(st.one_of(st.none(),
                                        st.integers(min_value=1, max_value=8))),
    )


def _run(driver, seed, rate_pps, fault_rate, config):
    build = build_virtio_testbed if driver == "virtio" else build_xdma_testbed
    testbed = build(seed=seed)
    if fault_rate:
        from repro.faults.injector import attach_fault_plan
        from repro.faults.plan import driver_fault_plan

        attach_fault_plan(testbed, driver_fault_plan(driver, fault_rate))
    apply_overload_bounds(testbed, config)
    monitor = ConservationMonitor(driver, "open")
    generator = OpenLoopGenerator(
        arrivals=make_arrivals("poisson", rate_pps),
        sizes=FixedSize(64),
        packets=PACKETS,
        overload=config,
        monitor=monitor,
    )
    metrics = generator.run(testbed)
    return metrics, monitor.finalize()


class TestConservationHolds:
    @given(
        driver=st.sampled_from(["virtio", "xdma"]),
        seed=st.integers(min_value=0, max_value=2**16),
        rate_pps=st.sampled_from([8_000.0, 40_000.0, 150_000.0]),
        fault_rate=st.sampled_from([None, 0.02, 0.05]),
        config=overload_configs(),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_packet_has_exactly_one_fate(
        self, driver, seed, rate_pps, fault_rate, config
    ):
        metrics, report = _run(driver, seed, rate_pps, fault_rate, config)
        assert report.conserved, report.violations
        assert report.offered == report.delivered + report.dropped
        assert report.admitted <= report.offered
        assert report.delivered == metrics.completed
        # Every drop carries a reason, and the reasons sum to the total.
        assert sum(report.drop_reasons.values()) == report.dropped
