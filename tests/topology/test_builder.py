"""The one construction sequence of ``build_from_spec``.

Every spec shape goes through the same builder, so each option it takes
reaches every shape it builds: an enabled tracer sees the endpoint boot
on every device kind, and an option that cannot apply to a shape raises
instead of being dropped.
"""

import pytest

from repro.core import testbed as core_testbed
from repro.core.calibration import FPGA_IP, FPGA_MAC, HOST_IP
from repro.core.testbed import VirtioTestbed, XdmaTestbed
from repro.faults.plan import driver_fault_plan
from repro.fpga.user_logic import EchoUserLogic
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.topology.builder import (
    FleetTestbed,
    build_from_spec,
    fleet_fpga_ip,
    fleet_host_ip,
    fleet_mac,
)
from repro.topology.spec import DeviceSpec, FunctionSpec, TopologySpec

SHAPES = ("single_virtio", "single_xdma", "single_console", "single_block", "fleet_pod")


def _first_endpoint(testbed):
    """The endpoint component behind the testbed's first function."""
    if isinstance(testbed, FleetTestbed):
        return testbed.functions[0].device
    if isinstance(testbed, XdmaTestbed):
        return testbed.xdma
    return testbed.device


@pytest.mark.parametrize("shape", SHAPES)
def test_enabled_tracer_records_endpoint_boot(shape):
    tracer = Tracer(enabled=True)
    testbed = build_from_spec(getattr(TopologySpec, shape)(), seed=1, tracer=tracer)
    assert tracer.count(source=_first_endpoint(testbed).path) > 0


@pytest.mark.parametrize("shape", ["fleet_pod", "single_console"])
def test_user_logic_needs_exactly_one_virtio_net_function(shape):
    logic = EchoUserLogic(Simulator(seed=0))
    with pytest.raises(core_testbed.TestbedError, match="user_logic"):
        build_from_spec(getattr(TopologySpec, shape)(), user_logic=logic)


def test_user_logic_reaches_a_multi_queue_function():
    spec = TopologySpec(devices=(DeviceSpec(functions=(FunctionSpec(queue_pairs=2),)),))
    logic = EchoUserLogic(Simulator(seed=0))
    testbed = build_from_spec(spec, user_logic=logic)
    assert isinstance(testbed, FleetTestbed)
    assert testbed.functions[0].user_logic is logic


def test_fault_plan_is_attached_by_the_fronts_only():
    with pytest.raises(TypeError):
        build_from_spec(
            TopologySpec.fleet_pod(), fault_plan=driver_fault_plan("virtio", 0.5)
        )


def test_fleet_shapes_take_virtio_net_only():
    spec = TopologySpec(devices=(DeviceSpec(kind="xdma"), DeviceSpec(kind="xdma")))
    with pytest.raises(core_testbed.TestbedError, match="virtio-net"):
        build_from_spec(spec)


def test_address_plan_index_zero_is_the_papers():
    assert fleet_host_ip(0) == HOST_IP
    assert fleet_fpga_ip(0) == FPGA_IP
    assert fleet_mac(0) == FPGA_MAC


def test_single_virtio_routes_the_papers_fpga_address():
    testbed = build_from_spec(TopologySpec.single_virtio())
    assert isinstance(testbed, VirtioTestbed)
    assert testbed.stack.arp.lookup(FPGA_IP) == FPGA_MAC
    assert testbed.stack.routes.lookup(FPGA_IP).device == testbed.driver.ifname
    assert testbed.driver.netdev.ip == HOST_IP
