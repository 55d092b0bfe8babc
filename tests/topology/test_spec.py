"""TopologySpec validation and canonical shapes."""

from __future__ import annotations

import pytest

from repro.topology.spec import (
    ARBITER_WEIGHTED,
    DeviceSpec,
    FunctionSpec,
    TopologyError,
    TopologySpec,
)


class TestFunctionSpec:
    def test_defaults(self):
        spec = FunctionSpec()
        assert spec.queue_pairs == 1
        assert spec.weight == 1

    def test_rejects_zero_queue_pairs(self):
        with pytest.raises(TopologyError):
            FunctionSpec(queue_pairs=0)

    def test_rejects_zero_weight(self):
        with pytest.raises(TopologyError):
            FunctionSpec(weight=0)


class TestDeviceSpec:
    def test_default_is_single_function_virtio_net(self):
        spec = DeviceSpec()
        assert spec.kind == "virtio-net"
        assert len(spec.functions) == 1
        assert not spec.is_sriov

    def test_rejects_unknown_kind(self):
        with pytest.raises(TopologyError):
            DeviceSpec(kind="nvme")

    def test_rejects_empty_functions(self):
        with pytest.raises(TopologyError):
            DeviceSpec(functions=())

    def test_rejects_unknown_arbiter(self):
        with pytest.raises(TopologyError):
            DeviceSpec(arbiter="lottery")

    def test_sriov_only_for_virtio_net(self):
        with pytest.raises(TopologyError):
            DeviceSpec(kind="xdma", functions=(FunctionSpec(), FunctionSpec()))

    def test_two_functions_is_sriov(self):
        spec = DeviceSpec(functions=(FunctionSpec(), FunctionSpec()))
        assert spec.is_sriov


class TestTopologySpec:
    def test_rejects_empty_devices(self):
        with pytest.raises(TopologyError):
            TopologySpec(devices=())

    def test_uplink_requires_switch(self):
        from repro.pcie.link import LinkConfig

        with pytest.raises(TopologyError):
            TopologySpec(devices=(DeviceSpec(),), uplink=LinkConfig())

    def test_rejects_oversized_fleet(self):
        functions = tuple(FunctionSpec() for _ in range(201))
        with pytest.raises(TopologyError):
            TopologySpec(devices=(DeviceSpec(functions=functions),))

    def test_single_shapes_are_legacy(self):
        for spec in (
            TopologySpec.single_virtio(),
            TopologySpec.single_xdma(),
            TopologySpec.single_console(),
            TopologySpec.single_block(),
        ):
            assert spec.is_single_legacy
            assert spec.total_functions == 1
            assert not spec.switch

    def test_multi_queue_is_not_legacy(self):
        spec = TopologySpec(
            devices=(DeviceSpec(functions=(FunctionSpec(queue_pairs=2),)),)
        )
        assert not spec.is_single_legacy

    def test_totals(self):
        spec = TopologySpec(
            devices=(
                DeviceSpec(functions=(FunctionSpec(queue_pairs=2),)),
                DeviceSpec(
                    functions=(
                        FunctionSpec(queue_pairs=2),
                        FunctionSpec(queue_pairs=3),
                    )
                ),
            )
        )
        assert spec.total_functions == 3
        assert sum(f.queue_pairs for d in spec.devices for f in d.functions) == 7


class TestFleetPod:
    def test_default_shape(self):
        spec = TopologySpec.fleet_pod()
        assert spec.switch
        assert len(spec.devices) == 2  # 1 plain + 1 SR-IOV
        assert not spec.devices[0].is_sriov
        assert spec.devices[1].is_sriov
        assert spec.total_functions == 3
        assert sum(f.queue_pairs for d in spec.devices for f in d.functions) == 6

    def test_weighted_pod(self):
        spec = TopologySpec.fleet_pod(
            arbiter=ARBITER_WEIGHTED, vf_weights=(1, 3)
        )
        vf_device = spec.devices[1]
        assert vf_device.arbiter == ARBITER_WEIGHTED
        assert [f.weight for f in vf_device.functions] == [1, 3]

    def test_weights_length_mismatch(self):
        with pytest.raises(TopologyError):
            TopologySpec.fleet_pod(vfs_per_device=3, vf_weights=(1, 2))
