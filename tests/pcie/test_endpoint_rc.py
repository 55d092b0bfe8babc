"""Integration tests for endpoint + root complex + enumeration."""

import pytest

from repro.mem.region import RamRegion
from repro.pcie import device as device_module
from repro.pcie.config_space import ConfigSpace
from repro.pcie.device import PcieEndpoint
from repro.pcie.enumeration import enumerate_all
from repro.pcie.link import LinkConfig
from repro.pcie.msi import MSI_ADDRESS_BASE, MSIX_ENTRY_SIZE
from repro.pcie.root_complex import MMIO_WINDOW_BASE, RootComplex
from repro.pcie.tlp import segment_read
from repro.sim.kernel import Simulator


@pytest.fixture
def system(sim):
    """RC + one endpoint with BAR0 RAM and MSI-X, enumerated."""
    rc = RootComplex(sim)
    msis = []
    rc.set_msi_handler(lambda addr, data: msis.append((addr, data)))
    port, link = rc.create_port(LinkConfig())
    config = ConfigSpace(vendor_id=0x10EE, device_id=0x7024)
    endpoint = PcieEndpoint(sim, link, config, name="ep")
    endpoint.attach_bar(0, RamRegion(0x10000, name="bar0"))
    endpoint.enable_msix(4, bar_index=1)
    boot = sim.spawn(enumerate_all(rc))
    functions = sim.run_until_triggered(boot)
    return dict(
        sim=sim, rc=rc, port=port, endpoint=endpoint, function=functions[0], msis=msis
    )


class TestEnumeration:
    def test_ids_discovered(self, system):
        function = system["function"]
        assert function.vendor_id == 0x10EE
        assert function.device_id == 0x7024

    def test_bars_assigned_in_window(self, system):
        for bar in system["function"].bars.values():
            assert bar.address >= MMIO_WINDOW_BASE
            assert bar.address % bar.size == 0  # natural alignment

    def test_bar_sizes(self, system):
        assert system["function"].bars[0].size == 0x10000

    def test_decode_enabled(self, system):
        assert system["endpoint"].config.memory_enabled
        assert system["endpoint"].config.bus_master_enabled

    def test_capabilities_walked(self, system):
        caps = [c.cap_id for c in system["function"].capabilities]
        assert 0x11 in caps  # MSI-X

    def test_empty_port_skipped(self, sim):
        rc = RootComplex(sim)
        rc.create_port()
        boot = sim.spawn(enumerate_all(rc))
        assert sim.run_until_triggered(boot) == []


class TestMmio:
    def test_write_read_roundtrip(self, system, run):
        sim, rc = system["sim"], system["rc"]
        base = system["function"].bars[0].address

        def body():
            rc.mmio_write(base + 0x40, b"payload!")
            data = yield rc.mmio_read(base + 0x40, 8)
            return data

        assert run(sim, body()) == b"payload!"

    def test_read_takes_round_trip_time(self, system, run):
        sim, rc = system["sim"], system["rc"]
        base = system["function"].bars[0].address
        t0 = sim.now

        def body():
            yield rc.mmio_read(base, 4)
            return sim.now - t0

        elapsed = run(sim, body())
        config = LinkConfig()
        assert elapsed >= 2 * config.propagation_time

    def test_unmapped_mmio_raises(self, system):
        with pytest.raises(RuntimeError, match="window"):
            system["rc"].mmio_write(0x5000_0000, b"x")


class TestDeviceDma:
    def test_dma_read_from_host(self, system, run):
        sim, rc, endpoint = system["sim"], system["rc"], system["endpoint"]
        rc.host_memory.write(0x9000, bytes(range(100)))

        def body():
            data = yield endpoint.dma_read(0x9000, 100)
            return data

        assert run(sim, body()) == bytes(range(100))

    def test_dma_write_to_host(self, system, run):
        sim, rc, endpoint = system["sim"], system["rc"], system["endpoint"]

        def body():
            yield endpoint.dma_write(0xA000, b"Z" * 300)

        run(sim, body())
        assert rc.host_memory.read(0xA000, 300) == b"Z" * 300

    def test_large_dma_read_segmented(self, system, run, monkeypatch):
        sim, rc, endpoint = system["sim"], system["rc"], system["endpoint"]
        data = bytes(i & 0xFF for i in range(2048))
        rc.host_memory.write(0x4000, data)
        requests = []

        def counted(*args, **kwargs):
            built = segment_read(*args, **kwargs)
            requests.extend(built)
            return built

        monkeypatch.setattr(device_module, "segment_read", counted)

        def body():
            out = yield endpoint.dma_read(0x4000, 2048)
            return out

        assert run(sim, body()) == data
        assert len(requests) == 4  # 2048 / MRRS 512

    def test_dma_ordering_write_before_msix(self, system, run):
        """An MSI-X raised after a DMA write must arrive after the data
        (producer-consumer ordering)."""
        sim, rc, endpoint = system["sim"], system["rc"], system["endpoint"]
        table_base = system["function"].bars[1].address
        seen_at_irq = {}

        def setup():
            rc.mmio_write(table_base, MSI_ADDRESS_BASE.to_bytes(8, "little"))
            rc.mmio_write(table_base + 8, (0).to_bytes(4, "little"))
            rc.mmio_write(table_base + 12, (0).to_bytes(4, "little"))
            cap_offset = next(
                c.offset for c in system["function"].capabilities if c.cap_id == 0x11
            )
            yield system["port"].cfg_write(cap_offset + 2, (0x8000).to_bytes(2, "little"))

        run(sim, setup())
        system["msis"].clear()

        def on_msi(addr, data):
            seen_at_irq["data"] = rc.host_memory.read(0xB000, 4)

        rc.set_msi_handler(on_msi)

        def body():
            endpoint.dma_write(0xB000, b"DATA")
            endpoint.raise_msix(0)
            yield 0

        run(sim, body())
        sim.run()
        assert seen_at_irq["data"] == b"DATA"


class TestConfigOps:
    def test_sub_dword_config_write(self, system, run):
        sim, port = system["sim"], system["port"]

        def body():
            yield port.cfg_write(0x3C, b"\x42")  # interrupt line, 1 byte
            data = yield port.cfg_read(0x3C, 1)
            return data

        assert run(sim, body()) == b"\x42"

    def test_disabled_memory_returns_error(self, sim, run):
        rc = RootComplex(sim)
        rc.set_msi_handler(lambda a, d: None)
        port, link = rc.create_port()
        config = ConfigSpace(vendor_id=1, device_id=2)
        endpoint = PcieEndpoint(sim, link, config)
        endpoint.attach_bar(0, RamRegion(0x1000))
        # No enumeration: memory decode disabled; read via port directly.
        from repro.pcie.tlp import CompletionStatus

        def body():
            result = yield port.mmio_read(MMIO_WINDOW_BASE, 4)
            return result

        assert run(sim, body()) == CompletionStatus.UNSUPPORTED_REQUEST
