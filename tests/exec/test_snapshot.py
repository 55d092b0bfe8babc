"""Snapshot boot reuse: stamped cells must equal cold-booted cells.

The fork/copy-on-write transport is only admissible because a stamped
measurement is *byte-identical* to a cold one -- the hypothesis test
below pins that across drivers, payloads, and seeds (pickle equality
covers every array element and every summary float), on 1-packet cells,
whose boot outweighs their measurement, so they really stamp.  The
policy tests use fake boot/measure callables so they exercise the
registry logic without paying testbed boots.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import snapshot
from repro.exec.cells import latency_cells
from repro.exec.runner import _cell_plan


@pytest.fixture(autouse=True)
def _fresh_registry():
    snapshot.reset()
    yield
    snapshot.reset()


requires_fork = pytest.mark.skipif(
    not snapshot._SUPPORTED, reason="os.fork unavailable"
)


@requires_fork
class TestStampParity:
    @settings(max_examples=6, deadline=None)
    @given(
        driver=st.sampled_from(["virtio", "xdma"]),
        payload=st.sampled_from([64, 256, 1024]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_stamped_equals_cold(self, driver, payload, seed):
        cell = latency_cells(
            (payload,), packets=1, seed=seed, drivers=(driver,)
        )[0]
        key, boot, measure = _cell_plan(cell)
        cold = measure(boot())

        snapshot.reset()
        first, reused1 = snapshot.execute(key, boot, measure)
        second, reused2 = snapshot.execute(key, boot, measure)
        third, reused3 = snapshot.execute(key, boot, measure)
        # A boot-heavy key: cold, boot+keep (stamped), pure reuse.
        assert (reused1, reused2, reused3) == (False, False, True)
        assert snapshot.snapshots_held() == 1
        assert snapshot.local_reuses() == 1

        baseline = pickle.dumps(cold)
        assert pickle.dumps(first) == baseline
        assert pickle.dumps(second) == baseline
        assert pickle.dumps(third) == baseline

    def test_measurement_heavy_cell_boots_cold(self):
        # XDMA 1024 B at 4 packets measures 649 events after a 237-event
        # boot: every use boots cold, and nothing is kept.
        cell = latency_cells((1024,), packets=4, seed=5, drivers=("xdma",))[0]
        key, boot, measure = _cell_plan(cell)
        runs = [snapshot.execute(key, boot, measure) for _ in range(3)]
        assert [reused for _, reused in runs] == [False, False, False]
        assert snapshot.snapshots_held() == 0
        assert len({pickle.dumps(result) for result, _ in runs}) == 1

    def test_cross_kind_sharing(self):
        # A faultlat cell aliases the latency seed identity and boots
        # the identical machine: both kinds map to one snapshot key.
        from repro.exec.cells import fault_cells

        lat = latency_cells((64,), packets=5, seed=3, drivers=("virtio",))[0]
        fault = fault_cells(("virtio",), (0.01,), 64, packets=5, seed=3)[0]
        assert _cell_plan(lat)[0] == _cell_plan(fault)[0]


class _FakeBoot:
    """Counts boots; hands out 'testbeds' whose boot ran *events*
    simulator events (by default more than ``_measure`` adds)."""

    def __init__(self, events=10):
        self.count = 0
        self.events = events

    def __call__(self):
        self.count += 1
        return SimpleNamespace(
            image=self.count, sim=SimpleNamespace(events_executed=self.events)
        )


def _measure(testbed):
    testbed.sim.events_executed += 1
    return ("measured", testbed.image)


@requires_fork
class TestPolicy:
    def test_seen_once_then_keep(self):
        boot = _FakeBoot()
        r1, reused1 = snapshot.execute("k", boot, _measure)
        assert (r1, reused1) == (("measured", 1), False)
        assert snapshot.snapshots_held() == 0  # first use: no image yet
        r2, reused2 = snapshot.execute("k", boot, _measure)
        assert (r2, reused2) == (("measured", 2), False)
        assert snapshot.snapshots_held() == 1  # second use: boot + keep
        r3, reused3 = snapshot.execute("k", boot, _measure)
        assert (r3, reused3) == (("measured", 2), True)  # stamped, no boot
        assert boot.count == 2

    def test_measurement_heavy_key_never_stamps(self):
        # The boot ran no more events than the measurement (one each):
        # a stamp would cost more than the boot it saves.
        boot = _FakeBoot(events=1)
        for i in (1, 2, 3):
            result, reused = snapshot.execute("k", boot, _measure)
            assert (result, reused) == (("measured", i), False)
        assert boot.count == 3
        assert snapshot.snapshots_held() == 0
        assert snapshot.local_reuses() == 0

    def test_lru_cap(self):
        keys = [f"k{i}" for i in range(snapshot.MAX_SNAPSHOTS + 3)]
        for key in keys:
            snapshot.execute(key, _FakeBoot(), _measure)
            snapshot.execute(key, _FakeBoot(), _measure)  # promotes to kept
        assert snapshot.snapshots_held() == snapshot.MAX_SNAPSHOTS
        # The oldest images were evicted; their next use boots again.
        boot = _FakeBoot()
        _, reused = snapshot.execute(keys[0], boot, _measure)
        assert boot.count == 1 and reused is False

    def test_no_key_always_cold(self):
        boot = _FakeBoot()
        for _ in range(3):
            _, reused = snapshot.execute(None, boot, _measure)
            assert reused is False
        assert boot.count == 3
        assert snapshot.snapshots_held() == 0

    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_BOOT", "0")
        assert snapshot.enabled() is False
        boot = _FakeBoot()
        for _ in range(3):
            _, reused = snapshot.execute("k", boot, _measure)
            assert reused is False
        assert boot.count == 3

    def test_transport_failure_falls_back_cold(self, monkeypatch):
        def broken(testbed, measure):
            raise snapshot.SnapshotError("no transport")

        monkeypatch.setattr(snapshot, "_stamp", broken)
        boot = _FakeBoot()
        r1, _ = snapshot.execute("k", boot, _measure)
        r2, _ = snapshot.execute("k", boot, _measure)  # stamp fails here
        r3, reused3 = snapshot.execute("k", boot, _measure)
        assert [r1, r2, r3] == [("measured", i) for i in (1, 2, 3)]
        assert reused3 is False  # key is broken: never retried
        assert snapshot.snapshots_held() == 0

    def test_cell_failure_propagates(self):
        # A failure inside measure must surface exactly as it would
        # cold -- including from inside a fork.
        def exploding(testbed):
            raise ValueError("cell blew up")

        snapshot.execute("k", _FakeBoot(), _measure)  # seen once
        boot = _FakeBoot()
        with pytest.raises(ValueError, match="cell blew up"):
            snapshot.execute("k", boot, exploding)

    def test_parent_aggregation(self):
        snapshot.note_parent_reuses(3)
        snapshot.note_parent_reuses(2)
        assert snapshot.parent_boot_reuses() == 5
        snapshot.reset()
        assert snapshot.parent_boot_reuses() == 0
