"""Unit-level tests for the timeline result type."""

from repro.core.timeline import Timeline, _NARRATION
from repro.sim.trace import TraceRecord


class TestTimeline:
    def make(self):
        records = [
            TraceRecord(time=1000, source="a", kind="kick"),
            TraceRecord(time=2000, source="b", kind="tlp-tx", detail={"tlp": "MRd"}),
            TraceRecord(time=3000, source="c", kind="queue-irq", detail={"vector": 1}),
        ]
        return Timeline(driver="VirtIO", payload=64, total_us=10.0, records=records)

    def test_events_filters_tlp_noise(self):
        events = self.make().events()
        assert [r.kind for r in events] == ["kick", "queue-irq"]

    def test_render_hides_tlps_by_default(self):
        text = self.make().render()
        assert "MRd" not in text
        assert "doorbell" in text

    def test_render_with_tlps(self):
        text = self.make().render(include_tlps=True)
        assert "tlp-tx" in text

    def test_count(self):
        assert self.make().count("kick") == 1
        assert self.make().count("nothing") == 0

    def test_relative_timestamps(self):
        text = self.make().render()
        assert "+    0.00 us" in text  # first record anchors the origin

    def test_narration_covers_all_hot_kinds(self):
        """Every trace kind the data-path emits has a narration policy
        (a string or explicit None), so new trace points are a conscious
        decision."""
        for kind in ("kick", "host-read", "host-write", "queue-irq", "msi",
                     "sgdma-start", "channel-irq", "udp-tx", "udp-rx"):
            assert kind in _NARRATION
