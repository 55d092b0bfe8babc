"""Tests for TLP construction, segmentation, completion splitting."""

import pytest

from repro.pcie.tlp import (
    DLL_OVERHEAD_BYTES,
    HEADER_3DW_BYTES,
    HEADER_4DW_BYTES,
    CompletionStatus,
    Tlp,
    TlpKind,
    completion_error,
    completion_with_data,
    memory_read,
    memory_write,
    segment_read,
    segment_write,
    split_completion,
)


class TestTlpBasics:
    def test_write_wire_bytes(self):
        tlp = memory_write(0x1000, b"x" * 64)
        assert tlp.wire_bytes == DLL_OVERHEAD_BYTES + HEADER_3DW_BYTES + 64

    def test_read_has_no_payload(self):
        tlp = memory_read(0x1000, 128)
        assert tlp.payload_bytes == 0
        assert tlp.wire_bytes == DLL_OVERHEAD_BYTES + HEADER_3DW_BYTES

    def test_64bit_address_uses_4dw_header(self):
        low = memory_write(0xFFFF_0000, b"x")
        high = memory_write(0x1_0000_0000, b"x")
        assert low.wire_bytes == DLL_OVERHEAD_BYTES + HEADER_3DW_BYTES + 1
        assert high.wire_bytes == DLL_OVERHEAD_BYTES + HEADER_4DW_BYTES + 1

    def test_write_is_posted(self):
        assert memory_write(0, b"x").is_posted
        assert not memory_read(0, 4).is_posted

    def test_data_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Tlp(kind=TlpKind.MEM_WRITE, addr=0, length=4, data=b"xx")

    def test_read_with_data_rejected(self):
        with pytest.raises(ValueError):
            Tlp(kind=TlpKind.MEM_READ, addr=0, length=4, data=b"1234")

    def test_zero_length_read_rejected(self):
        with pytest.raises(ValueError):
            memory_read(0, 0)

    def test_tags_differ(self):
        assert memory_read(0, 4).tag != memory_read(0, 4).tag


class TestSegmentation:
    def test_write_split_at_max_payload(self):
        tlps = segment_write(0x1000, b"x" * 600, max_payload=256)
        assert [t.length for t in tlps] == [256, 256, 88]
        assert [t.addr for t in tlps] == [0x1000, 0x1100, 0x1200]

    def test_write_split_at_4k_boundary(self):
        tlps = segment_write(0xFC0, b"x" * 128, max_payload=256)
        assert [t.length for t in tlps] == [64, 64]
        assert tlps[1].addr == 0x1000

    def test_read_split_at_max_read_request(self):
        tlps = segment_read(0, 1024, max_read_request=512)
        assert [t.length for t in tlps] == [512, 512]

    def test_read_split_at_4k_boundary(self):
        tlps = segment_read(0xF00, 512, max_read_request=512)
        assert [t.length for t in tlps] == [256, 256]

    def test_payload_reassembles(self):
        data = bytes(range(256)) * 3
        tlps = segment_write(0, data, max_payload=128)
        assert b"".join(t.data for t in tlps) == data

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            segment_write(0, b"x", max_payload=0)
        with pytest.raises(ValueError):
            segment_read(0, 4, max_read_request=0)


class TestCompletionSplitting:
    def test_single_completion_when_small(self):
        req = memory_read(0x40, 32)
        cpls = list(split_completion(req, bytes(32), rcb=64))
        assert len(cpls) == 1
        assert cpls[0].byte_count == 32

    def test_split_at_rcb(self):
        req = memory_read(0x20, 128)  # 0x20 -> 32 bytes to the boundary
        cpls = list(split_completion(req, bytes(128), rcb=64))
        assert [c.length for c in cpls] == [32, 64, 32]

    def test_byte_count_counts_down(self):
        req = memory_read(0, 192)
        cpls = list(split_completion(req, bytes(192), rcb=64))
        assert [c.byte_count for c in cpls] == [192, 128, 64]

    def test_data_reassembles(self):
        data = bytes(range(200))
        req = memory_read(8, 200)
        cpls = list(split_completion(req, data, rcb=64))
        assert b"".join(c.data for c in cpls) == data

    def test_tag_preserved(self):
        req = memory_read(0, 64)
        for cpl in split_completion(req, bytes(64)):
            assert cpl.tag == req.tag

    def test_length_mismatch_rejected(self):
        req = memory_read(0, 64)
        with pytest.raises(ValueError):
            list(split_completion(req, bytes(32)))

    def test_bad_rcb_rejected(self):
        req = memory_read(0, 64)
        with pytest.raises(ValueError):
            list(split_completion(req, bytes(64), rcb=48))


class TestCompletions:
    def test_completion_with_data(self):
        req = memory_read(0x100, 8)
        cpl = completion_with_data(req, b"12345678")
        assert cpl.kind == TlpKind.COMPLETION_DATA
        assert cpl.tag == req.tag

    def test_completion_error(self):
        req = memory_read(0x100, 8)
        cpl = completion_error(req, CompletionStatus.UNSUPPORTED_REQUEST)
        assert cpl.kind == TlpKind.COMPLETION
        assert cpl.completion_status == CompletionStatus.UNSUPPORTED_REQUEST
