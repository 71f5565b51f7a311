"""Tests for memory-request kinds and their fast-path codes."""

from repro.mem.request import (
    KIND_BY_INDEX,
    KIND_DATA,
    KIND_INSTRUCTION,
    KIND_METADATA,
    RequestKind,
)


class TestRequestKind:
    def test_metadata_flag(self):
        assert RequestKind.METADATA.is_metadata
        assert not RequestKind.DATA.is_metadata
        assert not RequestKind.INSTRUCTION.is_metadata


class TestKindCodes:
    def test_codes_index_kinds(self):
        assert KIND_BY_INDEX[KIND_DATA] is RequestKind.DATA
        assert KIND_BY_INDEX[KIND_METADATA] is RequestKind.METADATA
        assert KIND_BY_INDEX[KIND_INSTRUCTION] is RequestKind.INSTRUCTION
        assert len(KIND_BY_INDEX) == len(RequestKind)
