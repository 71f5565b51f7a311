"""Tests for NDPage's flattened L2/L1 page table (Section V-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flattened import FlattenedPageTable, flattened_coverage_bytes
from repro.vm.address import FLAT_ENTRIES, PAGE_SHIFT, make_vpn
from repro.vm.base import MappingError, Translation
from repro.vm.frames import FrameAllocator, OutOfMemoryError

MIB = 1024 ** 2
VPNS = st.integers(min_value=0, max_value=(1 << 36) - 1)


@pytest.fixture
def table(allocator):
    return FlattenedPageTable(allocator)


def flat_walk(table, page):
    """The sequential ``(pte_paddr, pwc_prefix)`` steps of a walk."""
    flat, staged, _ = table.walk_info(page)
    assert staged is None
    return flat


class TestMapping:
    def test_unmapped_lookup_none(self, table):
        assert table.lookup(7) is None

    def test_map_then_lookup(self, table):
        table.map_page(0xABCDE, pfn=42)
        assert table.lookup(0xABCDE) == Translation(42, PAGE_SHIFT)

    def test_double_map_rejected(self, table):
        table.map_page(1, pfn=1)
        with pytest.raises(MappingError):
            table.map_page(1, pfn=2)

    def test_unmap(self, table):
        table.map_page(1, pfn=1)
        table.unmap_page(1)
        assert table.lookup(1) is None

    def test_unmap_missing_rejected(self, table):
        with pytest.raises(MappingError):
            table.unmap_page(1)

    def test_huge_pages_intentionally_unsupported(self, table):
        # NDPage keeps the flexibility of 4 KB pages (Section V-B).
        with pytest.raises(MappingError):
            table.map_page(0, pfn=512, page_shift=21)

    @given(st.lists(VPNS, min_size=1, max_size=50, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_many_mappings_roundtrip(self, pages):
        table = FlattenedPageTable(FrameAllocator(512 * MIB))
        for i, page in enumerate(pages):
            table.map_page(page, pfn=i)
        for i, page in enumerate(pages):
            assert table.lookup(page) == Translation(i, PAGE_SHIFT)


class TestWalkStructure:
    def test_walk_has_three_stages(self, table):
        # The headline property: 4 sequential accesses become 3.
        table.map_page(0x54321, pfn=9)
        steps = flat_walk(table, 0x54321)
        assert table.level_names[:len(steps)] == ("PL4", "PL3", "PL2/1")

    def test_walk_unmapped_rejected(self, table):
        assert table.walk_info(3) is None

    def test_flat_index_spans_18_bits(self, table):
        low = make_vpn(0, 0, 0, 0)
        high = make_vpn(0, 0, 511, 511)
        table.map_page(low, pfn=1)
        table.map_page(high, pfn=2)
        leaf_low, _ = flat_walk(table, low)[2]
        leaf_high, _ = flat_walk(table, high)[2]
        # Same flattened node, indices 0 and 2^18 - 1.
        assert leaf_high - leaf_low == (FLAT_ENTRIES - 1) * 8

    def test_pages_one_gb_apart_use_different_flat_nodes(self, table):
        a = make_vpn(0, 0, 0, 0)
        b = make_vpn(0, 1, 0, 0)
        table.map_page(a, pfn=1)
        table.map_page(b, pfn=2)
        assert table.flat_node_count == 2

    def test_pl2_sibling_pages_share_flat_node(self, table):
        a = make_vpn(0, 0, 3, 0)
        b = make_vpn(0, 0, 4, 0)
        table.map_page(a, pfn=1)
        table.map_page(b, pfn=2)
        assert table.flat_node_count == 1

    def test_pwc_keys(self, table):
        page = make_vpn(1, 2, 3, 4)
        table.map_page(page, pfn=1)
        prefixes = [prefix for _, prefix in flat_walk(table, page)]
        assert prefixes[0] == page >> 27   # PL4
        assert prefixes[1] == page >> 18   # PL3
        assert prefixes[2] == page         # PL2/1

    def test_coverage_is_one_gb(self):
        assert flattened_coverage_bytes() == 1 << 30


class TestPhysicalStructure:
    def test_flat_node_consumes_contiguous_block(self, table, allocator):
        before = allocator.free_block_count
        table.map_page(0, pfn=1)
        assert allocator.free_block_count == before - 1

    def test_flat_node_is_2mb_aligned(self, table):
        table.map_page(0, pfn=1)
        leaf, _ = flat_walk(table, 0)[2]
        node_base = leaf - (leaf % (2 * MIB))
        assert node_base % (2 * MIB) == 0

    def test_table_bytes_counts_flat_nodes(self, table):
        empty = table.table_bytes()
        table.map_page(0, pfn=1)
        grown = table.table_bytes() - empty
        assert grown == 2 * MIB + 4096  # flat node + new PL3 node

    def test_contiguity_exhaustion_raises(self):
        allocator = FrameAllocator(8 * MIB, reserved_bytes=0)
        table = FlattenedPageTable(allocator)
        while allocator.alloc_huge() is not None:
            pass
        with pytest.raises(OutOfMemoryError):
            table.map_page(0, pfn=1)

    def test_occupancy_report(self, table):
        for i in range(1000):
            table.map_page(i, pfn=i)
        occ = table.occupancy()
        assert occ["PL2/1"] == pytest.approx(1000 / FLAT_ENTRIES)
        assert occ["PL4"] == 1 / 512

    def test_mapped_pages(self, table):
        table.map_page(10, pfn=1)
        table.map_page(20, pfn=2)
        assert table.mapped_pages == 2
        table.unmap_page(10)
        assert table.mapped_pages == 1


class TestEquivalenceWithRadix:
    """Flattening must not change *what* translations exist."""

    @given(st.lists(VPNS, min_size=1, max_size=40, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_same_translations_as_radix(self, pages):
        from repro.vm.radix import RadixPageTable
        flat = FlattenedPageTable(FrameAllocator(512 * MIB))
        radix = RadixPageTable(FrameAllocator(512 * MIB))
        for i, page in enumerate(pages):
            flat.map_page(page, pfn=i)
            radix.map_page(page, pfn=i)
        for page in pages:
            assert flat.lookup(page) == radix.lookup(page)
        probe = (pages[0] + 1) & ((1 << 36) - 1)
        if probe not in pages:
            assert flat.lookup(probe) == radix.lookup(probe)

    @given(VPNS)
    @settings(max_examples=30, deadline=None)
    def test_walk_is_exactly_one_stage_shorter(self, page):
        flat = FlattenedPageTable(FrameAllocator(64 * MIB))
        radix = RadixPageTable_cached(page)
        flat.map_page(page, pfn=1)
        assert len(flat_walk(flat, page)) == len(radix) - 1


def RadixPageTable_cached(page):
    """Build a radix walk for comparison (helper, not a fixture)."""
    from repro.vm.radix import RadixPageTable
    table = RadixPageTable(FrameAllocator(64 * MIB))
    table.map_page(page, pfn=1)
    return flat_walk(table, page)
