"""Tests for the 4-level radix page table (Radix / Huge Page baselines)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.vm.address import (
    ENTRIES_PER_NODE,
    HUGE_PAGE_SHIFT,
    PAGE_SHIFT,
    make_vpn,
)
from repro.vm.base import MappingError, Translation
from repro.vm.frames import FrameAllocator
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2
VPNS = st.integers(min_value=0, max_value=(1 << 36) - 1)


@pytest.fixture
def table(allocator):
    return RadixPageTable(allocator)


class TestMapping:
    def test_unmapped_lookup_is_none(self, table):
        assert table.lookup(123) is None

    def test_map_then_lookup(self, table):
        table.map_page(0x12345, pfn=77)
        assert table.lookup(0x12345) == Translation(77, PAGE_SHIFT)

    def test_double_map_rejected(self, table):
        table.map_page(5, pfn=1)
        with pytest.raises(MappingError):
            table.map_page(5, pfn=2)

    def test_unmap(self, table):
        table.map_page(5, pfn=1)
        table.unmap_page(5)
        assert table.lookup(5) is None

    def test_unmap_missing_rejected(self, table):
        with pytest.raises(MappingError):
            table.unmap_page(5)

    def test_mapped_pages_counter(self, table):
        table.map_page(1, pfn=1)
        table.map_page(2, pfn=2)
        assert table.mapped_pages == 2
        table.unmap_page(1)
        assert table.mapped_pages == 1

    def test_unsupported_page_shift(self, table):
        with pytest.raises(MappingError):
            table.map_page(0, pfn=0, page_shift=30)

    @given(st.lists(VPNS, min_size=1, max_size=60, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_many_mappings_roundtrip(self, pages):
        table = RadixPageTable(FrameAllocator(256 * MIB))
        for i, page in enumerate(pages):
            table.map_page(page, pfn=i)
        for i, page in enumerate(pages):
            assert table.lookup(page) == Translation(i, PAGE_SHIFT)


class TestHugeMapping:
    def test_huge_map_covers_whole_region(self, table):
        base = 512 * 7  # 512-page aligned
        table.map_page(base, pfn=1024, page_shift=HUGE_PAGE_SHIFT)
        for offset in (0, 1, 255, 511):
            translation = table.lookup(base + offset)
            assert translation is not None
            assert translation.page_shift == HUGE_PAGE_SHIFT

    def test_huge_map_requires_alignment(self, table):
        with pytest.raises(MappingError):
            table.map_page(513, pfn=1024, page_shift=HUGE_PAGE_SHIFT)

    def test_huge_map_requires_aligned_frame(self, table):
        with pytest.raises(MappingError):
            table.map_page(512, pfn=3, page_shift=HUGE_PAGE_SHIFT)

    def test_huge_paddr_includes_21bit_offset(self, table):
        table.map_page(0, pfn=512, page_shift=HUGE_PAGE_SHIFT)
        translation = table.lookup(100)
        vaddr = 100 * 4096 + 12
        assert translation.paddr(vaddr) == 512 * 4096 + 100 * 4096 + 12

    def test_small_map_inside_huge_rejected(self, table):
        table.map_page(0, pfn=512, page_shift=HUGE_PAGE_SHIFT)
        with pytest.raises(MappingError):
            table.map_page(3, pfn=9)

    def test_huge_unmap(self, table):
        table.map_page(0, pfn=512, page_shift=HUGE_PAGE_SHIFT)
        table.unmap_page(0)
        assert table.lookup(0) is None
        assert table.huge_mappings == 0

    def test_huge_counts_512_pages(self, table):
        table.map_page(0, pfn=512, page_shift=HUGE_PAGE_SHIFT)
        assert table.mapped_pages == ENTRIES_PER_NODE


def flat_walk(table, page):
    """The sequential ``(pte_paddr, pwc_prefix)`` steps of a walk."""
    flat, staged, _ = table.walk_info(page)
    assert staged is None
    return flat


class TestWalkStages:
    def test_small_walk_has_four_stages(self, table):
        table.map_page(0x12345, pfn=1)
        steps = flat_walk(table, 0x12345)
        assert table.level_names[:len(steps)] \
            == ("PL4", "PL3", "PL2", "PL1")

    def test_each_stage_single_access(self, table):
        table.map_page(0x12345, pfn=1)
        flat, staged, _ = table.walk_info(0x12345)
        # A flat walk: one (pte_paddr, pwc_prefix) access per level.
        assert staged is None
        assert all(len(step) == 2 for step in flat)

    def test_huge_walk_has_three_stages(self, table):
        table.map_page(0, pfn=512, page_shift=HUGE_PAGE_SHIFT)
        steps = flat_walk(table, 100)
        assert table.level_names[:len(steps)] == ("PL4", "PL3", "PL2")

    def test_walk_of_unmapped_page_rejected(self, table):
        assert table.walk_info(42) is None

    def test_pte_addresses_distinct_across_levels(self, table):
        table.map_page(0x12345, pfn=1)
        paddrs = [pte for pte, _ in flat_walk(table, 0x12345)]
        assert len(set(paddrs)) == 4

    def test_pte_paddr_encodes_index(self, table):
        page = make_vpn(0, 0, 0, 7)
        table.map_page(page, pfn=1)
        pl1_pte, _ = flat_walk(table, page)[3]
        assert pl1_pte % 4096 == 7 * 8

    def test_sibling_pages_share_upper_ptes(self, table):
        table.map_page(make_vpn(1, 2, 3, 4), pfn=1)
        table.map_page(make_vpn(1, 2, 3, 5), pfn=2)
        walk_a = flat_walk(table, make_vpn(1, 2, 3, 4))
        walk_b = flat_walk(table, make_vpn(1, 2, 3, 5))
        for level in range(3):  # PL4, PL3, PL2 shared
            assert walk_a[level][0] == walk_b[level][0]
        assert walk_a[3][0] != walk_b[3][0]

    def test_pwc_keys_identify_prefixes(self, table):
        page = make_vpn(1, 2, 3, 4)
        table.map_page(page, pfn=1)
        prefixes = [prefix for _, prefix in flat_walk(table, page)]
        assert prefixes[0] == page >> 27   # PL4
        assert prefixes[1] == page >> 18   # PL3
        assert prefixes[2] == page >> 9    # PL2
        assert prefixes[3] == page         # PL1


class TestStructure:
    def test_nodes_allocated_lazily(self, table, allocator):
        before = allocator.stats.small_allocs
        table.map_page(make_vpn(1, 1, 1, 1), pfn=1)
        # New PL3 + PL2 + PL1 nodes (root exists already).
        assert allocator.stats.small_allocs == before + 3

    def test_dense_pages_share_nodes(self, table):
        for i in range(512):
            table.map_page(i, pfn=i)
        assert table.node_count(1) == 1  # one PL1 node, fully used

    def test_table_bytes_grows_with_nodes(self, table):
        empty = table.table_bytes()
        table.map_page(make_vpn(2, 2, 2, 2), pfn=1)
        assert table.table_bytes() == empty + 3 * 4096

    def test_occupancy_dense_pl1(self, table):
        for i in range(512):
            table.map_page(i, pfn=i)
        occ = table.occupancy()
        assert occ["PL1"] == 1.0
        assert occ["PL4"] == 1 / 512

    def test_occupancy_sparse_pl1(self, table):
        table.map_page(0, pfn=0)
        assert table.occupancy()["PL1"] == 1 / 512

    def test_pte_addresses_are_in_physical_memory(self, table, allocator):
        table.map_page(0x999, pfn=1)
        for pte_paddr, _ in flat_walk(table, 0x999):
            assert 0 <= pte_paddr < allocator.phys_bytes
