"""Tests for the counterfactual upper-flattened (PL3/PL2) table."""

import pytest

from repro.core.flattened_upper import UpperFlattenedPageTable
from repro.vm.address import PAGE_SHIFT, make_vpn
from repro.vm.base import MappingError, Translation
from repro.vm.frames import FrameAllocator

MIB = 1024 ** 2


@pytest.fixture
def table(allocator):
    return UpperFlattenedPageTable(allocator)


def flat_walk(table, page):
    """The sequential ``(pte_paddr, pwc_prefix)`` steps of a walk."""
    flat, staged, _ = table.walk_info(page)
    assert staged is None
    return flat


class TestFunctional:
    def test_map_lookup(self, table):
        table.map_page(0x12345, pfn=9)
        assert table.lookup(0x12345) == Translation(9, PAGE_SHIFT)

    def test_unmapped_none(self, table):
        assert table.lookup(3) is None

    def test_double_map_rejected(self, table):
        table.map_page(5, pfn=1)
        with pytest.raises(MappingError):
            table.map_page(5, pfn=2)

    def test_unmap(self, table):
        table.map_page(5, pfn=1)
        table.unmap_page(5)
        assert table.lookup(5) is None

    def test_huge_rejected(self, table):
        with pytest.raises(MappingError):
            table.map_page(0, pfn=0, page_shift=21)

    def test_mapped_pages(self, table):
        table.map_page(1, pfn=1)
        table.map_page(2, pfn=2)
        assert table.mapped_pages == 2


class TestStructure:
    def test_three_stage_walk(self, table):
        table.map_page(0x12345, pfn=1)
        steps = flat_walk(table, 0x12345)
        assert table.level_names[:len(steps)] == ("PL4", "PL3/2", "PL1")

    def test_merged_level_spans_18_bits(self, table):
        low = make_vpn(0, 0, 0, 7)
        high = make_vpn(0, 511, 511, 7)
        table.map_page(low, pfn=1)
        table.map_page(high, pfn=2)
        a, _ = flat_walk(table, low)[1]
        b, _ = flat_walk(table, high)[1]
        assert b - a == ((1 << 18) - 1) * 8

    def test_pl1_nodes_conventional(self, table):
        table.map_page(make_vpn(0, 0, 0, 3), pfn=1)
        table.map_page(make_vpn(0, 0, 0, 4), pfn=2)
        a, _ = flat_walk(table, make_vpn(0, 0, 0, 3))[2]
        b, _ = flat_walk(table, make_vpn(0, 0, 0, 4))[2]
        assert b - a == 8

    def test_flat_node_consumes_block(self, table, allocator):
        before = allocator.free_block_count
        table.map_page(0, pfn=1)
        assert allocator.free_block_count == before - 1

    def test_occupancy(self, table):
        for i in range(512):
            table.map_page(i, pfn=i)
        occ = table.occupancy()
        assert occ["PL1"] == 1.0
        assert occ["PL3/2"] == 1 / (1 << 18)

    def test_registered_as_mechanism(self):
        from repro.core.mechanisms import get_mechanism
        spec = get_mechanism("ndpage-flatten-upper")
        table = spec.build_table(FrameAllocator(64 * MIB))
        assert isinstance(table, UpperFlattenedPageTable)


class TestWhyBottomIsRight:
    """The design argument: bottom-two flattening removes an access the
    walker actually performs; upper-two removes one the PWCs already
    absorbed."""

    def test_upper_walk_still_pays_two_leaf_levels(self, table):
        from repro.core.flattened import FlattenedPageTable
        bottom = FlattenedPageTable(FrameAllocator(64 * MIB))
        table.map_page(0x777, pfn=1)
        bottom.map_page(0x777, pfn=1)
        upper_levels = table.level_names[:len(flat_walk(table, 0x777))]
        bottom_levels = bottom.level_names[
            :len(flat_walk(bottom, 0x777))]
        # Both are 3-stage, but upper keeps two poorly-caching low
        # levels (PL3/2 node per-region entries + PL1), while bottom
        # keeps only one.
        assert len(upper_levels) == len(bottom_levels) == 3
        assert upper_levels[-1] == "PL1"
        assert bottom_levels[-1] == "PL2/1"
