"""Tests for the Ideal translation oracle."""

import pytest

from repro.vm.address import PAGE_SHIFT
from repro.vm.base import MappingError, Translation
from repro.vm.ideal import IdealPageTable


@pytest.fixture
def table():
    return IdealPageTable()


class TestIdeal:
    def test_accepts_and_ignores_allocator(self, allocator):
        before = allocator.free_frames
        IdealPageTable(allocator)
        assert allocator.free_frames == before

    def test_map_lookup(self, table):
        table.map_page(9, pfn=4)
        assert table.lookup(9) == Translation(4, PAGE_SHIFT)

    def test_unmapped_none(self, table):
        assert table.lookup(9) is None

    def test_double_map_rejected(self, table):
        table.map_page(9, pfn=4)
        with pytest.raises(MappingError):
            table.map_page(9, pfn=5)

    def test_unmap(self, table):
        table.map_page(9, pfn=4)
        table.unmap_page(9)
        assert table.lookup(9) is None

    def test_unmap_missing_rejected(self, table):
        with pytest.raises(MappingError):
            table.unmap_page(9)

    def test_huge_rejected(self, table):
        with pytest.raises(MappingError):
            table.map_page(0, pfn=0, page_shift=21)

    def test_walk_is_empty(self, table):
        table.map_page(9, pfn=4)
        assert table.walk_info(9) == ((), None, Translation(4, PAGE_SHIFT))

    def test_walk_unmapped_rejected(self, table):
        assert table.walk_info(9) is None

    def test_no_physical_footprint(self, table):
        table.map_page(9, pfn=4)
        assert table.table_bytes() == 0
        assert table.occupancy() == {}

    def test_mapped_pages(self, table):
        table.map_page(1, pfn=1)
        table.map_page(2, pfn=2)
        assert table.mapped_pages == 2
