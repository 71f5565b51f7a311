"""The ``PageTable.walk_info`` contract, checked for every mechanism.

The walker matches the steps of a walk to ``level_names`` by position
and ORs an ASID tag into every PWC prefix, so each table's walk must
keep the shape :meth:`repro.vm.base.PageTable.walk_info` documents.
"""

import pytest

from repro.core.mechanisms import MECHANISMS
from repro.vm.address import HUGE_PAGE_SHIFT, make_vpn
from repro.vm.frames import FrameAllocator
from repro.vm.os_model import PagingPolicy

MIB = 1024 ** 2

SMALL_PAGES = (0x12345, 0x12346, make_vpn(1, 2, 3, 4), make_vpn(511, 0, 0, 0))
HUGE_BASE = make_vpn(0, 1, 0, 0)  # a 512-page aligned group
UNMAPPED = (0x12347, make_vpn(1, 2, 3, 5), make_vpn(300, 0, 0, 0))


def check_walk(table, page):
    flat, staged, translation = table.walk_info(page)
    assert (flat is None) != (staged is None)
    if flat is not None:
        assert len(flat) <= len(table.level_names)
        assert all(type(prefix) is int for _, prefix in flat)
    else:
        assert len(staged) >= 2
        assert all(prefix is None for _, prefix in staged)
    assert translation == table.lookup(page)


@pytest.mark.parametrize("key", sorted(MECHANISMS))
def test_walk_info_contract(key):
    spec = MECHANISMS[key]
    table = spec.build_table(FrameAllocator(256 * MIB))
    for pfn, page in enumerate(SMALL_PAGES):
        table.map_page(page, pfn)
        check_walk(table, page)
    if spec.paging_policy is PagingPolicy.HUGE:
        table.map_page(HUGE_BASE, 512, page_shift=HUGE_PAGE_SHIFT)
        for page in (HUGE_BASE, HUGE_BASE + 100, HUGE_BASE + 511):
            check_walk(table, page)
            assert table.walk_info(page)[2].page_shift == HUGE_PAGE_SHIFT
    for page in SMALL_PAGES:
        check_walk(table, page)  # later mappings left earlier walks whole
    for page in UNMAPPED:
        assert table.walk_info(page) is None
