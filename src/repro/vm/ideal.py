"""Ideal translation (mechanism (4) in Section VI).

Every translation request hits a zero-latency L1 TLB: no page-table
memory traffic exists at all.  This bounds what any translation
mechanism could achieve and anchors the top of Figs. 12-14.

Functionally a dict.  Its walk (``walk_info``) has no steps, so a
walker issues no memory requests for it; the MMU of the IDEAL
mechanism does not walk at all and charges zero lookup latency.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.vm.address import PAGE_SHIFT
from repro.vm.base import MappingError, PageTable, Translation


class IdealPageTable(PageTable):
    """Perfect translation oracle with no physical footprint.

    Accepts (and ignores) an allocator so it is constructible through
    the same mechanism-spec factory as the real tables.
    """

    level_names = ()

    def __init__(self, allocator=None):
        del allocator  # no physical structures exist
        self._mappings: Dict[int, Translation] = {}

    def lookup(self, page: int) -> Optional[Translation]:
        return self._mappings.get(page)

    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        if page_shift != PAGE_SHIFT:
            raise MappingError("ideal table tracks 4 KB mappings only")
        if page in self._mappings:
            raise MappingError(f"page {page:#x} already mapped")
        self._mappings[page] = Translation(pfn, PAGE_SHIFT)

    def unmap_page(self, page: int) -> None:
        if page not in self._mappings:
            raise MappingError(f"page {page:#x} not mapped")
        del self._mappings[page]

    def walk_info(self, page: int):
        translation = self._mappings.get(page)
        if translation is None:
            return None
        return (), None, translation

    def occupancy(self) -> Dict[str, float]:
        return {}

    def table_bytes(self) -> int:
        return 0

    @property
    def mapped_pages(self) -> int:
        return len(self._mappings)
