"""Four-level x86-64 radix page table (the paper's *Radix* baseline).

Supports mixed page sizes: 4 KB leaves at PL1 and 2 MB leaves at PL2,
which is how the *Huge Page* mechanism (transparent huge pages) is
expressed — same tree, shorter walks for 2 MB-mapped regions.

Page-table nodes are real physical pages drawn from the
:class:`~repro.vm.frames.FrameAllocator`, so PTE physical addresses are
honest: they land in DRAM banks and cache sets exactly like the paper's
"metadata" traffic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.vm.address import (
    ENTRIES_PER_NODE,
    LEVEL_BITS,
    PAGE_SHIFT,
    HUGE_PAGE_SHIFT,
    PAGE_SIZE,
    PTE_SIZE,
    level_index,
)
from repro.vm.base import MappingError, PageTable, Translation
from repro.vm.frames import FrameAllocator

#: Allocation site used for page-table pages, distinct from any core.
PT_ALLOC_SITE = 1 << 20

_LEVEL_NAMES = {4: "PL4", 3: "PL3", 2: "PL2", 1: "PL1"}


class _Node:
    """One 4 KB page-table page."""

    __slots__ = ("level", "base_paddr", "entries")

    def __init__(self, level: int, base_paddr: int):
        self.level = level
        self.base_paddr = base_paddr
        # index -> child _Node (interior) or Translation (leaf)
        self.entries: Dict[int, object] = {}


class RadixPageTable(PageTable):
    """Mixed 4 KB / 2 MB four-level radix tree."""

    level_names = ("PL4", "PL3", "PL2", "PL1")

    def __init__(self, allocator: FrameAllocator):
        self._allocator = allocator
        self._nodes_by_level: Dict[int, List[_Node]] = {
            4: [], 3: [], 2: [], 1: []}
        self._root = self._new_node(4)
        self._mapped_pages = 0
        self.huge_mappings = 0

    # -- construction helpers -------------------------------------------------

    def _new_node(self, level: int) -> _Node:
        frame = self._allocator.alloc_frame(site=PT_ALLOC_SITE)
        node = _Node(level, self._allocator.frame_paddr(frame))
        self._nodes_by_level[level].append(node)
        return node

    def _child(self, node: _Node, index: int, create: bool) -> Optional[_Node]:
        child = node.entries.get(index)
        if child is None and create:
            child = self._new_node(node.level - 1)
            node.entries[index] = child
        if isinstance(child, Translation):
            return None
        return child

    # -- PageTable interface --------------------------------------------------

    def lookup(self, page: int) -> Optional[Translation]:
        # Unrolled descent with the level_index shifts inlined: this
        # runs on every TLB miss (fault check + walk refill), so the
        # loop/call overhead is worth trimming.
        mask = ENTRIES_PER_NODE - 1
        node = self._root
        for shift in (3 * LEVEL_BITS, 2 * LEVEL_BITS, LEVEL_BITS):
            entry = node.entries.get((page >> shift) & mask)
            if entry is None:
                return None
            if type(entry) is Translation:  # 2 MB leaf at PL2
                return entry
            node = entry
        leaf = node.entries.get(page & mask)
        return leaf if type(leaf) is Translation else None

    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        if page_shift == PAGE_SHIFT:
            self._map_small(page, pfn)
        elif page_shift == HUGE_PAGE_SHIFT:
            self._map_huge(page, pfn)
        else:
            raise MappingError(f"unsupported page_shift {page_shift}")

    def _map_small(self, page: int, pfn: int) -> None:
        # Inlined descent (this runs on every demand-paging fault).
        mask = ENTRIES_PER_NODE - 1
        node = self._root
        for level, shift in ((3, 3 * LEVEL_BITS), (2, 2 * LEVEL_BITS)):
            index = (page >> shift) & mask
            child = node.entries.get(index)
            if child is None:
                child = self._new_node(level)
                node.entries[index] = child
            node = child
        idx2 = (page >> LEVEL_BITS) & mask
        entry = node.entries.get(idx2)
        if type(entry) is Translation:
            raise MappingError(f"page {page:#x} lies inside a 2 MB mapping")
        if entry is None:
            entry = self._new_node(1)
            node.entries[idx2] = entry
        idx1 = page & mask
        if idx1 in entry.entries:
            raise MappingError(f"page {page:#x} already mapped")
        entry.entries[idx1] = Translation(pfn, PAGE_SHIFT)
        self._mapped_pages += 1

    def _map_huge(self, page: int, pfn: int) -> None:
        if page % ENTRIES_PER_NODE != 0:
            raise MappingError("2 MB mapping must be 512-page aligned")
        if (pfn << PAGE_SHIFT) % (1 << HUGE_PAGE_SHIFT):
            raise MappingError("2 MB mapping needs a 2 MB-aligned frame")
        node = self._root
        for level in (4, 3):
            node = self._child(node, level_index(page, level), create=True)
        idx2 = level_index(page, 2)
        if idx2 in node.entries:
            raise MappingError(f"PL2 slot for page {page:#x} already in use")
        node.entries[idx2] = Translation(
            pfn >> (HUGE_PAGE_SHIFT - PAGE_SHIFT), HUGE_PAGE_SHIFT)
        self._mapped_pages += ENTRIES_PER_NODE
        self.huge_mappings += 1

    def unmap_page(self, page: int) -> None:
        node = self._root
        for level in (4, 3):
            node = self._child(node, level_index(page, level), create=False)
            if node is None:
                raise MappingError(f"page {page:#x} not mapped")
        idx2 = level_index(page, 2)
        entry = node.entries.get(idx2)
        if isinstance(entry, Translation):
            del node.entries[idx2]
            self._mapped_pages -= ENTRIES_PER_NODE
            self.huge_mappings -= 1
            return
        if entry is None or level_index(page, 1) not in entry.entries:
            raise MappingError(f"page {page:#x} not mapped")
        del entry.entries[level_index(page, 1)]
        self._mapped_pages -= 1

    def walk_info(self, page: int):
        """One unrolled descent: 4 steps for a 4 KB page, 3 for a page
        inside a 2 MB mapping (see :meth:`PageTable.walk_info`)."""
        mask = ENTRIES_PER_NODE - 1
        node = self._root
        index = (page >> (3 * LEVEL_BITS)) & mask
        step4 = (node.base_paddr + index * PTE_SIZE,
                 page >> (3 * LEVEL_BITS))
        node = node.entries.get(index)
        if node is None:
            return None

        index = (page >> (2 * LEVEL_BITS)) & mask
        step3 = (node.base_paddr + index * PTE_SIZE,
                 page >> (2 * LEVEL_BITS))
        node = node.entries.get(index)
        if node is None:
            return None

        index = (page >> LEVEL_BITS) & mask
        step2 = (node.base_paddr + index * PTE_SIZE, page >> LEVEL_BITS)
        entry = node.entries.get(index)
        if entry is None:
            return None
        if type(entry) is Translation:  # 2 MB leaf: 3-step walk
            return (step4, step3, step2), None, entry

        index = page & mask
        leaf = entry.entries.get(index)
        if leaf is None:
            return None
        return ((step4, step3, step2,
                 (entry.base_paddr + index * PTE_SIZE, page)),
                None, leaf)

    def occupancy(self) -> Dict[str, float]:
        result = {}
        for level, nodes in self._nodes_by_level.items():
            if not nodes:
                continue
            used = sum(len(n.entries) for n in nodes)
            result[_LEVEL_NAMES[level]] = used / (
                len(nodes) * ENTRIES_PER_NODE)
        return result

    def node_count(self, level: int) -> int:
        """Number of allocated page-table pages at radix ``level``."""
        return len(self._nodes_by_level[level])

    def table_bytes(self) -> int:
        return sum(len(v) for v in self._nodes_by_level.values()) * PAGE_SIZE

    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages
