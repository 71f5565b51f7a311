"""Flattened L2/L1 page table — NDPage's second mechanism (Section V-B).

The bottom two radix levels are merged: each PL3 entry points at a
single 2 MB node holding 2^18 PTEs, indexed by the concatenated 18 bits
that PL2 and PL1 would have consumed separately (Fig. 9).  A walk
therefore takes three sequential accesses instead of four while mappings
stay 4 KB — the property that saves Huge Page's blow-ups in the 8-core
evaluation (Section VII-B).

Flattened nodes are physically contiguous 2 MB allocations; the paper
notes the extra space is negligible next to the data footprint, and the
table allocates nodes lazily exactly like the radix tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.vm.address import (
    ENTRIES_PER_NODE,
    FLAT_ENTRIES,
    FLAT_LEVEL_BITS,
    LEVEL_BITS,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_SIZE,
    flat_index,
    level_index,
)
from repro.vm.base import MappingError, PageTable, Translation
from repro.vm.frames import FRAMES_PER_BLOCK, FrameAllocator, OutOfMemoryError
from repro.vm.radix import PT_ALLOC_SITE


class _InteriorNode:
    """A conventional 4 KB node (used at PL4 and PL3)."""

    __slots__ = ("base_paddr", "entries")

    def __init__(self, base_paddr: int):
        self.base_paddr = base_paddr
        self.entries: Dict[int, object] = {}


class _FlatNode:
    """A merged L2/L1 node: one 2 MB page of 2^18 PTEs."""

    __slots__ = ("base_paddr", "entries")

    def __init__(self, base_paddr: int):
        self.base_paddr = base_paddr
        self.entries: Dict[int, Translation] = {}


class FlattenedPageTable(PageTable):
    """PL4 -> PL3 -> flattened PL2/1 page table (4 KB pages only)."""

    level_names = ("PL4", "PL3", "PL2/1")

    def __init__(self, allocator: FrameAllocator):
        self._allocator = allocator
        self._root = self._new_interior()
        self._interior_nodes = 1
        self._flat_nodes: List[_FlatNode] = []
        self._mapped_pages = 0

    def _new_interior(self) -> _InteriorNode:
        frame = self._allocator.alloc_frame(site=PT_ALLOC_SITE)
        return _InteriorNode(self._allocator.frame_paddr(frame))

    def _new_flat(self) -> _FlatNode:
        first_frame = self._allocator.alloc_huge()
        if first_frame is None:
            raise OutOfMemoryError(
                "no contiguous 2 MB block for a flattened page-table node"
            )
        node = _FlatNode(self._allocator.frame_paddr(first_frame))
        self._flat_nodes.append(node)
        return node

    def _flat_node_for(self, page: int, create: bool) -> Optional[_FlatNode]:
        node = self._root
        idx4 = level_index(page, 4)
        child = node.entries.get(idx4)
        if child is None:
            if not create:
                return None
            child = self._new_interior()
            self._interior_nodes += 1
            node.entries[idx4] = child
        idx3 = level_index(page, 3)
        flat = child.entries.get(idx3)
        if flat is None and create:
            flat = self._new_flat()
            child.entries[idx3] = flat
        return flat

    # -- PageTable interface --------------------------------------------------

    def lookup(self, page: int) -> Optional[Translation]:
        # Inlined descent (this runs on every TLB miss).
        mask = ENTRIES_PER_NODE - 1
        child = self._root.entries.get((page >> (3 * LEVEL_BITS)) & mask)
        if child is None:
            return None
        flat = child.entries.get((page >> (2 * LEVEL_BITS)) & mask)
        if flat is None:
            return None
        return flat.entries.get(page & (FLAT_ENTRIES - 1))

    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        if page_shift != PAGE_SHIFT:
            raise MappingError(
                "flattened table keeps 4 KB flexibility; 2 MB mappings "
                "are intentionally unsupported"
            )
        flat = self._flat_node_for(page, create=True)
        index = flat_index(page)
        if index in flat.entries:
            raise MappingError(f"page {page:#x} already mapped")
        flat.entries[index] = Translation(pfn, PAGE_SHIFT)
        self._mapped_pages += 1

    def unmap_page(self, page: int) -> None:
        flat = self._flat_node_for(page, create=False)
        if flat is None or flat_index(page) not in flat.entries:
            raise MappingError(f"page {page:#x} not mapped")
        del flat.entries[flat_index(page)]
        self._mapped_pages -= 1

    def walk_info(self, page: int):
        """One descent, three steps: PL4, PL3 and the flattened PL2/1
        leaf (see :meth:`PageTable.walk_info`)."""
        mask = ENTRIES_PER_NODE - 1
        node = self._root
        idx4 = (page >> (3 * LEVEL_BITS)) & mask
        step4 = (node.base_paddr + idx4 * PTE_SIZE, page >> (3 * LEVEL_BITS))
        child = node.entries.get(idx4)
        if child is None:
            return None
        idx3 = (page >> (2 * LEVEL_BITS)) & mask
        step3 = (child.base_paddr + idx3 * PTE_SIZE,
                 page >> (2 * LEVEL_BITS))
        flat = child.entries.get(idx3)
        if flat is None:
            return None
        index = page & (FLAT_ENTRIES - 1)
        leaf = flat.entries.get(index)
        if leaf is None:
            return None
        return ((step4, step3, (flat.base_paddr + index * PTE_SIZE, page)),
                None, leaf)

    def occupancy(self) -> Dict[str, float]:
        result: Dict[str, float] = {}
        root_used = len(self._root.entries)
        result["PL4"] = root_used / ENTRIES_PER_NODE
        pl3_nodes = [
            child for child in self._root.entries.values()
        ]
        if pl3_nodes:
            used = sum(len(n.entries) for n in pl3_nodes)
            result["PL3"] = used / (len(pl3_nodes) * ENTRIES_PER_NODE)
        if self._flat_nodes:
            used = sum(len(n.entries) for n in self._flat_nodes)
            result["PL2/1"] = used / (len(self._flat_nodes) * FLAT_ENTRIES)
        return result

    def table_bytes(self) -> int:
        flat_bytes = len(self._flat_nodes) * FRAMES_PER_BLOCK * PAGE_SIZE
        return self._interior_nodes * PAGE_SIZE + flat_bytes

    @property
    def flat_node_count(self) -> int:
        """Allocated flattened nodes (each covers 1 GB of VA)."""
        return len(self._flat_nodes)

    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages


def flattened_coverage_bytes() -> int:
    """Virtual address span covered by one flattened node (1 GB)."""
    return (1 << FLAT_LEVEL_BITS) * PAGE_SIZE
