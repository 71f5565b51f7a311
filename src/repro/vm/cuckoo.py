"""Elastic cuckoo hash page table (ECH baseline, Skarlatos et al.).

The state-of-the-art hash-based page table the paper compares against
(mechanism (2) in Section VI).  Translations live in ``d`` ways, each a
flat array of 16-byte entries in physical memory; a lookup probes one
slot in every way *in parallel*, so walk latency is the max — not the
sum — of the probe latencies.  The cost is probe traffic: every walk
moves ``d`` cache lines, which is exactly the bandwidth pressure that
erodes ECH's advantage in the 8-core experiments (Fig. 14).

Elasticity: when the load factor crosses a threshold the table grows by
a configurable multiple and entries are rehashed.  The simulator charges
the OS-visible cost of rehashing at fault time (see
:mod:`repro.vm.os_model`), while this module keeps the functional
mechanics — displacement chains, bounded kicks, resize — faithful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.vm.address import PAGE_SHIFT, PAGE_SIZE
from repro.vm.base import MappingError, PageTable, Translation
from repro.vm.frames import FrameAllocator
from repro.vm.radix import PT_ALLOC_SITE

ECH_ENTRY_BYTES = 16  # VPN tag + PTE, as in the ECH paper


def _splitmix64(value: int) -> int:
    """Deterministic 64-bit mixer used as the per-way hash function."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


@dataclass(slots=True)
class CuckooStats:
    """Behavioural counters for the hash table."""

    inserts: int = 0
    kicks: int = 0
    resizes: int = 0
    rehashed_entries: int = 0


class _Way:
    """One hash way: a contiguous array of entries in physical memory."""

    __slots__ = ("salt", "size", "base_paddr", "slots")

    def __init__(self, salt: int, size: int, base_paddr: int):
        self.salt = salt
        self.size = size
        self.base_paddr = base_paddr
        # slot index -> (vpn, Translation)
        self.slots: Dict[int, tuple] = {}

    def index_of(self, page: int) -> int:
        return _splitmix64(page ^ self.salt) % self.size


class ElasticCuckooPageTable(PageTable):
    """d-ary elastic cuckoo hash table over 4 KB mappings.

    Args:
        allocator: physical memory source for the way arrays.
        ways: number of hash ways (d); ECH uses 3.
        initial_entries: starting slots per way.
        resize_threshold: grow when occupied/capacity exceeds this.
        growth_factor: multiplicative resize step (k in the ECH paper).
        max_kicks: displacement-chain bound before forcing a resize.
        seed: RNG seed for way salts and kick choices.
    """

    #: Every way probe is one access of the same, single level.
    level_names = ("ECH",)

    def __init__(self, allocator: FrameAllocator, ways: int = 2,
                 initial_entries: int = 1 << 14,
                 resize_threshold: float = 0.8,
                 growth_factor: float = 2.0,
                 max_kicks: int = 32,
                 seed: int = 0x5EED):
        if ways < 2:
            raise ValueError("cuckoo hashing needs at least 2 ways")
        self._allocator = allocator
        self._rng = random.Random(seed)
        self._ways_count = ways
        self._resize_threshold = resize_threshold
        self._growth_factor = growth_factor
        self._max_kicks = max_kicks
        self.stats = CuckooStats()
        self._table_bytes = 0
        self._ways: List[_Way] = [
            self._new_way(initial_entries) for _ in range(ways)
        ]
        self._mapped_pages = 0

    def _new_way(self, size: int) -> _Way:
        num_bytes = size * ECH_ENTRY_BYTES
        num_frames = -(-num_bytes // PAGE_SIZE)
        first = self._allocator.alloc_frame(site=PT_ALLOC_SITE)
        for _ in range(num_frames - 1):
            self._allocator.alloc_frame(site=PT_ALLOC_SITE)
        self._table_bytes += num_frames * PAGE_SIZE
        return _Way(self._rng.getrandbits(64), size,
                    self._allocator.frame_paddr(first))

    # -- functional operations ------------------------------------------------

    @property
    def load_factor(self) -> float:
        occupied = sum(len(w.slots) for w in self._ways)
        capacity = sum(w.size for w in self._ways)
        return occupied / capacity if capacity else 0.0

    def lookup(self, page: int) -> Optional[Translation]:
        for way in self._ways:
            entry = way.slots.get(way.index_of(page))
            if entry is not None and entry[0] == page:
                return entry[1]
        return None

    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        if page_shift != PAGE_SHIFT:
            raise MappingError(
                "this ECH instance holds the 4 KB table; huge pages would"
                " live in a separate table per the ECH design"
            )
        if self.lookup(page) is not None:
            raise MappingError(f"page {page:#x} already mapped")
        self.stats.inserts += 1
        self._insert(page, Translation(pfn, PAGE_SHIFT))
        self._mapped_pages += 1
        if self.load_factor > self._resize_threshold:
            self._resize()

    def _insert(self, page: int, translation: Translation) -> None:
        item = (page, translation)
        for _ in range(self._max_kicks):
            for way in self._ways:
                index = way.index_of(item[0])
                if index not in way.slots:
                    way.slots[index] = item
                    return
            # All candidate slots occupied: displace a random way's entry.
            way = self._ways[self._rng.randrange(self._ways_count)]
            index = way.index_of(item[0])
            item, way.slots[index] = way.slots[index], item
            self.stats.kicks += 1
        # Displacement chain too long -> grow and retry with the orphan.
        self._resize()
        self._insert(item[0], item[1])

    def _resize(self) -> None:
        self.stats.resizes += 1
        entries = [
            entry for way in self._ways for entry in way.slots.values()
        ]
        self.stats.rehashed_entries += len(entries)
        new_size = int(self._ways[0].size * self._growth_factor)
        self._ways = [
            self._new_way(new_size) for _ in range(self._ways_count)
        ]
        for page, translation in entries:
            self._insert(page, translation)

    def unmap_page(self, page: int) -> None:
        for way in self._ways:
            index = way.index_of(page)
            entry = way.slots.get(index)
            if entry is not None and entry[0] == page:
                del way.slots[index]
                self._mapped_pages -= 1
                return
        raise MappingError(f"page {page:#x} not mapped")

    # -- walker-facing structure ----------------------------------------------

    def walk_info(self, page: int):
        """One stage of ``d`` parallel way probes (nests disabled); the
        probes also resolve the translation, so one pass yields both
        (see :meth:`PageTable.walk_info`)."""
        translation = None
        probes = []
        for way in self._ways:
            index = _splitmix64(page ^ way.salt) % way.size
            probes.append((way.base_paddr + index * ECH_ENTRY_BYTES, None))
            entry = way.slots.get(index)
            if entry is not None and entry[0] == page:
                translation = entry[1]
        if translation is None:
            return None
        return None, tuple(probes), translation

    def occupancy(self) -> Dict[str, float]:
        return {
            f"ECH-way{i}": len(way.slots) / way.size
            for i, way in enumerate(self._ways)
        }

    def table_bytes(self) -> int:
        return self._table_bytes

    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages
