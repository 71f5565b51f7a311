"""Tests for page-walk caches, driven through the walker.

The walker probes, refreshes and fills the per-level PWC sets inline
(:meth:`PageTableWalker.walk_from_plan`), so every case here walks a
small radix table.  Radix PWC keys are the translation prefix a level
consumes: ``page`` at PL1, ``page >> 9`` at PL2, and so on.  A PL1 hit
skips the whole walk, so with a PL1 cache a walk that fetches no PTE
is a hit.
"""

import pytest

from repro.mem.dram import HBM2
from repro.mem.hierarchy import build_ndp_hierarchy
from repro.mmu.pwc import PwcSet
from repro.mmu.walker import PageTableWalker
from repro.vm.frames import FrameAllocator
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2
RADIX_LEVELS = ("PL4", "PL3", "PL2", "PL1")


def make_walker(pwcs, pages=range(4), asid=0, allocator=None):
    """A walker over a radix table with ``pages`` mapped."""
    table = RadixPageTable(allocator or FrameAllocator(64 * MIB))
    for page in pages:
        table.map_page(page, pfn=page + 1)
    return PageTableWalker(table, build_ndp_hierarchy(1, HBM2),
                           core_id=0, pwcs=pwcs, asid=asid)


def walk(walker, page):
    """Walk ``page``; return the number of PTEs fetched from memory."""
    before = walker.stats.memory_accesses
    walker.walk_from_plan(0.0, *walker.table.walk_info(page)[:2])
    return walker.stats.memory_accesses - before


def stats(pwcs, level):
    return pwcs.caches()[level].stats


class TestPageWalkCache:
    def test_cold_miss(self):
        pwcs = PwcSet(RADIX_LEVELS)
        walker = make_walker(pwcs)
        assert walk(walker, 0) == 4
        for level in RADIX_LEVELS:
            assert stats(pwcs, level).hits == 0
            assert stats(pwcs, level).misses == 1

    def test_insert_then_hit(self):
        """A miss fills the level, so the next walk of the page hits."""
        pwcs = PwcSet(("PL1",))
        walker = make_walker(pwcs)
        assert walk(walker, 0) == 4
        assert walk(walker, 0) == 0
        assert stats(pwcs, "PL1").hits == 1
        assert stats(pwcs, "PL1").misses == 1

    def test_capacity_bounded(self):
        """A full set evicts its oldest entry on every further fill."""
        pwcs = PwcSet(("PL1",), entries=8, associativity=2)
        walker = make_walker(pwcs, pages=range(100))
        for page in range(100):
            walk(walker, page)
        sets = pwcs.caches()["PL1"]._sets
        assert [len(s) for s in sets] == [2, 2, 2, 2]
        assert walk(walker, 0) == 4      # long evicted
        assert walk(walker, 99) == 0     # still resident

    def test_lru_refresh(self):
        pwcs = PwcSet(("PL1",), entries=2, associativity=2)
        walker = make_walker(pwcs)
        walk(walker, 0)
        walk(walker, 1)
        assert walk(walker, 0) == 0      # hit: page 0 becomes MRU
        walk(walker, 2)                  # evicts page 1, not page 0
        assert walk(walker, 0) == 0
        assert walk(walker, 1) == 4

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            PwcSet(("PL4",), entries=5, associativity=2)

    def test_flush(self):
        pwcs = PwcSet(("PL1",))
        walker = make_walker(pwcs)
        walk(walker, 0)
        pwcs.flush()
        assert pwcs.flushes == 1
        assert walk(walker, 0) == 4


class TestPwcSet:
    def test_levels_present(self):
        """Each named level gets a cache; a level the table never walks
        is never probed."""
        pwcs = PwcSet(("PL4", "PL3", "PL2/1"))
        assert sorted(pwcs.caches()) == ["PL2/1", "PL3", "PL4"]
        walk(make_walker(pwcs), 0)
        assert stats(pwcs, "PL4").accesses == 1
        assert stats(pwcs, "PL2/1").accesses == 0

    def test_hit_rates_per_level(self):
        pwcs = PwcSet(("PL4", "PL3"))
        walker = make_walker(pwcs, pages=(0, 1 << 18))
        walk(walker, 0)
        walk(walker, 1 << 18)            # same PL4 prefix, new PL3 one
        assert stats(pwcs, "PL4").hit_rate == 0.5
        assert stats(pwcs, "PL3").hit_rate == 0.0

    def test_caches_accessor_is_copy(self):
        pwcs = PwcSet(("PL4",))
        caches = pwcs.caches()
        caches.clear()
        assert "PL4" in pwcs.caches()

    def test_flush_all(self):
        """Flush clears every level in place: the walker's bound sets
        see the flush and keep filling afterwards."""
        pwcs = PwcSet(RADIX_LEVELS)
        walker = make_walker(pwcs)
        walk(walker, 0)
        pwcs.flush()
        assert walk(walker, 0) == 4
        assert walk(walker, 0) == 0
        pwcs.flush()
        assert pwcs.flushes == 2
        assert all(not s for level in RADIX_LEVELS
                   for s in pwcs.caches()[level]._sets)

    def test_asid_tagged_walkers_share_without_aliasing(self):
        """Two address spaces map the same page number; their walkers
        share one PwcSet, and neither hits on the other's entries."""
        pwcs = PwcSet(RADIX_LEVELS)
        allocator = FrameAllocator(64 * MIB)
        first = make_walker(pwcs, asid=0, allocator=allocator)
        second = make_walker(pwcs, asid=1, allocator=allocator)
        assert walk(first, 0) == 4
        assert walk(second, 0) == 4      # no hit on asid 0's prefixes
        assert walk(first, 0) == 0       # both sets of entries coexist
        assert walk(second, 0) == 0
        for level in RADIX_LEVELS:
            assert stats(pwcs, level).misses == 2
