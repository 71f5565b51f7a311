"""Tests for the OS memory manager: demand paging, THP, reclaim."""

import pytest

from repro.vm.address import HUGE_PAGE_SHIFT, PAGE_SIZE
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FrameAllocator, OutOfMemoryError
from repro.vm.os_model import (
    OSMemoryManager,
    PagingPolicy,
    huge_region_of,
    pages_per_huge_region,
    region_base_page,
)
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2


def make_os(phys=64 * MIB, policy=PagingPolicy.SMALL, frag=0.0,
            promo=1.0, **alloc_kwargs):
    allocator = FrameAllocator(phys, fragmentation=frag, **alloc_kwargs)
    table = RadixPageTable(allocator)
    return OSMemoryManager(allocator, table, policy=policy,
                           thp_promotion_fraction=promo)


class TestDemandPaging:
    def test_first_touch_faults(self):
        os = make_os()
        cycles = os.ensure_mapped(0x1000_0000)
        assert cycles == os.costs.minor_fault_cycles
        assert os.stats.minor_faults == 1

    def test_second_touch_free(self):
        os = make_os()
        os.ensure_mapped(0x1000_0000)
        assert os.ensure_mapped(0x1000_0008) == 0.0

    def test_distinct_pages_fault_separately(self):
        os = make_os()
        os.ensure_mapped(0)
        os.ensure_mapped(PAGE_SIZE)
        assert os.stats.minor_faults == 2

    def test_mapping_installed(self):
        os = make_os()
        os.ensure_mapped(0x5000)
        assert os.page_table.lookup(5) is not None

    def test_fault_cycles_accumulate(self):
        os = make_os()
        os.ensure_mapped(0)
        os.ensure_mapped(PAGE_SIZE)
        assert os.stats.fault_cycles \
            == 2 * os.costs.minor_fault_cycles

    def test_metadata_bytes_tracks_page_table(self):
        os = make_os()
        before = os.metadata_bytes()
        os.ensure_mapped(1 << 40)  # new subtree
        assert os.metadata_bytes() > before


class TestFaultIn:
    """The batched warmup fault loop matches per-address faulting."""

    @staticmethod
    def state(os):
        table = os.page_table
        return (os.stats, table.mapped_pages,
                [(r.page, r.frame, r.huge) for r in os._lru_frames],
                os.allocator.free_frames)

    @pytest.mark.parametrize("policy,phys", [
        (PagingPolicy.SMALL, 64 * MIB),
        (PagingPolicy.HUGE, 64 * MIB),
        (PagingPolicy.SMALL, 4 * MIB),   # reclaims mid-batch
        (PagingPolicy.HUGE, 8 * MIB),    # compaction and fallback
    ])
    def test_matches_ensure_mapped(self, policy, phys):
        vaddrs = [(i * 7919 % 3000) * PAGE_SIZE + 8 * i
                  for i in range(4000)]
        vaddrs += [(1 << 40) + i * PAGE_SIZE for i in range(300)]
        batched = make_os(phys=phys, policy=policy, frag=0.3)
        single = make_os(phys=phys, policy=policy, frag=0.3)
        assert batched.fault_in(vaddrs, site=1) == len(vaddrs)
        for vaddr in vaddrs:
            single.ensure_mapped(vaddr, site=1)
        assert self.state(batched) == self.state(single)

    def test_ech_rehash_charged_per_fault(self):
        def ech_os():
            allocator = FrameAllocator(64 * MIB)
            return OSMemoryManager(
                allocator, ElasticCuckooPageTable(allocator,
                                                  initial_entries=64))
        batched, single = ech_os(), ech_os()
        vaddrs = [i * PAGE_SIZE for i in range(2000)]
        batched.fault_in(vaddrs)
        for vaddr in vaddrs:
            single.ensure_mapped(vaddr)
        assert batched.stats.fault_cycles == single.stats.fault_cycles
        assert batched.stats.fault_cycles \
            > 2000 * batched.costs.minor_fault_cycles

    def test_seen_pages_skipped_and_recorded(self):
        os = make_os()
        seen = {0}
        assert os.fault_in([0, 8, PAGE_SIZE, PAGE_SIZE + 8], seen=seen) \
            == 4
        assert os.page_table.lookup(0) is None  # trusted, not looked up
        assert os.stats.minor_faults == 1
        assert seen == {0, 1}

    def test_reclaim_stops_a_seen_batch(self):
        os = make_os(phys=4 * MIB)
        vaddrs = [i * PAGE_SIZE for i in range(os.allocator.num_frames
                                                + 50)]
        seen = set()
        done = os.fault_in(vaddrs, seen=seen)
        assert 0 < done < len(vaddrs)
        assert os.stats.reclaims == 1
        assert len(seen) == done
        # Without a seen-set nothing goes stale: the rest runs through.
        assert os.fault_in(vaddrs[done:]) == len(vaddrs) - done
        assert os.stats.reclaims > 1


class TestHugePolicy:
    def test_huge_fault_maps_whole_region(self):
        os = make_os(policy=PagingPolicy.HUGE)
        cycles = os.ensure_mapped(0)
        assert cycles == os.costs.huge_fault_cycles
        assert os.stats.huge_faults == 1
        translation = os.page_table.lookup(100)
        assert translation is not None
        assert translation.page_shift == HUGE_PAGE_SHIFT

    def test_neighbouring_touch_in_region_free(self):
        os = make_os(policy=PagingPolicy.HUGE)
        os.ensure_mapped(0)
        assert os.ensure_mapped(100 * PAGE_SIZE) == 0.0

    def test_promotion_fraction_zero_degenerates_to_small(self):
        os = make_os(policy=PagingPolicy.HUGE, promo=0.0)
        os.ensure_mapped(0)
        assert os.stats.huge_faults == 0
        assert os.stats.minor_faults == 1
        assert os.stats.huge_fallbacks == 1

    def test_promotion_fraction_partial(self):
        os = make_os(phys=512 * MIB, policy=PagingPolicy.HUGE, promo=0.5)
        for region in range(100):
            os.ensure_mapped(region * (1 << HUGE_PAGE_SHIFT))
        assert 20 <= os.stats.huge_faults <= 80
        assert os.stats.huge_faults + os.stats.huge_fallbacks == 100

    def test_promotion_decision_stable(self):
        os1 = make_os(policy=PagingPolicy.HUGE, promo=0.5)
        os2 = make_os(policy=PagingPolicy.HUGE, promo=0.5)
        assert [os1._promotable(r) for r in range(64)] \
            == [os2._promotable(r) for r in range(64)]

    def test_contiguity_exhaustion_falls_back(self):
        os = make_os(phys=8 * MIB, policy=PagingPolicy.HUGE)
        os.allocator.reserved = None
        touched = 0
        while os.allocator.free_block_count:
            os.ensure_mapped(touched * (1 << HUGE_PAGE_SHIFT))
            touched += 1
        cycles = os.ensure_mapped(touched * (1 << HUGE_PAGE_SHIFT))
        assert os.stats.huge_fallbacks >= 1
        assert os.stats.compactions >= 1
        assert cycles >= os.costs.compaction_cycles

    def test_fallback_region_stays_4kb(self):
        os = make_os(policy=PagingPolicy.HUGE, promo=0.0)
        os.ensure_mapped(0)
        os.ensure_mapped(PAGE_SIZE)
        assert os.stats.minor_faults == 2
        assert os.stats.huge_fallbacks == 2

    def test_ideal_tables_never_go_huge(self):
        from repro.vm.ideal import IdealPageTable
        allocator = FrameAllocator(64 * MIB)
        os = OSMemoryManager(allocator, IdealPageTable(),
                             policy=PagingPolicy.HUGE)
        os.ensure_mapped(0)
        assert os.stats.huge_faults == 0
        assert os.stats.minor_faults == 1


class TestReclaim:
    def test_small_pages_reclaimed_under_pressure(self):
        os = make_os(phys=4 * MIB)
        pages = os.allocator.num_frames + 50
        for i in range(pages):
            os.ensure_mapped(i * PAGE_SIZE)
        assert os.stats.reclaims >= 50
        # Early pages were evicted (FIFO) to make room.
        assert os.page_table.lookup(0) is None

    def test_reclaimed_page_refaults(self):
        os = make_os(phys=4 * MIB)
        pages = os.allocator.num_frames + 10
        for i in range(pages):
            os.ensure_mapped(i * PAGE_SIZE)
        faults_before = os.stats.minor_faults
        os.ensure_mapped(0)  # page 0 was reclaimed
        assert os.stats.minor_faults == faults_before + 1

    def test_huge_mappings_broken_up_as_last_resort(self):
        os = make_os(phys=8 * MIB, policy=PagingPolicy.HUGE)
        # Fill memory entirely with huge mappings.
        region = 0
        while os.allocator.free_block_count:
            os.ensure_mapped(region * (1 << HUGE_PAGE_SHIFT))
            region += 1
        # Burn remaining small frames, then demand more.
        for i in range(os.allocator.free_frames + 5):
            os.ensure_mapped((1 << 40) + i * PAGE_SIZE)
        assert os.stats.reclaims > 0


class TestReclaimUnderSustainedPressure:
    """_reclaim_one corner cases: pool exhaustion, promotion-then-
    reclaim interleavings, stale records, and the reclaim hooks."""

    def test_sustained_pressure_is_stable(self):
        """Faulting far past capacity keeps working set-sized memory
        resident and never leaks frames."""
        os = make_os(phys=4 * MIB)
        capacity = os.allocator.num_frames
        for i in range(3 * capacity):
            os.ensure_mapped(i * PAGE_SIZE)
        assert os.stats.reclaims >= 2 * capacity - 100
        # Conservation: every frame is either mapped or free.
        assert os.allocator.free_frames >= 0
        assert os.page_table.mapped_pages <= capacity
        # FIFO: the newest pages survive, the oldest are gone.
        assert os.page_table.lookup(3 * capacity - 1) is not None
        assert os.page_table.lookup(0) is None

    def test_refault_reclaim_cycle_converges(self):
        """Ping-ponging over a 2x-capacity working set churns but
        every touch still lands a mapping."""
        os = make_os(phys=4 * MIB)
        working_set = 2 * os.allocator.num_frames
        for _ in range(3):
            for i in range(working_set):
                os.ensure_mapped(i * PAGE_SIZE)
                assert os.page_table.lookup(i) is not None

    def test_stale_records_skipped(self):
        """A record whose page was unmapped behind the OS's back (a
        peer's cross-tenant reclaim does this) must be skipped, not
        double-freed."""
        os = make_os()
        os.ensure_mapped(0)
        os.ensure_mapped(PAGE_SIZE)
        os.page_table.unmap_page(0)  # page 0's record is now stale
        frees_before = os.allocator.stats.frees
        os._reclaim_one()
        # Exactly one frame came back, and it was page 1's — the
        # stale page-0 record freed nothing.
        assert os.allocator.stats.frees == frees_before + 1
        assert os.page_table.lookup(PAGE_SIZE >> 12) is None
        assert os.stats.reclaims == 1

    def test_promotion_then_reclaim_interleaving(self):
        """Huge faults racing small faults under exhaustion: small
        pages are evicted first, huge blocks only as a last resort,
        and broken-up blocks replenish the contiguity pool."""
        os = make_os(phys=8 * MIB, policy=PagingPolicy.HUGE)
        region = 0
        # Alternate huge-region touches with 4 KB touches in fallback
        # regions until the whole pool has turned over once.
        os._fallback_regions.add(10_000)  # force a 4 KB arena
        small_base = region_base_page(10_000) * PAGE_SIZE
        touched_small = 0
        capacity = os.allocator.num_frames
        while os.stats.reclaims < 20:
            os.ensure_mapped(region * (1 << HUGE_PAGE_SHIFT))
            region += 1
            for _ in range(64):
                os.ensure_mapped(small_base
                                 + touched_small * PAGE_SIZE)
                touched_small += 1
            assert touched_small < 2 * capacity, \
                "pressure never produced reclaim"
        # Both kinds were created, and memory stayed consistent.
        assert os.stats.huge_faults > 0
        assert os.stats.minor_faults > 0
        assert os.allocator.free_frames >= 0

    def test_huge_breakup_returns_whole_block(self):
        os = make_os(phys=8 * MIB, policy=PagingPolicy.HUGE)
        region = 0
        while os.allocator.free_block_count:
            os.ensure_mapped(region * (1 << HUGE_PAGE_SHIFT))
            region += 1
        # Drop the small-page records so only huge mappings remain,
        # then force a reclaim: a whole 2 MB block must come back.
        os._lru_frames = type(os._lru_frames)(
            r for r in os._lru_frames if r.huge)
        fault_cycles_before = os.stats.fault_cycles
        os._reclaim_one()
        assert os.allocator.free_block_count >= 1
        assert os.stats.fault_cycles - fault_cycles_before \
            == 4 * os.costs.reclaim_cycles

    def test_exhaustion_raises_when_nothing_reclaimable(self):
        os = make_os(phys=4 * MIB)
        for i in range(100):
            os.ensure_mapped(i * PAGE_SIZE)
        os._lru_frames.clear()   # nothing left to evict
        with pytest.raises(OutOfMemoryError):
            while True:
                os._reclaim_one()

    def test_on_unmap_hook_sees_each_eviction(self):
        events = []
        allocator = FrameAllocator(4 * MIB)
        table = RadixPageTable(allocator)
        os = OSMemoryManager(allocator, table,
                             on_unmap=lambda page, huge:
                             events.append((page, huge)))
        for i in range(allocator.num_frames + 20):
            os.ensure_mapped(i * PAGE_SIZE)
        assert len(events) == os.stats.reclaims > 0
        assert all(not huge for _, huge in events)
        # FIFO order: evictions follow touch order.
        pages = [page for page, _ in events]
        assert pages == sorted(pages)

    def test_peer_reclaim_consulted_before_oom(self):
        calls = []
        allocator = FrameAllocator(4 * MIB)
        table = RadixPageTable(allocator)
        other = OSMemoryManager(allocator, RadixPageTable(allocator))
        # Give the peer something to give up.
        other.ensure_mapped(0)

        def steal():
            calls.append(True)
            try:
                other._reclaim_one()
            except OutOfMemoryError:
                return False
            return True

        os = OSMemoryManager(allocator, table, peer_reclaim=steal)
        page = 0
        while allocator.free_frames > 0:
            os.ensure_mapped(page * PAGE_SIZE)
            page += 1
        os._lru_frames.clear()
        os.ensure_mapped(page * PAGE_SIZE)  # must not raise
        assert calls
        assert other.page_table.lookup(0) is None


class TestEchRehashCharging:
    def test_rehash_cost_charged_on_fault(self):
        allocator = FrameAllocator(256 * MIB)
        table = ElasticCuckooPageTable(allocator, initial_entries=64,
                                       resize_threshold=0.5)
        os = OSMemoryManager(allocator, table)
        total = 0.0
        for i in range(200):
            total += os.ensure_mapped(i * PAGE_SIZE)
        base = 200 * os.costs.minor_fault_cycles
        expected_extra = (table.stats.rehashed_entries
                          * os.costs.ech_rehash_cycles_per_entry)
        assert total == pytest.approx(base + expected_extra)
        assert expected_extra > 0


class TestHelpers:
    def test_region_roundtrip(self):
        assert region_base_page(huge_region_of(1000)) <= 1000
        assert huge_region_of(region_base_page(77)) == 77

    def test_pages_per_region(self):
        assert pages_per_huge_region() == 512

    def test_invalid_promotion_fraction(self):
        allocator = FrameAllocator(64 * MIB)
        with pytest.raises(ValueError):
            OSMemoryManager(allocator, RadixPageTable(allocator),
                            thp_promotion_fraction=1.5)
