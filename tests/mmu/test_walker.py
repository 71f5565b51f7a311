"""Tests for the page-table walker: PWC skipping, bypass, parallelism."""

import pytest

from repro.core.bypass import MetadataBypass, NoBypass
from repro.mem.dram import HBM2
from repro.mem.hierarchy import build_ndp_hierarchy
from repro.mem.request import RequestKind
from repro.mmu.pwc import PwcSet
from repro.mmu.walker import PageTableWalker
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FrameAllocator
from repro.vm.ideal import IdealPageTable
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2


def walk(walker, now, page):
    """Walk ``page`` through the table's walk and the timing entry point.

    Returns ``(latency, memory_accesses, pwc_hit_level)``: the access
    count is the walk's delta of ``stats.memory_accesses`` and the hit
    level is the deepest PWC level whose hit count moved (None when no
    level hit).
    """
    caches = walker.pwcs.caches() if walker.pwcs is not None else {}
    hits_before = {level: c.stats.hits for level, c in caches.items()}
    accesses_before = walker.stats.memory_accesses
    latency = walker.walk_from_plan(now, *walker.table.walk_info(page)[:2])
    hit_level = None
    for level, cache in caches.items():
        if cache.stats.hits > hits_before[level]:
            hit_level = level
    return (latency, walker.stats.memory_accesses - accesses_before,
            hit_level)


@pytest.fixture
def hierarchy():
    return build_ndp_hierarchy(1, HBM2)


@pytest.fixture
def radix_setup(hierarchy):
    allocator = FrameAllocator(64 * MIB)
    table = RadixPageTable(allocator)
    table.map_page(0x12345, pfn=5)
    return table, hierarchy


class TestSequentialWalk:
    def test_four_memory_accesses_without_pwc(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0)
        _, accesses, hit_level = walk(walker, 0.0, 0x12345)
        assert accesses == 4
        assert hit_level is None

    def test_walk_latency_accumulates_sequentially(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0)
        latency, _, _ = walk(walker, 0.0, 0x12345)
        # Four sequential accesses, each at least an L1 lookup.
        assert latency >= 4 * hierarchy.l1ds[0].hit_latency

    def test_stats_recorded(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0)
        walk(walker, 0.0, 0x12345)
        walk(walker, 1000.0, 0x12345)
        assert walker.stats.walks == 2
        assert walker.stats.latency.count == 2

    def test_metadata_kind_used(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0)
        walk(walker, 0.0, 0x12345)
        assert hierarchy.l1ds[0].stats.metadata.accesses == 4
        assert hierarchy.l1ds[0].stats.data.accesses == 0


class TestPwcSkipping:
    def test_second_walk_skips_cached_levels(self, radix_setup):
        table, hierarchy = radix_setup
        pwcs = PwcSet(("PL4", "PL3", "PL2", "PL1"))
        walker = PageTableWalker(table, hierarchy, core_id=0, pwcs=pwcs)
        _, first_accesses, _ = walk(walker, 0.0, 0x12345)
        _, second_accesses, hit_level = walk(walker, 10_000.0, 0x12345)
        assert first_accesses == 4
        assert second_accesses == 0  # PL1 PWC hit: full skip
        assert hit_level == "PL1"

    def test_partial_skip_resumes_below_hit(self, radix_setup):
        table, hierarchy = radix_setup
        table.map_page(0x12345 + 1, pfn=6)  # same PL2 prefix
        pwcs = PwcSet(("PL4", "PL3", "PL2", "PL1"))
        walker = PageTableWalker(table, hierarchy, core_id=0, pwcs=pwcs)
        walk(walker, 0.0, 0x12345)
        _, accesses, hit_level = walk(walker, 10_000.0, 0x12345 + 1)
        assert hit_level == "PL2"
        assert accesses == 1  # only PL1 fetched

    def test_pwc_levels_restricted(self, radix_setup):
        table, hierarchy = radix_setup
        pwcs = PwcSet(("PL4", "PL3"))  # no PL2/PL1 caches
        walker = PageTableWalker(table, hierarchy, core_id=0, pwcs=pwcs)
        walk(walker, 0.0, 0x12345)
        _, accesses, _ = walk(walker, 10_000.0, 0x12345)
        assert accesses == 2  # PL2 and PL1 every time

    def test_pwc_hit_rates_observable(self, radix_setup):
        table, hierarchy = radix_setup
        pwcs = PwcSet(("PL4", "PL3", "PL2", "PL1"))
        walker = PageTableWalker(table, hierarchy, core_id=0, pwcs=pwcs)
        walk(walker, 0.0, 0x12345)
        walk(walker, 10_000.0, 0x12345)
        assert pwcs.caches()["PL1"].stats.hit_rate == 0.5


class TestBypass:
    def test_bypass_keeps_ptes_out_of_l1(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0,
                                 bypass=MetadataBypass())
        walk(walker, 0.0, 0x12345)
        assert hierarchy.l1ds[0].stats.metadata.accesses == 0
        assert hierarchy.stats.l1_bypasses == 4

    def test_no_bypass_fills_l1(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0,
                                 bypass=NoBypass())
        walk(walker, 0.0, 0x12345)
        counts = hierarchy.l1ds[0].resident_kind_counts()
        assert counts[RequestKind.METADATA] == 4

    def test_selective_bypass(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(
            table, hierarchy, core_id=0,
            bypass=MetadataBypass(levels=("PL1",)))
        walk(walker, 0.0, 0x12345)
        assert hierarchy.stats.l1_bypasses == 1


class TestParallelStages:
    def test_ech_walk_is_single_parallel_stage(self, hierarchy):
        allocator = FrameAllocator(256 * MIB)
        table = ElasticCuckooPageTable(allocator, initial_entries=1 << 10)
        table.map_page(7, pfn=1)
        walker = PageTableWalker(table, hierarchy, core_id=0)
        _, accesses, _ = walk(walker, 0.0, 7)
        assert accesses == 2

    def test_parallel_latency_is_max_not_sum(self, hierarchy):
        allocator = FrameAllocator(256 * MIB)
        table = ElasticCuckooPageTable(allocator, initial_entries=1 << 10)
        table.map_page(7, pfn=1)
        walker = PageTableWalker(table, hierarchy, core_id=0)
        parallel, _, _ = walk(walker, 0.0, 7)

        radix = RadixPageTable(FrameAllocator(64 * MIB))
        radix.map_page(7, pfn=1)
        seq_hierarchy = build_ndp_hierarchy(1, HBM2)
        seq, _, _ = walk(
            PageTableWalker(radix, seq_hierarchy, core_id=0), 0.0, 7)
        # 2 parallel probes must be well under 4 sequential accesses.
        assert parallel < seq

    def test_ideal_walk_free(self, hierarchy):
        table = IdealPageTable()
        table.map_page(3, pfn=1)
        walker = PageTableWalker(table, hierarchy, core_id=0)
        latency, accesses, _ = walk(walker, 0.0, 3)
        assert latency == 0.0
        assert accesses == 0
