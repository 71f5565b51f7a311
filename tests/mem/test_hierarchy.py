"""Tests for memory-hierarchy composition and the L1 bypass path."""

import pytest

from repro.mem.dram import DDR4_2400, HBM2
from repro.mem.hierarchy import build_cpu_hierarchy, build_ndp_hierarchy
from repro.mem.request import KIND_DATA, KIND_METADATA, RequestKind


def data(hierarchy, now, paddr, core=0, write=False):
    return hierarchy.access_fast(now, paddr, KIND_DATA, int(write),
                                 core, 0)


def meta(hierarchy, now, paddr, core=0, bypass=False):
    return hierarchy.access_fast(now, paddr, KIND_METADATA, 0, core,
                                 int(bypass))


@pytest.fixture
def ndp():
    return build_ndp_hierarchy(2, HBM2)


@pytest.fixture
def cpu():
    return build_cpu_hierarchy(2, DDR4_2400)


class TestShapes:
    def test_ndp_has_single_cache_level(self, ndp):
        assert ndp.l2s is None
        assert ndp.l3 is None
        assert len(ndp.l1ds) == 2

    def test_cpu_has_three_levels(self, cpu):
        assert len(cpu.l2s) == 2
        assert cpu.l3 is not None

    def test_cpu_l3_scales_with_cores(self):
        assert build_cpu_hierarchy(4, DDR4_2400).l3.size_bytes \
            == 4 * 2 * 1024 * 1024

    def test_l2_count_must_match(self, ndp):
        from repro.mem.hierarchy import MemoryHierarchy
        with pytest.raises(ValueError):
            MemoryHierarchy(ndp.l1ds, ndp.dram, ndp.noc, l2s=[])


class TestLatencies:
    def test_l1_hit_costs_l1_latency(self, ndp):
        data(ndp, 0.0, 0)
        assert data(ndp, 1000.0, 0) == 4.0

    def test_ndp_miss_goes_to_dram(self, ndp):
        latency = data(ndp, 0.0, 0)
        # L1 lookup + 2x NoC + DRAM row miss.
        assert latency == 4 + 5 + HBM2.row_miss_cycles + 5

    def test_cpu_miss_descends_through_levels(self, cpu):
        latency = data(cpu, 0.0, 0)
        assert latency > 4 + 16 + 35  # at least all lookups + memory

    def test_cpu_l2_hit_cheaper_than_memory(self, cpu):
        data(cpu, 0.0, 0)
        big_stride = 64 * 64 * 8 * 4  # beyond L1 sets, within L2
        data(cpu, 0.0, big_stride)
        # Evict line 0 from tiny L1 by filling its set.
        for i in range(1, 9):
            data(cpu, 0.0, i * 64 * 64)
        latency = data(cpu, 10_000.0, 0)
        assert latency == 4 + 16  # L1 miss, L2 hit


class TestBypass:
    def test_bypassed_metadata_skips_l1(self, ndp):
        meta(ndp, 0.0, 0, bypass=True)
        assert not ndp.l1ds[0].contains(0)
        assert ndp.stats.l1_bypasses == 1

    def test_bypassed_metadata_not_looked_up_in_l1(self, ndp):
        data(ndp, 0.0, 0)  # line resident
        before = ndp.l1ds[0].stats.metadata.accesses
        meta(ndp, 0.0, 0, bypass=True)
        assert ndp.l1ds[0].stats.metadata.accesses == before

    def test_cacheable_metadata_allocates_into_l1(self, ndp):
        meta(ndp, 0.0, 0, bypass=False)
        assert ndp.l1ds[0].contains(0)

    def test_bypass_saves_l1_latency_on_miss(self, ndp):
        lat_bypass = meta(ndp, 0.0, 1 << 20, bypass=True)
        lat_cached = meta(ndp, 0.0, 2 << 20, bypass=False)
        assert lat_cached == lat_bypass + 4


class TestIsolation:
    def test_private_l1_per_core(self, ndp):
        data(ndp, 0.0, 0, core=0)
        assert ndp.l1ds[0].contains(0)
        assert not ndp.l1ds[1].contains(0)

    def test_shared_l3_across_cores(self, cpu):
        data(cpu, 0.0, 0, core=0)
        latency = data(cpu, 10_000.0, 0, core=1)
        # Core 1 misses its L1/L2 but hits the shared L3.
        assert latency == 4 + 16 + 35


class TestWritebacks:
    def test_dirty_eviction_reaches_dram(self, ndp):
        stride = 64 * 64  # L1 set stride (64 sets)
        data(ndp, 0.0, 0, write=True)
        for i in range(1, 9):  # evict through the 8 ways
            data(ndp, 0.0, i * stride)
        assert ndp.dram.stats.writes >= 1

    def test_miss_rate_helper(self, ndp):
        data(ndp, 0.0, 0)
        data(ndp, 0.0, 0)
        assert ndp.l1_miss_rate(RequestKind.DATA) == 0.5

    def test_reset_stats(self, ndp):
        data(ndp, 0.0, 0)
        ndp.reset_stats()
        assert ndp.stats.accesses == 0
        assert ndp.l1ds[0].stats.data.accesses == 0
