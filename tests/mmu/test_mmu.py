"""Tests for the MMU translation flow (Fig. 3 / Fig. 11)."""

import pytest

from repro.core.bypass import NoBypass
from repro.mem.dram import HBM2
from repro.mem.hierarchy import build_ndp_hierarchy
from repro.mmu.mmu import Mmu
from repro.mmu.tlb import build_table1_tlbs
from repro.mmu.walker import PageTableWalker
from repro.vm.frames import FrameAllocator
from repro.vm.ideal import IdealPageTable
from repro.vm.os_model import OSMemoryManager
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2


def make_mmu(ideal=False):
    allocator = FrameAllocator(128 * MIB)
    if ideal:
        table = IdealPageTable()
    else:
        table = RadixPageTable(allocator)
    os_model = OSMemoryManager(allocator, table)
    hierarchy = build_ndp_hierarchy(1, HBM2)
    walker = PageTableWalker(table, hierarchy, core_id=0,
                             bypass=NoBypass())
    return Mmu(0, build_table1_tlbs(), walker, os_model, ideal=ideal)


class TestTranslationFlow:
    def test_first_access_faults_and_walks(self):
        mmu = make_mmu()
        _, latency, fault_cycles, tlb_hit, walked = \
            mmu.translate_parts(0.0, 0x1234_5678)
        assert not tlb_hit
        assert walked
        assert fault_cycles > 0
        assert latency > 13  # TLB miss + walk

    def test_second_access_tlb_hit(self):
        mmu = make_mmu()
        mmu.translate_parts(0.0, 0x1234_5678)
        _, latency, fault_cycles, tlb_hit, _ = \
            mmu.translate_parts(1000.0, 0x1234_5678)
        assert tlb_hit
        assert latency == 1
        assert fault_cycles == 0

    def test_paddr_preserves_offset(self):
        mmu = make_mmu()
        paddr = mmu.translate_parts(0.0, 0x1234_5678)[0]
        assert paddr % 4096 == 0x678

    def test_same_page_same_frame(self):
        mmu = make_mmu()
        a = mmu.translate_parts(0.0, 0x1234_5000)[0]
        b = mmu.translate_parts(100.0, 0x1234_5FFF)[0]
        assert a // 4096 == b // 4096

    def test_different_pages_different_frames(self):
        mmu = make_mmu()
        a = mmu.translate_parts(0.0, 0x1000)[0]
        b = mmu.translate_parts(100.0, 0x2000)[0]
        assert a // 4096 != b // 4096

    def test_stats_accumulate(self):
        mmu = make_mmu()
        mmu.translate_parts(0.0, 0x1000)
        mmu.translate_parts(100.0, 0x1000)
        mmu.translate_parts(200.0, 0x2000)
        assert mmu.stats.translations == 3
        assert mmu.stats.tlb_hits == 1
        assert mmu.stats.walks == 2
        assert mmu.stats.tlb_miss_rate == pytest.approx(2 / 3)

    def test_walk_latency_distribution(self):
        mmu = make_mmu()
        mmu.translate_parts(0.0, 0x1000)
        assert mmu.stats.walk_latency.count == 1
        assert mmu.stats.walk_latency.mean > 0


class TestIdealMmu:
    def test_zero_translation_latency(self):
        mmu = make_mmu(ideal=True)
        _, latency, _, tlb_hit, walked = \
            mmu.translate_parts(0.0, 0x9999_0000)
        assert latency == 0.0
        assert tlb_hit
        assert not walked

    def test_faults_still_charged(self):
        """Demand paging exists in every mechanism, including Ideal, so
        end-to-end comparisons stay apples-to-apples."""
        mmu = make_mmu(ideal=True)
        assert mmu.translate_parts(0.0, 0x9999_0000)[2] > 0
        assert mmu.translate_parts(1.0, 0x9999_0000)[2] == 0

    def test_paddr_still_valid(self):
        mmu = make_mmu(ideal=True)
        paddr = mmu.translate_parts(0.0, 0x9999_0123)[0]
        assert paddr % 4096 == 0x123
