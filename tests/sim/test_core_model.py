"""Tests for the core timing model (MLP window, accounting)."""

import numpy as np
import pytest

from repro.mem.dram import HBM2
from repro.mem.hierarchy import build_ndp_hierarchy
from repro.mmu.mmu import Mmu
from repro.mmu.tlb import build_table1_tlbs
from repro.mmu.walker import PageTableWalker
from repro.sim.core_model import Core
from repro.vm.frames import FrameAllocator
from repro.vm.ideal import IdealPageTable
from repro.vm.os_model import OSMemoryManager
from repro.workloads.base import chunk_probe_keys

MIB = 1024 ** 2


def make_core(stream, mlp=2, gap=1):
    from repro.vm.os_model import FaultCosts
    allocator = FrameAllocator(64 * MIB)
    table = IdealPageTable()
    # Zero fault costs: these tests isolate the core's timing window.
    os_model = OSMemoryManager(allocator, table,
                               costs=FaultCosts(minor_fault_cycles=0))
    hierarchy = build_ndp_hierarchy(1, HBM2)
    walker = PageTableWalker(table, hierarchy, core_id=0)
    mmu = Mmu(0, build_table1_tlbs(), walker, os_model, ideal=True)
    addrs = [vaddr for vaddr, _ in stream]
    writes = [is_write for _, is_write in stream]
    vpns, vlines = chunk_probe_keys(np.asarray(addrs, dtype=np.int64))
    chunks = iter([(addrs, writes, vpns, vlines)])
    return Core(0, mmu, hierarchy, chunks, gap_cycles=gap, mlp=mlp)


class TestStepping:
    def test_step_consumes_one_reference(self):
        core = make_core([(0x1000, False), (0x2000, False)])
        assert core.step(0.0) is not None
        assert core.stats.references == 1

    def test_exhausted_stream_returns_none(self):
        core = make_core([(0x1000, False)])
        now = core.step(0.0)
        assert core.step(now) is None
        assert core.finished

    def test_instructions_include_gap(self):
        core = make_core([(0x1000, False)] * 3, gap=4)
        now = 0.0
        while (now := core.step(now)) is not None:
            pass
        assert core.stats.instructions == 3 * 5  # 1 mem + 4 ALU each

    def test_time_advances_monotonically(self):
        core = make_core([(i * 4096, False) for i in range(20)])
        now, times = 0.0, []
        while True:
            nxt = core.step(now)
            if nxt is None:
                break
            times.append(nxt)
            now = nxt
        assert times == sorted(times)

    def test_drain_extends_cycles_to_last_completion(self):
        core = make_core([(0x100000, False)])
        now = core.step(0.0)
        core.step(now)
        # The data access (DRAM) outlives the issue slot.
        assert core.stats.cycles >= HBM2.row_miss_cycles

    def test_mlp_validated(self):
        with pytest.raises(ValueError):
            make_core([], mlp=0)


class TestMlpWindow:
    def test_window_limits_outstanding_misses(self):
        # Distinct lines -> every access misses L1 and goes to DRAM.
        stream = [(i * 64 * 64, False) for i in range(12)]
        narrow = make_core(list(stream), mlp=1)
        wide = make_core(list(stream), mlp=8)
        for core in (narrow, wide):
            now = 0.0
            while (now := core.step(now)) is not None:
                pass
        assert narrow.stats.cycles > wide.stats.cycles
        assert narrow.stats.data_stall_cycles \
            > wide.stats.data_stall_cycles

    def test_l1_hits_do_not_stall(self):
        stream = [(0x1000, False)] * 50
        core = make_core(stream, mlp=1)
        now = 0.0
        while (now := core.step(now)) is not None:
            pass
        # After the first fill, every access hits: ~issue+gap per ref.
        assert core.stats.cycles < 50 * 20


class TestAccounting:
    def test_translation_fraction_zero_for_ideal(self):
        core = make_core([(0x1000, False)] * 5)
        now = 0.0
        while (now := core.step(now)) is not None:
            pass
        assert core.stats.translation_fraction == 0.0

    def test_ipc_positive(self):
        core = make_core([(0x1000, False)] * 5)
        now = 0.0
        while (now := core.step(now)) is not None:
            pass
        assert core.stats.ipc > 0
