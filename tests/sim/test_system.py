"""Tests for system assembly (Table I wiring, prefault warmup)."""

import gc
import weakref

import pytest

from repro.mem.dram import DDR4_2400, HBM2
from repro.sim.config import cpu_config, ndp_config
from repro.sim.system import System

FAST = dict(workload="rnd", refs_per_core=300, scale=1 / 64)


class TestShapes:
    def test_ndp_single_level_hbm(self):
        system = System(ndp_config(**FAST))
        assert system.hierarchy.l2s is None
        assert system.hierarchy.l3 is None
        assert system.hierarchy.dram.timing is HBM2

    def test_cpu_three_levels_ddr4(self):
        system = System(cpu_config(**FAST))
        assert system.hierarchy.l2s is not None
        assert system.hierarchy.l3 is not None
        assert system.hierarchy.dram.timing is DDR4_2400

    def test_one_mmu_per_core(self):
        system = System(ndp_config(num_cores=3, **FAST))
        assert len(system.mmus) == 3
        assert len(system.cores) == 3
        assert len(system.hierarchy.l1ds) == 3

    def test_shared_page_table(self):
        system = System(ndp_config(num_cores=2, **FAST))
        assert system.mmus[0].walker.table is system.mmus[1].walker.table

    def test_ech_has_no_pwcs(self):
        system = System(ndp_config(mechanism="ech", **FAST))
        assert system.pwc_sets == [None]

    def test_ndpage_pwc_levels(self):
        system = System(ndp_config(mechanism="ndpage", **FAST))
        assert "PL2/1" in system.pwc_sets[0].caches()


class TestPrefault:
    def test_warmup_maps_stream_footprint(self):
        system = System(ndp_config(**FAST))
        assert system.page_table.mapped_pages > 0

    def test_warmup_fault_stats_reset(self):
        system = System(ndp_config(**FAST))
        assert system.os.stats.minor_faults == 0
        assert system.os.stats.fault_cycles == 0.0

    def test_roi_sees_no_faults_after_full_warmup(self):
        system = System(ndp_config(**FAST))
        system.run()
        assert system.os.stats.minor_faults == 0

    def test_cold_start_when_disabled(self):
        system = System(ndp_config(warmup_refs=0, **FAST))
        assert system.page_table.mapped_pages == 0
        system.run()
        assert system.os.stats.minor_faults > 0

    def test_partial_warmup(self):
        cfg = ndp_config(workload="rnd", refs_per_core=400,
                         warmup_refs=100, scale=1 / 64)
        system = System(cfg)
        mapped_after_warmup = system.page_table.mapped_pages
        system.run()
        assert system.os.stats.minor_faults > 0  # second half faults
        assert system.page_table.mapped_pages > mapped_after_warmup

    def test_hugepage_contiguity_consumed_in_warmup(self):
        system = System(ndp_config(mechanism="hugepage",
                                   thp_promotion_fraction=1.0, **FAST))
        assert system.page_table.huge_mappings > 0


class TestTeardown:
    @pytest.mark.parametrize("overrides", [
        dict(num_cores=1),
        dict(num_cores=2),
        dict(num_cores=2, tenants=2),
    ])
    def test_finished_system_freed_without_cyclic_gc(self, overrides):
        """run() closes each core's chunk coroutine, whose frame would
        otherwise hold the core (and through it the whole machine) in
        a reference cycle only the cyclic collector can free."""
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            system = System(ndp_config(**FAST, **overrides))
            system.run()
            core = weakref.ref(system.cores[0])
            table = weakref.ref(system.page_table)
            del system
            assert core() is None
            if overrides.get("tenants", 1) == 1:
                # Tenant OS hooks still form a cycle of their own.
                assert table() is None
        finally:
            if gc_was_enabled:
                gc.enable()
