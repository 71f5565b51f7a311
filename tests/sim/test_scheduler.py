"""Multi-process scheduling tests: ASID-tagged TLBs, switches,
shootdowns, cross-tenant pressure, and multiprogrammed golden pins.

The multi-tenant path has its own golden values (like the
single-address-space ones in test_golden_stats.py): the simulator is
deterministic across processes, so any change that perturbs the
scheduled simulation moves these and must be deliberate.
"""

import dataclasses

import pytest

from repro.mmu.tlb import build_table1_tlbs
from repro.service import SweepService
from repro.sim.config import SchedulerParams, ndp_config
from repro.sim.runner import run_once
from repro.sim.scheduler import TenantCoordinator, tenant_seed
from repro.vm.address import asid_tag
from repro.vm.base import Translation
from repro.vm.frames import FrameAllocator, OutOfMemoryError
from repro.vm.os_model import OSMemoryManager
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2


def mt_config(mechanism="radix", **overrides):
    overrides.setdefault("workload", "bfs")
    overrides.setdefault("refs_per_core", 3000)
    overrides.setdefault("scale", 1 / 64)
    overrides.setdefault("seed", 7)
    overrides.setdefault("tenants", 2)
    return ndp_config(mechanism=mechanism, **overrides)


def result_fields(result) -> dict:
    fields = dataclasses.asdict(result)
    fields.pop("config")
    return fields


#: Golden multi-tenant values (2 tenants, 1 core, bfs @ 1/64 scale).
MT_GOLDEN = {
    "radix": {
        "cycles": 679136.0,
        "references": 6000,
        "walks": 4217,
        "tlb_miss_rate": 0.7028333333333333,
        "fault_cycles": 0.0,
    },
    "ndpage": {
        "cycles": 676647.0,
        "references": 6000,
        "walks": 4217,
        "tlb_miss_rate": 0.7028333333333333,
        "fault_cycles": 0.0,
    },
}

#: Scheduler accounting shared by both golden cells: 2 tenants x 3000
#: refs at the default 2048-ref quantum = 2 slices each, 3 switches,
#: all ASID-preserved (2 tenants fit 16 ASIDs), no memory pressure.
MT_GOLDEN_EXTRAS = {
    "tenants": 2.0,
    "context_switches": 3.0,
    "preserved_switches": 3.0,
    "flush_switches": 0.0,
    "switch_cycles": 18000.0,
    "shootdowns": 0.0,
    "shootdown_cycles": 0.0,
    "cross_tenant_reclaims": 0.0,
}


class TestMultiTenantGolden:
    @pytest.mark.parametrize("mechanism", sorted(MT_GOLDEN))
    def test_run_result_matches_golden(self, mechanism):
        result = run_once(mt_config(mechanism))
        golden = MT_GOLDEN[mechanism]
        mismatches = {
            name: (getattr(result, name), expected)
            for name, expected in golden.items()
            if getattr(result, name) != expected
        }
        extras = dict(result.extras)
        extras.pop("frame_pressure")  # pinned loosely below
        assert extras == MT_GOLDEN_EXTRAS
        assert 0.0 < result.extras["frame_pressure"] < 1.0
        assert not mismatches, (
            f"{mechanism}: multi-tenant statistics drifted: "
            f"{mismatches}")

    def test_deterministic_across_calls(self):
        first = result_fields(run_once(mt_config()))
        second = result_fields(run_once(mt_config()))
        assert first == second

    def test_deterministic_across_worker_counts(self):
        """Same cells through the pool = serial, field for field."""
        configs = [mt_config(m) for m in ("radix", "ndpage")]
        serial = SweepService(jobs=1).run(configs)
        pooled = SweepService(jobs=2).run(configs)
        for a, b in zip(serial, pooled):
            assert result_fields(a) == result_fields(b)

    def test_references_conserved(self):
        """Every (slot, tenant) context runs its full stream."""
        result = run_once(mt_config(tenants=3, num_cores=2))
        assert result.references == 3 * 2 * 3000


class TestSchedulerRunAhead:
    """The multi-slot run-ahead loops must match the per-reference
    reference engine (``REPRO_REFERENCE_ENGINE=1``) bit for bit —
    including quantum accounting, retire order, and cross-tenant
    shootdown interleaving under memory pressure."""

    @pytest.mark.parametrize("mechanism", ["radix", "ndpage"])
    def test_multislot_matches_reference_engine(self, mechanism,
                                                monkeypatch):
        from repro.sim.engine import REFERENCE_ENGINE_ENV
        config = mt_config(mechanism, num_cores=2,
                           refs_per_core=1200)
        fast = result_fields(run_once(config))
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
        reference = result_fields(run_once(config))
        assert fast == reference

    def test_pressure_run_matches_reference_engine(self, monkeypatch):
        """Shootdowns from one slot's faults invalidate other slots'
        TLBs — their order relative to every reference is pinned."""
        from repro.sim.engine import REFERENCE_ENGINE_ENV
        config = mt_config(workload="rnd", num_cores=2,
                           refs_per_core=1500,
                           phys_bytes=24 * MIB,
                           scheduler=SchedulerParams(quantum_refs=256))
        fast = result_fields(run_once(config))
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
        reference = result_fields(run_once(config))
        assert fast == reference

    def test_weighted_quanta_match_reference_engine(self, monkeypatch):
        from repro.sim.engine import REFERENCE_ENGINE_ENV
        config = mt_config(num_cores=2, refs_per_core=900,
                           scheduler=SchedulerParams(
                               tenant_weights=(2.0, 1.0)))
        fast = result_fields(run_once(config))
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
        reference = result_fields(run_once(config))
        assert fast == reference

    def test_multislot_deterministic_across_worker_counts(self):
        """Multi-slot scheduled cells through the pool = serial."""
        configs = [mt_config(m, num_cores=2, refs_per_core=1000)
                   for m in ("radix", "ndpage")]
        serial = SweepService(jobs=1).run(configs)
        pooled = SweepService(jobs=2).run(configs)
        for a, b in zip(serial, pooled):
            assert result_fields(a) == result_fields(b)


class TestAsidAccounting:
    def test_switches_preserve_tlb_within_asid_capacity(self):
        result = run_once(mt_config())
        assert result.extras["preserved_switches"] \
            == result.extras["context_switches"]
        assert result.extras["flush_switches"] == 0.0

    def test_asid_exhaustion_forces_flushes(self):
        result = run_once(mt_config(
            scheduler=SchedulerParams(max_asids=1)))
        assert result.extras["flush_switches"] \
            == result.extras["context_switches"] > 0
        assert result.extras["preserved_switches"] == 0.0

    def test_flushing_costs_more_than_preserving(self):
        """ASID reuse (flush) must lose against tagged coexistence."""
        preserved = run_once(mt_config())
        flushed = run_once(mt_config(
            scheduler=SchedulerParams(flush_on_switch=True)))
        assert flushed.extras["flush_switches"] > 0
        assert flushed.tlb_miss_rate > preserved.tlb_miss_rate
        assert flushed.cycles > preserved.cycles

    def test_switch_cycles_charged(self):
        quantum = 1000
        cheap = run_once(mt_config(
            scheduler=SchedulerParams(quantum_refs=quantum,
                                      context_switch_cycles=0)))
        costly = run_once(mt_config(
            scheduler=SchedulerParams(quantum_refs=quantum,
                                      context_switch_cycles=50_000)))
        switches = costly.extras["context_switches"]
        assert switches == cheap.extras["context_switches"] > 0
        # Shifting slice start times also perturbs DRAM queueing a
        # little, so the delta is the switch bill within 1 %.
        delta = costly.cycles - cheap.cycles
        assert abs(delta - 50_000 * switches) < 0.01 * 50_000 * switches

    def test_heap_engine_counts_switches_per_slot(self):
        """Two slots each round-robin their own contexts."""
        one = run_once(mt_config(num_cores=1))
        two = run_once(mt_config(num_cores=2))
        assert two.extras["context_switches"] \
            == 2 * one.extras["context_switches"]


class TestShootdowns:
    def test_pressure_run_issues_shootdowns(self):
        result = run_once(mt_config(
            workload="rnd", refs_per_core=4000, tenants=3,
            phys_bytes=24 * MIB))
        assert result.extras["shootdowns"] > 0
        assert result.extras["shootdowns"] == result.os_stats["reclaims"]
        assert result.extras["shootdown_cycles"] > 0
        assert result.extras["frame_pressure"] == 1.0

    def test_no_pressure_no_shootdowns(self):
        result = run_once(mt_config())
        assert result.extras["shootdowns"] == 0.0

    def test_unmap_hook_invalidates_tagged_entry_on_every_slot(self):
        coordinator = TenantCoordinator(SchedulerParams())
        slots = [build_table1_tlbs(0), build_table1_tlbs(1)]
        for tlbs in slots:
            coordinator.register_slot(tlbs)
        hook = coordinator.unmap_hook(asid=2)
        page, key = 0x1234, 0x1234 | asid_tag(2)
        for tlbs in slots:
            tlbs.l1_small.insert(key, Translation(7, 12))
            tlbs.l2.insert(key, Translation(7, 12))
        hook(page, False)
        for tlbs in slots:
            assert tlbs.l1_small.lookup(key) is None
            assert tlbs.l2.lookup(key) is None
        assert coordinator.stats.shootdowns == 1
        assert coordinator.drain_cycles() \
            == SchedulerParams().shootdown_cycles
        assert coordinator.drain_cycles() == 0.0  # drained once

    def test_unmap_hook_invalidates_huge_mapping(self):
        coordinator = TenantCoordinator(SchedulerParams())
        tlbs = build_table1_tlbs()
        coordinator.register_slot(tlbs)
        base_page = 3 * 512  # 2 MB-aligned VPN
        key = base_page | asid_tag(1)
        tlbs.insert(key, Translation(9, 21))
        assert tlbs.l1_huge.occupancy == 1
        coordinator.unmap_hook(asid=1)(base_page, True)
        assert tlbs.l1_huge.occupancy == 0


class TestCrossTenantReclaim:
    def _two_tenants(self, phys=8 * MIB):
        allocator = FrameAllocator(phys, fragmentation=0.0)
        coordinator = TenantCoordinator(SchedulerParams())
        tenants = []
        for asid in range(2):
            table = RadixPageTable(allocator)
            os_model = OSMemoryManager(
                allocator, table,
                on_unmap=coordinator.unmap_hook(asid),
                peer_reclaim=coordinator.peer_reclaim_hook(asid),
                extra_fault_cycles=coordinator.drain_cycles)
            coordinator.register_tenant(asid, os_model)
            tenants.append(os_model)
        return allocator, coordinator, tenants

    def test_exhausted_tenant_reclaims_from_peer(self):
        allocator, coordinator, (victim, starved) = self._two_tenants()
        # The victim maps until the pool is dry...
        page = 0
        while allocator.free_frames > 0:
            victim.ensure_mapped(page << 12)
            page += 1
        before = victim.page_table.mapped_pages
        # ...then the starved tenant (no mappings of its own to evict)
        # faults: its reclaim must steal from the victim, not OOM.
        starved.ensure_mapped(0)
        assert starved.page_table.lookup(0) is not None
        assert coordinator.stats.cross_tenant_reclaims >= 1
        assert victim.page_table.mapped_pages < before
        assert coordinator.stats.shootdowns >= 1

    def test_machine_wide_exhaustion_still_raises(self):
        allocator, coordinator, (a, b) = self._two_tenants()
        page = 0
        while allocator.free_frames > 0:
            a.ensure_mapped(page << 12)
            page += 1
        # Strip both tenants of anything reclaimable.
        a._lru_frames.clear()
        b._lru_frames.clear()
        with pytest.raises(OutOfMemoryError):
            b.ensure_mapped(0)

    def test_initiator_pays_shootdown_cycles(self):
        allocator, coordinator, (victim, starved) = self._two_tenants()
        page = 0
        while allocator.free_frames > 0:
            victim.ensure_mapped(page << 12)
            page += 1
        cycles = starved.ensure_mapped(0)
        assert cycles >= starved.costs.minor_fault_cycles \
            + coordinator.params.shootdown_cycles


class TestTenantStreams:
    def test_tenant_zero_keeps_base_seed(self):
        assert tenant_seed(42, 0) == 42

    def test_tenant_seeds_distinct(self):
        seeds = [tenant_seed(42, asid) for asid in range(8)]
        assert len(set(seeds)) == 8

    def test_single_tenant_config_bypasses_scheduler(self):
        result = run_once(mt_config(tenants=1))
        assert result.extras == {}

    def test_tenant_workloads_honored_at_one_tenant(self):
        """A 1-tenant cell with tenant_workloads must run the tenant
        workload (what the config serializes as), not ``workload`` —
        grids sweeping tenant counts rely on it."""
        override = run_once(mt_config(
            tenants=1, workload="rnd", tenant_workloads=("bfs",)))
        plain = run_once(mt_config(tenants=1, workload="bfs"))
        assert result_fields(override) == result_fields(plain)

    def test_mixed_tenant_workloads(self):
        result = run_once(mt_config(
            tenant_workloads=("bfs", "rnd"), refs_per_core=1500))
        assert result.references == 3000


class TestQuantumGranularity:
    def test_large_quantum_exact_on_single_slot(self):
        """quantum > the 8192-ref generation batch must still switch
        at exact quantum boundaries, matching the heap path's
        per-reference counting: 2 x 20000 refs at q=10000 is four
        full slices (3 boundary switches) plus one retire switch each
        when the exhausted contexts get their empty slice = 5 — not
        the 3 that chunk-rounded 16384-ref slices would give."""
        result = run_once(mt_config(
            refs_per_core=20_000,
            scheduler=SchedulerParams(quantum_refs=10_000)))
        assert result.extras["context_switches"] == 5.0
        assert result.references == 40_000

    def test_quantum_chunks_tile_boundaries(self):
        from repro.sim.scheduler import quantum_chunks
        chunks = [(list(range(8192)), [False] * 8192),
                  (list(range(8192)), [False] * 8192)]
        sizes = [len(a) for a, _ in quantum_chunks(iter(chunks), 10_000)]
        assert sizes == [8192, 1808, 6384]
        assert sum(sizes) == 16384

    def test_quantum_chunks_identity_when_aligned(self):
        from repro.sim.scheduler import quantum_chunks
        chunks = [(list(range(2048)), [False] * 2048)] * 3
        out = list(quantum_chunks(iter(chunks), 2048))
        assert [len(a) for a, _ in out] == [2048, 2048, 2048]
        assert out[0][0] is chunks[0][0]  # no copy on the fast path


class TestWeightedQuanta:
    def test_equal_weights_identical_to_no_weights(self):
        """Explicit 1.0 weights must reproduce the unweighted schedule
        bit for bit (only the serialized config differs)."""
        plain = run_once(mt_config())
        weighted = run_once(mt_config(
            scheduler=SchedulerParams(tenant_weights=(1.0, 1.0))))
        assert result_fields(plain) == result_fields(weighted)

    def test_tenant_quantum_scaling(self):
        from repro.sim.scheduler import tenant_quantum
        params = SchedulerParams(quantum_refs=1000,
                                 tenant_weights=(2.0, 1.0, 0.5))
        assert tenant_quantum(params, 0) == 2000
        assert tenant_quantum(params, 1) == 1000
        assert tenant_quantum(params, 2) == 500
        assert tenant_quantum(SchedulerParams(quantum_refs=1000), 5) \
            == 1000

    def test_heavier_tenant_switches_less(self):
        """Doubling tenant 0's weight halves its slice count: fewer
        context switches than the equal-weight schedule."""
        equal = run_once(mt_config(
            scheduler=SchedulerParams(quantum_refs=500)))
        weighted = run_once(mt_config(
            scheduler=SchedulerParams(quantum_refs=500,
                                      tenant_weights=(4.0, 1.0))))
        assert weighted.extras["context_switches"] \
            < equal.extras["context_switches"]
        assert weighted.references == equal.references == 6000

    def test_weights_exact_on_single_slot_and_heap(self):
        """Chunk-granular (1 slot) and heap (2 slots) engines count
        weighted quanta identically: per-slot switch totals match."""
        scheduler = SchedulerParams(quantum_refs=750,
                                    tenant_weights=(2.0, 1.0))
        one = run_once(mt_config(num_cores=1, scheduler=scheduler))
        two = run_once(mt_config(num_cores=2, scheduler=scheduler))
        assert two.extras["context_switches"] \
            == 2 * one.extras["context_switches"]


class TestShootdownBatching:
    def _coordinator(self, batch, slots=1):
        coordinator = TenantCoordinator(
            SchedulerParams(shootdown_batch=batch))
        for slot in range(slots):
            coordinator.register_slot(build_table1_tlbs(slot))
        return coordinator

    def test_batching_charges_one_ipi_per_batch(self):
        coordinator = self._coordinator(batch=4)
        hook = coordinator.unmap_hook(asid=1)
        for page in range(10):
            hook(page, False)
        # 10 unmaps at batch 4: two full batches billed; the partial
        # batch stays pending across faults (deferred flush batching).
        cost = SchedulerParams().shootdown_cycles
        assert coordinator.stats.shootdowns == 10
        assert coordinator.stats.shootdown_ipis == 2
        assert coordinator.stats.shootdown_cycles == 2 * cost
        assert coordinator.drain_cycles() == 2 * cost
        assert coordinator.drain_cycles() == 0.0
        # Two more unmaps complete the third batch.
        hook(10, False)
        hook(11, False)
        assert coordinator.stats.shootdown_ipis == 3
        assert coordinator.drain_cycles() == cost

    def test_unbatched_default_charges_per_page(self):
        coordinator = self._coordinator(batch=1)
        hook = coordinator.unmap_hook(asid=1)
        for page in range(10):
            hook(page, False)
        cost = SchedulerParams().shootdown_cycles
        assert coordinator.stats.shootdowns == 10
        assert coordinator.stats.shootdown_ipis == 10
        assert coordinator.stats.shootdown_cycles == 10 * cost

    def test_batched_invalidations_still_land_immediately(self):
        coordinator = self._coordinator(batch=8)
        tlbs = coordinator._slots[0]
        key = 0x99 | asid_tag(1)
        tlbs.l1_small.insert(key, Translation(7, 12))
        coordinator.unmap_hook(asid=1)(0x99, False)
        assert tlbs.l1_small.lookup(key) is None  # before any IPI bill

    def test_pressure_run_batching_cuts_shootdown_cycles(self):
        pressure = dict(workload="rnd", refs_per_core=4000, tenants=3,
                        phys_bytes=24 * MIB)
        unbatched = run_once(mt_config(**pressure))
        batched = run_once(mt_config(
            scheduler=SchedulerParams(shootdown_batch=8), **pressure))
        assert unbatched.extras["shootdowns"] > 0
        # Same invalidations, roughly an eighth of the IPI bill.
        assert batched.extras["shootdowns"] > 0
        assert batched.extras["shootdown_ipis"] \
            == batched.extras["shootdowns"] // 8
        assert batched.extras["shootdown_cycles"] \
            <= unbatched.extras["shootdown_cycles"] / 4
        assert "shootdown_ipis" not in unbatched.extras

    def test_reset_clears_partial_batch(self):
        coordinator = self._coordinator(batch=4)
        hook = coordinator.unmap_hook(asid=1)
        hook(1, False)
        coordinator.reset()
        assert coordinator.drain_cycles() == 0.0
        assert coordinator.stats.shootdown_ipis == 0
