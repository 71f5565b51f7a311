"""System assembly: cores + MMUs + page table + hierarchy from a config.

``System`` wires one simulated machine according to a
:class:`~repro.sim.config.SystemConfig`: the platform's memory hierarchy
(CPU vs NDP from Table I), one shared page table and OS built from the
mechanism spec, and per-core TLBs / PWCs / walkers / MMUs over shared
DRAM — the multithreaded, shared-dataset execution model the paper
evaluates.

With ``config.tenants > 1`` the same machine is multiprogrammed: each
tenant process gets its own workload stream, page table and OS view
over the *shared* frame allocator, every core slot carries one
execution context per tenant sharing the slot's ASID-tagged TLBs and
PWCs, and a :class:`~repro.sim.scheduler.ScheduledEngine` time-slices
the contexts with the configured quantum.  ``tenants == 1`` is exactly
the single-address-space assembly, bit for bit.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.mechanisms import MechanismSpec, get_mechanism
from repro.mem.dram import DDR4_2400, HBM2
from repro.mem.hierarchy import (
    MemoryHierarchy,
    build_cpu_hierarchy,
    build_ndp_hierarchy,
)
from repro.mmu.mmu import Mmu
from repro.mmu.pwc import PwcSet
from repro.mmu.tlb import Tlb, TlbHierarchy
from repro.mmu.walker import PageTableWalker
from repro.sim.config import SYSTEM_NDP, SystemConfig
from repro.sim.core_model import Core
from repro.sim.engine import SimulationEngine
from repro.sim.scheduler import (
    ScheduledEngine,
    SlotSchedule,
    TenantCoordinator,
    quantum_chunks,
    tenant_quantum,
    tenant_seed,
)
from repro.sim.topology import NumaFrameAllocator, NumaTopology
from repro.vm.address import HUGE_PAGE_SHIFT, PAGE_SHIFT
from repro.vm.base import PageTable
from repro.vm.frames import FrameAllocator
from repro.vm.os_model import OSMemoryManager
from repro.workloads.base import CHUNK_REFS, Workload
from repro.workloads.registry import make_workload


@dataclass
class Tenant:
    """One co-running process: private address space, shared frames."""

    asid: int
    workload_key: str
    workload: Workload
    page_table: PageTable
    os: OSMemoryManager


class System:
    """One fully assembled simulated machine, ready to run."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.spec: MechanismSpec = get_mechanism(config.mechanism)
        self.tenants: List[Tenant] = []
        self.scheduler_stats = None
        # NUMA topology: None on the flat single-node machine, which
        # then assembles byte-identically to earlier releases.
        self.topology: Optional[NumaTopology] = (
            NumaTopology.from_config(config)
            if config.numa.nodes > 1 else None)
        if config.tenants > 1:
            self._init_tenants()
            return
        # tenant_workloads overrides ``workload`` for every tenant —
        # including the degenerate 1-tenant schedule, so a config runs
        # the workload it serializes as (grids sweep tenant counts
        # without special-casing the 1-tenant cell).
        workload_key = (config.tenant_workloads[0]
                        if config.tenant_workloads else config.workload)
        self.workload = make_workload(
            workload_key, scale=config.scale, seed=config.seed)
        self.allocator = self._build_allocator()
        self.page_table = self.spec.build_table(self.allocator)
        self.os = OSMemoryManager(
            self.allocator, self.page_table,
            policy=self.spec.paging_policy, costs=config.fault_costs,
            thp_promotion_fraction=config.thp_promotion_fraction)
        self.hierarchy = self._build_hierarchy()
        # When the warmup replays the exact ROI stream (the default),
        # the chunks materialized for prefaulting are handed to the
        # cores afterwards, so each stream is generated once.  Bounded
        # so huge sweeps do not hold every reference in memory.
        self._replay_chunks: Optional[List[List[tuple]]] = None
        warmup = (config.refs_per_core if config.warmup_refs is None
                  else config.warmup_refs)
        if (warmup == config.refs_per_core
                and config.refs_per_core * config.num_cores <= 4_000_000):
            self._replay_chunks = [[] for _ in range(config.num_cores)]
        self.pwc_sets: List[Optional[PwcSet]] = []
        self.mmus: List[Mmu] = []
        self.cores: List[Core] = []
        self._prefault()
        for core_id in range(config.num_cores):
            self._add_core(core_id)
        self.engine = SimulationEngine(self.cores)

    def _prefault(self) -> None:
        """Untimed warmup: demand-page each core's early footprint.

        Runs every core's first ``warmup_refs`` references through the
        OS fault path only — no cycles are charged, but allocator and
        page-table state (huge-page placement, contiguity consumption,
        ECH growth, reclaim under pressure) fully materialize, exactly
        like the paper's untimed initialization phase.  Cores are
        interleaved so their allocations interleave too.
        """
        cfg = self.config
        warmup = (cfg.refs_per_core if cfg.warmup_refs is None
                  else cfg.warmup_refs)
        if warmup <= 0:
            return
        # Like the run loop, prefaulting allocates heavily and builds
        # no reference cycles; pause the cyclic collector for it.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._prefault_inner(warmup)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _prefault_inner(self, warmup: int) -> None:
        cfg = self.config
        # Chunked consumption with a 256-reference round-robin quantum:
        # allocation order (and with it frame placement / contiguity
        # consumption) is identical to stepping the cores one
        # reference at a time in that round-robin order.
        record = self._replay_chunks
        if record is not None:
            def recording(core_id):
                for chunk in self.workload.stream_chunks(core_id, warmup):
                    record[core_id].append(chunk)
                    yield chunk
            chunk_iters = [
                recording(core_id) for core_id in range(cfg.num_cores)
            ]
        else:
            # Prefault only reads addresses: skip the VPN/line-array
            # materialization the cores would need (no replay here —
            # the ROI regenerates its own, fully decorated, streams).
            chunk_iters = [
                self.workload.stream_chunks(core_id, warmup,
                                            probe_keys=False)
                for core_id in range(cfg.num_cores)
            ]
        buffers: List[List[int]] = [[] for _ in range(cfg.num_cores)]
        positions = [0] * cfg.num_cores
        ensure_mapped = self.os.ensure_mapped
        os_stats = self.os.stats
        # Repeat touches of an already-faulted page are no-ops, so they
        # can be skipped via a seen-set — *until* the first reclaim:
        # once the OS starts evicting, a previously mapped page may need
        # re-faulting and every touch must go through the full path
        # again (seed-identical behaviour under memory pressure).
        seen: Optional[set] = set()
        active = list(range(cfg.num_cores))
        while active:
            still_active = []
            for core_id in active:
                addrs = buffers[core_id]
                pos = positions[core_id]
                quota = 256
                exhausted = False
                while quota:
                    if pos >= len(addrs):
                        nxt = next(chunk_iters[core_id], None)
                        if nxt is None:
                            exhausted = True
                            break
                        addrs = buffers[core_id] = nxt[0]
                        pos = 0
                    stop = pos + quota
                    if stop > len(addrs):
                        stop = len(addrs)
                    if seen is not None:
                        index = pos
                        while index < stop:
                            vaddr = addrs[index]
                            index += 1
                            page = vaddr >> PAGE_SHIFT
                            if page in seen:
                                continue
                            ensure_mapped(vaddr, site=core_id)
                            seen.add(page)
                            if os_stats.reclaims:
                                seen = None  # pressure: exact from here
                                break
                        if seen is None:
                            for vaddr in addrs[index:stop]:
                                ensure_mapped(vaddr, site=core_id)
                    else:
                        for vaddr in addrs[pos:stop]:
                            ensure_mapped(vaddr, site=core_id)
                    quota -= stop - pos
                    pos = stop
                positions[core_id] = pos
                if not exhausted:
                    still_active.append(core_id)
            active = still_active
        # Warmup fault work is setup, not ROI: reset the OS counters.
        self.os.stats = type(self.os.stats)()

    def _build_allocator(self):
        """Flat allocator, or the per-node NUMA facade over it."""
        cfg = self.config
        if self.topology is None:
            return FrameAllocator(
                cfg.physical_bytes,
                fragmentation=cfg.boot_fragmentation)
        return NumaFrameAllocator(
            self.topology, cfg.numa,
            fragmentation=cfg.boot_fragmentation)

    def _build_hierarchy(self) -> MemoryHierarchy:
        cfg = self.config
        numa_nodes = 1
        numa_penalty = None
        if self.topology is not None:
            numa_nodes = self.topology.nodes
            numa_penalty = self.topology.penalty_rows()
        if cfg.system == SYSTEM_NDP:
            return build_ndp_hierarchy(
                cfg.num_cores, HBM2,
                l1_size=cfg.l1.size, l1_assoc=cfg.l1.associativity,
                l1_latency=cfg.l1.latency,
                numa_nodes=numa_nodes, numa_penalty=numa_penalty)
        return build_cpu_hierarchy(
            cfg.num_cores, DDR4_2400,
            l1_size=cfg.l1.size, l1_assoc=cfg.l1.associativity,
            l1_latency=cfg.l1.latency,
            l2_size=cfg.l2.size, l2_assoc=cfg.l2.associativity,
            l2_latency=cfg.l2.latency,
            l3_per_core=cfg.l3_per_core.size,
            l3_assoc=cfg.l3_per_core.associativity,
            l3_latency=cfg.l3_per_core.latency,
            numa_nodes=numa_nodes, numa_penalty=numa_penalty)

    def _build_tlbs(self, core_id: int) -> TlbHierarchy:
        t = self.config.tlb
        return TlbHierarchy(
            l1_small=Tlb(f"L1-DTLB{core_id}", t.l1_small_entries,
                         t.l1_small_assoc, t.l1_small_latency,
                         page_shift=PAGE_SHIFT),
            l1_huge=Tlb(f"L1-2M-TLB{core_id}", t.l1_huge_entries,
                        t.l1_huge_assoc, t.l1_small_latency,
                        page_shift=HUGE_PAGE_SHIFT),
            l2=Tlb(f"L2-TLB{core_id}", t.l2_entries, t.l2_assoc,
                   t.l2_latency, page_shift=PAGE_SHIFT),
        )

    def _add_core(self, core_id: int) -> None:
        cfg = self.config
        tlbs = self._build_tlbs(core_id)
        if self.spec.pwc_levels:
            pwcs: Optional[PwcSet] = PwcSet(
                self.spec.pwc_levels, entries=cfg.pwc.entries,
                associativity=cfg.pwc.associativity,
                latency=cfg.pwc.latency)
        else:
            pwcs = None
        walker = PageTableWalker(
            self.page_table, self.hierarchy, core_id,
            pwcs=pwcs, bypass=self.spec.build_bypass())
        mmu = Mmu(core_id, tlbs, walker, self.os, ideal=self.spec.ideal)
        if self._replay_chunks is not None:
            # The warmup consumed (and recorded) the identical stream;
            # replay it instead of regenerating every numpy batch.
            chunks = iter(self._replay_chunks[core_id])
        else:
            chunks = self.workload.stream_chunks(
                core_id, cfg.refs_per_core)
        core = Core(core_id, mmu, self.hierarchy, chunks,
                    gap_cycles=self.workload.gap_cycles,
                    mlp=cfg.core.mlp, issue_cycles=cfg.core.issue_cycles)
        self.pwc_sets.append(pwcs)
        self.mmus.append(mmu)
        self.cores.append(core)

    def run(self) -> float:
        """Execute all cores to completion; return global cycles."""
        return self.engine.run()

    # -- multi-tenant assembly ---------------------------------------

    def _init_tenants(self) -> None:
        """Wire a multiprogrammed machine (``config.tenants > 1``).

        Per tenant: a workload stream (distinct deterministic seed), a
        private page table and an OS view over the shared allocator.
        Per core slot: one ASID-tagged TLB hierarchy and PWC set shared
        by all tenant contexts on that slot, plus one walker/MMU/core
        context per tenant.  The scheduler engine round-robins the
        contexts with the configured quantum.
        """
        cfg = self.config
        params = cfg.scheduler
        self.coordinator = TenantCoordinator(params)
        self.scheduler_stats = self.coordinator.stats
        self.allocator = self._build_allocator()
        workload_keys = (cfg.tenant_workloads
                         or (cfg.workload,) * cfg.tenants)
        for asid, key in enumerate(workload_keys):
            workload = make_workload(
                key, scale=cfg.scale, seed=tenant_seed(cfg.seed, asid))
            table = self.spec.build_table(self.allocator)
            os_model = OSMemoryManager(
                self.allocator, table,
                policy=self.spec.paging_policy, costs=cfg.fault_costs,
                thp_promotion_fraction=cfg.thp_promotion_fraction,
                on_unmap=self.coordinator.unmap_hook(asid),
                peer_reclaim=self.coordinator.peer_reclaim_hook(asid),
                extra_fault_cycles=self.coordinator.drain_cycles)
            self.coordinator.register_tenant(asid, os_model)
            self.tenants.append(Tenant(asid, key, workload, table,
                                       os_model))
        # Single-tenant attribute surface (tenant 0's view), so tools
        # that inspect ``system.os`` / ``system.page_table`` keep
        # working; collect() aggregates across the full tenant list.
        self.workload = self.tenants[0].workload
        self.page_table = self.tenants[0].page_table
        self.os = self.tenants[0].os
        self.hierarchy = self._build_hierarchy()

        # Streams are fed to cores in quantum-sized chunks so a time
        # slice never splits a generation batch on single-slot runs.
        # Quanta are per tenant once weights are configured.
        feeds = {tenant.asid: min(tenant_quantum(params, tenant.asid),
                                  CHUNK_REFS)
                 for tenant in self.tenants}
        warmup = (cfg.refs_per_core if cfg.warmup_refs is None
                  else cfg.warmup_refs)
        total_refs = cfg.refs_per_core * cfg.num_cores * cfg.tenants
        replay: Optional[Dict[Tuple[int, int], List[tuple]]] = None
        if warmup == cfg.refs_per_core and total_refs <= 4_000_000:
            replay = {(tenant.asid, slot): []
                      for tenant in self.tenants
                      for slot in range(cfg.num_cores)}
        self._prefault_tenants(warmup, feeds, replay)

        self.pwc_sets = []
        self.mmus = []
        self.cores = []
        slots: List[SlotSchedule] = []
        for slot_id in range(cfg.num_cores):
            tlbs = self._build_tlbs(slot_id)
            self.coordinator.register_slot(tlbs)
            if self.spec.pwc_levels:
                pwcs: Optional[PwcSet] = PwcSet(
                    self.spec.pwc_levels, entries=cfg.pwc.entries,
                    associativity=cfg.pwc.associativity,
                    latency=cfg.pwc.latency)
            else:
                pwcs = None
            slot_cores: List[Core] = []
            for tenant in self._slot_tenant_order(slot_id):
                walker = PageTableWalker(
                    tenant.page_table, self.hierarchy, slot_id,
                    pwcs=pwcs, bypass=self.spec.build_bypass(),
                    asid=tenant.asid)
                mmu = Mmu(slot_id, tlbs, walker, tenant.os,
                          ideal=self.spec.ideal, asid=tenant.asid)
                if replay is not None:
                    source = iter(replay[(tenant.asid, slot_id)])
                else:
                    source = tenant.workload.stream_chunks(
                        slot_id, cfg.refs_per_core,
                        chunk_refs=feeds[tenant.asid])
                # Align chunk boundaries to quantum multiples so chunk
                # handover matches slice boundaries even when the
                # quantum exceeds the generation batch.
                chunks = quantum_chunks(
                    source, tenant_quantum(params, tenant.asid))
                core = Core(slot_id, mmu, self.hierarchy, chunks,
                            gap_cycles=tenant.workload.gap_cycles,
                            mlp=cfg.core.mlp,
                            issue_cycles=cfg.core.issue_cycles)
                slot_cores.append(core)
                self.mmus.append(mmu)
                self.cores.append(core)
            self.pwc_sets.append(pwcs)
            slots.append(SlotSchedule(slot_id, slot_cores, tlbs, pwcs))
        self.engine = ScheduledEngine(slots, params, self.coordinator)

    def _slot_tenant_order(self, slot_id: int) -> List[Tenant]:
        """Tenant contexts of one slot, node-affine first.

        On a NUMA machine each slot's round-robin queue starts with
        the tenants whose home node matches the slot's node (nearest
        first, ASID as the deterministic tiebreak), so the scheduler
        favours node-local contexts the way an affinity-aware OS
        balances run queues.  Single-node machines keep ASID order —
        the PR 3 schedule, bit for bit.
        """
        if self.topology is None:
            return list(self.tenants)
        topo = self.topology
        slot_node = topo.node_of_core(slot_id)
        distance = topo.distance[slot_node]
        return sorted(
            self.tenants,
            key=lambda t: (distance[topo.node_of_tenant(t.asid)],
                           t.asid))

    def _prefault_tenants(self, warmup: int, feeds: Dict[int, int],
                          replay) -> None:
        """Untimed multi-tenant warmup.

        Interleaves all (tenant, slot) streams in 256-reference quanta
        through each tenant's own fault path, so the shared frame pool
        fills — and fragments, and comes under cross-tenant pressure —
        in an order resembling the scheduled run.  Fault counters and
        scheduler accounting are reset afterwards: warmup is setup, not
        region-of-interest.
        """
        if warmup <= 0:
            return
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._prefault_tenants_inner(warmup, feeds, replay)
        finally:
            if gc_was_enabled:
                gc.enable()
        for tenant in self.tenants:
            tenant.os.stats = type(tenant.os.stats)()
        self.coordinator.reset()

    def _prefault_tenants_inner(self, warmup: int,
                                feeds: Dict[int, int], replay) -> None:
        cfg = self.config
        tenants = self.tenants
        pairs = [(tenant, slot)
                 for slot in range(cfg.num_cores)
                 for tenant in tenants]

        def make_iter(tenant: Tenant, slot: int):
            if replay is None:
                # Address-only pass: no VPN/line materialization.
                return tenant.workload.stream_chunks(
                    slot, warmup, chunk_refs=feeds[tenant.asid],
                    probe_keys=False)
            source = tenant.workload.stream_chunks(
                slot, warmup, chunk_refs=feeds[tenant.asid])
            record = replay[(tenant.asid, slot)]

            def recording():
                for chunk in source:
                    record.append(chunk)
                    yield chunk
            return recording()

        chunk_iters = {(t.asid, s): make_iter(t, s) for t, s in pairs}
        buffers: Dict[Tuple[int, int], List[int]] = {
            (t.asid, s): [] for t, s in pairs}
        positions = {(t.asid, s): 0 for t, s in pairs}
        # Repeat touches of a mapped page are no-ops until the first
        # reclaim anywhere: once any tenant starts evicting (its own
        # pages or a peer's), previously seen pages may need re-faulting
        # and every touch goes through the full path again.
        seen: Optional[Dict[Tuple[int, int], set]] = {
            (t.asid, s): set() for t, s in pairs}
        active = list(pairs)
        while active:
            still_active = []
            for tenant, slot in active:
                pair = (tenant.asid, slot)
                ensure_mapped = tenant.os.ensure_mapped
                addrs = buffers[pair]
                pos = positions[pair]
                quota = 256
                exhausted = False
                while quota:
                    if pos >= len(addrs):
                        nxt = next(chunk_iters[pair], None)
                        if nxt is None:
                            exhausted = True
                            break
                        addrs = buffers[pair] = nxt[0]
                        pos = 0
                    stop = min(pos + quota, len(addrs))
                    pair_seen = None if seen is None else seen[pair]
                    for vaddr in addrs[pos:stop]:
                        if pair_seen is not None:
                            page = vaddr >> PAGE_SHIFT
                            if page in pair_seen:
                                continue
                            pair_seen.add(page)
                        cost = ensure_mapped(vaddr, site=slot)
                        if (cost and seen is not None
                                and any(t.os.stats.reclaims
                                        for t in tenants)):
                            seen = None
                            pair_seen = None
                    quota -= stop - pos
                    pos = stop
                positions[pair] = pos
                if not exhausted:
                    still_active.append((tenant, slot))
            active = still_active
