"""System assembly: cores + MMUs + page tables + hierarchy from a config.

``System`` wires one simulated machine according to a
:class:`~repro.sim.config.SystemConfig`: the platform's memory hierarchy
(CPU vs NDP from Table I) over shared DRAM, one frame allocator, and
``config.tenants`` processes (:class:`Tenant`), each with its own
workload stream, page table and OS view over the shared frames.  Every
core slot gets one TLB hierarchy and PWC set, ASID-tagged, plus one
walker/MMU/core context per tenant.

A single-process machine is literally the one-tenant assembly: one
tenant on the base seed whose table every core shares — the
multithreaded, shared-dataset execution model the paper evaluates —
driven by the plain :class:`~repro.sim.engine.SimulationEngine`.  Only
with ``config.tenants > 1`` does the machine become multiprogrammed: a
:class:`~repro.sim.scheduler.TenantCoordinator` hooks every OS view for
shootdowns and cross-tenant reclaim, streams come in quantum-sized
chunks, and a :class:`~repro.sim.scheduler.ScheduledEngine` time-slices
each slot's contexts with the configured quantum.
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
    """One process: private address space, shared frames."""

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
        # NUMA topology: None on the flat single-node machine, which
        # then assembles byte-identically to earlier releases.
        self.topology: Optional[NumaTopology] = (
            NumaTopology.from_config(config)
            if config.numa.nodes > 1 else None)
        multi = config.tenants > 1
        params = config.scheduler
        self.coordinator: Optional[TenantCoordinator] = (
            TenantCoordinator(params) if multi else None)
        self.scheduler_stats = (self.coordinator.stats if multi
                                else None)
        self.allocator = self._build_allocator()
        # tenant_workloads overrides ``workload`` at any tenant count,
        # so a config runs the workloads it serializes as (grids sweep
        # tenant counts without special-casing the 1-tenant cell).
        self.tenants: List[Tenant] = [
            self._build_tenant(asid, key)
            for asid, key in enumerate(config.tenant_workloads
                                       or (config.workload,)
                                       * config.tenants)]
        # Tenant 0's view, so tools that inspect ``system.os`` /
        # ``system.page_table`` see the one process of a plain run;
        # collect() aggregates across the full tenant list.
        self.workload = self.tenants[0].workload
        self.page_table = self.tenants[0].page_table
        self.os = self.tenants[0].os
        self.hierarchy = self._build_hierarchy()

        # A time slice must never split a generation batch on
        # single-slot runs, so co-runners' streams come in
        # quantum-sized chunks (per tenant once weights are set).  One
        # process keeps the default batch, whose RNG draws define the
        # single-process reference stream.
        feeds = {tenant.asid: (min(tenant_quantum(params, tenant.asid),
                                   CHUNK_REFS) if multi else None)
                 for tenant in self.tenants}
        # When the warmup replays the exact ROI stream (the default),
        # the chunks materialized for prefaulting are handed to the
        # cores afterwards, so each stream is generated once.  Bounded
        # so huge sweeps do not hold every reference in memory.
        warmup = (config.refs_per_core if config.warmup_refs is None
                  else config.warmup_refs)
        replay: Optional[Dict[Tuple[int, int], List[tuple]]] = None
        if (warmup == config.refs_per_core
                and config.refs_per_core * config.num_cores
                * config.tenants <= 4_000_000):
            replay = {(tenant.asid, slot): []
                      for tenant in self.tenants
                      for slot in range(config.num_cores)}
        self._prefault(warmup, feeds, replay)

        self.pwc_sets: List[Optional[PwcSet]] = []
        self.mmus: List[Mmu] = []
        self.cores: List[Core] = []
        slots: List[SlotSchedule] = []
        for slot_id in range(config.num_cores):
            tlbs = self._build_tlbs(slot_id)
            if multi:
                self.coordinator.register_slot(tlbs)
            if self.spec.pwc_levels:
                pwcs: Optional[PwcSet] = PwcSet(
                    self.spec.pwc_levels, entries=config.pwc.entries,
                    associativity=config.pwc.associativity,
                    latency=config.pwc.latency)
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
                    chunks = iter(replay[(tenant.asid, slot_id)])
                else:
                    chunks = tenant.workload.stream_chunks(
                        slot_id, config.refs_per_core,
                        chunk_refs=feeds[tenant.asid])
                if multi:
                    # Align chunk boundaries to quantum multiples so
                    # chunk handover matches slice boundaries even
                    # when the quantum exceeds the generation batch.
                    chunks = quantum_chunks(
                        chunks, tenant_quantum(params, tenant.asid))
                core = Core(slot_id, mmu, self.hierarchy, chunks,
                            gap_cycles=tenant.workload.gap_cycles,
                            mlp=config.core.mlp,
                            issue_cycles=config.core.issue_cycles)
                slot_cores.append(core)
                self.mmus.append(mmu)
                self.cores.append(core)
            self.pwc_sets.append(pwcs)
            slots.append(SlotSchedule(slot_id, slot_cores, tlbs, pwcs))
        self.engine = (ScheduledEngine(slots, params, self.coordinator)
                       if multi else SimulationEngine(self.cores))

    def _build_tenant(self, asid: int, workload_key: str) -> Tenant:
        """One process: workload stream, page table and OS view.

        Tenant 0 keeps the base seed, so a one-tenant machine runs the
        same stream as the plain single-process configuration.  The
        OS hooks into the coordinator only when co-runners exist.
        """
        cfg = self.config
        workload = make_workload(workload_key, scale=cfg.scale,
                                 seed=tenant_seed(cfg.seed, asid))
        table = self.spec.build_table(self.allocator)
        coordinator = self.coordinator
        hooks = {} if coordinator is None else dict(
            on_unmap=coordinator.unmap_hook(asid),
            peer_reclaim=coordinator.peer_reclaim_hook(asid),
            extra_fault_cycles=coordinator.drain_cycles)
        os_model = OSMemoryManager(
            self.allocator, table, policy=self.spec.paging_policy,
            costs=cfg.fault_costs,
            thp_promotion_fraction=cfg.thp_promotion_fraction, **hooks)
        if coordinator is not None:
            coordinator.register_tenant(asid, os_model)
        return Tenant(asid, workload_key, workload, table, os_model)

    def _prefault(self, warmup: int, feeds: Dict[int, Optional[int]],
                  replay) -> None:
        """Untimed warmup: demand-page every stream's early footprint.

        Runs each (tenant, slot) stream's first ``warmup`` references
        through its tenant's OS fault path only — no cycles are
        charged, but allocator and page-table state (huge-page
        placement, contiguity consumption, ECH growth, reclaim under
        pressure) fully materialize, exactly like the paper's untimed
        initialization phase.  Streams are interleaved in 256-reference
        quanta, slot-major, so allocations interleave the way the run
        does; chunked consumption gives the same allocation order as
        stepping them one reference at a time in that round-robin.
        Fault counters and scheduler accounting are reset afterwards:
        warmup is setup, not region-of-interest.
        """
        if warmup <= 0:
            return
        streams = []
        for slot in range(self.config.num_cores):
            for tenant in self.tenants:
                # Without a replay, prefault only reads addresses: skip
                # the VPN/line-array materialization the cores need.
                chunks = tenant.workload.stream_chunks(
                    slot, warmup, chunk_refs=feeds[tenant.asid],
                    probe_keys=replay is not None)
                if replay is not None:
                    chunks = _recorded(chunks,
                                       replay[(tenant.asid, slot)])
                streams.append([tenant.os.fault_in, slot, tenant.asid,
                                chunks, [], 0])
        # Repeat touches of a page already mapped in a tenant's table
        # are no-ops, so they are skipped via one seen-set per tenant —
        # *until* the first reclaim anywhere: once any tenant evicts
        # (its own pages or a peer's), a previously mapped page may
        # need re-faulting and every touch goes through the full path
        # again (seed-identical behaviour under memory pressure).
        seen: Optional[List[set]] = [set() for _ in self.tenants]
        # Prefaulting allocates heavily and builds no reference
        # cycles; like the run loop, it pauses the cyclic collector.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            active = streams
            while active:
                still_active = []
                for stream in active:
                    fault_in, slot, asid, chunks, addrs, pos = stream
                    quota = 256
                    exhausted = False
                    while quota:
                        if pos >= len(addrs):
                            nxt = next(chunks, None)
                            if nxt is None:
                                exhausted = True
                                break
                            addrs = stream[4] = nxt[0]
                            pos = 0
                        stop = min(pos + quota, len(addrs))
                        batch = addrs[pos:stop]
                        done = fault_in(batch, slot,
                                        None if seen is None
                                        else seen[asid])
                        if done < len(batch):
                            seen = None  # pressure: exact from here
                            fault_in(batch[done:], slot)
                        quota -= stop - pos
                        pos = stop
                    stream[5] = pos
                    if not exhausted:
                        still_active.append(stream)
                active = still_active
        finally:
            if gc_was_enabled:
                gc.enable()
        for tenant in self.tenants:
            tenant.os.stats = type(tenant.os.stats)()
        if self.coordinator is not None:
            self.coordinator.reset()

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

    def run(self) -> float:
        """Execute all cores to completion; return global cycles.

        Each core's chunk coroutine parks forever at its final yield
        holding the core, a reference cycle that would keep the whole
        machine (caches, tables, replay chunks) alive until the cyclic
        collector runs.  Closing the coroutines lets refcounting free a
        finished System as soon as its last reference goes.
        """
        try:
            return self.engine.run()
        finally:
            for core in self.cores:
                if core._runner is not None:
                    core._runner.close()
                    core._runner = None

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


def _recorded(chunks, record: List[tuple]):
    """Pass ``chunks`` through, appending each to ``record``."""
    for chunk in chunks:
        record.append(chunk)
        yield chunk
