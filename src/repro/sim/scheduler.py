"""Multi-process scheduling: time-slicing tenants onto cores.

Single-address-space runs give every core one reference stream and one
MMU context.  Under multiprogramming (``SystemConfig.tenants > 1``) each
physical core *slot* instead carries one execution context per tenant —
a :class:`~repro.sim.core_model.Core` bound to that tenant's MMU view —
and this module's :class:`ScheduledEngine` round-robins the contexts on
each slot with a configurable quantum, the way an OS scheduler
time-slices runnable processes.

What a context switch costs and preserves
-----------------------------------------
Every switch charges ``context_switch_cycles`` to the slot's timeline
(register save/restore, kernel scheduling work).  What happens to the
translation state depends on the hardware ASID space
(:class:`~repro.sim.config.SchedulerParams`):

* while co-runners fit in ``max_asids``, TLB and PWC entries are
  ASID-tagged and survive the switch — the incoming tenant re-enters a
  warm TLB exactly as PCID-equipped hardware allows;
* once processes outnumber ASIDs (or ``flush_on_switch`` forces it),
  the OS must recycle ids and every switch flushes the slot's TLBs and
  page-walk caches — the pre-PCID world, and the worst case the paper's
  mechanisms differentiate under.

Shootdowns and cross-tenant pressure
------------------------------------
All tenants allocate from one shared :class:`~repro.vm.frames
.FrameAllocator`, so one tenant's footprint is another's memory
pressure.  The :class:`TenantCoordinator` wires the per-tenant
:class:`~repro.vm.os_model.OSMemoryManager` instances together: when
reclaim unmaps a page it broadcasts a TLB shootdown (invalidating the
ASID-tagged entry on every slot and charging ``shootdown_cycles`` to
the core whose fault forced the eviction), and when a tenant has
nothing left to evict it reclaims from the most resident co-tenant
instead of dying on OOM.

Determinism: scheduling is driven entirely by reference counts and
simulated time — no host state — so multi-tenant runs are bit-identical
across processes and sweep worker counts, like everything else in the
simulator.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import List, Optional

from math import inf

from repro.mmu.pwc import PwcSet
from repro.mmu.tlb import TlbHierarchy
from repro.sim.config import SchedulerParams
from repro.sim.core_model import Core
from repro.sim.engine import (
    LINEAR_SCAN_MAX,
    SimulationEngine,
    drive_heap,
    drive_linear,
    reference_engine_enabled,
)
from repro.vm.address import asid_tag
from repro.vm.frames import OutOfMemoryError
from repro.vm.os_model import OSMemoryManager


@dataclass(slots=True)
class SchedulerStats:
    """What the scheduler did over one run."""

    context_switches: int = 0
    preserved_switches: int = 0   # ASID kept the TLB/PWC contents warm
    flush_switches: int = 0       # ASID recycle forced a full flush
    switch_cycles: float = 0.0
    shootdowns: int = 0           # pages invalidated by reclaim unmaps
    shootdown_ipis: int = 0       # IPIs charged (== shootdowns unbatched)
    shootdown_cycles: float = 0.0
    cross_tenant_reclaims: int = 0

    def reset(self) -> None:
        """Zero every counter (field-generic, so counters added later
        cannot leak warmup accounting into the timed region)."""
        for stats_field in dataclasses.fields(self):
            setattr(self, stats_field.name, stats_field.default)


class TenantCoordinator:
    """Cross-tenant OS glue: TLB shootdowns and pressure reclaim.

    One per multi-tenant system.  Tenants and slots register during
    assembly; the factory methods hand each
    :class:`~repro.vm.os_model.OSMemoryManager` its hooks.
    """

    def __init__(self, params: SchedulerParams):
        self.params = params
        self.stats = SchedulerStats()
        self._slots: List[TlbHierarchy] = []
        self._tenants: List[tuple] = []   # (asid, os_model)
        self._pending_cycles = 0.0
        self._reclaiming = False
        # Shootdown batching (Linux's arch_tlbbatch model): unmapped
        # pages are invalidated immediately for correctness, but the
        # IPI bill accrues once per ``shootdown_batch`` pages — the
        # pending set accumulates across reclaim passes and the core
        # that fills a batch pays its IPI.  A final partial batch never
        # bills (bounded undercharge of one IPI per run).
        self._shootdown_cost = float(params.shootdown_cycles)
        self._batch_fill = 0

    def register_slot(self, tlbs: TlbHierarchy) -> None:
        self._slots.append(tlbs)

    def register_tenant(self, asid: int, os_model: OSMemoryManager
                        ) -> None:
        self._tenants.append((asid, os_model))

    # -- OSMemoryManager hooks ---------------------------------------

    def unmap_hook(self, asid: int):
        """``on_unmap`` hook for tenant ``asid``: broadcast a shootdown.

        The IPI goes to every slot (the tenant may have run anywhere);
        its cost accrues to :meth:`drain_cycles`, which the faulting
        tenant's OS folds into the fault it is handling — the initiator
        pays, as with Linux's direct-reclaim shootdowns.  With
        ``shootdown_batch > 1`` the invalidations still land
        immediately (TLB correctness) but one IPI covers each batch of
        unmaps, the flush coalescing Linux applies to reclaim.
        """
        tag = asid_tag(asid)
        stats = self.stats
        cost = self._shootdown_cost
        batch = self.params.shootdown_batch

        def on_unmap(page: int, huge: bool) -> None:
            stats.shootdowns += 1
            key = page | tag
            for tlbs in self._slots:
                tlbs.invalidate_page(key, huge)
            if batch <= 1:
                stats.shootdown_ipis += 1
                stats.shootdown_cycles += cost
                self._pending_cycles += cost
                return
            self._batch_fill += 1
            if self._batch_fill >= batch:
                self._batch_fill = 0
                stats.shootdown_ipis += 1
                stats.shootdown_cycles += cost
                self._pending_cycles += cost

        return on_unmap

    def drain_cycles(self) -> float:
        """``extra_fault_cycles`` hook: uncharged shootdown cycles.

        A partially filled shootdown batch stays pending across
        faults (deferred flush batching); only full batches have
        billed by the time this drains.
        """
        pending = self._pending_cycles
        self._pending_cycles = 0.0
        return pending

    def peer_reclaim_hook(self, asid: int):
        """``peer_reclaim`` hook: evict from the most resident peer.

        Victims are tried most-resident-first (reclaim-list length,
        asid as the deterministic tiebreak).  Returns True once any
        peer freed memory; False when every peer is exhausted too (the
        caller then raises the machine-wide OOM).  Re-entry is guarded:
        a victim's own reclaim never cascades into further peers.
        """

        def peer_reclaim() -> bool:
            if self._reclaiming:
                return False
            self._reclaiming = True
            try:
                victims = sorted(
                    ((os_model.resident_records, peer, os_model)
                     for peer, os_model in self._tenants
                     if peer != asid),
                    key=lambda item: (-item[0], item[1]))
                for _, _, victim in victims:
                    try:
                        victim.reclaim_one()
                    except OutOfMemoryError:
                        continue
                    self.stats.cross_tenant_reclaims += 1
                    return True
                return False
            finally:
                self._reclaiming = False

        return peer_reclaim

    def reset(self) -> None:
        """Forget warmup-phase accounting before the timed region."""
        self.stats.reset()
        self._pending_cycles = 0.0
        self._batch_fill = 0


class SlotSchedule:
    """One physical core slot and the tenant contexts sharing it."""

    __slots__ = ("slot_id", "cores", "tlbs", "pwcs", "alive", "active",
                 "quantum_refs")

    def __init__(self, slot_id: int, cores: List[Core],
                 tlbs: TlbHierarchy, pwcs: Optional[PwcSet]):
        self.slot_id = slot_id
        self.cores = list(cores)        # one per tenant, asid order
        self.tlbs = tlbs
        self.pwcs = pwcs
        self.alive = list(self.cores)   # round-robin run queue
        self.active = 0                 # index into ``alive``
        self.quantum_refs = 0           # refs consumed in this slice


class ScheduledEngine(SimulationEngine):
    """Quantum-based round-robin of tenant contexts over core slots.

    Single-slot runs drive the chunked fast path — one
    ``step_until(now, inf, quantum)`` call is one time slice.
    Multi-slot runs interleave slots in global time (shared-DRAM
    ordering) through the same run-ahead scheme as the plain engine: a
    linear-scan array of next-ready slots up to ``LINEAR_SCAN_MAX``, a
    heap above it, and the per-reference heap loop retained as the
    debug reference engine behind ``REPRO_REFERENCE_ENGINE=1``.  The
    run-ahead deadline composes with the quantum: the active context
    runs to the next other-slot event or the end of its slice,
    whichever comes first.  All paths charge switches and model ASID
    behaviour identically, reference for reference.
    """

    def __init__(self, slots: List[SlotSchedule],
                 params: SchedulerParams,
                 coordinator: TenantCoordinator):
        super().__init__([core for slot in slots for core in slot.cores])
        self.slots = slots
        self.params = params
        self.coordinator = coordinator
        self.stats = coordinator.stats
        tenant_count = max(len(slot.cores) for slot in slots)
        self._flush_on_switch = (params.flush_on_switch
                                 or tenant_count > params.max_asids)
        # Per-context quantum (weighted quanta): each core context's
        # slice length scales with its tenant's weight.  Without
        # weights the quantum is one constant, kept separately so the
        # heap engine's per-reference check stays a plain int compare
        # (no dict lookup) on the common unweighted path.
        self._quanta = {
            id(core): tenant_quantum(params, core.mmu.asid)
            for slot in slots for core in slot.cores
        }
        self._uniform_quantum = (params.quantum_refs
                                 if not params.tenant_weights else None)
        # Per-context coroutine senders, built at run time (see _run).
        self._senders = {}

    # -- switching ---------------------------------------------------

    def _switch(self, slot: SlotSchedule, now: float) -> float:
        """Charge one context switch on ``slot``; return the new time."""
        stats = self.stats
        stats.context_switches += 1
        cost = float(self.params.context_switch_cycles)
        stats.switch_cycles += cost
        if self._flush_on_switch:
            stats.flush_switches += 1
            slot.tlbs.flush()
            if slot.pwcs is not None:
                slot.pwcs.flush()
        else:
            stats.preserved_switches += 1
        return now + cost

    def _retire(self, slot: SlotSchedule, now: float) -> Optional[float]:
        """Drop the active (finished) context; switch to the next.

        Returns the time the next context resumes, or None when the
        slot's run queue is empty.
        """
        slot.alive.pop(slot.active)
        if not slot.alive:
            return None
        if slot.active >= len(slot.alive):
            slot.active = 0
        slot.quantum_refs = 0
        return self._switch(slot, now)

    # -- execution ---------------------------------------------------

    def _run(self) -> None:
        if reference_engine_enabled():
            # Debug: reference-granular heap scheduling — also for a
            # single slot (bit-identical to the chunked slicing, so
            # the env var always bypasses the fast path).
            self._run_heap_sched()
        elif len(self.slots) == 1:
            self._run_single_slot(self.slots[0])
        else:
            # Direct coroutine senders, one per context: a run-ahead
            # batch costs one C-level generator resume.
            self._senders = {
                id(core): core.runner_send()
                for slot in self.slots for core in slot.cores
            }
            if len(self.slots) <= LINEAR_SCAN_MAX:
                self._run_linear_sched()
            else:
                self._run_heap_sched_runahead()

    def _run_single_slot(self, slot: SlotSchedule) -> None:
        """Quantum-granular slicing on the heap-free fast path."""
        quanta = self._quanta
        now = 0.0
        while slot.alive:
            core = slot.alive[slot.active]
            if len(slot.alive) == 1:
                # Last context standing: no more switches, run it out.
                next_ready = core.step_until(now, inf)
            else:
                next_ready = core.step_until(now, inf,
                                             quanta[id(core)])
            if next_ready is None:
                now = max(now, core.stats.cycles)
                resumed = self._retire(slot, now)
                if resumed is None:
                    return
                now = resumed
            else:
                slot.active = (slot.active + 1) % len(slot.alive)
                now = self._switch(slot, next_ready)

    def _advance_slot(self, slot: SlotSchedule, now: float,
                      bound: float) -> Optional[float]:
        """Run ``slot``'s active context ahead to ``bound`` or the end
        of its quantum; return the slot's next event key (None when
        the slot's run queue emptied).

        Exactly replicates the reference engine's per-reference
        accounting: partial slices accumulate ``quantum_refs`` across
        activations, a filled quantum switches immediately (the switch
        only touches slot-local state, so its placement relative to
        other slots' references is immaterial), and a context's end of
        stream retires it at its drained ready time.
        """
        core = slot.alive[slot.active]
        if len(slot.alive) > 1:
            uniform = self._uniform_quantum
            quantum = uniform if uniform is not None \
                else self._quanta[id(core)]
            limit = quantum - slot.quantum_refs
            start_refs = core.stats.references
            next_ready = self._senders[id(core)]((now, bound, limit))
        else:
            limit = None
            next_ready = self._senders[id(core)]((now, bound, None))
        if next_ready is None:
            return self._retire(slot, max(now, core.stats.cycles))
        if limit is not None:
            consumed = core.stats.references - start_refs
            slot.quantum_refs += consumed
            if consumed >= limit:
                slot.quantum_refs = 0
                slot.active = (slot.active + 1) % len(slot.alive)
                next_ready = self._switch(slot, next_ready)
        return next_ready

    def _run_linear_sched(self) -> None:
        """Run-ahead over a linear-scan array of next-ready slots."""
        slots = sorted(self.slots, key=lambda slot: slot.slot_id)
        advance_slot = self._advance_slot

        def advance(i, now, bound):
            return advance_slot(slots[i], now, bound)

        drive_linear(len(slots), advance)

    def _run_heap_sched_runahead(self) -> None:
        """Run-ahead under a heap (slot counts past the scan window)."""
        by_id = {slot.slot_id: slot for slot in self.slots}
        advance_slot = self._advance_slot

        def advance(slot_id, now, bound):
            return advance_slot(by_id[slot_id], now, bound)

        drive_heap(sorted(by_id), advance)

    def _run_heap_sched(self) -> None:
        """Debug reference engine: one heap pop per reference
        (``REPRO_REFERENCE_ENGINE=1``); the run-ahead loops must match
        it bit for bit."""
        quanta = self._quanta
        uniform = self._uniform_quantum  # int, or None when weighted
        heap = [(0.0, slot.slot_id) for slot in self.slots]
        heapq.heapify(heap)
        by_id = {slot.slot_id: slot for slot in self.slots}
        while heap:
            now, slot_id = heapq.heappop(heap)
            slot = by_id[slot_id]
            core = slot.alive[slot.active]
            next_ready = core.step(now)
            if next_ready is None:
                resumed = self._retire(slot, max(now, core.stats.cycles))
                if resumed is not None:
                    heapq.heappush(heap, (resumed, slot_id))
                continue
            slot.quantum_refs += 1
            if (slot.quantum_refs >= (uniform or quanta[id(core)])
                    and len(slot.alive) > 1):
                slot.quantum_refs = 0
                slot.active = (slot.active + 1) % len(slot.alive)
                next_ready = self._switch(slot, next_ready)
            heapq.heappush(heap, (next_ready, slot_id))


def tenant_quantum(params: SchedulerParams, asid: int) -> int:
    """Effective time slice for tenant ``asid`` in references.

    ``tenant_weights`` scales the base quantum per tenant (priority
    scheduling: weight 2.0 runs twice as long per slice); absent
    weights every tenant gets ``quantum_refs`` — the original equal
    round-robin, bit for bit.
    """
    weights = params.tenant_weights
    if not weights:
        return params.quantum_refs
    return max(1, int(round(params.quantum_refs * weights[asid])))


def quantum_chunks(chunks, quantum: int):
    """Split a chunk stream so no chunk crosses a quantum boundary.

    Keeps chunk handover aligned to time slices — including when the
    quantum exceeds the workload's generation batch (cumulative
    boundaries like 8192+1808 for a 10000-ref quantum).  Every field of
    a chunk is sliced alike, so chunk arity is preserved; pure list
    slicing on already-generated chunks, so the underlying RNG draw
    sequence is untouched.
    """
    used = 0
    for chunk in chunks:
        pos = 0
        end = len(chunk[0])
        while pos < end:
            take = min(quantum - used, end - pos)
            if pos == 0 and take == end:
                yield chunk
            else:
                stop = pos + take
                yield tuple(field[pos:stop] for field in chunk)
            used = (used + take) % quantum
            pos += take


def tenant_seed(base_seed: int, asid: int) -> int:
    """Deterministic per-tenant workload seed.

    Distinct co-runners of the same workload key get distinct streams
    (independent processes, not lockstep clones); tenant 0 keeps the
    base seed so a 1-tenant schedule touches the same addresses as the
    plain single-process configuration.
    """
    return (base_seed + 1_009 * asid) & 0xFFFFFFFF
