"""Core timing model.

Each core consumes its workload's reference stream.  Per reference:

1. the MMU translates the virtual address — translation (and any page
   fault) *serializes*, since no data can move before its physical
   address is known;
2. the data access is issued into a bounded window of outstanding
   misses (``mlp``), so independent data accesses overlap — the
   memory-level parallelism that lets data-intensive cores pressure
   DRAM the way the paper's out-of-order cores do;
3. the core advances by its issue cost plus the workload's inter-
   reference compute gap (non-memory instructions at 1 IPC).

The model is deliberately simple — mechanistic, like Sniper's interval
core — because every compared mechanism runs on the *same* core model
and only the translation path differs.

Hot-path design: a core is fed whole reference chunks (handed over by
:meth:`repro.workloads.base.Workload.stream_chunks` as plain lists with
precomputed VPN and line-address arrays).  :meth:`Core.step_until`
advances through as many references as its caller's time bound (and
optional reference budget) allows — resuming mid-chunk via a
persistent cursor and refilling across chunk boundaries — inlining
the L1-DTLB-hit + L1-cache-hit fast path and falling back to the
shared slow paths (``Mmu._translate_slow``,
``MemoryHierarchy.access_fast``) only on misses, so the common
reference allocates nothing and crosses no function-call boundary.
Single-core engines call it once with an infinite bound; the
multi-core run-ahead engines call it with the next other-core event
time as the bound (see :mod:`repro.sim.engine`).  :meth:`Core.step`
remains the one-reference entry point (the debug reference engine)
and produces bit-identical statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional

from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.request import KIND_DATA
from repro.mmu.mmu import Mmu
from repro.vm.address import LINE_SHIFT, PAGE_SHIFT


@dataclass(slots=True)
class CoreStats:
    """Cycle and instruction accounting for one core."""

    references: int = 0
    instructions: int = 0
    cycles: float = 0.0
    translation_cycles: float = 0.0
    fault_cycles: float = 0.0
    data_stall_cycles: float = 0.0

    @property
    def translation_fraction(self) -> float:
        """Share of runtime spent translating (Fig. 5's blue bars)."""
        if self.cycles == 0:
            return 0.0
        return self.translation_cycles / self.cycles

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


class Core:
    """One NDP/CPU core bound to a reference stream and an MMU.

    ``chunks`` iterates the core's references as ``(addrs, writes,
    vpns, vlines)`` chunks — equal length plain lists, where ``vpns[i]
    == (addrs[i] & VA_MASK) >> PAGE_SHIFT`` and ``vlines[i] ==
    addrs[i] >> LINE_SHIFT`` (the numpy-precomputed probe keys of
    :meth:`repro.workloads.base.Workload.stream_chunks`; build them for
    hand-made addresses with :func:`repro.workloads.base
    .chunk_probe_keys`).
    """

    def __init__(self, core_id: int, mmu: Mmu, hierarchy: MemoryHierarchy,
                 chunks: Iterator[tuple], gap_cycles: int, mlp: int = 4,
                 issue_cycles: int = 1):
        if mlp < 1:
            raise ValueError("mlp must be >= 1")
        self.core_id = core_id
        self.mmu = mmu
        self.hierarchy = hierarchy
        self.gap_cycles = gap_cycles
        self.mlp = mlp
        self.issue_cycles = issue_cycles
        self.stats = CoreStats()
        self._chunks = chunks
        self._buf_addrs: List[int] = []
        self._buf_writes: List[bool] = []
        self._buf_vpns: List[int] = []
        self._buf_vlines: List[int] = []
        self._buf_pos = 0
        self._outstanding: Deque[float] = deque()
        self._finished = False
        # Persistent chunk-loop coroutine (created on first use): keeps
        # the hot loop's ~30 local bindings alive across step_until
        # calls, so a run-ahead batch of one reference costs a
        # generator resume, not a full prologue.
        self._runner = None

    @property
    def finished(self) -> bool:
        return self._finished

    def _refill(self) -> bool:
        """Pull the next non-empty chunk into the buffer; False when
        the chunk stream is exhausted (empty chunks are skipped, not
        treated as end-of-stream)."""
        while True:
            nxt = next(self._chunks, None)
            if nxt is None:
                return False
            addrs, writes, vpns, vlines = nxt
            if len(addrs) > 0:
                self._buf_addrs = addrs
                self._buf_writes = writes
                self._buf_vpns = vpns
                self._buf_vlines = vlines
                self._buf_pos = 0
                return True

    def step(self, now: float) -> Optional[float]:
        """Execute one memory reference starting at cycle ``now``.

        Returns the cycle at which the core is ready for its next
        reference, or None when the stream is exhausted (after draining
        outstanding accesses into the cycle count).
        """
        if self._buf_pos >= len(self._buf_addrs) and not self._refill():
            self._drain(now)
            return None
        pos = self._buf_pos
        vaddr = self._buf_addrs[pos]
        is_write = self._buf_writes[pos]
        self._buf_pos = pos + 1

        clock = now
        paddr, t_latency, fault_cycles, _, _ = \
            self.mmu.translate_parts(clock, vaddr)
        clock += t_latency + fault_cycles
        self.stats.translation_cycles += t_latency
        self.stats.fault_cycles += fault_cycles

        # Data access through the bounded miss window.
        if len(self._outstanding) >= self.mlp:
            oldest = self._outstanding.popleft()
            if oldest > clock:
                self.stats.data_stall_cycles += oldest - clock
                clock = oldest
        completion = clock + self.hierarchy.access_fast(
            clock, paddr, KIND_DATA, 1 if is_write else 0,
            self.core_id, 0)
        self._outstanding.append(completion)

        self.stats.references += 1
        self.stats.instructions += 1 + self.gap_cycles
        next_ready = clock + self.issue_cycles + self.gap_cycles
        self.stats.cycles = next_ready
        return next_ready

    def step_until(self, now: float, bound: float,
                   max_refs: Optional[int] = None) -> Optional[float]:
        """Run references back to back while ``now < bound``.

        The run-ahead entry point: executes every reference whose issue
        time falls strictly before ``bound`` (callers fold the event
        order's tie-break into the bound, see :mod:`repro.sim.engine`),
        and at most ``max_refs`` of them, resuming mid-chunk via the
        persistent cursor and refilling across chunk boundaries.

        Returns the cycle at which the core is ready for its next
        reference — its new event key — or None when the stream is
        exhausted (after draining outstanding accesses).  Identical
        simulation to issuing :meth:`step` once per reference: the
        L1-DTLB-hit + L1-cache-hit case is fully inlined, anything
        rarer takes the same shared slow paths, and float cycle
        accounting is applied per reference in the same order so every
        reported value is bit-identical.
        """
        return self.runner_send()((now, bound, max_refs))

    def runner_send(self):
        """One-call-per-batch entry point for the run-ahead engines.

        Returns a callable taking a single ``(now, bound, max_refs)``
        tuple — the bound ``send`` of the persistent chunk coroutine,
        so a batch costs one C-level generator resume with no Python
        wrapper frame.
        """
        runner = self._runner
        if runner is None:
            runner = self._runner = self._chunk_runner()
            next(runner)  # run the prologue, park at the first yield
        return runner.send

    def _chunk_runner(self):
        """Persistent coroutine behind :meth:`step_until`.

        Generator form of the chunk loop: every binding below survives
        across yields, so resuming costs one ``send`` instead of
        re-deriving ~30 locals per call.  Only the buffer cursor is
        re-read after each yield (``step`` may interleave in tests).
        All bound objects are identity-stable for the core's lifetime —
        TLB/cache flushes clear their set dicts in place — which is
        what makes the long-lived bindings safe.
        """
        # Local bindings for everything the per-reference loop touches.
        stats = self.stats
        mmu = self.mmu
        mmu_stats = mmu.stats
        hierarchy = self.hierarchy
        hier_stats = hierarchy.stats
        outstanding = self._outstanding
        mlp = self.mlp
        core_id = self.core_id
        gap_cycles = self.gap_cycles
        post_cycles = self.issue_cycles + gap_cycles
        per_ref_instr = 1 + gap_cycles

        ideal = mmu.ideal
        asid_key = mmu.asid_tag  # 0 single-process: the OR is a no-op
        if not ideal:
            tlbs = mmu.tlbs
            l1t = tlbs.l1_small
            l1t_sets = l1t._sets
            l1t_num_sets = l1t.num_sets
            l1t_latency = l1t.latency
            l1t_stats = l1t.stats
        l1c = hierarchy.l1ds[core_id]
        l1c_fast = l1c._is_lru
        l1c_sets = l1c._sets
        l1c_num_sets = l1c.num_sets
        l1c_shift = l1c._line_shift
        l1c_latency = l1c.hit_latency
        l1c_data_stats = l1c._kind_stats[KIND_DATA]
        # Precomputed-probe plumbing: chunks arrive with per-reference
        # VPNs and virtual line addresses (``vaddr >> LINE_SHIFT``), so
        # a 4 KB TLB hit forms its L1 line tag with two cheap int ops —
        # the physical address materializes only on an L1 miss.
        line_fast = l1c_shift == LINE_SHIFT
        pfn_line_shift = PAGE_SHIFT - l1c_shift if line_fast else 0
        vline_mask = (1 << pfn_line_shift) - 1
        page_mask = (1 << PAGE_SHIFT) - 1

        # Int counters are batched (exact); float cycle accounting goes
        # straight into the stats fields per reference so the summation
        # order — and with it every reported value — is bit-identical
        # to the one-reference step() path.
        now, bound, max_refs = yield
        references = 0
        instructions = 0

        while True:
            pos = self._buf_pos
            addrs = self._buf_addrs
            if pos >= len(addrs):
                if not self._refill():
                    stats.references += references
                    stats.instructions += instructions
                    self._drain(now)
                    # Stream exhausted: every further call behaves like
                    # step() on a finished core — drain (a no-op) and
                    # report None.
                    while True:
                        now, bound, max_refs = yield None
                        self._drain(now)
                pos = 0
                addrs = self._buf_addrs
            writes = self._buf_writes
            vpns = self._buf_vpns
            vlines = self._buf_vlines
            end = len(addrs)
            if max_refs is not None and end - pos > max_refs:
                end = pos + max_refs
            seg_start = pos

            while pos < end:
                if now >= bound:
                    self._buf_pos = pos
                    stats.references += references
                    stats.instructions += instructions
                    stats.cycles = now
                    now, bound, max_refs = yield now
                    references = 0
                    instructions = 0
                    pos = self._buf_pos
                    addrs = self._buf_addrs
                    writes = self._buf_writes
                    vpns = self._buf_vpns
                    vlines = self._buf_vlines
                    end = len(addrs)
                    if max_refs is not None and end - pos > max_refs:
                        end = pos + max_refs
                    seg_start = pos
                    continue
                vaddr = addrs[pos]
                is_write = writes[pos]
                clock = now

                # -- translation: inlined L1-DTLB hit, slow path ------
                if ideal:
                    paddr, t_latency, fault_cycles, _, _ = \
                        mmu.translate_parts(clock, vaddr)
                    clock += t_latency + fault_cycles
                    stats.translation_cycles += t_latency
                    stats.fault_cycles += fault_cycles
                    line = paddr >> l1c_shift
                else:
                    page = vpns[pos] | asid_key
                    tlb_set = l1t_sets[page % l1t_num_sets]
                    translation = tlb_set.get(page)
                    if translation is not None:
                        # Bookkeeping mirror of translate_parts's hit
                        # arm.
                        mmu_stats.translations += 1
                        tlbs.lookups += 1
                        l1t_stats.hits += 1
                        tlb_set[page] = tlb_set.pop(page)
                        mmu_stats.tlb_hits += 1
                        mmu_stats.translation_cycles += l1t_latency
                        stats.translation_cycles += l1t_latency
                        clock += l1t_latency
                        if line_fast and translation[1] == PAGE_SHIFT:
                            # L1 line tag straight from the precomputed
                            # virtual line address (C-speed on the
                            # hottest line of the simulator).
                            line = ((translation[0] << pfn_line_shift)
                                    | (vlines[pos] & vline_mask))
                            paddr = -1
                        else:
                            shift = translation[1]
                            paddr = ((translation[0] << shift)
                                     | (vaddr & ((1 << shift) - 1)))
                            line = paddr >> l1c_shift
                    else:
                        # Bookkeeping mirror of translate_parts's miss
                        # arm, then straight to the shared slow path
                        # (avoids re-probing the set just probed).
                        mmu_stats.translations += 1
                        tlbs.lookups += 1
                        l1t_stats.misses += 1
                        paddr, t_latency, fault_cycles, _, _ = \
                            mmu._translate_slow(clock, vaddr, page)
                        clock += t_latency + fault_cycles
                        stats.translation_cycles += t_latency
                        stats.fault_cycles += fault_cycles
                        line = paddr >> l1c_shift
                pos += 1

                # -- data access through the bounded miss window ------
                if len(outstanding) >= mlp:
                    oldest = outstanding.popleft()
                    if oldest > clock:
                        stats.data_stall_cycles += oldest - clock
                        clock = oldest

                # Inlined L1 hit (LRU caches only); misses take the
                # shared hierarchy fast path, which re-probes the set.
                cache_set = l1c_sets[line % l1c_num_sets]
                packed = cache_set.get(line)
                if packed is not None and l1c_fast:
                    hier_stats.accesses += 1
                    l1c_data_stats.hits += 1
                    cache_set[line] = cache_set.pop(line) | is_write
                    completion = clock + l1c_latency
                else:
                    if paddr < 0:
                        # Deferred from the fast TLB-hit arm (4 KB
                        # translation, so the shift is PAGE_SHIFT).
                        paddr = ((translation[0] << PAGE_SHIFT)
                                 | (vaddr & page_mask))
                    completion = clock + hierarchy.access_fast(
                        clock, paddr, KIND_DATA, is_write, core_id, 0)
                outstanding.append(completion)

                references += 1
                instructions += per_ref_instr
                now = clock + post_cycles

            self._buf_pos = pos
            if max_refs is not None:
                max_refs -= pos - seg_start
                if max_refs <= 0:
                    stats.references += references
                    stats.instructions += instructions
                    stats.cycles = now
                    now, bound, max_refs = yield now
                    references = 0
                    instructions = 0

    def _drain(self, now: float) -> None:
        """Wait for in-flight accesses once the stream ends."""
        end = now
        while self._outstanding:
            completion = self._outstanding.popleft()
            if completion > end:
                end = completion
        self.stats.cycles = max(self.stats.cycles, end)
        self._finished = True
