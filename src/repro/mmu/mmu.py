"""Memory-management unit: TLB hierarchy + walker + OS fault path.

``translate_parts`` implements the Fig. 3 / Fig. 11 flow for one reference:

1. probe the TLBs (L1 4 KB and 2 MB in parallel, then L2);
2. on a full miss, let the OS resolve any page fault (demand paging),
   then run the page-table walker;
3. install the resulting translation back into the TLBs.

Translation cycles (TLB + walk) and OS fault cycles are accounted
separately: the paper's "address translation overhead" (Fig. 5) is the
former, while end-to-end speedups include both.

Hot-path design: :meth:`Mmu.translate_parts` is the allocation-free
entry point — it returns the plain tuple ``(paddr, latency,
fault_cycles, tlb_hit, walked)`` and inlines the L1-DTLB hit (one dict
probe), which is the overwhelmingly common outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mmu.tlb import TlbHierarchy
from repro.mmu.walker import PageTableWalker
from repro.sim.stats import LatencyStats
from repro.vm.address import ASID_KEY_MASK, PAGE_SHIFT, VA_MASK, asid_tag
from repro.vm.os_model import OSMemoryManager


@dataclass(slots=True)
class MmuStats:
    translations: int = 0
    tlb_hits: int = 0
    walks: int = 0
    translation_cycles: float = 0.0
    fault_cycles: float = 0.0
    walk_latency: LatencyStats = field(default_factory=LatencyStats)

    @property
    def tlb_miss_rate(self) -> float:
        if self.translations == 0:
            return 0.0
        return 1.0 - self.tlb_hits / self.translations

    def reset(self) -> None:
        self.translations = 0
        self.tlb_hits = 0
        self.walks = 0
        self.translation_cycles = 0.0
        self.fault_cycles = 0.0
        self.walk_latency.reset()


class Mmu:
    """Per-core MMU sharing a page table and OS with its siblings.

    Args:
        core_id: owning core.
        tlbs: private TLB hierarchy.
        walker: private page-table walker (shared table behind it).
        os_model: shared OS memory manager (fault handling).
        ideal: when True, every translation hits a zero-latency TLB —
            the paper's *Ideal* mechanism.  Demand-paging still occurs
            (frames must exist), and its cost is still charged, so the
            comparison against real mechanisms stays apples-to-apples.
        asid: address-space id of the process this MMU context serves.
            Packed above the VPN bits of every TLB key (ASID 0 tags to
            0, leaving single-process keys untouched), so contexts of
            co-scheduled tenants share one TLB hierarchy without
            aliasing each other's translations.
    """

    __slots__ = ("core_id", "tlbs", "walker", "os", "ideal", "asid",
                 "asid_tag", "stats")

    def __init__(self, core_id: int, tlbs: TlbHierarchy,
                 walker: PageTableWalker, os_model: OSMemoryManager,
                 ideal: bool = False, asid: int = 0):
        self.core_id = core_id
        self.tlbs = tlbs
        self.walker = walker
        self.os = os_model
        self.ideal = ideal
        self.asid = asid
        self.asid_tag = asid_tag(asid)
        self.stats = MmuStats()

    def translate_parts(self, now: float, vaddr: int):
        """Translate ``vaddr`` for an access issued at cycle ``now``.

        Allocation-free fast path.  Returns the plain tuple
        ``(paddr, latency, fault_cycles, tlb_hit, walked)``.
        """
        stats = self.stats
        stats.translations += 1
        # ASID-tagged TLB key; the tag is 0 (a no-op OR) for the
        # single-address-space configurations.
        page = ((vaddr & VA_MASK) >> PAGE_SHIFT) | self.asid_tag

        if self.ideal:
            translation, fault_cycles = self.os.ensure_translated(
                vaddr, site=self.core_id)
            stats.tlb_hits += 1
            stats.fault_cycles += fault_cycles
            shift = translation.page_shift
            return ((translation.pfn << shift)
                    | (vaddr & ((1 << shift) - 1)),
                    0.0, fault_cycles, True, False)

        # Inlined L1-DTLB probe (the common case: one dict round-trip).
        tlbs = self.tlbs
        tlbs.lookups += 1
        l1 = tlbs.l1_small
        tlb_set = l1._sets[page % l1.num_sets]
        translation = tlb_set.get(page)
        if translation is not None:
            l1.stats.hits += 1
            tlb_set[page] = tlb_set.pop(page)  # refresh LRU position
            latency = l1.latency
            stats.tlb_hits += 1
            stats.translation_cycles += latency
            shift = translation[1]  # Translation fields by index (hot)
            return ((translation[0] << shift)
                    | (vaddr & ((1 << shift) - 1)),
                    latency, 0.0, True, False)
        l1.stats.misses += 1
        return self._translate_slow(now, vaddr, page)

    def _translate_slow(self, now: float, vaddr: int, page: int):
        """L1-DTLB miss: 2 MB L1 / L2 TLBs, then fault + walk.

        ``page`` is the ASID-tagged key (tag 0 single-process); the
        page table works on the untagged VPN, as each tenant has its
        own table.
        """
        stats = self.stats
        translation, latency = \
            self.tlbs.lookup_after_l1_small_miss(page)
        if translation is not None:
            stats.tlb_hits += 1
            stats.translation_cycles += latency
            shift = translation[1]
            return ((translation[0] << shift)
                    | (vaddr & ((1 << shift) - 1)),
                    latency, 0.0, True, False)

        # Full TLB miss: resolve any fault, then walk.  One table
        # descent yields the walk and the translation; only an actual
        # fault (walk_info None) takes the OS path, after which the
        # page is mapped and the walk resolves.
        walker = self.walker
        walk_info = walker.table.walk_info
        vpn = page & ASID_KEY_MASK
        info = walk_info(vpn)
        if info is not None:
            fault_cycles = 0.0
        else:
            _, fault_cycles = self.os.ensure_translated(
                vaddr, site=self.core_id)
            info = walk_info(vpn)
        flat, staged, translation = info
        walk_latency = walker.walk_from_plan(
            now + latency + fault_cycles, flat, staged)
        latency += walk_latency
        self.tlbs.insert(page, translation)

        stats.walks += 1
        stats.translation_cycles += latency
        stats.fault_cycles += fault_cycles
        walk_stats = stats.walk_latency
        walk_stats.total += walk_latency
        walk_stats.count += 1
        if walk_latency > walk_stats.maximum:
            walk_stats.maximum = walk_latency
        shift = translation[1]
        return ((translation[0] << shift)
                | (vaddr & ((1 << shift) - 1)),
                latency, fault_cycles, False, True)
