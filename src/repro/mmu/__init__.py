"""MMU substrate: TLBs, page-walk caches, walker, MMU composition."""

from repro.mmu.mmu import Mmu, MmuStats
from repro.mmu.pwc import PageWalkCache, PwcSet
from repro.mmu.tlb import Tlb, TlbHierarchy, build_table1_tlbs
from repro.mmu.walker import PageTableWalker, WalkerStats

__all__ = [
    "Mmu",
    "MmuStats",
    "PageTableWalker",
    "PageWalkCache",
    "PwcSet",
    "Tlb",
    "TlbHierarchy",
    "WalkerStats",
    "build_table1_tlbs",
]
