"""Page-walk caches (Section V-C, Fig. 10).

Each page-table level has a small dedicated cache of recently used
entries, tagged by the translation prefix that level consumes (the
MMU-cache design of Barr et al.).  A hit at level L lets the walker skip
the memory accesses for L and everything above it and resume below.

NDPage keeps the near-perfect L4/L3 PWCs and concentrates the poorly
caching bottom of the tree into a single flattened level, so a typical
walk costs one memory access.

Under multiprogramming the walker tags every key with the owning
address space's ASID (packed above the prefix bits, see
:data:`repro.vm.address.ASID_SHIFT`), so co-runners' entries coexist;
when the scheduler must recycle ASIDs it calls :meth:`PwcSet.flush`,
which clears every level in place (the walker's pre-resolved set
bindings stay valid) and counts the flush for the scheduler's
accounting.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.stats import HitMissStats


class PageWalkCache:
    """Small set-associative cache of one level's page-table entries."""

    __slots__ = ("level", "entries", "associativity", "latency",
                 "num_sets", "stats", "_sets")

    def __init__(self, level: str, entries: int = 32,
                 associativity: int = 4, latency: int = 1):
        if entries % associativity != 0:
            raise ValueError("entries must divide by associativity")
        self.level = level
        self.entries = entries
        self.associativity = associativity
        self.latency = latency
        self.num_sets = entries // associativity
        self.stats = HitMissStats()
        # One insertion-ordered dict per set (oldest first = LRU),
        # keyed by the integer prefix; the walker selects the set by
        # ``key % num_sets`` (low prefix bits, like a real MMU cache,
        # and stable across processes) and probes, refreshes and fills
        # it inline.
        self._sets: List[Dict[int, None]] = [
            {} for _ in range(self.num_sets)
        ]

    def flush(self) -> None:
        for pwc_set in self._sets:
            pwc_set.clear()


class PwcSet:
    """The per-core collection of level PWCs used by a walker."""

    def __init__(self, levels, entries: int = 32, associativity: int = 4,
                 latency: int = 1):
        self.latency = latency
        self.flushes = 0
        self._caches: Dict[str, PageWalkCache] = {
            level: PageWalkCache(level, entries, associativity, latency)
            for level in levels
        }

    def caches(self) -> Dict[str, PageWalkCache]:
        """All level caches, keyed by level name."""
        return dict(self._caches)

    def flush(self) -> None:
        """Clear every level in place (ASID recycle / full shootdown)."""
        self.flushes += 1
        for cache in self._caches.values():
            cache.flush()
