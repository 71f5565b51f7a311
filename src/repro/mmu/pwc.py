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

from typing import Dict, Hashable, List, Optional

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
        self._sets: List[Dict[Hashable, None]] = [
            {} for _ in range(self.num_sets)
        ]

    def _set_for(self, key: Hashable) -> Dict[Hashable, None]:
        # Walker keys are ('LEVEL', prefix) tuples; indexing by the
        # integer prefix matches how a real MMU cache selects its set
        # (low prefix bits) and — unlike hash() of a tuple containing a
        # str — is stable across processes, which keeps whole-run
        # statistics reproducible (str hashing is randomized per
        # process).  Non-tuple keys fall back to hash() for API
        # compatibility.
        if type(key) is tuple and type(key[-1]) is int:
            return self._sets[key[-1] % self.num_sets]
        return self._sets[hash(key) % self.num_sets]

    def lookup(self, key: Hashable) -> bool:
        pwc_set = self._set_for(key)
        if key in pwc_set:
            self.stats.hits += 1
            pwc_set[key] = pwc_set.pop(key)  # LRU refresh
            return True
        self.stats.misses += 1
        return False

    def insert(self, key: Hashable) -> None:
        pwc_set = self._set_for(key)
        if key in pwc_set:
            return
        if len(pwc_set) >= self.associativity:
            del pwc_set[next(iter(pwc_set))]
        pwc_set[key] = None

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

    def __contains__(self, level: str) -> bool:
        return level in self._caches

    def cache_for(self, level: str) -> Optional[PageWalkCache]:
        return self._caches.get(level)

    def caches(self) -> Dict[str, PageWalkCache]:
        """All level caches, keyed by level name."""
        return dict(self._caches)

    def hit_rates(self) -> Dict[str, float]:
        return {
            level: cache.stats.hit_rate
            for level, cache in self._caches.items()
        }

    def merged_hit_rate(self, levels) -> float:
        hits = misses = 0
        for level in levels:
            cache = self._caches.get(level)
            if cache is not None:
                hits += cache.stats.hits
                misses += cache.stats.misses
        total = hits + misses
        return hits / total if total else 0.0

    def flush(self) -> None:
        """Clear every level in place (ASID recycle / full shootdown)."""
        self.flushes += 1
        for cache in self._caches.values():
            cache.flush()
