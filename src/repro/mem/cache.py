"""Set-associative cache model with data/metadata attribution.

The cache tracks, per line, whether it holds normal data or page-table
metadata.  This is what lets the simulator measure the paper's key
motivation numbers: the L1 miss rate of metadata (Fig. 7, ~98 %) and the
*pollution* effect — data lines evicted by metadata fills — that raises
the normal-data miss rate from its ideal value.

Hot-path design: resident lines are stored as packed ints
(``kind_index << 1 | dirty``) rather than per-line objects, and the
single entry point :meth:`Cache.access_fast` takes plain positional
arguments and returns an int code, describing any victim through
:attr:`Cache.evict_tag` / :attr:`Cache.evict_kind` — nothing is
allocated per access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.mem.replacement import (
    LruPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.mem.request import KIND_BY_INDEX, RequestKind
from repro.sim.stats import HitMissStats

#: Return codes of :meth:`Cache.access_fast`.
HIT = 0
MISS = 1
MISS_CLEAN_EVICT = 2
MISS_DIRTY_EVICT = 3


@dataclass(slots=True)
class CacheStats:
    """Per-kind hit/miss plus pollution accounting."""

    data: HitMissStats = field(default_factory=HitMissStats)
    metadata: HitMissStats = field(default_factory=HitMissStats)
    instruction: HitMissStats = field(default_factory=HitMissStats)
    # evictions_by[evictor_kind][victim_kind] -> count
    data_evicted_by_metadata: int = 0
    metadata_evicted_by_data: int = 0
    writebacks: int = 0

    def for_kind(self, kind: RequestKind) -> HitMissStats:
        if kind is RequestKind.DATA:
            return self.data
        if kind is RequestKind.METADATA:
            return self.metadata
        return self.instruction

    def reset(self) -> None:
        self.data.reset()
        self.metadata.reset()
        self.instruction.reset()
        self.data_evicted_by_metadata = 0
        self.metadata_evicted_by_data = 0
        self.writebacks = 0


class Cache:
    """A single set-associative, write-back, allocate-on-miss cache.

    Args:
        name: label used in aggregated statistics ('L1D', 'L2', ...).
        size_bytes: total capacity.
        associativity: ways per set.
        hit_latency: cycles charged for a lookup that hits (a miss also
            pays this lookup latency before descending, as in Sniper's
            cache model).
        line_size: bytes per line; Table I uses 64 B throughout.
        replacement: policy name understood by
            :func:`repro.mem.replacement.make_policy`.
    """

    __slots__ = ("name", "size_bytes", "associativity", "hit_latency",
                 "line_size", "num_sets", "stats", "_policy", "_sets",
                 "_line_shift", "_kind_stats", "_is_lru",
                 "_policy_evicts", "evict_tag", "evict_kind")

    def __init__(self, name: str, size_bytes: int, associativity: int,
                 hit_latency: int, line_size: int = 64,
                 replacement: str = "lru"):
        if size_bytes % (line_size * associativity) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"line_size*associativity = {line_size * associativity}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.hit_latency = hit_latency
        self.line_size = line_size
        self.num_sets = size_bytes // (line_size * associativity)
        self.stats = CacheStats()
        # The per-kind stat objects are bound once and indexed by kind
        # code on the fast path; CacheStats.reset() mutates them in
        # place, so the binding stays valid for a cache's lifetime.
        self._kind_stats = (self.stats.data, self.stats.metadata,
                            self.stats.instruction)
        self._policy: ReplacementPolicy = make_policy(replacement)
        # LRU (the Table I policy everywhere) is inlined on the fast
        # path; only other policies pay the strategy-object dispatch.
        self._is_lru = type(self._policy) is LruPolicy
        self._policy_evicts = (
            type(self._policy).on_evict is not ReplacementPolicy.on_evict)
        # tag -> packed line state: (kind_index << 1) | dirty
        self._sets: List[Dict[int, int]] = [
            {} for _ in range(self.num_sets)
        ]
        self._line_shift = line_size.bit_length() - 1
        # Victim details of the most recent access_fast that returned
        # MISS_CLEAN_EVICT or MISS_DIRTY_EVICT (valid until next fill).
        self.evict_tag = 0
        self.evict_kind = 0

    # -- geometry helpers ---------------------------------------------------

    def _locate(self, paddr: int):
        line = paddr >> self._line_shift
        return self._sets[line % self.num_sets], line

    def line_addr(self, paddr: int) -> int:
        """Line number containing physical byte address ``paddr``."""
        return paddr >> self._line_shift

    # -- operations ----------------------------------------------------------

    def contains(self, paddr: int) -> bool:
        """Presence check with no side effects (for tests/inspection)."""
        cache_set, line = self._locate(paddr)
        return line in cache_set

    def access_fast(self, paddr: int, kind: int, is_write: int) -> int:
        """Look up ``paddr``; on miss, allocate the line.

        Allocation-free internal entry point: ``kind`` is a kind code
        (:data:`repro.mem.request.KIND_DATA` ...), ``is_write`` is 0/1.
        Returns :data:`HIT`, :data:`MISS`, :data:`MISS_CLEAN_EVICT` or
        :data:`MISS_DIRTY_EVICT`; for the two eviction codes the victim
        is described by :attr:`evict_tag` / :attr:`evict_kind`.
        """
        line = paddr >> self._line_shift
        cache_set = self._sets[line % self.num_sets]
        resident = cache_set.get(line)
        kind_stats = self._kind_stats[kind]
        if resident is not None:
            kind_stats.hits += 1
            if self._is_lru:
                # on_hit + dirty update in one dict round-trip.
                cache_set[line] = cache_set.pop(line) | is_write
            else:
                self._policy.on_hit(cache_set, line)
                if is_write:
                    cache_set[line] = cache_set[line] | 1
            return HIT

        kind_stats.misses += 1
        if len(cache_set) < self.associativity:
            cache_set[line] = (kind << 1) | is_write
            if not self._is_lru:
                self._policy.on_insert(cache_set, line)
            return MISS

        if self._is_lru:
            victim_tag = next(iter(cache_set))
        else:
            victim_tag = self._policy.victim(cache_set)
        packed = cache_set.pop(victim_tag)
        if self._policy_evicts:
            self._policy.on_evict(cache_set, victim_tag)
        victim_kind = packed >> 1
        dirty = packed & 1
        if dirty:
            self.stats.writebacks += 1
        if kind == 1:  # METADATA evicting ...
            if victim_kind == 0:  # ... DATA
                self.stats.data_evicted_by_metadata += 1
        elif kind == 0 and victim_kind == 1:
            self.stats.metadata_evicted_by_data += 1
        cache_set[line] = (kind << 1) | is_write
        if not self._is_lru:
            self._policy.on_insert(cache_set, line)
        self.evict_tag = victim_tag
        self.evict_kind = victim_kind
        return MISS_DIRTY_EVICT if dirty else MISS_CLEAN_EVICT

    def invalidate(self, paddr: int) -> bool:
        """Drop the line holding ``paddr``; True if it was resident."""
        cache_set, line = self._locate(paddr)
        if line in cache_set:
            del cache_set[line]
            self._policy.on_evict(cache_set, line)
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (statistics are preserved)."""
        for cache_set in self._sets:
            cache_set.clear()
        self._policy.on_clear()

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident (for occupancy tests)."""
        return sum(len(s) for s in self._sets)

    def resident_kind_counts(self) -> Dict[RequestKind, int]:
        """How many resident lines hold each request kind."""
        counts = {kind: 0 for kind in RequestKind}
        for cache_set in self._sets:
            for packed in cache_set.values():
                counts[KIND_BY_INDEX[packed >> 1]] += 1
        return counts
