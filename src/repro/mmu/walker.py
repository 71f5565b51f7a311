"""Hardware page-table walker.

Turns the structural walk of :meth:`PageTable.walk_info
<repro.vm.base.PageTable.walk_info>` into timed memory traffic:

* the sequential steps of a flat walk pay their latencies back to back
  (a radix walk is a pointer chase);
* the parallel probes of a staged walk overlap (elastic-cuckoo ways),
  the stage costing the slowest probe;
* before touching memory the walker probes the per-level PWCs and skips
  every step at or above the deepest hit;
* each PTE request is tagged METADATA and, under NDPage's policy,
  flagged to bypass the L1 cache.

Hot-path design: the MMU resolves a page's walk and its translation in
one table descent (``walk_info``) and hands the walk to
:meth:`PageTableWalker.walk_from_plan`, the one timing entry point.
Each level's treatment — bypass flag and PWC probe bindings — is worked
out once per walker from ``table.level_names`` and picked by step
position; the PWC probe/fill is fused into one pass and the L1 metadata
hit is inlined, falling back to the hierarchy's positional fast path on
cache misses.  No request object is built per walk.

The PWC fill is fused into the probe: both touch the same per-level
sets, the caches are private to this walker, and nothing else runs
between the probe and the end of the walk — so inserting a missing key
at probe time leaves every cache in exactly the state the separate
probe-then-fill sequence would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.bypass import BypassPolicy
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.request import KIND_METADATA
from repro.mmu.pwc import PwcSet
from repro.sim.stats import LatencyStats
from repro.vm.address import asid_tag
from repro.vm.base import PageTable


@dataclass(slots=True)
class WalkerStats:
    walks: int = 0
    memory_accesses: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)

    def reset(self) -> None:
        self.walks = 0
        self.memory_accesses = 0
        self.latency.reset()


class PageTableWalker:
    """One core's PTW engine."""

    __slots__ = ("table", "hierarchy", "core_id", "pwcs", "asid_tag",
                 "stats", "_levels", "_l1")

    def __init__(self, table: PageTable, hierarchy: MemoryHierarchy,
                 core_id: int, pwcs: Optional[PwcSet] = None,
                 bypass: Optional[BypassPolicy] = None, asid: int = 0):
        self.table = table
        self.hierarchy = hierarchy
        self.core_id = core_id
        self.pwcs = pwcs
        # Non-zero when this walker serves one tenant of a multi-process
        # run: ORed into every PWC key, so co-runners sharing the
        # per-core PWCs never alias prefixes.  The tag sits above the
        # prefix bits, so set indexing (``key % num_sets``) is unchanged.
        self.asid_tag = asid_tag(asid)
        self.stats = WalkerStats()
        # One (bypass_flag, pwc_probe_or_None) per level, indexed by
        # step position.  A probe pre-resolves everything it touches:
        # (sets, num_sets, associativity, stats), all stable for the
        # cache's lifetime (flush mutates the sets in place).
        caches = pwcs._caches if pwcs is not None else {}
        levels = []
        for level in table.level_names:
            pwc = caches.get(level)
            probe = None if pwc is None else (
                pwc._sets, pwc.num_sets, pwc.associativity, pwc.stats)
            bypass_l1 = bypass is not None and bypass.should_bypass(level)
            levels.append((1 if bypass_l1 else 0, probe))
        self._levels = tuple(levels)
        # This core's L1, for the inlined metadata-hit fast path.
        self._l1 = hierarchy.l1ds[core_id]

    def walk_from_plan(self, now: float, flat: Optional[tuple],
                       staged: Optional[tuple]) -> float:
        """Execute a walk resolved by ``table.walk_info`` at cycle
        ``now``.

        Exactly one of ``flat``/``staged`` is a tuple (see
        :meth:`PageTable.walk_info <repro.vm.base.PageTable.walk_info>`);
        an ideal table's walk arrives as an empty ``flat``.
        """
        stats = self.stats
        stats.walks += 1
        if flat is None:
            return self._walk_staged(now, staged)
        if not flat:  # ideal table: nothing to fetch
            stats.latency.record(0.0)
            return 0.0

        # Probe every level's PWC (hardware probes them in parallel)
        # and resume the walk below the deepest hit; every level records
        # its hit/miss so Section V-C rates stay measurable.  The refill
        # of missing levels is fused into the same pass (see module
        # docstring for why that is equivalent).
        start = 0
        levels = self._levels
        pwcs = self.pwcs
        if pwcs is not None:
            tag = self.asid_tag
            index = 0
            for step in flat:
                pwc = levels[index][1]  # (sets, num_sets, assoc, stats)
                index += 1
                if pwc is not None:
                    key = step[1] | tag
                    pwc_set = pwc[0][key % pwc[1]]
                    if key in pwc_set:
                        pwc[3].hits += 1
                        pwc_set[key] = pwc_set.pop(key)
                        start = index
                    else:
                        pwc[3].misses += 1
                        if len(pwc_set) >= pwc[2]:
                            del pwc_set[next(iter(pwc_set))]
                        pwc_set[key] = None
            latency = float(pwcs.latency)
        else:
            latency = 0.0

        accesses = 0
        clock = now + latency
        hierarchy = self.hierarchy
        hier_stats = hierarchy.stats
        core_id = self.core_id
        l1 = self._l1
        l1_fast = l1._is_lru
        l1_sets = l1._sets
        l1_num_sets = l1.num_sets
        l1_shift = l1._line_shift
        l1_latency = l1.hit_latency
        l1_meta_stats = l1._kind_stats[KIND_METADATA]
        for i in range(start, len(flat)):
            pte_paddr = flat[i][0]
            bypass_l1 = levels[i][0]
            if not bypass_l1:
                # Inlined L1 hit for cacheable PTE reads (LRU caches);
                # misses and bypassed reads take the shared fast path,
                # which re-probes the set.
                line = pte_paddr >> l1_shift
                cache_set = l1_sets[line % l1_num_sets]
                if cache_set.get(line) is not None and l1_fast:
                    hier_stats.accesses += 1
                    l1_meta_stats.hits += 1
                    cache_set[line] = cache_set.pop(line)
                    clock += l1_latency
                    accesses += 1
                    continue
            clock += hierarchy.access_fast(
                clock, pte_paddr, KIND_METADATA, 0, core_id, bypass_l1)
            accesses += 1

        latency = clock - now
        stats.memory_accesses += accesses
        latency_stats = stats.latency
        latency_stats.total += latency
        latency_stats.count += 1
        if latency > latency_stats.maximum:
            latency_stats.maximum = latency
        return latency

    def _walk_staged(self, now: float, staged: tuple) -> float:
        """One stage of parallel probes (elastic-cuckoo ways), costing
        its slowest probe.  Parallel probes have no PWC, but a walker
        given PWCs still pays their lookup latency first.
        ``stats.walks`` was already counted by the caller.
        """
        pwcs = self.pwcs
        clock = now + (float(pwcs.latency) if pwcs is not None else 0.0)
        hierarchy = self.hierarchy
        core_id = self.core_id
        bypass_l1 = self._levels[0][0]
        stage_latency = 0.0
        for pte_paddr, _ in staged:
            access_latency = hierarchy.access_fast(
                clock, pte_paddr, KIND_METADATA, 0, core_id, bypass_l1)
            if access_latency > stage_latency:
                stage_latency = access_latency
        clock += stage_latency

        latency = clock - now
        stats = self.stats
        stats.memory_accesses += len(staged)
        latency_stats = stats.latency
        latency_stats.total += latency
        latency_stats.count += 1
        if latency > latency_stats.maximum:
            latency_stats.maximum = latency
        return latency
