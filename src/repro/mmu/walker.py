"""Hardware page-table walker.

Turns the structural walk (:meth:`PageTable.walk_stages`) into timed
memory traffic:

* sequential stages pay their latencies back to back (a radix walk is a
  pointer chase);
* parallel accesses within a stage overlap (elastic-cuckoo ways), the
  stage costing the slowest probe;
* before touching memory the walker probes the per-level PWCs and skips
  every stage at or above the deepest hit;
* each PTE request is tagged METADATA and, under NDPage's policy,
  flagged to bypass the L1 cache.

Hot-path design: the table's :meth:`~repro.vm.base.PageTable.walk_info`
resolves a page's *walk plan* (PTE addresses + PWC prefixes) and its
translation in one descent; the walker memoizes that result per page
until the table's :attr:`~repro.vm.base.PageTable.structure_version`
moves (plans are a pure function of the table structure), and executes
walks directly off the raw plan with per-level bypass/PWC lookups
memoized, the PWC probe/fill fused into one pass, and the L1 metadata
hit inlined — falling back to the hierarchy's positional fast path on
cache misses.  No request object, ``WalkStage`` traversal or
tuple-key hashing happens per walk.  The one timing entry point is
:meth:`PageTableWalker.walk_from_plan`; callers resolve the plan with
:meth:`PageTableWalker.plan_info` first.

The PWC fill is fused into the probe: both touch the same per-level
sets, the caches are private to this walker, and nothing else runs
between the probe and the end of the walk — so inserting a missing key
at probe time leaves every cache in exactly the state the separate
probe-then-fill sequence would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.bypass import BypassPolicy, NoBypass
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.request import KIND_METADATA
from repro.mmu.pwc import PwcSet
from repro.sim.stats import LatencyStats
from repro.vm.address import asid_tag
from repro.vm.base import PageTable

#: Plan-memo bound; the memo is cleared wholesale when it fills.  High
#: enough that steady-state walks of a hot page set always hit, low
#: enough that a page-churning run cannot grow without bound.
_PLAN_CACHE_LIMIT = 1 << 16


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

    __slots__ = ("table", "hierarchy", "core_id", "pwcs", "bypass",
                 "asid_tag", "stats", "_level_info", "_plan_cache",
                 "_plan_cache_version", "_l1")

    def __init__(self, table: PageTable, hierarchy: MemoryHierarchy,
                 core_id: int, pwcs: Optional[PwcSet] = None,
                 bypass: Optional[BypassPolicy] = None, asid: int = 0):
        self.table = table
        self.hierarchy = hierarchy
        self.core_id = core_id
        self.pwcs = pwcs
        self.bypass = bypass if bypass is not None else NoBypass()
        # Non-zero when this walker serves one tenant of a multi-process
        # run: PWC keys in memoized plans get the tag ORed in, so
        # co-runners sharing the per-core PWCs never alias prefixes.
        self.asid_tag = asid_tag(asid)
        self.stats = WalkerStats()
        # level -> (bypass_flag, pwc_cache_or_None): bypass policies are
        # pure per level name and the PWC set is fixed, so both halves
        # of a stage's treatment are memoized.
        self._level_info: Dict[str, tuple] = {}
        # page -> (raw_plan, translation); see plan_info.
        self._plan_cache: Dict[int, tuple] = {}
        self._plan_cache_version = -1
        # This core's L1, for the inlined metadata-hit fast path.
        self._l1 = hierarchy.l1ds[core_id]

    def _level_info_for(self, level: str) -> tuple:
        caches = self.pwcs._caches if self.pwcs is not None else {}
        pwc = caches.get(level)
        if pwc is not None:
            # Pre-resolve everything a probe touches: (sets, num_sets,
            # associativity, stats).  All four bindings are stable for
            # the cache's lifetime (flush mutates the sets in place).
            probe = (pwc._sets, pwc.num_sets, pwc.associativity,
                     pwc.stats)
        else:
            probe = None
        info = (1 if self.bypass.should_bypass(level) else 0, probe)
        self._level_info[level] = info
        return info

    def plan_info(self, page: int) -> Optional[tuple]:
        """Memoized ``(flat, staged, translation)`` for ``page`` (see
        :meth:`PageTable.walk_info_decorated` for the plan shapes).

        Pure in the table structure (invalidated when
        ``table.structure_version`` moves).  Returns None when the page
        is unmapped — unmapped results are not cached, as the caller
        typically faults the page in and retries.  Carrying the
        translation here spares the MMU a second table descent per
        walk.
        """
        version = self.table.structure_version
        cache = self._plan_cache
        if version != self._plan_cache_version:
            cache.clear()
            self._plan_cache_version = version
        plan = cache.get(page)
        if plan is None:
            plan = self.table.walk_info_decorated(
                page, self._level_info, self._level_info_for)
            if plan is None:
                return None
            if self.asid_tag:
                plan = self._tag_plan(plan)
            if len(cache) >= _PLAN_CACHE_LIMIT:
                cache.clear()
            cache[page] = plan
        return plan

    def _tag_plan(self, plan: tuple) -> tuple:
        """OR this walker's ASID tag into every PWC key of a plan.

        Runs once per memoized plan (never per walk) and only for
        tenants with a non-zero ASID; the tag sits above the prefix
        bits, so set indexing (``key % num_sets``) is unchanged and
        co-runners' identical prefixes stay distinct in the tag match.
        """
        tag = self.asid_tag
        flat, staged, translation = plan

        def tag_step(step: tuple) -> tuple:
            key = step[3]
            if key is None:
                return step
            return (step[0], step[1], step[2], key | tag, step[4])

        if flat is not None:
            return (tuple(tag_step(s) for s in flat), None, translation)
        return (None,
                tuple(tuple(tag_step(s) for s in stage)
                      for stage in staged),
                translation)

    def walk_from_plan(self, now: float, flat: Optional[tuple],
                       staged: Optional[tuple]) -> float:
        """Execute a resolved walk plan at cycle ``now``.

        Exactly one of ``flat``/``staged`` is a tuple (see
        :meth:`PageTable.walk_info_decorated`); an ideal table's empty
        plan arrives as an empty ``flat``.
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
        pwcs = self.pwcs
        if pwcs is not None:
            index = 0
            for step in flat:
                pwc = step[2]  # (sets, num_sets, assoc, stats)
                if pwc is not None:
                    key = step[3]
                    if key is not None:
                        pwc_set = pwc[0][key % pwc[1]]
                        if key in pwc_set:
                            pwc[3].hits += 1
                            pwc_set[key] = pwc_set.pop(key)
                            start = index + 1
                        else:
                            pwc[3].misses += 1
                            if len(pwc_set) >= pwc[2]:
                                del pwc_set[next(iter(pwc_set))]
                            pwc_set[key] = None
                index += 1
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
            step = flat[i]
            pte_paddr = step[0]
            bypass_l1 = step[1]
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

    def _probe_single_step(self, step: tuple) -> bool:
        """Fused PWC probe+fill for one decorated step; True on a hit.

        Reference implementation of the probe the flat path in
        :meth:`walk_from_plan` keeps inlined for speed — change both
        together.
        """
        pwc = step[2]  # (sets, num_sets, assoc, stats)
        if pwc is None:
            return False
        key = step[3]
        if key is None:
            return False
        pwc_set = pwc[0][key % pwc[1]]
        if key in pwc_set:
            pwc[3].hits += 1
            pwc_set[key] = pwc_set.pop(key)  # LRU refresh
            return True
        pwc[3].misses += 1
        if len(pwc_set) >= pwc[2]:
            del pwc_set[next(iter(pwc_set))]
        pwc_set[key] = None
        return False

    def _walk_staged(self, now: float, staged: tuple) -> float:
        """Staged-plan walk (parallel probes, e.g. elastic-cuckoo ways).

        Same semantics as the flat path; ``stats.walks`` was already
        counted by the caller.
        """
        stats = self.stats
        if not staged:
            stats.latency.record(0.0)
            return 0.0

        start = 0
        pwcs = self.pwcs
        if pwcs is not None:
            index = 0
            for stage in staged:
                if len(stage) == 1 and self._probe_single_step(stage[0]):
                    start = index + 1
                index += 1
            latency = float(pwcs.latency)
        else:
            latency = 0.0

        accesses = 0
        clock = now + latency
        hierarchy = self.hierarchy
        core_id = self.core_id
        for i in range(start, len(staged)):
            stage = staged[i]
            stage_latency = 0.0
            for step in stage:
                access_latency = hierarchy.access_fast(
                    clock, step[0], KIND_METADATA, 0, core_id, step[1])
                if access_latency > stage_latency:
                    stage_latency = access_latency
                accesses += 1
            clock += stage_latency

        latency = clock - now
        stats.memory_accesses += accesses
        latency_stats = stats.latency
        latency_stats.total += latency
        latency_stats.count += 1
        if latency > latency_stats.maximum:
            latency_stats.maximum = latency
        return latency
