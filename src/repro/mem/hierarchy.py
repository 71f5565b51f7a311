"""Memory hierarchy composition: per-core caches, mesh, shared DRAM.

Two shapes exist in the paper (Table I):

* **CPU**: per-core L1D (32 KB) and L2 (512 KB), a shared L3 sized at
  2 MB per core, a chip mesh, and DDR4-2400 main memory.
* **NDP**: per-core L1D only — the logic-layer power/area budget allows
  a single shallow cache level — directly on top of HBM2.

``MemoryHierarchy.access_fast`` is the single timing entry point used by
the core model (normal data) and the page-table walker (metadata); it
takes plain positional arguments so the per-reference path allocates
nothing.  NDPage's metadata bypass is expressed per request
(``bypass_l1``), so the hierarchy stays mechanism agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.mem.cache import (
    HIT,
    MISS_DIRTY_EVICT,
    Cache,
)
from repro.mem.dram import DramModel, DramStats, DramTiming
from repro.mem.interconnect import MeshInterconnect
from repro.mem.request import RequestKind
from repro.vm.address import NODE_PADDR_MASK, NODE_PADDR_SHIFT


@dataclass(slots=True)
class HierarchyStats:
    """Counters the caches/DRAM do not already track."""

    accesses: int = 0
    l1_bypasses: int = 0
    dram_reads: int = 0
    remote_reads: int = 0            # DRAM reads that paid node distance
    remote_penalty_cycles: float = 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.l1_bypasses = 0
        self.dram_reads = 0
        self.remote_reads = 0
        self.remote_penalty_cycles = 0.0


class MemoryHierarchy:
    """A configurable 1-3 level cache hierarchy over banked DRAM.

    Args:
        l1ds: one private L1 data cache per core.
        dram: main-memory model (node 0's device under NUMA).
        noc: mesh connecting cores to the memory controller.
        l2s: optional private L2 per core (CPU configuration).
        l3: optional shared last-level cache (CPU configuration).
        node_drams: one :class:`DramModel` per NUMA node (``dram``
            must be entry 0), or None for the flat single-node
            machine.
        numa_penalty: per-core rows of extra cycles by frame node
            (``numa_penalty[core_id][node]``); required with
            ``node_drams``.  The miss path decodes the node from the
            physical address tag (bit 40) and charges this before the
            remote device services the request.
    """

    __slots__ = ("l1ds", "l2s", "l3", "dram", "noc", "stats",
                 "_levels", "_levels_no_l1", "_noc_latency", "_line_size",
                 "_single_level", "drams", "_numa_penalty")

    def __init__(self, l1ds: List[Cache], dram: DramModel,
                 noc: MeshInterconnect, l2s: Optional[List[Cache]] = None,
                 l3: Optional[Cache] = None,
                 node_drams: Optional[List[DramModel]] = None,
                 numa_penalty: Optional[
                     Sequence[Sequence[float]]] = None):
        if l2s is not None and len(l2s) != len(l1ds):
            raise ValueError("need one L2 per core when L2s are present")
        if (node_drams is None) != (numa_penalty is None):
            raise ValueError("node_drams and numa_penalty come together")
        if node_drams is not None:
            if node_drams[0] is not dram:
                raise ValueError("dram must be node 0's device")
            if len(numa_penalty) != len(l1ds) or any(
                    len(row) != len(node_drams)
                    for row in numa_penalty):
                raise ValueError(
                    "numa_penalty must be num_cores x num_nodes")
        self.l1ds = l1ds
        self.l2s = l2s
        self.l3 = l3
        self.dram = dram
        self.drams = node_drams
        self._numa_penalty: Optional[Tuple[Tuple[float, ...], ...]] = (
            tuple(tuple(float(p) for p in row) for row in numa_penalty)
            if numa_penalty is not None else None)
        self.noc = noc
        self.stats = HierarchyStats()
        # Per-core cache-level tuples, precomputed once: the hierarchy's
        # shape is fixed after construction, so the hot path never
        # rebuilds level lists.
        self._levels = tuple(
            tuple(self._core_caches(core)) for core in range(len(l1ds)))
        self._levels_no_l1 = tuple(lv[1:] for lv in self._levels)
        # The mesh latency is a pure function of the core id; cache it
        # and bump the traversal counter in bulk on the fast path.
        self._noc_latency = tuple(
            noc.hops(core) * noc.config.hop_latency
            + noc.serialization_cycles()
            for core in range(len(l1ds)))
        self._line_size = l1ds[0].line_size if l1ds else 64
        # NDP shape: exactly one cache level -> skip the level loop.
        self._single_level = l2s is None and l3 is None

    @property
    def num_cores(self) -> int:
        return len(self.l1ds)

    def _core_caches(self, core_id: int):
        levels = [self.l1ds[core_id]]
        if self.l2s is not None:
            levels.append(self.l2s[core_id])
        if self.l3 is not None:
            levels.append(self.l3)
        return levels

    def access_fast(self, now: float, paddr: int, kind: int,
                    is_write: int, core_id: int, bypass_l1: int) -> float:
        """Service one request issued at cycle ``now``; return its latency.

        Allocation-free entry point (``kind`` is a kind code, flags are
        0/1 ints).  The request walks down the cache levels (paying each
        lookup latency), and on a full miss crosses the mesh to DRAM.
        Dirty victims created by fills are drained to DRAM as posted
        writes (they occupy banks but nobody waits on them), matching a
        write-back hierarchy.
        """
        self.stats.accesses += 1
        dram = self.dram
        if self._single_level:
            # NDP: one private L1 over DRAM — no level loop, and the
            # cache transition inlined (this is the hottest call chain
            # in the simulator: with hits short-circuited at the call
            # sites, nearly every request entering here misses to
            # DRAM).  Mirrors Cache.access_fast exactly.
            if bypass_l1:
                self.stats.l1_bypasses += 1
                latency = 0.0
            else:
                cache = self.l1ds[core_id]
                latency = 0.0 + cache.hit_latency
                line = paddr >> cache._line_shift
                cache_set = cache._sets[line % cache.num_sets]
                resident = cache_set.get(line)
                kind_stats = cache._kind_stats[kind]
                is_lru = cache._is_lru
                if resident is not None:
                    kind_stats.hits += 1
                    if is_lru:
                        cache_set[line] = cache_set.pop(line) | is_write
                    else:
                        cache._policy.on_hit(cache_set, line)
                        if is_write:
                            cache_set[line] = cache_set[line] | 1
                    return latency
                kind_stats.misses += 1
                if len(cache_set) < cache.associativity:
                    cache_set[line] = (kind << 1) | is_write
                    if not is_lru:
                        cache._policy.on_insert(cache_set, line)
                else:
                    if is_lru:
                        victim_tag = next(iter(cache_set))
                    else:
                        victim_tag = cache._policy.victim(cache_set)
                    packed = cache_set.pop(victim_tag)
                    if cache._policy_evicts:
                        cache._policy.on_evict(cache_set, victim_tag)
                    victim_kind = packed >> 1
                    cache_stats = cache.stats
                    if kind == 1:  # METADATA evicting ...
                        if victim_kind == 0:  # ... DATA
                            cache_stats.data_evicted_by_metadata += 1
                    elif kind == 0 and victim_kind == 1:
                        cache_stats.metadata_evicted_by_data += 1
                    cache_set[line] = (kind << 1) | is_write
                    if not is_lru:
                        cache._policy.on_insert(cache_set, line)
                    if packed & 1:  # dirty victim
                        cache_stats.writebacks += 1
                        self._drain_writeback(
                            now + latency,
                            victim_tag * self._line_size, victim_kind)
        else:
            if bypass_l1:
                self.stats.l1_bypasses += 1
                levels = self._levels_no_l1[core_id]
            else:
                levels = self._levels[core_id]
            latency = 0.0
            for cache in levels:
                latency += cache.hit_latency
                code = cache.access_fast(paddr, kind, is_write)
                if code == HIT:
                    return latency
                if code == MISS_DIRTY_EVICT:
                    self._drain_writeback(
                        now + latency,
                        cache.evict_tag * self._line_size,
                        cache.evict_kind)

        # Full miss: traverse the mesh, access DRAM, come back.
        noc_latency = self._noc_latency[core_id]
        self.noc.traversals += 2
        latency += noc_latency
        penalty_rows = self._numa_penalty
        if penalty_rows is None:
            latency += dram.access_fast(now + latency, paddr, kind,
                                        is_write)
        else:
            # One table lookup on the miss path: decode the frame's
            # node from the paddr tag, charge the interconnect
            # distance for distance-penalized nodes, and let that
            # node's banked DRAM service the (untagged) address.
            # ``remote_reads`` counts *penalized* accesses — a
            # zero-distance matrix makes every node local by
            # definition.
            node = paddr >> NODE_PADDR_SHIFT
            penalty = penalty_rows[core_id][node]
            if penalty:
                stats = self.stats
                stats.remote_reads += 1
                stats.remote_penalty_cycles += penalty
                latency += penalty
            latency += self.drams[node].access_fast(
                now + latency, paddr & NODE_PADDR_MASK, kind,
                is_write)
        latency += noc_latency
        self.stats.dram_reads += 1
        return latency

    def _drain_writeback(self, now: float, victim_paddr: int,
                         kind: int) -> None:
        """Route a posted write-back to its frame's DRAM device.

        Posted writes occupy the owning node's banks but nobody waits
        on them, so no distance penalty is charged (or counted).
        """
        if self._numa_penalty is None:
            self.dram.drain_write_fast(now, victim_paddr, kind)
        else:
            self.drams[victim_paddr >> NODE_PADDR_SHIFT].drain_write_fast(
                now, victim_paddr & NODE_PADDR_MASK, kind)

    # -- inspection helpers --------------------------------------------------

    def l1_miss_rate(self, kind: RequestKind = RequestKind.DATA) -> float:
        """Aggregate L1 miss rate across cores for one request kind."""
        hits = sum(c.stats.for_kind(kind).hits for c in self.l1ds)
        misses = sum(c.stats.for_kind(kind).misses for c in self.l1ds)
        total = hits + misses
        return misses / total if total else 0.0

    def dram_stats(self) -> DramStats:
        """Machine-wide DRAM statistics.

        The flat machine returns its single device's live stats object
        (identical values to every earlier release); a NUMA machine
        returns a merged view over the per-node devices.
        """
        if self.drams is None:
            return self.dram.stats
        merged = DramStats()
        for device in self.drams:
            merged.merge(device.stats)
        return merged

    def reset_stats(self) -> None:
        self.stats.reset()
        if self.drams is not None:
            for device in self.drams:
                device.stats.reset()
        else:
            self.dram.stats.reset()
        for cache in self.l1ds:
            cache.stats.reset()
        if self.l2s is not None:
            for cache in self.l2s:
                cache.stats.reset()
        if self.l3 is not None:
            self.l3.stats.reset()


def _node_drams(dram_timing: DramTiming, numa_nodes: int,
                numa_penalty) -> tuple:
    """(dram, node_drams, penalty) triple for the builders."""
    if numa_nodes <= 1:
        return DramModel(dram_timing), None, None
    if numa_penalty is None:
        raise ValueError("multi-node hierarchy needs numa_penalty")
    drams = [DramModel(dram_timing) for _ in range(numa_nodes)]
    return drams[0], drams, numa_penalty


def build_ndp_hierarchy(num_cores: int, dram_timing: DramTiming,
                        l1_size: int = 32 * 1024, l1_assoc: int = 8,
                        l1_latency: int = 4,
                        numa_nodes: int = 1,
                        numa_penalty=None) -> MemoryHierarchy:
    """NDP shape (Table I): private L1D per core, no L2/L3, HBM2.

    With ``numa_nodes > 1`` the HBM capacity splits into one banked
    device per node and ``numa_penalty`` (per-core rows of extra
    cycles by node) prices the vault-crossing distance.
    """
    l1ds = [
        Cache(f"L1D{c}", l1_size, l1_assoc, l1_latency)
        for c in range(num_cores)
    ]
    noc = MeshInterconnect(num_cores, near_memory=True)
    dram, drams, penalty = _node_drams(dram_timing, numa_nodes,
                                       numa_penalty)
    return MemoryHierarchy(l1ds, dram, noc, node_drams=drams,
                           numa_penalty=penalty)


def build_cpu_hierarchy(num_cores: int, dram_timing: DramTiming,
                        l1_size: int = 32 * 1024, l1_assoc: int = 8,
                        l1_latency: int = 4,
                        l2_size: int = 512 * 1024, l2_assoc: int = 16,
                        l2_latency: int = 16,
                        l3_per_core: int = 2 * 1024 * 1024,
                        l3_assoc: int = 16,
                        l3_latency: int = 35,
                        numa_nodes: int = 1,
                        numa_penalty=None) -> MemoryHierarchy:
    """CPU shape (Table I): L1D + L2 per core, shared L3, DDR4."""
    l1ds = [
        Cache(f"L1D{c}", l1_size, l1_assoc, l1_latency)
        for c in range(num_cores)
    ]
    l2s = [
        Cache(f"L2-{c}", l2_size, l2_assoc, l2_latency)
        for c in range(num_cores)
    ]
    l3 = Cache("L3", l3_per_core * num_cores, l3_assoc, l3_latency)
    noc = MeshInterconnect(num_cores, near_memory=False)
    dram, drams, penalty = _node_drams(dram_timing, numa_nodes,
                                       numa_penalty)
    return MemoryHierarchy(l1ds, dram, noc, l2s=l2s, l3=l3,
                           node_drams=drams, numa_penalty=penalty)
