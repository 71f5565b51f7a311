"""Memory-system substrate: caches, DRAM, interconnect, hierarchy."""

from repro.mem.cache import Cache, CacheStats
from repro.mem.dram import DDR4_2400, HBM2, DramModel, DramTiming
from repro.mem.hierarchy import (
    MemoryHierarchy,
    build_cpu_hierarchy,
    build_ndp_hierarchy,
)
from repro.mem.interconnect import MeshConfig, MeshInterconnect
from repro.mem.replacement import make_policy
from repro.mem.request import RequestKind

__all__ = [
    "Cache",
    "CacheStats",
    "DDR4_2400",
    "DramModel",
    "DramTiming",
    "HBM2",
    "MemoryHierarchy",
    "MeshConfig",
    "MeshInterconnect",
    "RequestKind",
    "build_cpu_hierarchy",
    "build_ndp_hierarchy",
    "make_policy",
]
