"""Abstract page-table interface shared by every translation mechanism.

A page table in this simulator answers three questions:

1. *Functional*: what physical frame backs this VPN (``lookup``)?
2. *Structural*: which physical PTE addresses would a hardware walker
   touch, in what order (``walk_info``)?  A walk is either a chain of
   sequential steps, one per level of ``level_names`` (radix-family
   tables), or one stage of parallel probes (elastic-cuckoo ways).
3. *Spatial*: how full is each level (``occupancy``), the paper's
   Fig. 8 evidence for flattening.

The walker (:mod:`repro.mmu.walker`) turns a walk into timed memory
requests; page tables themselves are timing-free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, NamedTuple, Optional, Tuple

from repro.vm.address import PAGE_SHIFT


class Translation(NamedTuple):
    """Result of a successful lookup."""

    pfn: int         # physical frame number at ``page_shift`` granularity
    page_shift: int  # 12 for 4 KB mappings, 21 for 2 MB mappings

    def paddr(self, vaddr: int) -> int:
        """Physical address of ``vaddr`` under this translation."""
        offset = vaddr & ((1 << self.page_shift) - 1)
        return (self.pfn << self.page_shift) | offset


class MappingError(Exception):
    """Raised on invalid map/unmap operations."""


class PageTable(ABC):
    """Interface implemented by radix, flattened, cuckoo and ideal tables."""

    #: Ordered level labels, root first.  Step ``i`` of a walk belongs
    #: to ``level_names[i]``; the walker keys its L1-bypass policy and
    #: page-walk caches on these names.
    level_names: Tuple[str, ...] = ()

    @abstractmethod
    def lookup(self, page: int) -> Optional[Translation]:
        """Translate 4 KB-granularity VPN ``page``; None if unmapped."""

    @abstractmethod
    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        """Install a mapping.  ``page`` is always a 4 KB-granularity VPN;
        a 2 MB mapping covers the whole aligned group containing it."""

    @abstractmethod
    def unmap_page(self, page: int) -> None:
        """Remove a mapping (raises MappingError if absent)."""

    @abstractmethod
    def walk_info(self, page: int) -> Optional[
            Tuple[Optional[tuple], Optional[tuple], Translation]]:
        """``(flat, staged, translation)`` for ``page`` from one descent.

        Returns None when ``page`` is unmapped (the MMU faults it in and
        asks again).  Otherwise exactly one of ``flat`` and ``staged``
        is a tuple:

        * ``flat`` is the sequential walk, root first: one
          ``(pte_paddr, pwc_prefix)`` step per level, step ``i``
          belonging to ``level_names[i]``.  ``pwc_prefix`` is the
          translation prefix that level consumes, the tag of its
          page-walk cache.  A walk may end early (a 2 MB leaf ends a
          radix walk at PL2); an ideal table's walk is ``()``.
        * ``staged`` is one stage of at least two parallel
          ``(pte_paddr, None)`` probes of level ``level_names[0]``
          (elastic-cuckoo ways); parallel probes have no PWC.
        """

    @abstractmethod
    def occupancy(self) -> Dict[str, float]:
        """Mean fraction of used entries per allocated node, per level."""

    @abstractmethod
    def table_bytes(self) -> int:
        """Physical memory consumed by the table structures themselves."""

    @property
    def mapped_pages(self) -> int:
        """Number of 4 KB-granularity mappings installed (override where
        cheaper bookkeeping exists)."""
        raise NotImplementedError
