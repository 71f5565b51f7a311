"""Memory request kinds.

The distinction the paper leans on throughout is *normal data* versus
*metadata* (PTE) traffic: NDPage's first mechanism treats the two
differently at the L1 cache (Section V-A).  Every request in the
simulator therefore carries a kind so caches, DRAM and statistics can
attribute traffic correctly.

Hot-path representation: the memory entry points
(``Cache.access_fast``, ``MemoryHierarchy.access_fast``,
``DramModel.access_fast``) allocate no request objects — they take a
small *kind code* (:data:`KIND_DATA`, :data:`KIND_METADATA`,
:data:`KIND_INSTRUCTION`) and an ``is_write`` flag as plain positional
ints; :data:`KIND_BY_INDEX` maps a code back to its
:class:`RequestKind` for statistics and inspection.
"""

from __future__ import annotations

import enum


class RequestKind(enum.Enum):
    """What a memory request is fetching."""

    DATA = "data"          # the program's own loads/stores
    METADATA = "metadata"  # page-table entries touched by a walk
    INSTRUCTION = "instruction"

    @property
    def is_metadata(self) -> bool:
        return self is RequestKind.METADATA


#: Integer kind codes used on the allocation-free fast paths.
KIND_DATA = 0
KIND_METADATA = 1
KIND_INSTRUCTION = 2

#: kind code -> RequestKind.
KIND_BY_INDEX = (RequestKind.DATA, RequestKind.METADATA,
                 RequestKind.INSTRUCTION)
