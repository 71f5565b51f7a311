"""Workload abstraction: synthetic memory-reference generators.

The paper evaluates 11 data-intensive applications (Table II) under a
cycle-level simulator.  Here each application is a *reference-stream
generator* reproducing its documented access pattern — the structure
that matters to address translation: footprint, locality, read/write
mix and pointer-chasing irregularity.  Each generator module's
docstring names its paper counterpart; ``repro workloads`` lists them.

A workload exposes:

* ``regions()`` — its virtual-address layout at the configured scale
  (datasets are laid out densely in one arena, the way the real apps'
  init phases populate their heaps; this is what fills PL1/PL2);
* ``stream(core_id, num_refs)`` — a deterministic per-core iterator of
  ``(vaddr, is_write)`` pairs;
* ``gap_cycles`` — non-memory instructions between references.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.vm.address import (
    HUGE_PAGE_SIZE,
    LINE_SHIFT,
    PAGE_SHIFT,
    VA_MASK,
    align_up,
    vpn,
)

#: Where workload arenas start in the virtual address space.
ARENA_BASE = 0x10_0000_0000  # 64 GiB mark: exercises PL4 index != 0

#: Where per-core private arenas start (thread stacks, queues, buffers).
PRIVATE_ARENA_BASE = 0x30_0000_0000

#: Default chunk of references generated per numpy batch.
CHUNK_REFS = 8192

#: Fraction of references directed at the core's private region.
PRIVATE_REF_FRACTION = 0.10


def chunk_probe_keys(addrs: np.ndarray) -> Tuple[List[int], List[int]]:
    """Per-reference probe-key arrays for one chunk of addresses.

    Returns ``(vpns, vlines)`` as plain lists: the 4 KB VPN
    (``(addr & VA_MASK) >> PAGE_SHIFT``) and the virtual line address
    (``addr >> LINE_SHIFT``) of every reference — the two keys the
    inlined TLB/L1 hit probe in :meth:`repro.sim.core_model
    .Core.step_until` consumes.  The single definition of the chunk
    layout contract: :meth:`Workload.stream_chunks` derives through
    it, and so should any hand-built chunk fed to a ``Core``.
    """
    return (((addrs & VA_MASK) >> PAGE_SHIFT).tolist(),
            (addrs >> LINE_SHIFT).tolist())


class Region(NamedTuple):
    """One named virtual-memory region of a workload."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size


def layout_regions(sizes: List[Tuple[str, int]],
                   base: int = ARENA_BASE) -> List[Region]:
    """Pack named regions back to back, 2 MB-aligned, from ``base``.

    Dense packing mirrors how the paper's applications allocate their
    datasets in one growing heap — the layout behind the near-full PL1
    and PL2 levels of Fig. 8.
    """
    regions = []
    cursor = align_up(base, HUGE_PAGE_SIZE)
    for name, size in sizes:
        if size <= 0:
            raise ValueError(f"region {name!r} has non-positive size")
        regions.append(Region(name, cursor, size))
        cursor = align_up(cursor + size, HUGE_PAGE_SIZE)
    return regions


class Workload(ABC):
    """Base class for the Table II workload generators."""

    #: Short key used by the registry ('bfs', 'xs', ...).
    name: str = ""
    #: Benchmark suite (Table II left column).
    suite: str = ""
    #: Full-scale dataset size in bytes (Table II right column).
    dataset_bytes: int = 0
    #: Non-memory instructions between references (1 IPC each).
    gap_cycles: int = 2
    #: Per-core private footprint as a fraction of the shared dataset.
    #: Threads of the real applications keep frontier queues, partial
    #: sums, stacks and I/O buffers; these are touched sparsely, which
    #: is what makes transparent huge pages bloat physical usage as
    #: cores scale (Section VII-B).
    private_fraction: float = 0.12

    def __init__(self, scale: float = 1.0, seed: int = 42):
        if not 0 < scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        self.scale = scale
        self.seed = seed

    # -- layout ---------------------------------------------------------------

    @abstractmethod
    def regions(self) -> List[Region]:
        """Virtual-address layout at the configured scale."""

    def footprint_bytes(self) -> int:
        """Total dataset bytes at the configured scale."""
        return sum(region.size for region in self.regions())

    def private_bytes(self) -> int:
        """Size of one core's private region at the configured scale."""
        raw = int(self.dataset_bytes * self.scale * self.private_fraction)
        return max(HUGE_PAGE_SIZE, align_up(raw, HUGE_PAGE_SIZE))

    def private_region(self, core_id: int) -> Region:
        """Per-core private arena (stacks, queues, thread buffers).

        Regions of different cores are disjoint and 2 MB-aligned; the
        stream touches them *sparsely* (random pages), so a THP kernel
        backs far more physical memory here than a 4 KB kernel does.
        """
        if core_id < 0:
            raise ValueError("core_id must be non-negative")
        size = self.private_bytes()
        base = PRIVATE_ARENA_BASE + core_id * align_up(
            size, HUGE_PAGE_SIZE)
        return Region(f"private{core_id}", base, size)

    def page_ranges(self) -> List[Tuple[int, int]]:
        """Inclusive VPN ranges of the dataset (for occupancy analysis)."""
        return [
            (vpn(region.base), vpn(region.end - 1))
            for region in self.regions()
        ]

    def full_scale_page_ranges(self) -> List[Tuple[int, int]]:
        """Page ranges at the paper's dataset size (Fig. 8 input)."""
        return type(self)(scale=1.0, seed=self.seed).page_ranges()

    # -- reference stream -----------------------------------------------------

    @abstractmethod
    def _chunk(self, rng: np.random.Generator, num_refs: int,
               state: dict) -> Tuple[np.ndarray, np.ndarray]:
        """Generate ``num_refs`` references as (addresses, is_write).

        ``state`` is a per-stream dict that persists across chunks —
        sweep cursors, scan positions and similar live there so one
        core's stream is a coherent traversal, not a bag of samples.
        """

    def stream_chunks(self, core_id: int, num_refs: int,
                      chunk_refs: Optional[int] = None,
                      probe_keys: bool = True
                      ) -> Iterator[tuple]:
        """Deterministic reference stream, handed over in whole chunks.

        Yields ``(addresses, writes, vpns, vlines)`` tuples of
        equal-length plain Python lists (one per numpy batch), so the
        simulator's chunked fast path consumes references without
        per-item generator resumptions or tuple allocations.  The VPN
        (``(addr & VA_MASK) >> PAGE_SHIFT``) and virtual line address
        (``addr >> LINE_SHIFT``) arrays are computed here with numpy —
        one vectorized pass per chunk — so the inlined TLB/L1 hit probe
        in :meth:`repro.sim.core_model.Core.step_until` does no
        per-reference shifting.  Cores sharing a workload instance
        traverse the same dataset with different seeds (the paper's
        multithreaded execution model).

        ``chunk_refs`` overrides the default batch size: the scheduler
        feeds cores quantum-sized chunks so a time slice is a whole
        number of generation batches.  Batch size shapes the RNG draw
        sequence, so a re-chunked stream is a *different* (equally
        deterministic) reference sequence — single-process runs always
        use the default and are unaffected.

        ``probe_keys=False`` yields plain ``(addresses, writes)``
        pairs instead — same addresses, no VPN/line materialization —
        for consumers that only read addresses (the prefault warmup,
        :meth:`stream`).  A ``Core`` needs the four-field chunks.
        """
        rng = np.random.default_rng(
            (self.seed * 1_000_003 + core_id) & 0xFFFFFFFF)
        state: dict = {"core_id": core_id}
        private = self.private_region(core_id)
        private_pages = private.size // 4096
        chunk = CHUNK_REFS if chunk_refs is None else max(1, chunk_refs)
        remaining = num_refs
        while remaining > 0:
            batch = min(chunk, remaining)
            addrs, writes = self._chunk(rng, batch, state)
            if len(addrs) != batch or len(writes) != batch:
                raise AssertionError(
                    f"{self.name}: chunk returned {len(addrs)} refs, "
                    f"expected {batch}")
            # Redirect a fixed fraction of references to the core's
            # private region: random pages, half of them writes.
            mask = rng.random(batch) < PRIVATE_REF_FRACTION
            count = int(mask.sum())
            if count:
                pages = rng.integers(0, private_pages, size=count)
                offsets = rng.integers(0, 4096 // 8, size=count) * 8
                addrs = addrs.copy()
                writes = writes.copy()
                addrs[mask] = private.base + pages * 4096 + offsets
                writes[mask] = rng.random(count) < 0.5
            if probe_keys:
                vpns, vlines = chunk_probe_keys(addrs)
                yield (addrs.tolist(),
                       np.asarray(writes, dtype=bool).tolist(),
                       vpns, vlines)
            else:
                yield (addrs.tolist(),
                       np.asarray(writes, dtype=bool).tolist())
            remaining -= batch

    def stream(self, core_id: int,
               num_refs: int) -> Iterator[Tuple[int, bool]]:
        """Per-item view of :meth:`stream_chunks` (compatibility API)."""
        for addrs, writes in self.stream_chunks(core_id, num_refs,
                                                probe_keys=False):
            yield from zip(addrs, writes)

    # -- introspection --------------------------------------------------------

    def describe(self) -> dict:
        """Summary used by the Table II benchmark and examples."""
        return {
            "name": self.name,
            "suite": self.suite,
            "dataset_gb": self.dataset_bytes / 1024 ** 3,
            "scaled_mb": self.footprint_bytes() / 1024 ** 2,
            "regions": [r.name for r in self.regions()],
            "gap_cycles": self.gap_cycles,
        }
