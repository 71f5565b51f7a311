"""Pluggable sweep-execution backends.

A :class:`SweepBackend` owns how cell attempts execute; the
backend-agnostic supervisor in :mod:`repro.sim.sweep` owns retry,
backoff, timeout and quarantine semantics.  Three backends ship:

* ``serial`` — in-process, no pool, no pickling.
* ``pool`` — supervised local worker processes (Process + Pipe).
* ``fileq`` — multi-host coordination through a shared directory
  (``repro worker --queue DIR`` runs a standalone worker).

Why ``pool`` stays beside ``fileq`` with local workers: measured on a
2-core Linux host (Python 3.11), 6 alternating repeats, both with two
local workers and no cache.  On a 48-cell grid (6 workloads x 4
mechanisms x 2 seeds, NDP, 1 core, 1500 refs, scale 1/64) ``pool``
took 9.9-14.4 ms/cell (median 11.7) and ``fileq`` 12.6-18.4 (median
14.7); ``pool`` was faster in 5 of 6 pairs.  After a SIGKILL of the
worker mid-cell, ``pool`` reported the ``"lost"`` outcome in 6.8-10.1
ms (median 8.5) and ``fileq`` in 53.9-54.6 ms (median 54.3).  A dead
*local* fileq worker is seen by its process handle at the next
50 ms queue scan, not by heartbeat staleness (that 5 s window applies
to external workers); ``pool`` wakes on the process sentinel at once
and skips the per-cell JSON files.  So ``pool`` stays as the local
parallel backend.
"""

from repro.sim.backends.base import (
    BACKEND_NAMES,
    Attempt,
    BackendSpec,
    Outcome,
    SweepBackend,
)
from repro.sim.backends.fileq import FileQueueBackend, worker_loop
from repro.sim.backends.pool import PoolBackend
from repro.sim.backends.serial import SerialBackend

__all__ = [
    "BACKEND_NAMES",
    "Attempt",
    "BackendSpec",
    "FileQueueBackend",
    "Outcome",
    "PoolBackend",
    "SerialBackend",
    "SweepBackend",
    "worker_loop",
]
