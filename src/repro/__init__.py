"""NDPage reproduction: tailored page tables for near-data processing.

A functional + timing simulator reproducing *NDPage: Efficient Address
Translation for Near-Data Processing Architectures via Tailored Page
Table* (DATE 2025).  README.md covers the command line and the sweep
API; ``benchmarks/`` reproduces each paper figure against the paper's
numbers.

Quickstart::

    from repro import ndp_config, run_once

    result = run_once(ndp_config(workload="rnd", mechanism="ndpage",
                                 num_cores=4, refs_per_core=20_000))
    print(result.summary())
"""

from repro.core import (
    MECHANISMS,
    PAPER_MECHANISMS,
    FlattenedPageTable,
    MechanismSpec,
    MetadataBypass,
    get_mechanism,
)
from repro.sim import (
    RunResult,
    System,
    SystemConfig,
    cpu_config,
    expand_grid,
    ndp_config,
    run_mechanisms,
    run_once,
)
from repro.service import (
    SweepPolicy,
    SweepResult,
    SweepService,
)
from repro.vm import (
    ElasticCuckooPageTable,
    FrameAllocator,
    IdealPageTable,
    OSMemoryManager,
    PagingPolicy,
    RadixPageTable,
    occupancy_report,
)
from repro.workloads import ALL_WORKLOADS, make_workload, workload_table

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "ElasticCuckooPageTable",
    "FlattenedPageTable",
    "FrameAllocator",
    "IdealPageTable",
    "MECHANISMS",
    "MechanismSpec",
    "MetadataBypass",
    "OSMemoryManager",
    "PAPER_MECHANISMS",
    "PagingPolicy",
    "RadixPageTable",
    "RunResult",
    "SweepPolicy",
    "SweepResult",
    "SweepService",
    "System",
    "SystemConfig",
    "cpu_config",
    "expand_grid",
    "get_mechanism",
    "make_workload",
    "ndp_config",
    "occupancy_report",
    "run_mechanisms",
    "run_once",
    "workload_table",
]
