"""Simulation driver: configs, cores, engine, system, runner."""

from repro.sim.config import (
    DEFAULT_SCALE,
    PLACEMENT_POLICIES,
    SYSTEM_CPU,
    SYSTEM_NDP,
    CacheParams,
    CoreParams,
    NumaParams,
    PwcParams,
    SchedulerParams,
    SystemConfig,
    TlbParams,
    cpu_config,
    ndp_config,
)
from repro.sim.core_model import Core, CoreStats
from repro.sim.engine import SimulationEngine
from repro.sim.runner import RunResult, run_mechanisms, run_once
from repro.sim.scheduler import (
    ScheduledEngine,
    SchedulerStats,
    TenantCoordinator,
)
from repro.sim.sweep import SweepStats, expand_grid
from repro.sim.system import System
from repro.sim.topology import NumaFrameAllocator, NumaTopology

__all__ = [
    "CacheParams",
    "Core",
    "CoreParams",
    "CoreStats",
    "DEFAULT_SCALE",
    "NumaFrameAllocator",
    "NumaParams",
    "NumaTopology",
    "PLACEMENT_POLICIES",
    "PwcParams",
    "RunResult",
    "SYSTEM_CPU",
    "SYSTEM_NDP",
    "ScheduledEngine",
    "SchedulerParams",
    "SchedulerStats",
    "SimulationEngine",
    "SweepStats",
    "System",
    "TenantCoordinator",
    "SystemConfig",
    "TlbParams",
    "cpu_config",
    "expand_grid",
    "ndp_config",
    "run_mechanisms",
    "run_once",
]
