"""Prefault equivalence goldens.

The untimed warmup decides frame placement, table layout, contiguity
consumption and reclaim order, so any change to how it faults pages
in moves every later statistic.  Each config below pins the SHA-256
of its whole ``RunResult`` (the cache's own serialization), captured
before the batched fault loop (``OSMemoryManager.fault_in``) and the
lazy allocator boot layout replaced the per-address fault path.

The memory-pressure configs reclaim in the middle of the warmup, so
the switch from the seen-set to exact per-address faulting is covered;
``test_warmup_reclaims_mid_batch`` checks that this stays true.
"""

import pytest

from repro import ndp_config, run_once
from repro.analysis.cache import payload_checksum, result_to_dict
from repro.core.mechanisms import PAPER_MECHANISMS
from repro.sim.config import NumaParams
from repro.sim.system import System
from repro.vm.os_model import OSMemoryManager

MIB = 1024 ** 2

BASE = dict(workload="bfs", scale=1 / 64, refs_per_core=2000,
            num_cores=2, seed=11)
#: The configs of tests/integration/test_memory_pressure.py.
PRESSURE = dict(workload="rnd", scale=1 / 64, phys_bytes=14 * MIB,
                refs_per_core=4000, num_cores=2)
PTE_LOCAL = NumaParams(nodes=2, placement="pte-local")

CONFIGS = {
    **{mechanism: dict(mechanism=mechanism, **BASE)
       for mechanism in PAPER_MECHANISMS},
    "tenants2": dict(mechanism="radix", tenants=2, **BASE),
    "tenants2-hugepage": dict(mechanism="hugepage", tenants=2, **BASE),
    "tenants2-fragmented": dict(mechanism="radix", tenants=2,
                                boot_fragmentation=0.5, **BASE),
    "numa2-pte-local": dict(mechanism="radix", numa=PTE_LOCAL, **BASE),
    "numa2-fragmented-ndpage": dict(mechanism="ndpage", numa=PTE_LOCAL,
                                    boot_fragmentation=0.3, **BASE),
    "fragmented-hugepage": dict(mechanism="hugepage",
                                boot_fragmentation=0.5,
                                thp_promotion_fraction=0.5, **BASE),
    "pressure-radix": dict(mechanism="radix", **PRESSURE),
    "pressure-hugepage": dict(mechanism="hugepage",
                              thp_promotion_fraction=1.0,
                              boot_fragmentation=0.7, **PRESSURE),
    "pressure-ech": dict(mechanism="ech", **PRESSURE),
    "pressure-tenants2": dict(mechanism="radix", tenants=2, **PRESSURE),
}

GOLDEN = {
    "radix": "2d25bd814e86c8c65feb12e2bfe0c4b2"
             "e57308af900fb59089915c105b6ed1bf",
    "ech": "a6e547b8dd3d20a58072d0546496dbf9"
           "6c14027a723a8abf8c8c35833b8f9d5a",
    "hugepage": "16557de83aeb5ae98e7f125af3968660"
                "1c455fe7919327313636ce7590dc06f0",
    "ndpage": "9e0ae28e2392d87a8e478424b83bc242"
              "8dca5e658fdaa682347328c3bbedba51",
    "ideal": "65eedf0a30dc109b8f7b7b14a4a0f994"
             "2492a56b7fe1b4ccaf07aea22b350d12",
    "tenants2": "e7146acbcfecee2ccfe43fb7e445e3a8"
                "dc5921ee73f637da9cb8ea0964f5484d",
    "tenants2-hugepage": "9300ff95cb24c8b314727780bf55b1a1"
                         "9a4c761f00ff2adec211be5057d285b1",
    "tenants2-fragmented": "91e22dfe208b7e61ddfcc2d6ef400df1"
                           "ab8e11f91de9e81d870c4abe8c1df825",
    "numa2-pte-local": "4ee872f7af1c90acbc3b12b264028ebc"
                       "8232fa0c4c5c8e3a4c1cfac2cf4fc555",
    "numa2-fragmented-ndpage": "7a0b47f05e9d162aa73021b79ce06074"
                               "f0c9c53283983f3b91e387f50392288d",
    "fragmented-hugepage": "2111a12d19d49830a3f4f3757d577272"
                           "5f03ccba674a4239b64bf997ea7709dd",
    "pressure-radix": "74696eefa4c15f9b6dd8f6d9fdd0e943"
                      "03c42b8f111de9c85e40fdab0e394cbe",
    "pressure-hugepage": "0eb81b73db087386db3ee12958f938d5"
                         "06c3cc421765421f52d8ec072174a442",
    "pressure-ech": "cc4a11ba3192c62863430349db890712"
                    "1f14b78fa503968ac956d02a973407c4",
    "pressure-tenants2": "7b2837b76e00c1b6b07789fb835bfe45"
                         "5d1663c2f261c53425721fd52bf282ad",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_result_digest_unchanged(name):
    result = run_once(ndp_config(**CONFIGS[name]))
    assert payload_checksum(result_to_dict(result)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(
    name for name in CONFIGS if name.startswith("pressure-")))
def test_warmup_reclaims_mid_batch(name, monkeypatch):
    """A reclaim stops a seen-set batch with addresses still left."""
    stops = []
    original = OSMemoryManager.fault_in

    def spy(self, vaddrs, site=0, seen=None):
        done = original(self, vaddrs, site, seen)
        if done < len(vaddrs):
            stops.append((done, len(vaddrs)))
        return done

    monkeypatch.setattr(OSMemoryManager, "fault_in", spy)
    System(ndp_config(**CONFIGS[name]))
    assert len(stops) == 1  # the seen-set is dropped exactly once
    done, size = stops[0]
    assert 0 < done < size
