"""NUMA topology tests: per-node pools, placement, distance charging,
golden pins and sweep-pool determinism.

The flat single-node machine must stay bit-identical to earlier
releases (pinned by the existing golden tests and cache-key tests);
multi-node machines get their own golden values here.
"""

import dataclasses

import pytest

from repro.mem.dram import HBM2
from repro.mem.hierarchy import build_ndp_hierarchy
from repro.mem.request import KIND_DATA
from repro.service import SweepService
from repro.sim.config import NumaParams, ndp_config
from repro.sim.runner import run_once
from repro.sim.topology import NumaFrameAllocator, NumaTopology
from repro.vm.address import (
    NODE_FRAME_MASK,
    NODE_FRAME_SHIFT,
    NODE_PADDR_SHIFT,
    node_of_frame,
    node_of_paddr,
)
from repro.vm.frames import FRAMES_PER_BLOCK, OutOfMemoryError
from repro.vm.os_model import OSMemoryManager
from repro.vm.radix import PT_ALLOC_SITE, RadixPageTable

MIB = 1024 ** 2


def topo2(node_bytes=64 * MIB, num_cores=2, tenants=2, remote=150.0):
    distance = [[0.0, remote], [remote, 0.0]]
    return NumaTopology(2, distance,
                        core_nodes=[c * 2 // num_cores
                                    for c in range(num_cores)],
                        tenant_nodes=[a % 2 for a in range(tenants)],
                        node_bytes=node_bytes)


def facade(placement="local", node_bytes=64 * MIB, **params):
    topo = topo2(node_bytes=node_bytes)
    return NumaFrameAllocator(
        topo, NumaParams(nodes=2, placement=placement, **params))


class TestNumaTopology:
    def test_from_params_shapes(self):
        topo = NumaTopology.from_params(
            NumaParams(nodes=4, remote_cycles=100), num_cores=8,
            tenants=4, phys_bytes=1024 * MIB)
        assert topo.nodes == 4
        assert topo.node_bytes == 256 * MIB
        # Cores spread in contiguous blocks, tenants round-robin.
        assert topo.core_nodes == (0, 0, 1, 1, 2, 2, 3, 3)
        assert topo.tenant_nodes == (0, 1, 2, 3)
        assert topo.distance[0][0] == 0.0
        assert topo.distance[0][3] == 100.0

    def test_penalty_rows_follow_core_homes(self):
        topo = topo2()
        rows = topo.penalty_rows()
        assert rows[0] == (0.0, 150.0)   # core 0 lives on node 0
        assert rows[1] == (150.0, 0.0)   # core 1 lives on node 1

    def test_fallback_order_nearest_first(self):
        topo = NumaTopology(
            3, [[0, 50, 10], [50, 0, 20], [10, 20, 0]],
            core_nodes=[0], tenant_nodes=[0], node_bytes=64 * MIB)
        assert topo.fallback_order(0) == (0, 2, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            NumaTopology(2, [[0.0]], [0], [0], 64 * MIB)  # not square
        with pytest.raises(ValueError):
            NumaTopology(2, [[1.0, 5], [5, 0.0]], [0], [0],
                         64 * MIB)  # non-zero diagonal
        with pytest.raises(ValueError):
            NumaTopology(2, [[0, -1], [5, 0]], [0], [0], 64 * MIB)
        with pytest.raises(ValueError):
            NumaTopology(2, [[0, 5], [5, 0]], [2], [0],
                         64 * MIB)  # core home out of range

    def test_params_validation(self):
        with pytest.raises(ValueError):
            NumaParams(nodes=0)
        with pytest.raises(ValueError):
            NumaParams(nodes=2, placement="nope")
        with pytest.raises(ValueError):
            NumaParams(nodes=2, remote_cycles=-1)
        with pytest.raises(ValueError):
            NumaParams(nodes=2, preferred_node=2)

    def test_single_node_params_normalize_to_default(self):
        """Placement/distance are moot on a flat machine: a 1-node
        NumaParams must equal the default regardless of the knobs, so
        bit-identical runs cannot get distinct cache keys."""
        from repro.sim.config import ndp_config as cfg
        assert NumaParams(nodes=1, placement="interleave",
                          remote_cycles=999) == NumaParams()
        assert cfg(numa=NumaParams(nodes=1, placement="pte-local")
                   ).canonical_json() == cfg().canonical_json()

    def test_from_params_uses_distance_matrix(self):
        """NumaParams.distance_matrix overrides the uniform
        remote_cycles derivation (asymmetric interconnects)."""
        topo = NumaTopology.from_params(
            NumaParams(nodes=2, remote_cycles=150,
                       distance_matrix=((0, 300), (40, 0))),
            num_cores=2, tenants=1, phys_bytes=128 * MIB)
        assert topo.distance == ((0.0, 300.0), (40.0, 0.0))
        # Direction-dependent penalties reach the hierarchy rows.
        rows = topo.penalty_rows()
        assert rows[0] == (0.0, 300.0)  # core 0 (node 0) -> node 1
        assert rows[1] == (40.0, 0.0)   # core 1 (node 1) -> node 0

    def test_asymmetric_distances_charge_directionally(self):
        """A run where node-0 cores pay more for remote DRAM than
        node-1 cores: the total penalty must differ from the
        transposed matrix (same topology, reversed asymmetry)."""
        def run(matrix):
            cfg = ndp_config(
                workload="rnd", refs_per_core=800, scale=1 / 64,
                seed=7, num_cores=2,
                numa=NumaParams(nodes=2, placement="interleave",
                                distance_matrix=matrix))
            return run_once(cfg)

        steep = run(((0, 400), (40, 0)))
        shallow = run(((0, 40), (400, 0)))
        assert steep.extras["remote_penalty_cycles"] > 0
        assert steep.extras["remote_penalty_cycles"] \
            != shallow.extras["remote_penalty_cycles"]


class TestNumaFrameAllocator:
    def test_local_placement_tags_by_site_node(self):
        alloc = facade("local")
        f0 = alloc.alloc_frame(site=0)
        f1 = alloc.alloc_frame(site=1)
        assert node_of_frame(f0) == 0
        assert node_of_frame(f1) == 1
        # The tag lands at the documented physical-address bit.
        assert node_of_paddr(alloc.frame_paddr(f1)) == 1
        assert f1 >> NODE_FRAME_SHIFT == 1

    def test_interleave_round_robins(self):
        alloc = facade("interleave")
        nodes = [node_of_frame(alloc.alloc_frame(site=0))
                 for _ in range(6)]
        assert nodes == [0, 1, 0, 1, 0, 1]

    def test_preferred_node_pins(self):
        alloc = facade("preferred-node", preferred_node=1)
        nodes = {node_of_frame(alloc.alloc_frame(site=s))
                 for s in (0, 1, 0, 1)}
        assert nodes == {1}

    def test_pte_local_splits_metadata_from_data(self):
        alloc = facade("pte-local")
        alloc.note_fault_site(1)   # fault handled on core 1 (node 1)
        pte = alloc.alloc_frame(site=PT_ALLOC_SITE)
        assert node_of_frame(pte) == 1
        assert alloc.numa_stats.pte_allocs == [0, 1]
        # Data interleaves regardless of the faulting core.
        data = [node_of_frame(alloc.alloc_frame(site=1))
                for _ in range(4)]
        assert data == [0, 1, 0, 1]

    def test_free_returns_to_owning_pool(self):
        alloc = facade("local")
        frame = alloc.alloc_frame(site=1)
        before = alloc.pools[1].stats.frees
        alloc.free_frame(frame)
        assert alloc.pools[1].stats.frees == before + 1
        assert alloc.pools[0].stats.frees == 0

    def test_huge_alloc_tags_and_frees_round_trip(self):
        alloc = facade("local")
        block = alloc.alloc_huge(site=1)
        assert block is not None
        assert node_of_frame(block) == 1
        assert (block & NODE_FRAME_MASK) % FRAMES_PER_BLOCK == 0
        alloc.free_block(block)

    def test_spill_falls_back_off_node(self):
        # Node 0's pool is tiny: local allocations from core 0 must
        # spill to node 1 once node 0 runs dry instead of OOMing.
        alloc = facade("local", node_bytes=4 * MIB)
        # Each 4 MiB node holds 2 blocks, one reserved: 512 usable
        # frames — 600 local requests must cross into node 1.
        frames = [alloc.alloc_frame(site=0) for _ in range(600)]
        nodes = {node_of_frame(f) for f in frames}
        assert nodes == {0, 1}
        assert alloc.numa_stats.spills > 0
        assert alloc.spill_fraction > 0.0

    def test_huge_spills_reported(self):
        # 4 MiB per node = one usable block each: the second huge
        # allocation under preferred-node must spill to node 1 and be
        # visible in total_spills / spill_fraction.
        alloc = facade("preferred-node", node_bytes=4 * MIB)
        first = alloc.alloc_huge(site=0)
        second = alloc.alloc_huge(site=0)
        assert node_of_frame(first) == 0
        assert node_of_frame(second) == 1
        assert alloc.numa_stats.huge_spills == 1
        assert alloc.numa_stats.spills == 0
        assert alloc.total_spills == 1
        assert alloc.spill_fraction == 0.5
        # No failure booked for the probe of empty node 0 on the way
        # to the spill — failures count per failed *call*, flat-style.
        assert alloc.stats.huge_failures == 0
        # Every node dry: huge allocation reports None (contiguity
        # exhaustion) and books exactly one failure, as on the flat
        # machine — not one per probed node.
        assert alloc.alloc_huge(site=0) is None
        assert alloc.stats.huge_failures == 1
        assert alloc.stats.huge_allocs == 2

    def test_machine_wide_oom_only_when_all_pools_dry(self):
        alloc = facade("local", node_bytes=4 * MIB)
        with pytest.raises(OutOfMemoryError):
            for _ in range(10_000):
                alloc.alloc_frame(site=0)
        assert alloc.free_frames == 0

    def test_aggregate_surfaces(self):
        alloc = facade("interleave")
        assert alloc.num_frames == sum(p.num_frames
                                       for p in alloc.pools)
        for _ in range(8):
            alloc.alloc_frame(site=0)
        assert alloc.stats.small_allocs == 8
        assert 0.0 < alloc.pressure < 1.0
        assert alloc.node_pressure(0) > 0.0


class TestDistanceCharging:
    def probe(self, hierarchy, core, paddr):
        return hierarchy.access_fast(0.0, paddr, KIND_DATA, 0, core, 0)

    def build(self):
        penalty = ((0.0, 150.0), (150.0, 0.0))
        return build_ndp_hierarchy(2, HBM2, numa_nodes=2,
                                   numa_penalty=penalty)

    def test_remote_access_pays_distance(self):
        local = self.build()
        remote = self.build()
        paddr = 123 * 64
        tagged = paddr | (1 << NODE_PADDR_SHIFT)
        base = self.probe(local, 1, tagged)    # core 1 is node 1: local
        far = self.probe(remote, 0, tagged)    # core 0 crossing nodes
        assert far == base + 150.0
        assert remote.stats.remote_reads == 1
        assert remote.stats.remote_penalty_cycles == 150.0
        assert local.stats.remote_reads == 0

    def test_remote_request_served_by_remote_device(self):
        hierarchy = self.build()
        tagged = (7 * 64) | (1 << NODE_PADDR_SHIFT)
        self.probe(hierarchy, 0, tagged)
        assert hierarchy.drams[1].stats.accesses == 1
        assert hierarchy.drams[0].stats.accesses == 0
        merged = hierarchy.dram_stats()
        assert merged.accesses == 1

    def test_single_node_builder_unchanged(self):
        flat = build_ndp_hierarchy(2, HBM2)
        assert flat.drams is None
        assert flat.dram_stats() is flat.dram.stats

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            build_ndp_hierarchy(2, HBM2, numa_nodes=2)  # no penalty
        with pytest.raises(ValueError):
            build_ndp_hierarchy(2, HBM2, numa_nodes=2,
                                numa_penalty=((0.0,),))  # wrong shape


class TestOsNumaIntegration:
    def test_pte_local_pins_table_pages_to_faulting_node(self):
        alloc = facade("pte-local")
        table = RadixPageTable(alloc)
        os_model = OSMemoryManager(alloc, table)
        # Faults handled on core 1 must put every page-table node that
        # the mapping creates on node 1 (the root predates any fault
        # hint and lands on node 0's default).
        root_allocs = list(alloc.numa_stats.pte_allocs)
        for i in range(16):
            os_model.ensure_mapped(i << 30, site=1)  # distinct subtrees
        grown = [now - before for now, before in
                 zip(alloc.numa_stats.pte_allocs, root_allocs)]
        assert grown[0] == 0
        assert grown[1] > 0

    def test_local_policy_follows_fault_site_for_data(self):
        alloc = facade("local")
        table = RadixPageTable(alloc)
        os_model = OSMemoryManager(alloc, table)
        os_model.ensure_mapped(0x1000, site=1)
        translation = table.lookup(1)
        assert node_of_frame(translation.pfn) == 1


def numa_golden_config(mechanism, placement):
    return ndp_config(mechanism=mechanism, workload="bfs",
                      refs_per_core=3000, scale=1 / 64, seed=7,
                      num_cores=2,
                      numa=NumaParams(nodes=2, placement=placement))


#: Golden 2-node values (2 cores, bfs @ 1/64 scale, 150-cycle
#: distance).  Deterministic like every other golden: a change that
#: moves these perturbs the NUMA simulation and must be deliberate
#: (and must bump CODE_VERSION in analysis/cache.py).
NUMA_GOLDEN = {
    ("radix", "interleave"): {
        "cycles": 510318.0,
        "references": 6000,
        "walks": 4105,
        "tlb_miss_rate": 0.6841666666666667,
    },
    ("radix", "pte-local"): {
        "cycles": 570382.0,
        "references": 6000,
        "walks": 4105,
        "tlb_miss_rate": 0.6841666666666667,
    },
    ("ndpage", "interleave"): {
        "cycles": 603004.0,
        "references": 6000,
        "walks": 4105,
        "tlb_miss_rate": 0.6841666666666667,
    },
}

NUMA_GOLDEN_EXTRAS = {
    ("radix", "interleave"): {
        "remote_dram_reads": 4004.0,
        "remote_fraction": 0.48728246318607765,
        "remote_penalty_cycles": 600600.0,
    },
    ("radix", "pte-local"): {
        "remote_dram_reads": 3793.0,
        "remote_fraction": 0.46160399172447364,
        "remote_penalty_cycles": 568950.0,
    },
    ("ndpage", "interleave"): {
        "remote_dram_reads": 4194.0,
        "remote_fraction": 0.494750501356612,
        "remote_penalty_cycles": 629100.0,
    },
}


class TestNumaGolden:
    @pytest.mark.parametrize("cell", sorted(NUMA_GOLDEN))
    def test_run_result_matches_golden(self, cell):
        result = run_once(numa_golden_config(*cell))
        golden = NUMA_GOLDEN[cell]
        mismatches = {
            name: (getattr(result, name), expected)
            for name, expected in golden.items()
            if getattr(result, name) != expected
        }
        assert not mismatches, (
            f"{cell}: NUMA statistics drifted: {mismatches}")
        for name, expected in NUMA_GOLDEN_EXTRAS[cell].items():
            assert result.extras[name] == expected, name
        assert result.extras["numa_nodes"] == 2.0

    def test_deterministic_across_calls(self):
        cfg = numa_golden_config("radix", "interleave")
        first = dataclasses.asdict(run_once(cfg))
        second = dataclasses.asdict(run_once(cfg))
        assert first == second

    def test_deterministic_across_worker_counts(self):
        """2-node cells through the pool = serial, field for field."""
        configs = [numa_golden_config(m, p)
                   for m, p in sorted(NUMA_GOLDEN)]
        serial = SweepService(jobs=1).run(configs)
        pooled = SweepService(jobs=2).run(configs)
        for a, b in zip(serial, pooled):
            fields_a = dataclasses.asdict(a)
            fields_b = dataclasses.asdict(b)
            assert fields_a == fields_b

    def test_remote_penalty_zero_makes_interleave_distance_free(self):
        cfg = ndp_config(workload="bfs", refs_per_core=1000,
                         scale=1 / 64, seed=7, num_cores=2,
                         numa=NumaParams(nodes=2,
                                         placement="interleave",
                                         remote_cycles=0))
        result = run_once(cfg)
        assert result.extras["remote_penalty_cycles"] == 0.0
        assert result.extras["remote_dram_reads"] == 0.0


class TestMultiTenantNuma:
    def test_slot_queues_start_with_node_local_tenant(self):
        from repro.sim.system import System
        cfg = ndp_config(workload="bfs", refs_per_core=500,
                         scale=1 / 64, seed=7, tenants=2, num_cores=2,
                         numa=NumaParams(nodes=2))
        system = System(cfg)
        # Slot 0 lives on node 0: tenant 0 (home node 0) first.
        assert [c.mmu.asid for c in system.engine.slots[0].cores] \
            == [0, 1]
        # Slot 1 lives on node 1: tenant 1 first.
        assert [c.mmu.asid for c in system.engine.slots[1].cores] \
            == [1, 0]

    def test_single_node_slot_order_is_asid_order(self):
        from repro.sim.system import System
        cfg = ndp_config(workload="bfs", refs_per_core=500,
                         scale=1 / 64, seed=7, tenants=2, num_cores=2)
        system = System(cfg)
        for slot in system.engine.slots:
            assert [c.mmu.asid for c in slot.cores] == [0, 1]

    def test_references_conserved_under_numa(self):
        cfg = ndp_config(workload="bfs", refs_per_core=800,
                         scale=1 / 64, seed=7, tenants=2, num_cores=2,
                         numa=NumaParams(nodes=2,
                                         placement="interleave"))
        result = run_once(cfg)
        assert result.references == 2 * 2 * 800
        assert result.extras["numa_nodes"] == 2.0
