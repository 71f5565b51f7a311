"""The repo benchmark: host time of the NDPage simulator.

    python3 perfbench/run.py --workload walk-radix --seed 1 \\
        --seconds 20 --trace 0

Workloads (all single-process, ``serial`` backend, NDP platform;
caches, TLBs and PWCs start empty at the region of interest and page
tables are prefaulted by the simulator's untimed warmup):

* ``walk-radix``  GUPS (``rnd``) under Radix, 1 core, scale 0.05: the
  walker-bound case (~0.56 walks and ~1.06 PTE accesses per reference).
* ``ndpage-4c``   XSBench (``xs``) under NDPage, 4 cores, scale 0.05:
  the paper's flattened table plus metadata L1 bypass, few walks, so
  the inline hit loop and the run-ahead engine dominate.
* ``fig12-sweep`` the Fig. 12 grid (every workload x the five paper
  mechanisms, 1 core, paper scale, shortened cells) run cold through
  ``SweepService`` into a fresh ``ResultCache``, then warm from it.

Each workload is a grid of cells (one for the single-run workloads).
A *pass* runs the grid cold (build, run, collect, cache store) and
then reads it back from the cache ``WARM_ROUNDS`` times.  Passes repeat
until ``--seconds`` have elapsed; every end-to-end metric is the median
over passes of this process's CPU time, scaled to a reference host
speed by a fixed kernel timed around each pass.  An operation is one
cold cell; it fails when a correctness check on it fails (wrong
reference count, a digest that differs from the first pass of the same
seed, a cache read that is not a hit or not equal field for field, a
quarantined cell, or, for the sweep, NDPage's average speedup over
Radix not above 1).

``--trace 1`` first measures untraced passes, then installs the
per-layer ledger (see ``ledger.py``) and measures traced passes; it
prints the per-layer metrics, the tracing overhead, and writes the
spans as Chrome trace-event JSON under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SINGLE_REFS = 50_000
SINGLE_SCALE = 0.05
#: References per core of a Fig. 12 cell (the figure itself uses more;
#: shortened so one cold pass of 55 cells takes a few seconds).
SWEEP_REFS = 3_000
#: Cache read-backs per pass: one takes well under a millisecond for a
#: single cell, so many are timed to measure a steady rate.
WARM_ROUNDS = {"walk-radix": 250, "ndpage-4c": 250, "fig12-sweep": 25}
#: Share of a traced run spent on untraced passes (the overhead base).
UNTRACED_SHARE = 0.4

WORKLOADS = ("walk-radix", "ndpage-4c", "fig12-sweep")
PWC_LEVELS = ("PL4", "PL3", "PL2", "PL1", "PL2/1")

#: The end-to-end metrics are CPU seconds of this single-threaded
#: process: on a shared host the wall clock also counts the time the
#: kernel gives to other work (the kernel leaves steal time out of
#: CPU time).  Deadlines, the trace and its overhead use the wall clock.
cpu = time.process_time
wall = time.perf_counter

#: CPU time moves with the host's speed too, by up to 1.8x for minutes
#: at a time on a shared host.  So each pass is bracketed by runs of a
#: fixed reference kernel, and its CPU times are scaled to a host on
#: which the kernel takes ``KERNEL_REFERENCE_S`` (see README, Noise).
KERNEL_REFERENCE_S = 0.010
#: Kernel runs before and after each pass; the median is used.
KERNEL_SAMPLES = 3


def load_program() -> None:
    """Import the simulator from this checkout's ``src`` or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator source not found "
                         f"under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT / "benchmarks"))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not from {SRC}")


# -- inputs -------------------------------------------------------------------

def grid(workload: str, seed: int):
    """The cells of ``workload`` for ``seed``."""
    from repro.core.mechanisms import PAPER_MECHANISMS
    from repro.sim.config import DEFAULT_SCALE, ndp_config
    from repro.workloads.registry import ALL_WORKLOADS
    if workload == "walk-radix":
        return [ndp_config(workload="rnd", mechanism="radix",
                           num_cores=1, refs_per_core=SINGLE_REFS,
                           scale=SINGLE_SCALE, seed=seed)]
    if workload == "ndpage-4c":
        return [ndp_config(workload="xs", mechanism="ndpage",
                           num_cores=4, refs_per_core=SINGLE_REFS,
                           scale=SINGLE_SCALE, seed=seed)]
    return [ndp_config(workload=name, mechanism=mechanism, num_cores=1,
                       refs_per_core=SWEEP_REFS, scale=DEFAULT_SCALE,
                       seed=seed)
            for name in ALL_WORKLOADS for mechanism in PAPER_MECHANISMS]


def digest(result) -> str:
    """SHA-256 over the full RunResult, as the cache serializes it."""
    from repro.analysis.cache import payload_checksum, result_to_dict
    return payload_checksum(result_to_dict(result))


# -- one pass -----------------------------------------------------------------

class Pass:
    """What one cold pass plus its warm read-backs measured."""

    def __init__(self, cells: int):
        self.cells = cells
        # CPU seconds (the end-to-end metrics of untraced passes).
        self.build_s = 0.0
        self.run_s = 0.0
        self.cold_cpu = 0.0
        self.warm_cpus = []
        self.kernel_s = KERNEL_REFERENCE_S   # reference kernel CPU time
        self.references = 0
        self.cold_wall = 0.0
        self.results = []
        self.cell_walls = []
        self.failed = set()        # indices of failed cells
        self.problems = []
        self.digest = ""
        self.cold_layers = {}
        self.warm_layers = {}
        self.cache_hits = 0
        self.cache_lookups = 0

    def fail(self, index, why: str) -> None:
        self.failed.add(index)
        self.problems.append(why)

    def fail_all(self, why: str) -> None:
        self.failed.update(range(self.cells))
        self.problems.append(why)


def single_pass(configs, cache_root: Path, warm_rounds: int,
                ledger) -> Pass:
    """Build, run, collect and store one cell directly, then read it
    back ``warm_rounds`` times."""
    from repro.analysis.cache import ResultCache
    from repro.sim import runner
    from repro.sim.system import System
    config, = configs
    record = Pass(1)
    cache = ResultCache(cache_root)
    if ledger is not None:
        ledger.reset_counters()
    t0, c0 = wall(), cpu()
    system = System(config)
    c1 = cpu()
    cycles = system.run()
    c2 = cpu()
    result = runner.collect(system, cycles)
    cache.store(config, result)
    t4, c4 = wall(), cpu()
    del system
    record.build_s = c1 - c0
    record.run_s = c2 - c1
    record.references = result.references
    record.cold_cpu = c4 - c0
    record.cold_wall = t4 - t0
    record.cell_walls = [t4 - t0]
    record.results = [result]
    if ledger is not None:
        record.cold_layers = ledger.snapshot()
        ledger.reset_counters()
    for _ in range(warm_rounds):
        start = cpu()
        reader = ResultCache(cache_root)
        loaded = reader.load(config)
        record.warm_cpus.append(cpu() - start)
        record.cache_hits += reader.stats.hits
        record.cache_lookups += reader.stats.lookups
        if reader.stats.hits != 1 or loaded != result:
            record.fail(0, "cache read-back missed or differs")
    if ledger is not None:
        record.warm_layers = ledger.snapshot()
    return record


def sweep_pass(configs, cache_root: Path, warm_rounds: int,
               ledger) -> Pass:
    """Run the grid cold through the serial SweepService into a fresh
    cache, then warm from that cache ``warm_rounds`` times."""
    from repro.service import SweepService
    from repro.sim.sweep import SweepPolicy
    policy = SweepPolicy(strict=False)
    record = Pass(len(configs))
    ledger.reset_counters()
    first_span = len(ledger.spans)
    start, start_cpu = wall(), cpu()
    service = SweepService(backend="serial", cache_dir=cache_root,
                           policy=policy)
    cold = service.run_grid(configs)
    record.cold_wall = wall() - start
    record.cold_cpu = cpu() - start_cpu
    record.cold_layers = ledger.snapshot()
    layers = ledger.layers
    # CPU seconds under the untraced run's cell timers; the traced
    # ledger's wall seconds are not used for the end-to-end metrics.
    record.build_s = layers["sim.build"].total
    record.run_s = layers["sim.run"].total
    record.results = list(cold.results)
    record.references = sum(r.references for r in record.results
                            if r is not None)
    spans = ledger.spans[first_span:]
    cells = [s[2] for s in spans if s[0] == "sweep.cell"]
    stores = [s[2] for s in spans if s[0] == "cache.store"]
    if len(stores) == len(cells):
        record.cell_walls = [a + b for a, b in zip(cells, stores)]
    else:
        record.cell_walls = cells
    for failure in cold.manifest:
        record.problems.append(f"quarantined: {failure.label}")
    for index, result in enumerate(record.results):
        if result is None:
            record.fail(index, "cell quarantined")
    ledger.reset_counters()
    for _ in range(warm_rounds):
        start = cpu()
        reader = SweepService(backend="serial", cache_dir=cache_root,
                              policy=policy)
        warm = reader.run_grid(configs)
        record.warm_cpus.append(cpu() - start)
        stats = reader.cache.stats
        record.cache_hits += stats.hits
        record.cache_lookups += stats.lookups
        if stats.hits != len(configs) or reader.last_stats.simulated:
            record.fail_all(f"warm pass hit {stats.hits} of "
                            f"{len(configs)} cells")
        for index, (old, new) in enumerate(zip(record.results,
                                                warm.results)):
            if new != old:
                record.fail(index, "warm result differs from cold")
    record.warm_layers = ledger.snapshot()
    return record


def check_pass(workload: str, configs, record: Pass,
               reference_digest) -> str:
    """Apply the output checks; returns this pass's digest."""
    for index, (config, result) in enumerate(zip(configs,
                                                 record.results)):
        if result is None:
            continue
        expected = config.refs_per_core * config.num_cores
        if result.references != expected:
            record.fail(index, f"{result.references} references, "
                               f"expected {expected}")
    cell_digests = [digest(r) if r is not None else "-"
                    for r in record.results]
    if len(cell_digests) == 1:
        record.digest = cell_digests[0]
    else:
        record.digest = hashlib.sha256(
            "\n".join(cell_digests).encode()).hexdigest()
    if reference_digest is not None and record.digest != reference_digest:
        record.fail_all("digest differs from the first pass")
    if workload == "fig12-sweep":
        averages = sweep_speedups(configs, record.results)
        if not averages.get("ndpage", 0.0) > 1.0:
            record.fail_all("NDPage average speedup over Radix <= 1")
    return record.digest


def sweep_speedups(configs, results):
    """Average speedup over Radix per mechanism, as Fig. 12 draws it."""
    from repro.analysis.metrics import average_speedups, speedup_table
    raw = {}
    for config, result in zip(configs, results):
        raw.setdefault(config.workload, {})[config.mechanism] = result
    return average_speedups(speedup_table(raw, baseline="radix"))


# -- host speed -------------------------------------------------------------

class _Line:
    __slots__ = ("tag", "age", "dirty")

    def __init__(self, tag):
        self.tag = tag
        self.age = 0
        self.dirty = False


_LINES = [_Line(i) for i in range(512)]


def _touch(line, step):
    line.age = step
    line.dirty = not line.dirty
    return line.tag


def reference_kernel(rounds: int = 20_000) -> float:
    """CPU seconds of a fixed pure-Python loop in the style of the
    simulator's hot loops (dict lookups, slotted attributes, calls,
    integer arithmetic) that uses none of the simulator, so no change
    to the program moves it.  It allocates nothing in the loop, so no
    garbage collection lands in it."""
    table = {i * 7919 & 0xFFFF: line for i, line in enumerate(_LINES)}
    keys = list(table)
    state = 12345
    total = 0
    start = cpu()
    for step in range(rounds):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        line = table.get(keys[(state >> 12) % len(keys)])
        if line is not None and line.age < step:
            total += _touch(line, step)
        else:
            total ^= step
    elapsed = cpu() - start
    for line in _LINES:
        line.age = 0
    return elapsed


# -- the measurement loop -----------------------------------------------------

def measure(workload: str, configs, seconds: float, ledger,
            work_dir: Path, state: dict):
    """Run passes for ``seconds``: at least one, and no further pass
    once the median pass so far would end past the deadline."""
    run_pass = single_pass if len(configs) == 1 else sweep_pass
    passes = []
    walls = []
    deadline = wall() + seconds
    while not passes or wall() + median(walls) < deadline:
        start = wall()
        cache_root = work_dir / f"pass{state['passes']}"
        state["passes"] += 1
        gc.collect()
        kernel = [reference_kernel() for _ in range(KERNEL_SAMPLES)]
        record = run_pass(configs, cache_root, WARM_ROUNDS[workload],
                          ledger)
        shutil.rmtree(cache_root, ignore_errors=True)
        kernel += [reference_kernel() for _ in range(KERNEL_SAMPLES)]
        record.kernel_s = median(kernel)
        digest_now = check_pass(workload, configs, record,
                                state.get("digest"))
        state.setdefault("digest", digest_now)
        passes.append(record)
        walls.append(wall() - start)
    return passes


def end_to_end(passes, scaled: bool = True):
    """The gated end-to-end metrics, medians over passes of CPU times
    scaled to the reference host speed (raw CPU times if not
    ``scaled``)."""
    cells = passes[0].cells

    def scale(p):
        return KERNEL_REFERENCE_S / p.kernel_s if scaled else 1.0

    return {
        "setup_s": (median([p.build_s * scale(p) for p in passes]), "s"),
        "sim_refs_per_s": (median([p.references / (p.run_s * scale(p))
                                   for p in passes]), "refs/s"),
        "cold_cells_per_s": (median([cells / (p.cold_cpu * scale(p))
                                     for p in passes]), "cells/s"),
        "warm_cells_per_s": (median([
            cells / (median(p.warm_cpus) * scale(p)) for p in passes]),
            "cells/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024.0, "MB"),
    }


def weighted(pairs):
    """Weighted mean of (value, weight) pairs; 0.0 without weight."""
    total = sum(w for _, w in pairs)
    return sum(v * w for v, w in pairs) / total if total else 0.0


def per_layer(passes, untraced, call_cost: float):
    """Per-layer metrics of the traced passes (medians over passes)."""
    rows = [layer_row(p) for p in passes]
    names = list(rows[0])
    metrics = {name: (median([row[name][0] for row in rows]),
                      rows[0][name][1]) for name in names}
    overhead = (median([p.cold_wall for p in passes])
                / median([p.cold_wall for p in untraced]))
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.call_cost_ns"] = (call_cost * 1e9, "ns")
    return metrics


def layer_row(record: Pass):
    """Per-layer metrics of one traced pass."""
    cold = record.cold_layers
    warm = record.warm_layers

    def calls(name, layers=cold):
        return layers.get(name, (0, 0.0, 0.0))[0]

    def self_s(name, layers=cold):
        return layers.get(name, (0, 0.0, 0.0))[2]

    def total_s(name, layers=cold):
        return layers.get(name, (0, 0.0, 0.0))[1]

    results = [r for r in record.results if r is not None]
    refs = sum(r.references for r in results)
    pte = sum(r.pte_memory_accesses for r in results)
    run_s = total_s("sim.run")
    hit_loop = self_s("sim.run")
    named = (self_s("mmu.slow") + self_s("mmu.walk")
             + self_s("mem.hierarchy") + self_s("mem.dram"))
    cell_walls = sorted(record.cell_walls)
    p80 = cell_walls[min(len(cell_walls) - 1,
                         int(0.8 * len(cell_walls)))]
    row = {
        "workloads.gen_chunks": (calls("workloads.gen"), "count"),
        "workloads.gen_s": (self_s("workloads.gen"), "s"),
        "vm.prefault_calls": (calls("vm.prefault"), "count"),
        "vm.prefault_s": (self_s("vm.prefault"), "s"),
        "sim.build_s": (self_s("sim.build"), "s"),
        "mmu.slow_calls": (calls("mmu.slow"), "count"),
        "mmu.slow_s": (self_s("mmu.slow"), "s"),
        "mmu.walks": (calls("mmu.walk"), "count"),
        "mmu.walk_s": (self_s("mmu.walk"), "s"),
        "mmu.pte_accesses_per_ref": (pte / refs if refs else 0.0,
                                     "pte/ref"),
    }
    for level in PWC_LEVELS:
        row["mmu.pwc_hit_rate." + level.replace("/", "_")] = (
            weighted([(r.pwc_hit_rates[level], r.walks)
                      for r in results if level in r.pwc_hit_rates]),
            "ratio")
    dram = [(r.dram_row_hit_rate, sum(r.dram_accesses_by_kind.values()))
            for r in results]
    row.update({
        "mem.accesses": (calls("mem.hierarchy"), "count"),
        "mem.hierarchy_s": (self_s("mem.hierarchy"), "s"),
        "mem.dram_accesses": (calls("mem.dram"), "count"),
        "mem.dram_s": (self_s("mem.dram"), "s"),
        "mem.dram_row_hit_rate": (weighted(dram), "ratio"),
        "mem.l1_data_miss_rate": (weighted(
            [(r.l1_data_miss_rate, r.references) for r in results]),
            "ratio"),
        "mem.l1_metadata_miss_rate": (weighted(
            [(r.l1_metadata_miss_rate, r.pte_memory_accesses)
             for r in results]), "ratio"),
        "sim.run_s": (run_s, "s"),
        "sim.hit_loop_s": (hit_loop, "s"),
        "sim.hit_loop_share": (hit_loop / run_s if run_s else 0.0,
                               "ratio"),
        "sim.run_residual_s": (run_s - named - hit_loop, "s"),
        "sweep.cell_s": (median(record.cell_walls), "s"),
        "sweep.cell_p80_s": (p80, "s"),
        "sweep.overhead_s": (record.cold_wall - (
            total_s("sim.build") + run_s + total_s("sim.collect")
            + total_s("cache.store")), "s"),
        "cache.stores": (calls("cache.store"), "count"),
        "cache.store_s": (total_s("cache.store"), "s"),
        "cache.loads": (calls("cache.load", warm), "count"),
        "cache.load_s": (total_s("cache.load", warm), "s"),
        "cache.hit_rate": (record.cache_hits / record.cache_lookups
                           if record.cache_lookups else 0.0, "ratio"),
        "trace.wrapped_calls": (sum(c[0] for c in cold.values()),
                                "count"),
    })
    return row


# -- reporting ----------------------------------------------------------------

def git_sha():
    """HEAD of the checkout, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp(args, configs) -> dict:
    from repro.analysis.cache import CODE_VERSION
    return {
        "git_sha": git_sha(),
        "code_version": CODE_VERSION,
        "python": sys.version.split()[0],
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cells": len(configs),
        "refs_per_core": configs[0].refs_per_core,
        "scale": configs[0].scale,
        "trace": args.trace,
        "backend": "serial",
    }


def print_paper_comparison(configs, passes) -> None:
    """Measured Fig. 12 averages beside the paper's (reported only)."""
    from speedup_common import PAPER_AVERAGES
    averages = sweep_speedups(configs, passes[0].results)
    print(f"fig12 averages over Radix (cells shortened to {SWEEP_REFS} "
          f"refs/core; the paper runs full length; not gated):")
    for mechanism, paper in PAPER_AVERAGES[1].items():
        measured = averages.get(mechanism, float("nan"))
        error = (measured - paper) / paper
        print(f"  {mechanism:9s} measured {measured:.3f}  paper "
              f"{paper:.3f}  relative error {error:+.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    load_program()
    from ledger import CELL_TIMERS, Ledger, wrapper_call_cost

    configs = grid(args.workload, args.seed)
    info = stamp(args, configs)
    print("perfbench " + json.dumps(info, sort_keys=True))
    work_dir = WORK / str(os.getpid())
    state = {"passes": 0}
    timers = Ledger(clock=cpu) if len(configs) > 1 else None
    try:
        if timers is not None:
            timers.install(CELL_TIMERS)
        untraced_seconds = (args.seconds * UNTRACED_SHARE if args.trace
                            else args.seconds)
        try:
            untraced = measure(args.workload, configs, untraced_seconds,
                               timers, work_dir, state)
        finally:
            if timers is not None:
                timers.uninstall()
        traced = []
        if args.trace:
            call_cost = wrapper_call_cost()
            ledger = Ledger()
            ledger.install()
            try:
                traced = measure(args.workload, configs,
                                 args.seconds - untraced_seconds,
                                 ledger, work_dir, state)
            finally:
                ledger.uninstall()
            path = OUT / (f"trace-{args.workload}-seed{args.seed}"
                          ".json")
            ledger.write_chrome_trace(path, info)
            print(f"trace: {path.relative_to(ROOT)} "
                  f"({len(ledger.spans)} spans, {ledger.dropped} hot "
                  f"spans counted but not kept)")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    passes = untraced + traced
    attempted = sum(p.cells for p in passes)
    failed = sum(len(p.failed) for p in passes)
    for problem in sorted({q for p in passes for q in p.problems}):
        print(f"check failed: {problem}")
    first = untraced[0]
    cycles = sum(r.cycles for r in first.results if r is not None)
    print(f"simulation: cycles {cycles!r} digest {first.digest} "
          f"({len(passes)} passes, {len(untraced)} untraced, "
          f"{len(traced)} traced)")
    if args.workload == "fig12-sweep":
        print_paper_comparison(configs, untraced)
    print(f"host speed: reference kernel "
          f"{median([p.kernel_s for p in untraced]) * 1e3:.3f} ms CPU "
          f"(median over {len(untraced)} untraced passes); end-to-end "
          f"times are scaled to {KERNEL_REFERENCE_S * 1e3:g} ms")
    if not args.trace:
        for name, (value, unit) in end_to_end(untraced, False).items():
            print(f"unscaled {name:19s} {value:.6g} {unit}")
    metrics = (per_layer(traced, untraced, call_cost) if args.trace
               else end_to_end(untraced))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
