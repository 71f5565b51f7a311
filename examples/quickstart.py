#!/usr/bin/env python
"""Quickstart: simulate one workload under two translation mechanisms.

Builds the paper's 4-core NDP system (Table I), runs the GUPS
random-access workload under the conventional 4-level radix page table
and under NDPage, and prints the end-to-end comparison — a miniature
Fig. 13 data point.

Run:  python examples/quickstart.py
"""

from repro import ndp_config, run_mechanisms
from repro.analysis.tables import format_table


def main():
    config = ndp_config(
        workload="rnd",       # GUPS / RandomAccess (Table II)
        num_cores=4,
        refs_per_core=8_000,  # memory references simulated per core
    )
    print(f"Simulating {config.workload!r} on a {config.num_cores}-core "
          f"NDP system (16 GB HBM2, 32 KB L1 per core)...")

    results = run_mechanisms(config, ["radix", "ndpage", "ideal"])
    baseline = results["radix"]

    rows = []
    for name, result in results.items():
        rows.append([
            name,
            result.cycles,
            result.speedup_over(baseline),
            result.ptw_latency_mean,
            result.tlb_miss_rate,
            result.translation_fraction,
        ])
    print()
    print(format_table(
        ["mechanism", "cycles", "speedup", "PTW (cy)", "TLB miss",
         "translation share"],
        rows, title="GUPS on 4-core NDP"))

    ndpage = results["ndpage"]
    print()
    walk_ratio = baseline.ptw_latency_mean / ndpage.ptw_latency_mean
    print(f"NDPage walk is {walk_ratio:.2f}x "
          f"faster than the radix walk: 3 levels instead of 4, and PTE "
          f"accesses bypass the L1 ({ndpage.l1_metadata_miss_rate:.0%} "
          f"L1 metadata traffic vs "
          f"{baseline.l1_metadata_miss_rate:.0%} miss rate for radix).")


if __name__ == "__main__":
    main()
