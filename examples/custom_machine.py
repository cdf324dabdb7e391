#!/usr/bin/env python
"""Machine-parameter study: how the coherence unit and the interconnect
shape the value of the transformations.

The paper's conclusion predicts that "with the trend toward larger
caches, larger coherence units, and longer memory latencies, false
sharing will have an increasingly large, negative performance impact."
This example varies the simulated machine to show exactly that: the
unoptimized/transformed gap widens with the block size and with the
ring latency.

Run:  python examples/custom_machine.py
"""

from dataclasses import replace

from repro import time_run
from repro.harness import Pipeline
from repro.machine import get_machine
from repro.workloads import WATER

NPROCS = 8


def main() -> None:
    pipe = Pipeline(WATER.source)
    base = pipe.run_unoptimized(NPROCS)
    opt = pipe.run_compiler(NPROCS)

    print("== coherence-unit sweep (simulated 32 KB caches, 8 procs)")
    print(f"{'block':>6} {'N misses':>9} {'C misses':>9} {'N FS':>7} {'C FS':>7}")
    for bs in (16, 32, 64, 128, 256):
        sn = base.simulate(bs)
        sc = opt.simulate(bs)
        print(
            f"{bs:>5}B {sn.total_misses:>9} {sc.total_misses:>9} "
            f"{sn.misses.false_sharing:>7} {sc.misses.false_sharing:>7}"
        )

    print("\n== interconnect-latency sweep (KSR2 timing model)")
    print(f"{'latency':>8} {'T(N) Mcycles':>13} {'T(C) Mcycles':>13} {'gain':>6}")
    for lat in (90.0, 175.0, 350.0, 700.0):
        ksr2 = replace(
            get_machine("ksr2"),
            cpi=WATER.cpi, local_latency=lat, remote_latency=4 * lat,
        )
        tn = time_run(base.run, ksr2)
        tc = time_run(opt.run, ksr2)
        gain = 1.0 - tc.cycles / tn.cycles
        print(
            f"{lat:>7.0f}c {tn.cycles / 1e6:>12.2f} {tc.cycles / 1e6:>12.2f} "
            f"{100 * gain:>5.1f}%"
        )
    print("\nLonger latencies and larger blocks make the compile-time "
          "transformations more valuable — the paper's closing argument.")


if __name__ == "__main__":
    main()
