"""Every workload, untraced then traced, in one report.

    python3 perfbench/report.py [--seed N] [--seconds S]

Prints each workload's end-to-end metrics (with units and sample counts),
its per-layer metrics, and the tracing overhead: traced minus untraced
wall_s.  Run from the root of a checkout, like run.py.
"""

from __future__ import annotations

import argparse
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()
    overhead = {}
    for workload in run.WORKLOADS:
        walls = []
        for trace in (0, 1):
            ns = argparse.Namespace(workload=workload, seed=args.seed,
                                    seconds=args.seconds, trace=trace)
            try:
                r = run.run(ns)
            except run.BenchError as exc:
                print(f"{workload}: benchmark failed: {exc}", file=sys.stderr)
                return 1
            run.report(ns, r)
            walls.append(r["wall_s"])
            print()
        overhead[workload] = walls
    print("tracing overhead (traced - untraced wall_s):")
    for workload, (plain, traced) in overhead.items():
        print(f"  {workload:<10} {traced - plain:+9.3f} s  ({(traced - plain) / plain:+.1%} of {plain:.3f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
