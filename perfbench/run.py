#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload {battery,points,curved-n3} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; `curv` is imported from its src/. The
output is one line of run information (machine, versions, seeds, sample
counts, fail ratio) followed, as the last line, by the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones. See NOTES.md.
"""
import argparse
import json
import os
import sys

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("battery", "points", "curved-n3")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    import bench

    result, info = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
