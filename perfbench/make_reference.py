#!/usr/bin/env python3
"""Regenerate the per-seed reference records in perfbench/reference/.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one pass of each workload for every input seed 0 .. REFERENCE_SEEDS-1
and stores each operation's record. Run it only on a commit whose results
are trusted: the benchmark fails every operation that drifts from these
records beyond bench.RTOL / bench.ATOL. Exits 1 if any operation's own
verdict is not `passed`.
"""
import json
import os
import sys

from run import BLAS_ENV

os.environ.update(BLAS_ENV)

import bench  # noqa: E402
import workloads  # noqa: E402


def records(workload: str, seed: int, size: str = "full") -> dict:
    out = {}
    for op in workloads.build(workload, seed, size):
        record, _ = op.run()
        out[op.op_id] = record
    return out


def write(path, seeds: dict) -> None:
    """JSON with one operation's record per line, so changes diff by operation."""
    lines = [f'{{"reference_seeds": {workloads.REFERENCE_SEEDS}, "seeds": {{']
    for i, (seed, recs) in enumerate(seeds.items()):
        lines.append(f"{json.dumps(seed)}: {{")
        lines += [f"  {json.dumps(k)}: {json.dumps(r, sort_keys=True)}," for k, r in recs.items()]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("}," if i < len(seeds) - 1 else "}")
    lines.append("}}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main(names) -> int:
    bad = 0
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or list(workloads.WORKLOADS):
        seeds = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            seeds[str(seed)] = recs = records(workload, seed)
            failing = [k for k, r in recs.items() if not r["passed"]]
            bad += len(failing)
            print(f"{workload} seed {seed}: {len(recs)} ops, failing {failing}", flush=True)
        write(bench.REFERENCE_DIR / f"{workload}.json", seeds)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
