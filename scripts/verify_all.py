#!/usr/bin/env python3
"""Run the full verification battery at production sizes.

Usage: python scripts/verify_all.py [outdir]

Each stage is a CLI invocation; a JSON report lands in outdir (default
./reports). The console line of each stage gives its wall time, and the last
line the total; the JSON reports carry no timing. Exits nonzero if any stage
reports a violation.
"""

import pathlib
import sys
import time

from curv.cli import main as curv

STAGES = [
    ("identity", ["verify", "identity"]),
    ("minor", ["verify", "minor", "--fd"]),
    ("inequality-prod", ["verify", "inequality", "--which", "prod"]),
    ("inequality-phi", ["verify", "inequality", "--which", "phi"]),
    ("inequality-euclid", ["verify", "inequality", "--which", "euclid"]),
    ("inequality-sphere", ["verify", "inequality", "--which", "sphere"]),
    ("barrier-outer-graph", ["barrier", "--field", "radial:S-u:0.5"]),
    ("example-euclid-cone", ["example", "--name", "euclid-cone"]),
    ("example-spherical-glued", ["example", "--name", "spherical-glued"]),
]


def run(outdir: pathlib.Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    failures, total = [], 0.0
    for name, argv in STAGES:
        start = time.perf_counter()
        rc = curv(argv + ["--out", str(outdir / f"{name}.json")])
        wall = time.perf_counter() - start
        total += wall
        status = "ok" if rc == 0 else f"FAILED (exit {rc})"
        print(f"{name:28s} {status:18s} {wall:8.3f} s")
        if rc != 0:
            failures.append(name)
    if failures:
        print(f"{len(failures)} stage(s) failed in {total:.3f} s: {', '.join(failures)}")
        return 1
    print(f"all {len(STAGES)} stages passed in {total:.3f} s")
    return 0


if __name__ == "__main__":
    target = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("reports")
    sys.exit(run(target))
