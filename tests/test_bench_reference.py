"""The benchmark checks each operation's record against the references
committed in perfbench/reference/; a report that drifts from them fails only
there, as an incorrect output. Here every operation of each workload runs
once at full size for input seeds 0-3, and its record must match the
committed one by the benchmark's own `matches`."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# bench.py imports its sibling modules by bare name
sys.path.insert(0, str(PERFBENCH))
try:
    import bench
finally:
    sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("workload", sorted(bench.workloads.WORKLOADS))
def test_records_match_the_committed_reference(workload, seed):
    reference = bench.load_reference(workload, seed)
    records = {op.op_id: op.run()[0] for op in bench.workloads.build(workload, seed)}
    assert records.keys() == reference.keys()
    assert [k for k, record in records.items() if not bench.matches(record, reference[k])] == []
