"""Smoke test of the benchmark itself, at a tiny size of every workload.

Run: python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once with tracing off and once with it on, against a
reference made from the same tiny inputs; every metric that BENCHMARK.json
names must come out with its unit. A reference with one value corrupted must
drive the failure count above zero.
"""
import copy
import json
from pathlib import Path

import pytest

import bench
import make_reference

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture(scope="module", params=WORKLOADS)
def tiny(request):
    return request.param, make_reference.records(request.param, 0, "tiny")


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_with_its_unit(tiny, trace, kind):
    workload, reference = tiny
    result, info = bench.run(workload, 0, 0.2, trace, size="tiny", reference=reference, probes=1)
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] >= len(reference)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units(kind)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_fails(tiny):
    workload, reference = tiny
    bad = copy.deepcopy(reference)
    record = next(iter(bad.values()))
    key = next(k for k, v in sorted(record.items()) if isinstance(v, float) and v == v)
    record[key] = record[key] * (1 + 1e-4) + 1e-4
    result, info = bench.run(workload, 0, 0.2, False, size="tiny", reference=bad, probes=1)
    assert not result["correct"]
    assert result["failed"] > 0 and info["fail_ratio"] > 0
