"""Timing loop, correctness checks and metrics of one benchmark run.

A run is a closed loop with a single client: each operation starts when the
previous one has returned. It has three phases:

1. set-up: `SETUP_PROBES` fresh interpreters each time a cold ``import curv``
   plus building the workload's inputs (`probe_setup.py`), each calibrated
   by probe samples it takes right afterwards; the median is ``setup_s``;
2. one warm-up pass at the tiny size, neither timed nor checked, so lazy
   imports and caches are filled before timing;
3. timed passes until `seconds` have been spent. With tracing off they give
   the end-to-end metrics. With tracing on, the first half is untraced and
   the second half runs with the spans of `tracing.Tracer` installed; the
   per-layer metrics come from the second half and the tracing overhead is
   the difference of the two halves' median pass times.

Times are calibrated to a reference machine speed (`calibrate.py`), because
the speed of a shared host drifts by more than the bounds the benchmark sets.

Every operation's record is checked against the stored per-seed reference
and against the same operation's output in this run's first pass.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads
from calibrate import NOMINAL_S, Calibrator
from run import BLAS_ENV

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
#: a float in a record matches its reference when |got - want| <= ATOL + RTOL |want|
RTOL = 1e-7
ATOL = 1e-8


# ---------------------------------------------------------------------------
# correctness


def _close(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(want):
            return math.isnan(got)
        return got == want or abs(got - want) <= ATOL + RTOL * abs(want)
    return type(got) is type(want) and got == want


def matches(record: dict, reference: dict) -> bool:
    """Same keys; ints, bools and strings equal; floats within tolerance."""
    return record.keys() == reference.keys() and all(_close(record[k], reference[k]) for k in reference)


def load_reference(workload: str, seed: int) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)["seeds"][str(seed)]


@dataclass
class Checker:
    """Counts attempted and failed operations. An operation fails when it
    raises, its verdict is not `passed`, its record is outside tolerance of
    the reference, or its report differs from the one it emitted in the
    first pass of this run."""

    reference: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    _first: dict = field(default_factory=dict)

    def fail(self, op_id: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{op_id}: {why}")

    def check(self, op_id: str, record: dict, text: str | None) -> None:
        self.attempted += 1
        text = json.dumps(record, sort_keys=True) if text is None else text
        want = self.reference.get(op_id)
        if not record.get("passed"):
            self.fail(op_id, "verdict is not passed")
        elif want is None:
            self.fail(op_id, "no reference record")
        elif not matches(record, want):
            bad = sorted(k for k in want.keys() | record.keys()
                         if k not in record or k not in want or not _close(record[k], want[k]))
            self.fail(op_id, f"outside tolerance of the reference: {bad[:4]}")
        elif self._first.setdefault(op_id, text) != text:
            self.fail(op_id, "report differs from the first pass")


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)  # seconds, probe samples excluded
    latencies: list[float] = field(default_factory=list)  # calibrated seconds
    points: int = 0

    @property
    def seconds(self) -> float:
        return math.fsum(self.latencies)


def run_pass(ops, checker: Checker, cal: Calibrator, tracer: tracing.Tracer | None = None) -> Pass:
    clock = time.perf_counter
    out = Pass()
    for op in ops:
        cal.sample()
        t0 = clock()
        try:
            if tracer is None:
                record, text = op.run()
            else:
                record, text = tracer.span(f"op:{op.op_id}", "bench.op", op.run)
        except Exception:  # the run continues; the operation counts as failed
            record, text = None, traceback.format_exc(limit=3)
        out.ends.append(clock())
        out.starts.append(t0)
        if record is None:
            checker.attempted += 1
            checker.fail(op.op_id, text)
            continue
        out.points += record.get("points", 0)
        checker.check(op.op_id, record, text)
    return out


def timed_passes(ops, checker: Checker, seconds: float, interrupt: bool, tracer=None) -> list[Pass]:
    """Passes until `seconds` of wall time are spent (at least one), with
    their operation latencies calibrated to the reference machine speed.
    With `interrupt`, probe samples are also taken inside operations;
    otherwise only between them, so that no span contains a probe."""
    cal = Calibrator()
    out = []
    t_end = time.perf_counter() + seconds
    with cal.interrupting() if interrupt else contextlib.nullcontext():
        while not out or time.perf_counter() < t_end:
            out.append(run_pass(ops, checker, cal, tracer))
    cal.sample(force=True)
    for p in out:
        p.raw = [t1 - t0 - cal.inside(t0, t1) for t0, t1 in zip(p.starts, p.ends)]
        p.latencies = [r * cal.scale(t0, t1) for r, t0, t1 in zip(p.raw, p.starts, p.ends)]
    return out


# ---------------------------------------------------------------------------
# set-up probes


def probe_setup(workload: str, seed: int, size: str) -> float:
    """Seconds from a cold `import curv` to built inputs, in a fresh
    interpreter, calibrated by probe samples that interpreter takes next."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed), size],
        capture_output=True, text=True, timeout=120, env={**os.environ, **BLAS_ENV},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    elapsed, probe_s = (float(v) for v in proc.stdout.split()[-2:])
    return elapsed * NOMINAL_S / probe_s


# ---------------------------------------------------------------------------
# metrics


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def end_to_end(setup: list[float], passes: list[Pass]) -> dict:
    lat = np.concatenate([p.latencies for p in passes])
    pass_s = _median([p.seconds for p in passes])
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (_median(setup), "s"),
        "pass_s": (pass_s, "s"),
        "points_per_s": (_median([p.points for p in passes]) / pass_s, "1/s"),
        "op_ms_p50": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "op_ms_p90": (float(np.percentile(lat, 90)) * 1e3, "ms"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def per_layer(s: tracing.SpanSummary, traced: list[Pass], untraced: list[Pass],
              ops, span_cost: float) -> dict:
    n = len(traced)
    calls = {g: c / n for g, c in s.calls.items()}
    self_s = {g: t / n for g, t in s.self_s.items()}
    solves = s.calls["inequality.root_solve"]
    found = s.counters["inequality.roots_found"]
    points = sum(p.points for p in traced)
    ext_calls = s.calls["graphgeom.extrinsic_point"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "inequality.slice_points.calls": (calls["inequality.slice_points"], "count"),
        "inequality.slice_points.self_s": (self_s["inequality.slice_points"], "s"),
        "inequality.root_solves": (solves / n, "count"),
        "inequality.roots_found": (found / n, "count"),
        "inequality.roots_kept_ratio": (ratio(found, solves), "ratio"),
        "inequality.sampling_us_per_root": (ratio(s.incl_s["inequality.slice_points"], found) * 1e6, "us"),
        "inequality.check.calls": (calls["inequality.check"], "count"),
        "inequality.check.self_s": (self_s["inequality.check"], "s"),
        "inequality.nonregular_skips": (s.errors[("inequality.check", "NonRegularPointError")] / n, "count"),
        "inequality.pick_levels.self_s": (self_s["inequality.pick_levels"], "s"),
        "fields.value.calls": (calls["fields.value"], "count"),
        "fields.value.self_s": (self_s["fields.value"], "s"),
        "fields.jet.calls": (calls["fields.jet"], "count"),
        "fields.jet.self_s": (self_s["fields.jet"], "s"),
        "fields.value_calls_per_point": (ratio(s.calls["fields.value"], points), "count"),
        "metrics.metric_jet.calls": (calls["metrics.metric_jet"], "count"),
        "metrics.metric_jet.self_s": (self_s["metrics.metric_jet"], "s"),
        "graphgeom.extrinsic_point.calls": (calls["graphgeom.extrinsic_point"], "count"),
        "graphgeom.extrinsic_point.self_s": (self_s["graphgeom.extrinsic_point"], "s"),
        "graphgeom.extrinsic_point.us_per_call": (
            ratio(s.incl_s["graphgeom.extrinsic_point"], ext_calls) * 1e6, "us"),
        "graphgeom.slice_frame.calls": (calls["graphgeom.slice_frame"], "count"),
        "graphgeom.slice_frame.self_s": (self_s["graphgeom.slice_frame"], "s"),
        "graphgeom.intrinsic_scalar_curvature.self_s": (self_s["graphgeom.intrinsic_scalar_curvature"], "s"),
        "conformal.conformal_point.calls": (calls["conformal.conformal_point"], "count"),
        "conformal.conformal_point.self_s": (self_s["conformal.conformal_point"], "s"),
        "barrier.slide.self_s": (self_s["barrier.slide"], "s"),
        "barrier.samples_per_s": (ratio(s.counters["barrier.samples"], s.incl_s["barrier.slide"]), "1/s"),
        "barrier.comparison_bounds.self_s": (self_s["barrier.comparison_bounds"], "s"),
        "syminv.matrices_per_s": (
            ratio(s.counters["syminv.matrices"], s.incl_s["syminv.identity_suite"]), "1/s"),
        "revolution.sweeps.self_s": (self_s["revolution.sweeps"], "s"),
        "reporting.render.self_s": (self_s["reporting.render"], "s"),
        "reporting.bytes": (s.counters["reporting.bytes"] / n, "bytes"),
        "cli.self_s": (self_s["cli"], "s"),
    }
    by_op = {op.op_id: [p.latencies[i] for p in untraced] for i, op in enumerate(ops)}
    for name, _, _ in workloads.STAGES:
        m[f"stage.{name}_s"] = (_median(by_op.get(name, [])), "s")
    m["trace.overhead_s"] = (_median([p.seconds for p in traced]) - _median([p.seconds for p in untraced]), "s")
    m["trace.span_cost_us"] = (span_cost, "us")
    m["trace.spans"] = (s.spans / n, "count")
    # the units of the baseline table, as inclusive medians on trig fields
    m["baseline.trig_value_us"] = (s.median_us("TrigField.value"), "us")
    m["baseline.trig_eval_jet_us"] = (s.median_us("eval_jet", ("TrigField.jet", 1)), "us")
    m["baseline.extrinsic_point_flat_us"] = (
        s.median_us("extrinsic_point", ("TrigField.jet", 2), ("FlatMetric.jet", 2)), "us")
    m["baseline.extrinsic_point_round_us"] = (
        s.median_us("extrinsic_point", ("TrigField.jet", 2), ("ConformalMetric.jet", 2)), "us")
    m["baseline.check_prod_us"] = (s.median_us("check_prod", ("TrigField.jet", 3)), "us")
    m["baseline.check_phi_us"] = (s.median_us("check_phi", ("TrigField.jet", 4)), "us")
    return m


# ---------------------------------------------------------------------------
# the run


def machine() -> dict:
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, cwd=HERE.parent,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(HERE.parent.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
        "git_commit": commit,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, size: str = "full",
        reference: dict | None = None, probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns (result, info). `result` holds correct,
    attempted, failed and metrics {name: {"value", "unit"}}."""
    iseed = workloads.input_seed(seed)
    if reference is None:
        reference = load_reference(workload, iseed)
    setup = [probe_setup(workload, iseed, size) for _ in range(probes)]
    ops = workloads.build(workload, iseed, size)
    checker = Checker(reference)
    # warm-up at the tiny size: it reaches the same code, so lazy imports and
    # caches are filled, at a fraction of a full battery pass
    run_pass(workloads.build(workload, iseed, "tiny"), Checker({}), Calibrator())
    info = {"workload": workload, "seed": seed, "input_seed": iseed, "size": size, "trace": int(trace)}
    if not trace:
        passes = timed_passes(ops, checker, seconds, interrupt=True)
        metrics = end_to_end(setup, passes)
        lat = np.concatenate([p.latencies for p in passes])
        info |= {"passes": len(passes), "pass_s": [p.seconds for p in passes],
                 "raw_pass_s": [math.fsum(p.raw) for p in passes],
                 "op_samples": int(lat.size),
                 "op_samples_beyond_p90": int((lat > np.percentile(lat, 90)).sum()),
                 "setup_s": setup}
    else:
        # both halves calibrate between operations only, so that their
        # difference is the tracing overhead
        untraced = timed_passes(ops, checker, seconds / 2.0, interrupt=False)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # rebuilt so that inputs holding bound methods (the FD field's
            # value callable) hold the traced ones; set-up spans are dropped
            ops = workloads.build(workload, iseed, size)
            tracer.clear()
            traced = timed_passes(ops, checker, seconds / 2.0, interrupt=False, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer.summary(), traced, untraced, ops, tracing.span_cost_us())
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}.jsonl.gz"
        info |= {"untraced_passes": len(untraced), "traced_passes": len(traced),
                 "spans_written": tracer.write_jsonl(spans_path),
                 "spans_file": str(spans_path.relative_to(HERE.parent))}
    info |= {"fail_ratio": checker.failed / max(checker.attempted, 1),
             "problems": checker.problems, "machine": machine()}
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info
