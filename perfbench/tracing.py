"""Spans around the public functions of `curv`, for the traced run.

`Tracer.install()` wraps each function in `FUNCTIONS` at every module of the
package that binds it (``curv.graphgeom.extrinsic_point`` and the name
``curv.inequality`` imported from it are one function), and the field and
metric methods in `METHODS` on every class that defines them. Each call
records a span (name, start, end, parent span) in flat arrays; nothing is
written until `write_jsonl`. Self times, call counts and per-layer metrics
are derived from the spans afterwards.

A span's *group* is the layer metric it counts towards. A call counts once
per group: a span nested directly in a span of its own group (``check`` ->
``check_prod``, ``eval_jet`` -> ``TrigField.jet``) adds self time but not a
call.
"""
from __future__ import annotations

import array
import functools
import gzip
import json
import sys
import time
from collections import Counter

import numpy as np


def _count_roots(counters, result):
    counters["inequality.roots_found"] += len(result)


def _count_samples(counters, result):
    counters["barrier.samples"] += result.radial * result.angular


def _count_matrices(counters, result):
    counters["syminv.matrices"] += result.trials


def _count_bytes(counters, result):
    counters["reporting.bytes"] += len(result.encode())


#: (defining module, function, group, result hook, patch every binding?)
FUNCTIONS = (
    ("curv.cli", "main", "cli", None, True),
    ("curv.inequality", "run_suite", "inequality.run_suite", None, True),
    ("curv.inequality", "slice_points", "inequality.slice_points", _count_roots, True),
    ("curv.inequality", "pick_levels", "inequality.pick_levels", None, True),
    ("curv.inequality", "check", "inequality.check", None, True),
    ("curv.inequality", "check_prod", "inequality.check", None, True),
    ("curv.inequality", "check_phi", "inequality.check", None, True),
    ("curv.inequality", "check_euclid", "inequality.check", None, True),
    ("curv.inequality", "check_sphere", "inequality.check", None, True),
    # root solves are counted through the inequality module's binding only
    ("curv.inequality", "brentq", "inequality.root_solve", None, False),
    ("curv.fields", "eval_jet", "fields.jet", None, True),
    ("curv.metrics", "metric_jet", "metrics.metric_jet", None, True),
    ("curv.graphgeom", "extrinsic_point", "graphgeom.extrinsic_point", None, True),
    ("curv.graphgeom", "slice_frame_of_point", "graphgeom.slice_frame", None, True),
    ("curv.graphgeom", "level_slice", "graphgeom.slice_frame", None, True),
    ("curv.graphgeom", "adapted_frame", "graphgeom.slice_frame", None, True),
    ("curv.graphgeom", "minor_relation_residual", "graphgeom.minor_relation_residual", None, True),
    ("curv.graphgeom", "intrinsic_scalar_curvature", "graphgeom.intrinsic_scalar_curvature", None, True),
    ("curv.conformal", "conformal_point", "conformal.conformal_point", None, True),
    ("curv.conformal", "mean_curvature_spherical", "conformal.mean_curvature_spherical", None, True),
    ("curv.barrier", "slide", "barrier.slide", _count_samples, True),
    ("curv.barrier", "comparison_bounds", "barrier.comparison_bounds", None, True),
    ("curv.syminv", "randomized_identity_suite", "syminv.identity_suite", _count_matrices, True),
    ("curv.revolution", "sweep_u", "revolution.sweeps", None, True),
    ("curv.revolution", "sweep_v", "revolution.sweeps", None, True),
    ("curv.revolution", "sweep_f", "revolution.sweeps", None, True),
    ("curv.revolution", "junction_c2_check", "revolution.checks", None, True),
    ("curv.revolution", "monotonicity_checks", "revolution.checks", None, True),
    ("curv.reporting", "render_json", "reporting.render", _count_bytes, True),
    ("curv.reporting", "render_csv", "reporting.render", _count_bytes, True),
    ("curv.reporting", "meta_block", "reporting.render", None, True),
    ("curv.reporting", "jsonable", "reporting.render", None, True),
    ("curv.reporting", "emit", "reporting.render", None, True),
)

#: (module, base class, method names, group); spans are named after the
#: class of the receiver, e.g. "TrigField.jet" for ScalarField.jet on a trig
METHODS = (
    ("curv.fields", "ScalarField", ("value",), "fields.value"),
    ("curv.fields", "ScalarField", ("jet", "gradient", "hessian"), "fields.jet"),
    ("curv.metrics", "FlatMetric", ("jet",), "metrics.metric_jet"),
    ("curv.metrics", "ConformalMetric", ("jet",), "metrics.metric_jet"),
    ("curv.metrics", "GeneralMetric", ("jet",), "metrics.metric_jet"),
)

GROUPS = tuple(dict.fromkeys([f[2] for f in FUNCTIONS] + [m[3] for m in METHODS] + ["bench.op"]))


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


class Tracer:
    """In-memory span recorder. Spans are appended in start order, so a span
    id is its index and a parent always precedes its children."""

    def __init__(self):
        self.names: list[str] = []
        self.name_group = array.array("i")
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.current = -1
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording

    def intern(self, name: str, group: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_group.append(GROUPS.index(group))
        return nid

    def _traced(self, fn, group: str, name_of, on_result):
        """`fn` recording a span per call; `name_of(args)` gives the span's name id."""
        tracer = self
        gid = GROUPS.index(group)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        name_group, clock = self.name_group, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            sid = len(starts)
            name_ids.append(name_of(args))
            parents.append(parent)
            ends.append(0.0)
            tracer.current = sid
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if parent < 0 or name_group[name_ids[parent]] != gid:
                    tracer.errors[(group, type(exc).__name__)] += 1
                raise
            finally:
                ends[sid] = clock()
                tracer.current = parent
            if on_result is not None and (parent < 0 or name_group[name_ids[parent]] != gid):
                on_result(tracer.counters, result)
            return result

        return traced

    def wrap(self, fn, name: str, group: str, on_result=None):
        nid = self.intern(name, group)
        return self._traced(fn, group, lambda args: nid, on_result)

    def wrap_method(self, fn, method: str, group: str):
        ids: dict[type, int] = {}

        def name_of(args):
            cls = type(args[0])
            nid = ids.get(cls)
            if nid is None:
                nid = ids[cls] = self.intern(f"{cls.__name__}.{method}", group)
            return nid

        return self._traced(fn, group, name_of, None)

    def span(self, name: str, group: str, fn, *args):
        """Call fn(*args) inside a span of its own (the benchmark's op spans)."""
        return self.wrap(fn, name, group)(*args)

    # ---- installing and removing the wrappers

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "curv" or n.startswith("curv.")]
        for mod_name, attr, group, hook, everywhere in FUNCTIONS:
            owner = sys.modules[mod_name]
            fn = getattr(owner, attr)
            wrapped = self.wrap(fn, attr, group, hook)
            for mod in modules if everywhere else [owner]:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)
        for mod_name, cls_name, methods, group in METHODS:
            for cls in _subclasses(getattr(sys.modules[mod_name], cls_name)):
                for meth in methods:
                    if meth in vars(cls):
                        self._patch(cls, meth, self.wrap_method(vars(cls)[meth], meth, group))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def clear(self) -> None:
        """Drop every recorded span and count (call with no span open)."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()
        self.errors.clear()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- analysis

    def arrays(self):
        """Copies of (name id, parent, start, end) per span."""
        return (np.array(self.name_id, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON line (gzip-compressed); returns the count."""
        nid, par, st, en = self.arrays()
        t0 = float(st[0]) if st.size else 0.0
        names = [json.dumps(n) for n in self.names]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(st.size):
                fh.write(
                    f'{{"id":{i},"name":{names[nid[i]]},"start":{st[i] - t0:.9f},'
                    f'"end":{en[i] - t0:.9f},"parent":{par[i]}}}\n'
                )
        return int(st.size)


class SpanSummary:
    """Self times, call counts and inclusive durations derived from spans."""

    def __init__(self, tracer: Tracer):
        nid, par, st, en = tracer.arrays()
        self.names = tracer.names
        self.nid, self.par = nid, par
        self.dur = en - st
        has_par = par >= 0
        child = np.bincount(par[has_par], weights=self.dur[has_par], minlength=nid.size)
        self_t = self.dur - child
        gid = np.asarray(tracer.name_group, dtype=np.int64)[nid]
        parent_gid = np.full(nid.size, -1)
        parent_gid[has_par] = gid[par[has_par]]
        outer = parent_gid != gid
        g = len(GROUPS)
        self.self_s = dict(zip(GROUPS, np.bincount(gid, weights=self_t, minlength=g)))
        self.calls = dict(zip(GROUPS, np.bincount(gid[outer], minlength=g)))
        self.incl_s = dict(zip(GROUPS, np.bincount(gid[outer], weights=self.dur[outer], minlength=g)))
        self.counters = tracer.counters
        self.errors = tracer.errors
        self.spans = int(nid.size)

    def _ids(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.nid == self.names.index(name)) if name in self.names else np.array([], int)

    def with_descendant(self, spans: np.ndarray, name: str, depth: int) -> np.ndarray:
        """The subset of `spans` that have a span called `name` at most
        `depth` levels below them."""
        found = np.zeros(self.nid.size, dtype=bool)
        cur = self._ids(name)
        for _ in range(depth):
            cur = self.par[cur]
            cur = cur[cur >= 0]
            found[cur] = True
        return spans[found[spans]]

    def median_us(self, name: str, *descendants: tuple[str, int]) -> float:
        """Median inclusive duration (microseconds) of spans called `name`,
        restricted to those with every (descendant, depth) below them."""
        spans = self._ids(name)
        for desc, depth in descendants:
            spans = self.with_descendant(spans, desc, depth)
        return float(np.median(self.dur[spans]) * 1e6) if spans.size else 0.0


def span_cost_us(calls: int = 20000) -> float:
    """Added time per traced call: a wrapped no-op against the bare no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "noop", "bench.op")
    best = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best.append(time.perf_counter() - t0)
    return (best[1] - best[0]) / calls * 1e6
