"""Fixed cost of the one-row route, as a deterministic count, the rows
the slicer's scan reads, and the constants that route shares between calls.

A one-row `check`, `extrinsic_point` or `slice_points` costs far more in
Python and numpy call overhead than in arithmetic, so the number of calls it
makes is the measure of that cost that does not depend on the machine. The
counts are Python-level `call` and `c_call` events under `sys.setprofile`,
taken after a warm-up call with the garbage collector off. Ufunc calls and
operators (`+`, `@`, indexing, `.T`) raise neither, so the count does not
see a cut that removes only those; that part of a cut shows only in the
timings that `CHANGES.md` gives with it. Each budget is the count this code
makes with Python 3.11 and numpy 2.4; a change that adds calls to the route
fails here, and one that removes calls should lower the budget.
"""

import contextlib
import gc
import io
import sys

import numpy as np
import pytest

from curv import cli, conformal, fields, graphgeom, inequality, metrics, revolution, util
from curv.fieldspec import parse_field


def profile_events(fn) -> int:
    fn()  # fills lazy imports and cached constants
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    # a collection inside the count would add the calls of `gc.callbacks`
    # (hypothesis installs one), so the count would depend on earlier tests
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return events


def route(name):
    f3, x3 = fields.random_trig_field(3, 5), np.array([0.3, -0.2, 0.1])
    f2, x2 = fields.random_trig_field(2, 5), np.array([0.3, -0.2])
    if name == "check-prod":
        ambient = metrics.product_ambient(3, metrics.round_sphere_base(3))
        return lambda: inequality.check("prod", f3, f3.value(x3), x3, ambient)
    if name == "check-phi":
        ambient = metrics.spherical_ambient(3)
        return lambda: inequality.check("phi", f3, f3.value(x3), x3, ambient)
    if name == "extrinsic-point":
        base = metrics.FlatMetric(2)
        return lambda: graphgeom.extrinsic_point(f2, base, x2)
    if name == "extrinsic-point-round":
        base = metrics.round_sphere_base(3)
        return lambda: graphgeom.extrinsic_point(f3, base, x3)
    if name == "conformal-point":
        ambient = metrics.spherical_ambient(2)
        return lambda: conformal.conformal_point(f2, ambient, x2)
    if name == "eval-jets":
        return lambda: fields.eval_jets(f2, x2[None])
    return lambda: inequality.slice_points(f3, f3.value(x3), rays=16, seed=3)


#: call and c_call events per route call, and in each comment the count
#: before the route's numpy calls were cut, then, for the checks, the count
#: while they built one report object per row, then the count before the
#: shared domain and finiteness checks were cut, then (with the two geometry
#: routes) the count before the geometry's wrappers were cut
BUDGETS = {
    "check-prod": 103,  # 225, 159, 145, 119
    "check-phi": 114,  # 269, 184, 166, 140
    "conformal-point": 88,  # 103
    "eval-jets": 17,  # 27
    "extrinsic-point": 59,  # 112, 86, 72
    "extrinsic-point-round": 65,  # 77
    "slice-points": 168,  # 306, 202
}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_one_row_call_budget(name):
    assert profile_events(route(name)) <= BUDGETS[name]


#: (field, value budget, jet budget) of a field's one-point methods, row 0 of
#: the stack of one, and in each comment the counts before the kernel's
#: numpy calls were cut; the radial route's 2 events are the check that its
#: profile's p has the radii's shape, the poly kernel made 12/14 while it
#: called np.cumsum, and FD 7/11 while it asked whether it wrapped a field
FIELD_BUDGETS = {
    "trig": (lambda: parse_field("trig:5", 2), 5, 7),
    "poly": (lambda: parse_field("poly:0.3,0,1,-2,0.5,1,0,0.25", 2), 7, 9),
    "sphere-cap": (lambda: parse_field("sphere-cap:1.5,0.2", 2), 7, 9),  # 7/13
    "radial-S-u": (lambda: parse_field("radial:S-u:0.5", 2), 20, 25),  # 29/46
    "grid": (  # 75/77
        lambda: fields.sample_to_grid(fields.random_trig_field(2, 5), (-1.5, -1.5), 0.05, (61, 61)), 11, 12
    ),
    "fd": (lambda: fields.FiniteDifferenceField(fields.random_trig_field(2, 5), 2), 6, 10),  # 7/22, 7/11
}


@pytest.mark.parametrize("name", sorted(FIELD_BUDGETS))
def test_one_point_field_call_budget(name):
    make, value, jet = FIELD_BUDGETS[name]
    field, x = make(), np.array([0.6, 0.3])
    assert profile_events(lambda: field.value(x)) <= value
    assert profile_events(lambda: field.jet(x)) <= jet


def test_one_brent_lane_call_budget():
    """The E-f inverse profile at one radius: one `brentq_lanes` lane, then
    the profile's jet there (284 events before the iteration's calls were
    cut)."""
    r = np.array([0.7])
    assert profile_events(lambda: revolution.inverse_profile_jet(r)) <= 207


def counted_trig_rows(monkeypatch):
    rows, values = [], fields.TrigField.values

    def counting(self, X):
        out = values(self, X)
        rows.append(np.size(out))
        return out

    monkeypatch.setattr(fields.TrigField, "values", counting)
    return rows


#: trig rows that `TrigField.values` reads in a CLI run, and in each comment
#: the count of the scan with one level of blocks of 8, then of that scan
#: with the slope test alone, then (for the rows pinned before the block
#: scan) of the scan that read every sample
TRIG_ROWS = {
    ("verify", "inequality", "--which", "prod", "--seed", "0"): 14_306,  # 16,662, 22,521, 48,598
    ("verify", "inequality", "--which", "prod", "--dim", "3", "--seed", "0"): 13_637,  # 16,148, 20,334
    ("verify", "minor", "--fd", "--seed", "0"): 39_058,  # 44,933, 50,967, 111,241
}


@pytest.mark.parametrize("argv", sorted(TRIG_ROWS), ids=" ".join)
def test_trig_rows_read(argv, monkeypatch, tmp_path):
    """The slicer's screen keeps the rows the trig kernel reads down; a
    change that reads every sample again fails here."""
    rows = counted_trig_rows(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert sum(rows) <= TRIG_ROWS[argv]


def test_curved_route_rows_read(monkeypatch):
    """The rows a curved-n3 field reads in `slice_points` at its three
    levels, 16 rays each: 824 (1,424 with one level of blocks of 8)."""
    field = fields.random_trig_field(3, 100_000)
    levels = inequality.pick_levels(field, 3, 100_007)
    rows = counted_trig_rows(monkeypatch)
    for eps in levels:
        inequality.slice_points(field, eps, rays=16, seed=100_013)
    assert sum(rows) <= 824


def test_suite_calls_per_field():
    """`run_suite`'s call events grow by at most 28 a field: the family is one
    draw a seed, the probes one chunk a seed still short, and the rest
    array programs over all fields (17.5 a field, 38.6 while each field was
    built, drawn and gathered on its own). Each seed's two generators, one
    for the family and one for the probes, are most of it."""
    few = profile_events(lambda: inequality.run_suite("prod", n_fields=1, seed=0))
    many = profile_events(lambda: inequality.run_suite("prod", n_fields=51, seed=0))
    assert many - few <= 28 * 50


X3 = np.array([0.3, -0.2, 0.1])

#: arrays built once, per n or per process, and shared by every call that reads them
CONSTANTS = {
    "eye": lambda: util.eye(3),
    **{f"general stencil part {k}": (lambda k=k: metrics._general_stencil(3)[k]) for k in range(2)},
    "round factor hessian": lambda: metrics.round_sphere_factor(X3)[2],
    **{f"stencil part {k}": (lambda k=k: fields._stencil(3)[k]) for k in range(4)},
    **{f"grid basis {c}": (lambda c=c: getattr(fields, f"_GRID_{c}")) for c in "ABCD"},
    **{f"scan level {size} ends": (lambda ends=ends: ends) for size, ends in inequality._LEVELS},
}


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_cached_constants_are_read_only(name):
    get = CONSTANTS[name]
    before = get().copy()
    with pytest.raises(ValueError, match="read-only"):
        get()[...] = 7
    assert np.array_equal(get(), before)


X2 = np.array([[0.6, 0.3]])


def _metric_arrays(base):
    jet = base.jets(X3[None])
    return jet.g, jet.ginv, jet.gamma, jet.ricci, jet.scalar


#: routes whose results are built on the constants above, each as the
#: arrays of one call
FRESH = {
    "flat metric": lambda: _metric_arrays(metrics.FlatMetric(3)),
    "round metric": lambda: _metric_arrays(metrics.round_sphere_base(3)),
    "general metric": lambda: _metric_arrays(metrics.GeneralMetric(3, lambda Y: np.eye(3) * (1.0 + Y[:, :1, None]))),
    "adapted frames": lambda: (graphgeom.adapted_frames(X3[None], np.eye(3)[None]),),
    "sphere-cap jets": lambda: fields.SphereCap(3, 1.5).jets(X3[None]),
    "radial jets": lambda: parse_field("radial:S-u:0.5", 2).jets(X2),
    "fd jets": lambda: fields.FiniteDifferenceField(fields.random_trig_field(3, 5), 3).jets(X3[None]),
    "grid jets": lambda: fields.sample_to_grid(fields.random_trig_field(2, 5), (-1.0, -1.0), 0.1, (21, 21)).jets(X2),
}


def test_results_built_on_constants_are_fresh():
    """A stacked result is the caller's own: writing to it changes no later call."""
    for name, route in FRESH.items():
        want = [a.copy() for a in route()]
        for a in route():
            a[...] = 7.0
        assert all(np.array_equal(a, b) for a, b in zip(route(), want)), name
