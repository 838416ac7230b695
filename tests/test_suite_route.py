"""The suites as one array program: the lane-wise Brent solver, trig field
families, the whole-suite route against the per-field one, and the names the
trace harness binds."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from curv.cli import main
from curv.fields import random_trig_family, random_trig_field
from curv.graphgeom import extrinsic_points, flat_base, minor_relation_residuals, slice_frames
from curv.inequality import WHICH, _probes, checks, family_slices, pick_levels, run_suite, slice_points
from curv.util import brentq_lanes, unit_directions

from report_dict import report_dict


def scan_brackets(field, eps, d, samples=160):
    """The (lo, hi) brackets of the ray scan of slice_points along d from 0."""
    ts = np.linspace(0.0, 2.0 - 1e-6, samples)
    v = field.values(ts[:, None] * d) - eps
    a, b = v[:-1], v[1:]
    i = np.flatnonzero(np.isfinite(a) & np.isfinite(b) & (np.sign(a) != np.sign(b)))
    return ts[i], ts[i + 1]


def ray_problem(dim, seed, level, zero_end):
    field = random_trig_field(dim, seed)
    d = unit_directions(dim, 1, seed)[0] if dim > 2 else np.array([np.cos(seed), np.sin(seed)])
    # a level read at a scan sample makes two brackets end on an exact zero
    eps = field.value(np.linspace(0.0, 2.0 - 1e-6, 160)[31] * d) if zero_end else level
    return field, d, eps


def scalar_outcome(field, d, eps, lo, hi, maxiter=100):
    try:
        return brentq(lambda t: field.value(t * d) - eps, lo, hi, xtol=1e-13, maxiter=maxiter)
    except RuntimeError:
        return "no convergence"


class TestBrentqLanes:
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(2, 4),
        seed=st.integers(0, 10_000),
        level=st.floats(-0.4, 0.4),
        zero_end=st.booleans(),
    )
    def test_roots_are_brentq_bit_for_bit(self, dim, seed, level, zero_end):
        field, d, eps = ray_problem(dim, seed, level, zero_end)
        lo, hi = scan_brackets(field, eps, d)
        calls = []

        def f(t, lanes):
            calls.append(len(t))
            return field.values(t[:, None] * d) - eps

        got = brentq_lanes(f, lo, hi, xtol=1e-13)
        want = [scalar_outcome(field, d, eps, a, b) for a, b in zip(lo, hi)]
        assert got.tolist() == want
        # both ends in one call, then one call per iteration on the open lanes
        assert calls[0] == 2 * len(lo)
        assert all(c <= len(lo) for c in calls[1:])

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(2, 4), seed=st.integers(0, 10_000), level=st.floats(-0.4, 0.4), maxiter=st.integers(1, 8))
    def test_same_convergence(self, dim, seed, level, maxiter):
        field, d, eps = ray_problem(dim, seed, level, False)
        lo, hi = scan_brackets(field, eps, d)
        for a, b in zip(lo, hi):
            want = scalar_outcome(field, d, eps, a, b, maxiter)
            try:
                got = brentq_lanes(lambda t, k: field.values(t[:, None] * d) - eps, [a], [b], 1e-13, maxiter=maxiter)
                got = got[0]
            except RuntimeError:
                got = "no convergence"
            assert got == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(-0.9, 0.9),  # root
            st.floats(0.01, 50.0),  # steepness: how many iterations the lane takes
            st.floats(0.0, 3.0),  # cubic part, which keeps the lane monotone
            st.sampled_from([-1.0, 1.0]),  # sign
            st.integers(0, 3),  # 0-2: an end at 0.5 ** k off the bracket [-1, 1]; 3: the root is an end
        ),
        min_size=1, max_size=12,
    ))
    def test_lanes_closing_at_different_iterations(self, lanes):
        """Lanes that close at different iterations, so that the state is cut
        down between them: each root equals its one-lane solve and scipy's,
        bit for bit, and f sees each lane at the points, and as many times,
        as in the lane's own solve, never once it has closed."""
        root, k, c, sign, end = (np.array(v) for v in zip(*lanes))
        lo = np.where(end == 3, root, -1.0 - 0.5 ** end)
        hi = np.where(end == 3, 1.0, 1.0 + 0.5 ** end)

        def g(t, i):
            return sign[i] * (np.sinh(k[i] * (t - root[i])) + c[i] * (t - root[i]) ** 3)

        seen = []

        def f(t, i):
            seen.append((t.copy(), i.copy()))
            return g(t, i)

        got = brentq_lanes(f, lo, hi, 1e-13)
        for lane in range(len(lanes)):
            own = []
            want = brentq_lanes(lambda t, i: own.append(t.copy()) or g(t, i + lane), lo[lane:lane + 1], hi[lane:lane + 1], 1e-13)
            scipy_root = brentq(lambda t: float(g(np.array([t]), np.array([lane]))[0]), lo[lane], hi[lane], xtol=1e-13)
            assert got[lane] == want[0] == scipy_root
            mine = [t[i == lane] for t, i in seen if (i == lane).any()]
            assert [x.tobytes() for x in mine] == [x.tobytes() for x in own]

    def test_same_sign_check(self):
        f = lambda t: (t - 0.5) * (t - 0.25)  # noqa: E731
        brackets = [(0.0, 0.3), (0.3, 0.6), (0.0, 0.6), (0.6, 1.0), (0.5, 1.0), (0.0, 0.5), (0.25, 0.5), (0.5, 0.5)]
        for a, b in brackets:
            try:
                want = brentq(f, a, b, xtol=1e-13)
            except ValueError:
                want = "same signs"
            try:
                got = brentq_lanes(lambda t, k: f(t), [a], [b], 1e-13)[0]
            except ValueError:
                got = "same signs"
            assert got == want
        # an exact zero at an end is the root, whatever the other end
        assert brentq_lanes(lambda t, k: f(t), [0.5, 0.0, 0.25], [1.0, 0.5, 0.5], 1e-13).tolist() == [0.5, 0.5, 0.25]
        with pytest.raises(ValueError, match="different signs"):
            brentq_lanes(lambda t, k: f(t), [0.0, 0.6], [0.3, 1.0], 1e-13)

    def test_nan_lane_is_nan(self):
        def f(t, lanes):
            out = t - 0.3
            out[(lanes == 1) & (np.abs(t - 0.3) < 1e-3)] = np.nan
            return out

        got = brentq_lanes(f, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1e-13)
        assert np.isnan(got[1]) and got[0] == got[2] == brentq(lambda t: t - 0.3, 0.0, 1.0, xtol=1e-13)

    def test_no_lanes(self):
        assert brentq_lanes(lambda t, k: t, [], [], 1e-13).shape == (0,)


class TestTrigFamily:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_members_are_the_fields_bit_for_bit(self, dim):
        fields = [random_trig_field(dim, s) for s in range(40)]
        family = random_trig_family(dim, range(40))
        for k, f in enumerate(fields):  # one draw a seed makes each member's parameters
            member = family.rows(k)
            assert all(getattr(member, a).tobytes() == getattr(f, a).tobytes() for a in ("amps", "freqs", "phases"))
        X = np.random.default_rng(dim).uniform(-1.5, 1.5, size=(40, 7, dim))
        per_field = [f.jets(x) for f, x in zip(fields, X)]
        # one parameter row per point
        owner = np.repeat(np.arange(40), 7)
        rows = family.rows(owner).jets(X.reshape(-1, dim))
        for got, want in zip(rows, zip(*per_field)):
            assert np.array_equal(got, np.concatenate(want))
        # parameters broadcast over a stack per field
        assert np.array_equal(
            family.rows(np.arange(40)[:, None]).values(X), np.stack([f.values(x) for f, x in zip(fields, X)])
        )
        assert family.rows(3).value(X[3, 0]) == fields[3].value(X[3, 0])


def per_field_route(which, dim, n_fields, rays, levels, seed):
    """run_suite's report rows by the per-field route: pick_levels,
    slice_points and one checks call per field."""
    out = []
    for k in range(n_fields):
        fld = random_trig_field(dim, seed + 1000 * k)
        found = [
            (eps, p)
            for eps in pick_levels(fld, levels, seed + 1000 * k + 7)
            for p in slice_points(fld, eps, rays=rays, seed=seed + 1000 * k + 13)
        ]
        if found:
            regular, reports = checks(which, fld, np.array([e for e, _ in found]), np.array([p for _, p in found]))
            out += [reports.row(i) for i in range(np.count_nonzero(regular))]
    return out


class TestWholeSuiteRoute:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("which", WHICH)
    def test_equals_the_per_field_route(self, which, dim):
        suite = run_suite(which, dim=dim, n_fields=5, rays=6, levels=2, seed=11)
        want = per_field_route(which, dim, 5, 6, 2, 11)
        assert suite.points == len(want) > 0
        assert [report_dict(suite.reports.row(i)) for i in range(suite.points)] == [report_dict(r) for r in want]

    def test_no_fields(self):
        suite = run_suite("prod", n_fields=0)
        assert suite.points == 0 and np.isnan(suite.min_gap) and suite.reports is None


def probe_counts(dim, seeds, level_seeds):
    return [len(_probes(random_trig_field(dim, s).domain, dim, [t])[0]) for s, t in zip(seeds, level_seeds)]


class TestRaggedProbes:
    """At large n few of the probe draws from the cube [-1.5, 1.5]^n land in
    Ball(n, 2), so members keep different numbers of probes, or none."""

    @pytest.mark.parametrize("which", WHICH)
    def test_ragged_counts_equal_the_per_field_route(self, which):
        # n = 12: each member keeps 100 to 140 of its 12,800 draws
        counts = probe_counts(12, [0, 1000, 2000], [7, 1007, 2007])
        assert len(set(counts)) == 3 and 0 < min(counts) and max(counts) < 256
        suite = run_suite(which, dim=12, n_fields=3, rays=4, levels=2, seed=0)
        want = per_field_route(which, 12, 3, 4, 2, 0)
        assert suite.points == len(want) > 0
        assert [report_dict(suite.reports.row(i)) for i in range(suite.points)] == [report_dict(r) for r in want]

    def test_a_member_with_no_probes_has_nan_levels(self):
        # n = 16, seed 0: the fifth member keeps none of its draws
        seeds = [1000 * k for k in range(5)]
        counts = probe_counts(16, seeds, [s + 7 for s in seeds])
        assert counts[4] == 0 < min(counts[:4]) and len(set(counts)) > 2
        family = random_trig_family(16, seeds)
        eps, f, _, X = family_slices(family, 2, [s + 7 for s in seeds], [s + 13 for s in seeds], 4)
        assert np.isnan(eps[4]).all() and 4 not in f
        for k, s in enumerate(seeds[:4]):
            assert eps[k].tolist() == pick_levels(random_trig_field(16, s), 2, s + 7)
        with pytest.raises(ValueError) as want:
            per_field_route("prod", 16, 5, 4, 2, 0)
        with pytest.raises(ValueError) as got:
            run_suite("prod", dim=16, n_fields=5, rays=4, levels=2, seed=0)
        assert str(got.value) == str(want.value)

    def test_verify_minor_skips_a_member_with_no_probes(self, capsys):
        # n = 17, seed 6: the third field keeps none of its draws, the others 2 to 6
        counts = probe_counts(17, [6, 7, 8, 9], [6, 7, 8, 9])
        assert counts[2] == 0 and len({c for c in counts if c}) == 3
        rc = main(["verify", "minor", "--dim", "17", "--fields", "4", "--points", "3", "--seed", "6"])
        result = json.loads(capsys.readouterr().out)["results"][0]
        assert rc == 0 and result["points_checked"] > 0
        assert (result["points_checked"], result["worst_analytic_residual"]) == per_field_minor(17, 4, 3, 6)


def per_field_minor(dim, n_fields, points, seed):
    """The analytic half of `verify minor` by the per-field route."""
    checked, worst = 0, 0.0
    for i in range(n_fields):
        f = random_trig_field(dim, seed + i)
        try:
            eps = pick_levels(f, 1, seed + i)[0]
        except ValueError:  # no level probes: the field is skipped
            continue
        pts = slice_points(f, eps, rays=max(2, points // 2), seed=seed + i)[:points]
        if pts:
            p = extrinsic_points(f, flat_base(dim), np.array(pts))
            regular, frames = slice_frames(p, eps)
            worst = max([worst] + minor_relation_residuals(frames, p.select(regular)).tolist())
            checked += int(np.count_nonzero(regular))
    return checked, worst


class TestMinorRoute:
    # --points 1 to 3 cap the 2 rays' up to 4 roots per field
    @pytest.mark.parametrize("dim, points", [(2, 1), (2, 3), (3, 3), (2, 8)])
    def test_analytic_half_equals_the_per_field_route(self, capsys, dim, points):
        rc = main(["verify", "minor", "--dim", str(dim), "--fields", "6", "--points", str(points), "--seed", "2"])
        result = json.loads(capsys.readouterr().out)["results"][0]
        assert rc == 0
        assert (result["points_checked"], result["worst_analytic_residual"]) == per_field_minor(dim, 6, points, 2)


class TestTraceBindings:
    """perfbench's tracer wraps functions by name; each name must resolve, or
    a traced run fails."""

    def test_every_traced_name_resolves(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module, name, *_ in tracing.FUNCTIONS:
            assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
        for module, cls, methods, _ in tracing.METHODS:
            owner = getattr(importlib.import_module(module), cls)
            for name in methods:
                assert callable(getattr(owner, name, None)), f"{module}.{cls}.{name}"
