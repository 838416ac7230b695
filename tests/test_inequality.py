"""Tests for the slice-trace inequality checks and equality detection."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from curv import inequality
from curv.errors import OutOfDomainError
from curv.fields import (
    Annulus,
    Ball,
    Box,
    Constant,
    FiniteDifferenceField,
    NegatedField,
    Paraboloid,
    Plane,
    PolynomialField,
    QuadraticCup,
    ScalarField,
    SphereCap,
    TrigField,
    random_trig_field,
    sample_to_grid,
    whole_space,
)
from curv.fieldspec import parse_field
from curv.conformal import conformal_point
from curv.graphgeom import DELTA_REG, adapted_matrix, extrinsic_point, flat_base, slice_frame_of_point
from curv.inequality import (
    WHICH,
    InequalityReport,
    _levels,
    _probes,
    check,
    check_euclid,
    check_phi,
    check_prod,
    check_sphere,
    checks,
    pick_levels,
    run_suite,
    slice_points,
)
from curv.metrics import constant_ambient, product_ambient, round_sphere_base, spherical_ambient
from curv.util import brentq_lanes, unit_directions

from report_dict import report_dict
from kernels import cap_without_domain, raises_beyond
from syminv_reference import newton_gap


class TestEqualityCases:
    def test_paraboloid_point(self):
        rep = check_euclid(Paraboloid(2), 0.5, np.array([1.0, 0.0]))
        assert rep.lhs == pytest.approx(0.75, abs=1e-12)
        assert rep.rhs == pytest.approx(0.75, abs=1e-12)
        assert abs(rep.gap) <= 1e-12
        assert rep.equality_detected
        assert rep.which == "euclid"

    def test_unit_hemisphere_point(self):
        x = np.array([1.0 / np.sqrt(2.0), 0.0])
        rep = check_prod(SphereCap(2, 1.0), flat_base(2), 1.0 / np.sqrt(2.0), x)
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)
        assert rep.equality_detected
        assert rep.h_sigma == pytest.approx(-np.sqrt(2.0))
        assert rep.cos_angle == pytest.approx(1.0 / np.sqrt(2.0))

    def test_geodesic_sphere_in_round_ambient(self):
        cap = SphereCap(2, 0.6, height=0.3)
        x = np.array([np.sqrt(0.32), 0.0])
        rep = check_sphere(cap, 0.5, x)
        assert abs(rep.gap) <= 1e-10
        assert rep.equality_detected
        assert rep.umbilicity_deviation <= 1e-10
        assert rep.which == "sphere"

    def test_tilted_plane_degenerates_to_zero(self):
        rep = check_euclid(Plane([0.5, 0.0]), 0.25, np.array([0.5, 0.3]))
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == pytest.approx(0.0, abs=1e-14)
        assert rep.equality_detected

    @pytest.mark.parametrize("n", [3, 4])
    def test_anchors_in_higher_dimensions(self, n):
        # the multiplicity diagnostic sorts n distances, of which n - 1 vanish
        e1 = np.eye(n)[0]
        cap = SphereCap(n, 0.6, height=0.3)
        reps = [
            check_euclid(Paraboloid(n), 0.5, e1),
            check_prod(SphereCap(n, 1.0), flat_base(n), 1.0 / np.sqrt(2.0), e1 / np.sqrt(2.0)),
            check_sphere(cap, 0.5, np.sqrt(0.32) * e1),
            check_phi(cap, spherical_ambient(n), 0.5, np.sqrt(0.32) * e1),
        ]
        for rep in reps:
            assert rep.equality_detected, rep.which
            assert abs(rep.gap) <= 1e-12, rep.which

    def test_anisotropic_cup_is_strict(self):
        cup = QuadraticCup([1.0, 4.0, 9.0])
        t = np.sqrt(3.0 / 14.0)
        x = t * np.ones(3) / np.sqrt(3.0)
        rep = check_prod(cup, flat_base(3), 0.5, x)
        assert rep.gap > 1e-3
        assert not rep.equality_detected
        rep_e = check_euclid(cup, 0.5, x)
        assert rep_e.gap == pytest.approx(rep.gap, abs=1e-12)


class TestDispatcherAndRoutes:
    def test_dispatcher_matches_direct_calls(self):
        field = Paraboloid(2)
        x = np.array([1.0, 0.0])
        via = check("euclid", field, 0.5, x)
        direct = check_euclid(field, 0.5, x)
        assert via.gap == direct.gap
        assert via.which == direct.which

    def test_unknown_which_raises(self):
        with pytest.raises(ValueError):
            check("nope", Paraboloid(2), 0.5, np.array([1.0, 0.0]))

    def test_which_tuple(self):
        assert WHICH == ("prod", "phi", "euclid", "sphere")

    def test_checks_refuses_levels_that_do_not_match_the_rows(self):
        field, X = random_trig_field(2, 1), np.full((3, 2), 0.1)
        with pytest.raises(ValueError, match=r"eps of shape \(2,\).*X, shape \(3, 2\)"):
            checks("prod", field, [0.1, 0.2], X)
        regular, reports = checks("prod", field, field.values(X), X)  # one level per row
        assert reports.gap.shape == (3,)

    def test_unit_conformal_factor_matches_product(self):
        field = random_trig_field(2, seed=11)
        eps = pick_levels(field, 1, 3)[0]
        pts = slice_points(field, eps, rays=6, seed=3)
        assert len(pts) > 0
        amb = constant_ambient(2, 1.0)
        for x in pts:
            a = check_prod(field, flat_base(2), eps, x)
            b = check_phi(field, amb, eps, x)
            assert b.lhs == pytest.approx(a.lhs, abs=1e-12)
            assert b.rhs == pytest.approx(a.rhs, abs=1e-12)
            assert b.gap == pytest.approx(a.gap, abs=1e-12)

    def test_sphere_is_phi_with_spherical_ambient(self):
        field = SphereCap(2, 1.0)
        x = np.array([0.6, 0.0])
        eps = field.value(x)
        a = check_sphere(field, eps, x)
        b = check_phi(field, spherical_ambient(2), eps, x)
        assert a.gap == pytest.approx(b.gap, abs=1e-14)

    def test_report_serializes(self):
        rep = check_euclid(Paraboloid(2), 0.5, np.array([1.0, 0.0]))
        d = report_dict(rep)
        assert d["which"] == "euclid"
        assert isinstance(d["gap"], float)
        assert d["equality_detected"] is True and d["x"] == [1.0, 0.0]
        assert "extras" not in d


def _adapted(pt):
    """The graph shape operator in the adapted frame of the point's own level."""
    fr = slice_frame_of_point(pt, pt.u)
    return adapted_matrix(fr.frame, pt.base_jet.g, pt.shape_operator)


class TestGapDecomposition:
    def test_product_gap_matches_newton_gap(self):
        base = flat_base(2)
        for seed in (0, 3, 6):
            field = random_trig_field(2, seed=seed)
            eps = pick_levels(field, 1, seed)[0]
            for x in slice_points(field, eps, rays=5, seed=seed)[:4]:
                rep = check_prod(field, base, eps, x)
                a_ad = _adapted(extrinsic_point(field, base, x))
                assert abs(rep.gap - newton_gap(a_ad).gap) <= 1e-8

    def test_conformal_gap_matches_newton_gap(self):
        amb = spherical_ambient(2)
        for seed in (1, 4):
            field = random_trig_field(2, seed=seed)
            eps = pick_levels(field, 1, seed)[0]
            for x in slice_points(field, eps, rays=5, seed=seed)[:4]:
                rep = check_phi(field, amb, eps, x)
                cp = conformal_point(field, amb, x)
                a_bar = cp.factor.value * _adapted(cp.point) + cp.dphi_nu * np.eye(2)
                assert abs(rep.gap - newton_gap(a_bar).gap) <= 1e-8

    def test_adapted_matrix_first_trace(self):
        # the adapted matrix puts the slice direction first; its lower-right
        # block trace recovers cos(theta) * slice mean curvature
        a_ad = _adapted(extrinsic_point(Paraboloid(2), flat_base(2), np.array([1.0, 0.0])))
        assert a_ad.shape == (2, 2)
        assert np.trace(a_ad[1:, 1:]) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        out = newton_gap(a_ad)
        assert out.gap == pytest.approx(0.0, abs=1e-12)


class TestSampling:
    def test_slice_points_land_on_level(self):
        field = random_trig_field(2, seed=8)
        eps = pick_levels(field, 1, 2)[0]
        pts = slice_points(field, eps, rays=8, seed=1)
        assert len(pts) >= 4
        for x in pts:
            assert field.value(x) == pytest.approx(eps, abs=1e-10)

    def test_slice_points_deterministic(self):
        field = random_trig_field(2, seed=8)
        eps = pick_levels(field, 1, 2)[0]
        a = slice_points(field, eps, rays=8, seed=1)
        b = slice_points(field, eps, rays=8, seed=1)
        assert len(a) == len(b)
        for p, q in zip(a, b):
            assert np.array_equal(p, q)

    def test_pick_levels_deterministic_and_interior(self):
        field = random_trig_field(2, seed=8)
        levels = pick_levels(field, 3, 2)
        assert len(levels) == 3
        assert pick_levels(field, 3, 2) == levels

    @pytest.mark.parametrize("kind, levels", [
        ("ball", [0.6303521865163703, 0.6970734888421921, 0.8091442595307018]),
        ("annulus", [0.031745977724531194, 0.055536520770319064, 0.09474447678602324]),
        ("box", [-0.22879165644781108, -0.17353239932926023, -0.09514064360017344]),
        ("trig", [-0.08503371160432822, -2.1816013129622575e-05, 0.10535568514315685]),
    ])
    def test_pick_levels_pinned_per_domain(self, kind, levels):
        fields = {
            "ball": lambda: parse_field("sphere-cap:1.0,0.0", 2),
            "annulus": lambda: parse_field("radial:S-u:0.5", 2),
            "box": lambda: sample_to_grid(
                random_trig_field(2, 4), origin=np.array([-1.0, -1.0]), h=0.1, counts=(21, 21)
            ),
            "trig": lambda: random_trig_field(2, 3),
        }
        assert pick_levels(fields[kind](), 3, seed=11) == levels

    def test_paraboloid_levels_are_circles(self):
        pts = slice_points(Paraboloid(2), 0.5, rays=6, seed=0)
        for x in pts:
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)


def reference_ray(field, eps, center, d, samples_per_ray=160, max_per_ray=2, delta_reg=DELTA_REG):
    """slice_points on one ray as a per-sample loop of `value`: the reference
    for the batched scan."""
    extent = field.domain.ray_extent(center, d, margin=1e-6)
    if not np.isfinite(extent):
        extent = 2.0
    if extent <= 0:
        return []
    ts = np.linspace(0.0, extent, samples_per_ray)
    vals = np.empty_like(ts)
    for i, t in enumerate(ts):
        try:
            vals[i] = field.value(center + t * d) - eps
        except OutOfDomainError:
            vals[i] = np.nan
    found = []
    for i in range(len(ts) - 1):
        if len(found) >= max_per_ray:
            break
        a, b = vals[i], vals[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)) or np.sign(a) == np.sign(b):
            continue
        root = brentq(lambda t: field.value(center + t * d) - eps, ts[i], ts[i + 1], xtol=1e-13)
        p = center + root * d
        if float(np.linalg.norm(field.gradient(p))) < delta_reg:
            continue
        found.append(p)
    return found


def subnormal_sine():
    """u = sin(x_1): an exact zero at the center and a unit gradient everywhere on it."""
    return TrigField([1.0], [[1.0, 0.0]], [0.0])


def quartic_bowl():
    """u = r^2 - r^4: a non-regular zero at the origin and a regular one on r = 1."""
    return PolynomialField(2, [(1.0, (2, 0)), (1.0, (0, 2)), (-1.0, (4, 0)), (-2.0, (2, 2)), (-1.0, (0, 4))])


class TestSliceScanReference:
    """The batched ray scan keeps the roots of the per-sample loop."""

    CASES = {
        "trig-2": (lambda: random_trig_field(2, 3), None, {}),
        "trig-3": (lambda: random_trig_field(3, 4), None, {}),
        "trig-2-one-per-ray": (lambda: random_trig_field(2, 6), None, {"max_per_ray": 1}),
        # u(center) is an exact zero of the scan
        "trig-2-center-level": (lambda: random_trig_field(2, 2), "center", {}),
        "trig-3-center-level": (lambda: random_trig_field(3, 0), "center", {}),
        "cap-rim-nan": (cap_without_domain, 0.3, {}),
        "cap-rim-level": (cap_without_domain, 0.0, {}),
        "plane-zero-sample": (lambda: Plane([1.0, 0.5]), 0.0, {}),
        "plane-zero-ray": (lambda: Plane([0.0, 1.0]), 0.0, {}),  # u = 0 along the first ray
        "paraboloid-center": (lambda: Paraboloid(2), 0.0, {}),
        "quartic-center-skip": (quartic_bowl, 0.0, {"max_per_ray": 1}),
        # u(center) = 0 sits one subnormal above the level, so z_0 z_1 underflows to 0 on every ray
        "sine-subnormal-level": (subnormal_sine, -5e-324, {}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_points_per_ray(self, case, monkeypatch):
        make, eps, kw = self.CASES[case]
        field = make()
        if eps is None:
            eps = pick_levels(field, 1, seed=2)[0]
        elif eps == "center":
            eps = field.value(np.zeros(field.dim))
        rays, seed = 12, 5
        center = np.zeros(field.dim)
        monkeypatch.setattr(inequality, "MAX_PER_RAY", kw.get("max_per_ray", inequality.MAX_PER_RAY))
        for d in unit_directions(field.dim, rays, seed):
            want = reference_ray(field, eps, center, d, **kw)
            monkeypatch.setattr(inequality, "unit_directions", lambda dim, count, seed, d=d: d[None])
            got = slice_points(field, eps, rays=1, seed=seed)
            assert len(got) == len(want)
            for p, q in zip(got, want):
                assert np.max(np.abs(p - q)) <= 1e-12

    def test_cases_reach_their_paths(self, monkeypatch):
        cap = cap_without_domain()
        assert np.isnan(cap.values(np.linspace(0.0, 2.0, 160)[:, None] * np.array([1.0, 0.0]))).any()
        assert Plane([1.0, 0.5]).values(np.zeros((1, 2)))[0] == 0.0
        # the center root of the quartic is skipped and the rim root kept on every ray
        with monkeypatch.context() as m:
            m.setattr(inequality, "MAX_PER_RAY", 1)
            pts = slice_points(quartic_bowl(), 0.0, rays=12, seed=5)
        assert len(pts) == 12
        assert all(abs(np.linalg.norm(p) - 1.0) <= 1e-12 for p in pts)
        assert slice_points(Paraboloid(2), 0.0, rays=12, seed=5) == []
        # a same-sign pair whose product underflows brackets nothing: only the rays with d_1 < 0 keep a root
        z = subnormal_sine().values(np.linspace(0.0, 2.0, 160)[:2, None] * np.array([1.0, 0.0])) + 5e-324
        assert z[0] * z[1] == 0.0 < min(z)
        pts = slice_points(subnormal_sine(), -5e-324, rays=12, seed=5)
        assert len(pts) == np.count_nonzero(unit_directions(2, 12, 5)[:, 0] < 0) == 5

    def test_flat_list_is_the_rays_in_order(self):
        field = random_trig_field(2, 3)
        eps = pick_levels(field, 1, seed=2)[0]
        want = [p for d in unit_directions(2, 10, 0) for p in reference_ray(field, eps, np.zeros(2), d)]
        got = slice_points(field, eps, rays=10, seed=0)
        assert len(got) == len(want) > 0
        assert max(np.max(np.abs(p - q)) for p, q in zip(got, want)) <= 1e-12

    def test_off_centre_box_is_sliced_from_its_midpoint(self):
        """A grid away from the origin is probed and sliced from the box's
        midpoint: every level gets the full scan's points from there, more
        than the 2, 3 and 2 that rays from the origin found."""
        grid = sample_to_grid(random_trig_field(2, 5), origin=(0.5, 0.5), h=0.05, counts=(41, 41))
        center, extent = grid.domain.probe_cube()
        assert center.tolist() == [1.5, 1.5] and extent == 1.0
        for eps in pick_levels(grid, 3, seed=1):
            pts = slice_points(grid, eps)
            want = full_scan_rows(lambda idx: grid, np.array([[eps]]), unit_directions(2, 16, 0)[None])[2]
            assert len(pts) == len(want) > 3
            assert np.array(pts).tobytes() == want.tobytes()

    def test_symmetric_box_probes_from_the_origin(self):
        """A box symmetric about 0 keeps the origin-centred cube, +0.0 in
        every coordinate, so its draws stay bit for bit."""
        grid = sample_to_grid(random_trig_field(2, 4), origin=np.array([-1.0, -1.0]), h=0.1, counts=(21, 21))
        center, extent = grid.domain.probe_cube()
        assert center.tobytes() == np.zeros(2).tobytes()
        assert extent == max(abs(v) for v in (*grid.domain.lo, *grid.domain.hi)) == 1.0

    def test_grid_roots_respect_the_evaluation_margin(self):
        # rays stop 1e-6 short of the box, but a grid is only evaluated 2h inside it
        grid = sample_to_grid(random_trig_field(2, 5), origin=(-1, -1), h=0.05, counts=(41, 41))
        eps = -0.09999999999999998
        pts = slice_points(grid, eps)
        assert pts
        for p in pts:
            assert grid.domain.contains(p, margin=grid.margin(p))
            check("prod", grid, eps, p)


class HoleyQuadratic(ScalarField):
    """u = (x_1 - 0.1)(x_1 - 0.3), undefined on a band |x_1 - 0.3| < 1e-3
    that holds its second zero on the first ray but no scan sample: NaN
    there on a stack, and OutOfDomainError at a point."""

    dim = 2
    domain = whole_space(2)
    name = "holey"

    def values(self, X):
        hole = np.abs(X[..., 0] - 0.3) < 1e-3
        if X.ndim == 1 and hole:
            raise OutOfDomainError(f"point {X.tolist()} in the hole")
        return np.where(hole, np.nan, (X[..., 0] - 0.1) * (X[..., 0] - 0.3))

    def jets(self, X):
        u = self.values(X)
        hole = np.isnan(u)[..., None]
        grad = np.stack([2.0 * X[..., 0] - 0.4, np.zeros(X.shape[:-1])], axis=-1)
        hess = np.broadcast_to(np.diag([2.0, 0.0]), X.shape + (2,))
        return u, np.where(hole, np.nan, grad), np.where(hole[..., None], np.nan, hess)


class TestNanLanes:
    """A root solve that meets an undefined point raises the field's own
    error, as the scalar brentq loop did, where that loop reached it."""

    def test_reached_lane_raises_the_pointwise_error(self, monkeypatch):
        field, d = HoleyQuadratic(), np.array([1.0, 0.0])
        with pytest.raises(OutOfDomainError) as want:
            reference_ray(field, 0.0, np.zeros(2), d)
        monkeypatch.setattr(inequality, "unit_directions", lambda dim, count, seed: d[None])
        with pytest.raises(OutOfDomainError) as got:
            slice_points(field, 0.0, rays=1)
        assert str(got.value) == str(want.value)

    def test_lane_past_the_cap_is_not_solved(self, monkeypatch):
        field, d = HoleyQuadratic(), np.array([1.0, 0.0])
        want = reference_ray(field, 0.0, np.zeros(2), d, max_per_ray=1)
        monkeypatch.setattr(inequality, "unit_directions", lambda dim, count, seed: d[None])
        monkeypatch.setattr(inequality, "MAX_PER_RAY", 1)
        got = slice_points(field, 0.0, rays=1)
        assert len(got) == len(want) == 1
        assert np.array_equal(got[0], want[0])


def full_scan_grid(at, F, dirs):
    """The scan's origin, extents, sample positions ts (F, R, S), sample
    points and values, all read as the full scan reads them: one `values`
    call."""
    (R, n), dom = dirs.shape[1:], at(0).domain
    origin = dom.probe_cube()[0] + 0.0
    extents = dom.ray_extent(origin, dirs.reshape(-1, n), margin=1e-6).reshape(F, R)
    extents[~np.isfinite(extents)] = 2.0
    k, div = np.arange(inequality.SAMPLES_PER_RAY, dtype=float), inequality.SAMPLES_PER_RAY - 1
    step = extents[..., None] / div
    ts = k / div * extents[..., None] if np.count_nonzero(step == 0) else k * step
    ts += 0.0
    ts[..., -1] = extents
    X = origin + ts[..., None] * dirs[:, :, None, :]
    return origin, extents, ts, X, at(np.arange(F)[:, None]).values(X.reshape(F, -1, n)).reshape(F, R, -1)


def full_scan_rows(at, eps, dirs, max_per_ray=inequality.MAX_PER_RAY):
    """_slice_rows with every sample read: the reference for the screened scan."""
    (F, L), R, dom = eps.shape, dirs.shape[1], at(0).domain
    origin, extents, ts, _, u = full_scan_grid(at, F, dirs)
    vals = u[:, None] - eps[:, :, None, None]
    a, b = vals[..., :-1], vals[..., 1:]
    bracket = np.isfinite(a) & np.isfinite(b) & (np.sign(a) != np.sign(b))
    bracket &= (extents > 0)[:, None, :, None]
    f, j, r, i = np.nonzero(bracket)
    d, e, lo, hi = dirs[f, r], eps[f, j], ts[f, r, i], ts[f, r, i + 1]
    roots = brentq_lanes(lambda t, k: at(f[k]).values(origin + t[:, None] * d[k]) - e[k], lo, hi, xtol=1e-13)
    P = origin + roots[:, None] * d
    ok = ~np.isnan(roots)
    ok[ok] = dom.contains(P[ok], margin=at(f[ok]).margin(P[ok]))
    grad = at(f[ok]).jets(P[ok])[1]
    ok[ok] = ~(np.sqrt(np.vecdot(grad, grad)) < DELTA_REG)
    ray, before = (f * L + j) * R + r, np.cumsum(ok) - ok
    keep = ok & (before - before[np.searchsorted(ray, ray)] < max_per_ray)
    return f[keep], j[keep], P[keep]


def assert_same_rows(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@st.composite
def screened_cases(draw):
    """A trig family, its rays and its levels: amplitudes and frequencies
    scaled by 1e-6 to 1e6, levels at a sample value, at a ray's sample
    extremum, one ulp inside a ray's interior sample extremum, at the
    field's bound or in its range, and domains whose rays include ones of
    extent 0 (every other ray has d_0 = 0, and a thin box gives the rest
    extent 0). A level inside an interior extremum crosses the blocks about
    it whose ends lie on one side of it, which the curvature test must keep
    by its allowance M h^2 / 8 + delta. A "linear" family has one mode of
    frequency 1e-9 to 1e-5 with a zero of the sine at the origin. Its ray 1
    runs across the frequency, where u is constant up to rounding and M h^2
    / 8 is far below it, so only the rounding term of the curvature test
    keeps the blocks a level crosses; its other rays run along the
    frequency, where a block changes by nearly L (t_B - t_A), and only the
    rounding term of the slope test keeps the blocks that a sample level
    sits in."""
    n, F, linear = draw(st.sampled_from([2, 3, 4])), draw(st.integers(1, 30)), draw(st.booleans())
    R, L = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    K = 1 if linear else draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.uniform(0.1, 1.0, (F, K)) * 10.0 ** draw(st.integers(-6, 6))
    freqs = rng.uniform(-1.7, 1.7, (F, K, n)) * 10.0 ** draw(st.integers(-9, -5) if linear else st.integers(-6, 6))
    phases = rng.choice([0.0, np.pi], (F, K)) if linear else rng.uniform(0.0, 2.0 * np.pi, (F, K))
    domain = draw(st.sampled_from(["ball", "box", "thin"]))
    domain = {
        "ball": Ball(n, 2.0),
        "box": Box((0.2,) * n, (1.7,) + (1.1,) * (n - 1)),
        # 2e-7 wide across axis 0: a ray with d_0 != 0 has extent 0
        "thin": Box((-1e-7,) + (-1.0,) * (n - 1), (1e-7,) + (1.0,) * (n - 1)),
    }[domain]
    dirs = freqs[:, :1] * rng.choice([-1.0, 1.0], (F, R, 1)) if linear else rng.normal(size=(F, R, n))
    if linear and R > 1:
        dirs[:, 1] = 0.0
        dirs[:, 1, :2] = freqs[:, 0, 1::-1] * [-1.0, 1.0]
    dirs[:, ::2, 0] = 0.0
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    family = TrigField(amps, freqs, phases, domain)
    *_, u = full_scan_grid(family.rows, F, dirs)
    f, r = np.arange(F), rng.integers(0, R, F)
    kinds = [draw(st.sampled_from(["sample", "max", "min", "inside", "bound", "range"])) for _ in range(L)]
    eps = np.stack([{
        "sample": lambda: u[f, r, rng.integers(0, u.shape[-1], F)],
        "max": lambda: u[f, r].max(axis=-1),
        "min": lambda: u[f, r].min(axis=-1),
        "inside": lambda: np.where(
            rng.random(F) < 0.5,
            np.nextafter(u[f, r, 1:-1].max(axis=-1), -np.inf),
            np.nextafter(u[f, r, 1:-1].min(axis=-1), np.inf),
        ),
        "bound": lambda: np.abs(amps).sum(axis=-1),
        "range": lambda: rng.uniform(u[f, r].min(axis=-1), u[f, r].max(axis=-1)),
    }[kind]() for kind in kinds], axis=1)
    return family, eps, dirs


class TestScreenedScan:
    """The block scan that skips the blocks no level can cross keeps the
    full scan's rows bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(screened_cases())
    def test_trig_families_keep_the_full_scan_rows(self, case):
        family, eps, dirs = case
        assert_same_rows(inequality._slice_rows(family.rows, eps, dirs), full_scan_rows(family.rows, eps, dirs))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_peak_mid_block_keeps_its_block(self, n):
        """The curvature test at its edge, at every level of the screen: one
        mode of amplitude a, each field's ray along its frequency f, the peak
        at the middle sample of a block of the level's size and the level 2%
        of M h^2 / 8 (M = a |f|^2) below that sample. The block's ends lie a
        (1 - cos(|f| h / 2)) below the peak, within a (|f| h)^4 / 384 of M h^2
        / 8, so they lie 97-98% of M h^2 / 8 below the level and only M itself
        keeps the block: a bound 5% smaller at any one level skips it and
        loses the two roots about the peak."""
        rng = np.random.default_rng(n)
        for size in inequality.SCREEN:
            F, mid, a = min(6, inequality.SAMPLES_PER_RAY // size - 2), size // 2, 0.6
            freqs = rng.uniform(-1.7, 1.7, (F, 1, n))
            dirs = freqs / np.linalg.norm(freqs, axis=-1, keepdims=True)
            unit = TrigField(np.ones((F, 1)), freqs, np.zeros((F, 1)), Ball(n, 2.0))
            _, _, ts, _, _ = full_scan_grid(unit.rows, F, dirs)
            blocks = size * np.arange(1, F + 1)  # blocks 1 ... F of the level, one a field, none the short last
            phases = np.pi / 2 - np.linalg.norm(freqs, axis=-1) * ts[np.arange(F), :, blocks + mid]
            family = TrigField(np.full((F, 1), a), freqs, phases, Ball(n, 2.0))
            *_, u = full_scan_grid(family.rows, F, dirs)
            h = ts[:, 0, size] - ts[:, 0, 0]
            bend = a * np.vecdot(freqs[:, 0], freqs[:, 0]) * h * h / 8.0
            eps = (u[np.arange(F), 0, blocks + mid] - 0.02 * bend)[:, None]
            want = full_scan_rows(family.rows, eps, dirs)
            assert np.bincount(want[0], minlength=F).tolist() == [2] * F, size
            assert_same_rows(inequality._slice_rows(family.rows, eps, dirs), want)

    FIELDS = {
        "poly": (quartic_bowl, 0.0),
        "grid": (lambda: sample_to_grid(random_trig_field(2, 5), origin=(0.5, 0.5), h=0.05, counts=(41, 41)), None),
        "fd-nan": (lambda: FiniteDifferenceField(cap_without_domain(), 2), 0.3),
        "radial-E-f-nan": (lambda: parse_field("radial:E-f", 2), 0.8),
    }

    @pytest.mark.parametrize("kind", sorted(FIELDS))
    def test_kinds_without_a_bound_read_every_sample(self, kind):
        make, eps = self.FIELDS[kind]
        field = make()
        eps = np.array([[pick_levels(field, 1, seed=2)[0] if eps is None else eps]])
        dirs = unit_directions(2, 12, 5)[None]
        read = []

        class Recording:
            def __getattr__(self, name):
                return getattr(field, name)

            def values(self, X):
                read.append(np.reshape(X, (-1, 2)))
                return field.values(X)

        got = inequality._slice_rows(lambda idx: Recording(), eps, dirs)
        _, _, _, X, u = full_scan_grid(lambda idx: field, 1, dirs)
        assert np.isnan(u).any() == kind.endswith("-nan")
        # one read a level of the screen, then one of the inner samples, and each sample read once
        scan = np.concatenate(read[: len(inequality.SCREEN) + 1])
        assert sorted(x.tobytes() for x in scan) == sorted(x.tobytes() for x in X.reshape(-1, 2))
        want = full_scan_rows(lambda idx: field, eps, dirs)
        assert len(want[0])
        assert_same_rows(got, want)


    def test_no_sample_is_read_twice(self):
        """A family whose members declare no bound keeps every block, and its
        scan reads each of the F R SAMPLES_PER_RAY samples once."""
        field, F, R = quartic_bowl(), 3, 12
        read = []

        class Recording:
            def __getattr__(self, name):
                return getattr(field, name)

            def values(self, X):
                read.append(np.size(X) // 2)
                return field.values(X)

        eps = np.zeros((F, 1))
        dirs = np.stack([unit_directions(2, R, 0)] * F)
        got = inequality._slice_rows(lambda idx: Recording(), eps, dirs)
        assert sum(read[: len(inequality.SCREEN) + 1]) == F * R * inequality.SAMPLES_PER_RAY
        assert len(got[0])
        assert_same_rows(got, full_scan_rows(lambda idx: field, eps, dirs))

    def test_negation_keeps_the_base_bound(self, monkeypatch):
        """Negation is exact, so a negated field screens with its base's
        slope and curvature bounds: it reads the base's rows and slices the
        base's points (516 rows with the slope test alone, 439 with blocks of
        8 alone)."""
        field = random_trig_field(2, 3)
        eps = pick_levels(field, 2, seed=2)[0]
        read, values = [], TrigField.values
        monkeypatch.setattr(TrigField, "values", lambda self, X: read.append(np.size(X) // 2) or values(self, X))
        base = slice_points(field, eps, rays=16)
        base_rows = sum(read)
        read.clear()
        negated = slice_points(NegatedField(field), -eps, rays=16)
        assert len(base) == 8
        assert np.array(negated).tobytes() == np.array(base).tobytes()
        assert base_rows == sum(read) == 226


def reference_probes(field, seed):
    """The samples of pick_levels as a per-draw loop: the reference for the
    batched draws."""
    rng, probes = np.random.default_rng(seed), inequality.PROBES
    dom = field.domain
    center, extent = dom.probe_cube()
    points = []
    attempts = 0
    while len(points) < probes and attempts < 50 * probes:
        attempts += 1
        x = center + rng.uniform(-extent, extent, size=field.dim)
        if dom.contains(x, margin=1e-6):
            points.append(x)
    return points


def reference_pick_levels(field, count, seed):
    """pick_levels as a per-draw loop of `value`: the reference for the
    batched probes."""
    vals = [field.value(x) for x in reference_probes(field, seed)]
    if not vals:
        raise ValueError("could not probe the field's domain for level values")
    qs = np.linspace(0.35, 0.65, count) if count > 1 else np.array([0.5])
    return [float(v) for v in np.quantile(np.asarray(vals), qs)]


class TestPickLevelsReference:
    """The batched probes give the levels of the per-draw loop bit for bit."""

    FIELDS = {
        "trig-2": lambda: random_trig_field(2, 3),
        "trig-3": lambda: random_trig_field(3, 4),
        "trig-4": lambda: random_trig_field(4, 11, modes=6),
        "grid-box": lambda: sample_to_grid(
            random_trig_field(2, 4), origin=np.array([-1.0, -1.0]), h=0.1, counts=(21, 21)
        ),
        "radial-S-u": lambda: parse_field("radial:S-u:0.5", 2),
        "constant": lambda: Constant(3, 0.25),  # every sample ties
    }

    @pytest.mark.parametrize("kind", sorted(FIELDS))
    def test_same_levels_as_the_loop(self, kind):
        field = self.FIELDS[kind]()
        for seed in range(64):
            count = 1 + seed % 3
            assert pick_levels(field, count, seed) == reference_pick_levels(field, count, seed)

    def test_thin_annulus(self):
        # so thin that fewer than 256 of the 12,800 draws land inside
        seeded = random_trig_field(2, 5)
        field = TrigField(seeded.amps, seeded.freqs, seeded.phases, Annulus(2, 0.995, 1.0))
        assert 0 < len(reference_probes(field, 0)) < 256
        for seed in range(3):
            assert pick_levels(field, 2, seed) == reference_pick_levels(field, 2, seed)

    @pytest.mark.parametrize("make, error", [
        (cap_without_domain, OutOfDomainError),  # NaN in the batch, raised by `value`
        (lambda: raises_beyond(1.2), ArithmeticError),  # raised by the batch itself
    ])
    def test_a_failing_probe_raises_the_same_error(self, make, error):
        field = make()
        with pytest.raises(error) as want:
            reference_pick_levels(field, 2, seed=3)
        with pytest.raises(error) as got:
            pick_levels(field, 2, seed=3)
        assert str(got.value) == str(want.value)


class TestProbeRoute:
    """The probes of each seed, drawn in rounds with one stacked domain test
    over every member still short, are its per-draw loop's probes; at large
    n members keep different numbers, or none."""

    @pytest.mark.parametrize("dim, seeds", [
        (2, [7, 1007, 2007]),  # each keeps 256, the last few from a second round
        (17, [6, 1]),  # 6 and none of 12,800 draws
    ])
    def test_equals_the_per_seed_draws(self, dim, seeds):
        field = random_trig_field(dim, 0)
        got = _probes(field.domain, dim, seeds)
        want = [np.reshape(reference_probes(field, s), (-1, dim)) for s in seeds]
        assert [len(P) for P in got] == [len(P) for P in want]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_no_draws(self, monkeypatch):
        monkeypatch.setattr(inequality, "PROBES", 0)
        assert [P.shape for P in _probes(whole_space(3), 3, [1, 2])] == [(0, 3), (0, 3)]

    @settings(max_examples=60, deadline=None)
    @given(
        F=st.integers(1, 6), n=st.integers(1, 300), count=st.integers(1, 5), ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_levels_are_numpys_quantiles(self, F, n, count, ties, seed):
        """The levels are np.quantile's at 0.35 ... 0.65 of each member's
        samples bit for bit, also where samples tie, 0.0 with -0.0 too."""
        rng = np.random.default_rng(seed)
        vals = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], (F, n)) if ties else rng.normal(size=(F, n))

        class Table:
            def values(self, P):
                return vals.copy()

        qs = np.linspace(0.35, 0.65, count) if count > 1 else np.array([0.5])
        want = np.ascontiguousarray(np.quantile(vals, qs, axis=1).T)
        assert _levels(lambda idx: Table(), np.zeros((F, n, 2)), count).tobytes() == want.tobytes()


class TestReportRows:
    def test_rows_equal_reports_built_by_init(self):
        """The rows fill their __dict__ directly: they equal, field by field
        and in field order, the frozen reports __init__ builds, and stay frozen."""
        for which in ("prod", "phi"):
            suite = run_suite(which, n_fields=2, rays=4, seed=3)
            assert suite.points
            for rep in (suite.reports.row(i) for i in range(suite.points)):
                built = InequalityReport(**{f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)})
                assert type(rep) is InequalityReport and rep == built
                assert list(vars(rep).items()) == list(vars(built).items())
                with pytest.raises(dataclasses.FrozenInstanceError):
                    rep.gap = 0.0


#: the optional columns of InequalityReport, and the ones each route sets
COLUMNS = ("bracket", "dphi_nu", "phi", "scalar_base", "scalar_m", "scalar_round")
PROD_COLUMNS, PHI_COLUMNS = {"scalar_base", "scalar_m"}, {"bracket", "dphi_nu", "phi"}
SELECTOR_AMBIENTS = {
    None: lambda n: None,
    "round-base": lambda n: product_ambient(n, round_sphere_base(n)),
    "spherical": spherical_ambient,
    "constant:2": lambda n: constant_ambient(n, 2.0),
}


class TestSelectorColumns:
    """Each selector sets its own optional columns and leaves the rest None,
    and each row of the stack is the one-point check's report."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("which, ambient, want", [
        ("prod", None, PROD_COLUMNS),
        ("prod", "round-base", PROD_COLUMNS),
        ("euclid", None, PROD_COLUMNS),
        ("phi", "spherical", PHI_COLUMNS | {"scalar_round"}),
        ("phi", "constant:2", PHI_COLUMNS),
        ("sphere", None, PHI_COLUMNS | {"scalar_round"}),
    ])
    def test_columns_and_rows(self, which, ambient, want, n):
        field = random_trig_field(n, seed=10 + n)
        X = np.random.default_rng(n).uniform(-0.5, 0.5, (6, n))
        eps, amb = field.values(X), SELECTOR_AMBIENTS[ambient](n)
        _, regular, reports = inequality._checks(which, field, eps, X, amb)
        assert regular.all() and reports.which == which
        assert {c for c in COLUMNS if getattr(reports, c) is not None} == want
        assert all(getattr(reports, c).shape == (6,) for c in want)
        for i in range(6):
            row = report_dict(reports.row(i))
            assert set(COLUMNS) & set(row) == want
            assert type(row["equality_detected"]) is bool
            assert row == report_dict(check(which, field, eps[i], X[i], amb))


class TestSuites:
    @pytest.mark.parametrize("which", WHICH)
    def test_no_violations_small(self, which):
        out = run_suite(which, dim=2, n_fields=4, rays=6, levels=1, seed=0)
        assert out.violations == 0
        assert out.min_gap >= -1e-8
        assert out.points > 0
        assert out.which == which

    def test_suite_three_dimensional(self):
        out = run_suite("prod", dim=3, n_fields=2, rays=4, levels=1, seed=1)
        assert out.violations == 0
        assert out.min_gap >= -1e-8

    def test_suite_deterministic(self):
        a = run_suite("euclid", dim=2, n_fields=3, rays=5, levels=1, seed=5)
        b = run_suite("euclid", dim=2, n_fields=3, rays=5, levels=1, seed=5)
        assert a.min_gap == b.min_gap
        assert a.points == b.points

    def test_reports_carry_positions(self):
        out = run_suite("prod", dim=2, n_fields=2, rays=4, levels=1, seed=3)
        assert out.reports.which == "prod"
        assert out.reports.x.shape == (out.points, 2)
        for rep in (out.reports.row(i) for i in range(out.points)):
            assert rep.which == "prod"
            assert rep.x.shape == (2,)


def row_digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestGoldenRows:
    """Every field of every report row, equality diagnostics included, bit
    for bit. Recorded with Python 3.11, numpy 2.4 and scipy 1.17 on x86-64."""

    SUITES = {
        ("prod", 2): "7bb3c5f7b61177fd34867b8fe93e7cb7cddf01a4bd90b6d95d5a94136f59e1c6",
        ("prod", 3): "584bddf522bcae3d477a7629f5489983c6a941de9bcb143a057e352768a8d516",
        ("phi", 2): "636c1ac3cdd9d82d6bcf6db7218f2e9c41e38978bddb12fa4f4943ac454cdaad",
        ("phi", 3): "1628f8aaa7a92e790d38938b37b79631310829e4d2b81323cc5de67124f732f2",
        ("euclid", 2): "9ceaef1d63f7ca664eb3b4109c74417e0bee14146af8ea04136fe560936f1899",
        ("euclid", 3): "7b177025960825008d0f811398b5b6a3b71c9eef4a30950bb1b897d618304b49",
        ("sphere", 2): "f27dae08befeb08739bcd91d4eccc36b4ea9d43e2e29632699924603993ffa04",
        ("sphere", 3): "a0a27fb391fc8baadaa7c0405824a5b7802c13c78f7e0d6b8fe8ebe02a9d9913",
    }

    #: the digests of SUITES as they were with LAPACK's dsygvd, before the
    #: Cholesky eigensolver moved the last bits of the principal curvatures
    #: and of the gaps and diagnostics that read them
    DSYGVD_SUITES = {
        ("prod", 2): "2e3a19607949e713734a88698b481a5912a8164db619379ecd3d073d55240c7f",
        ("prod", 3): "07eda72779a759b90f626de36975965fc9b74016c4a30b00ecf953944fa105c6",
        ("phi", 2): "0a7d88f7b2b4c9a75f44ac127b762808be292664727ac5f55acf5121f92693f6",
        ("phi", 3): "d0af9c0115d705edcb954030a199886b2885798b98bea10f77f1618785720a1c",
        ("euclid", 2): "55f09241cc3e66e41ea736ae97a561a15fc6fb899c807775608051417ef1acb7",
        ("euclid", 3): "dfbb73c2784013316ebc9a0b499c252599e8eff527e74092700b989ac65f058a",
        ("sphere", 2): "2221606d3d06ef79eca92bbd4ba87a6a8ee1f08380824e03d5b2caeace714b48",
        ("sphere", 3): "9e820ad5fe1d14be78bc43b5d5a3cc92d3cfac6cd64c1c357e434f3ea73943f9",
    }

    @pytest.mark.parametrize("which, dim", sorted(SUITES))
    def test_suite_rows(self, which, dim):
        assert self.suite_digest(which, dim) == self.SUITES[which, dim]

    @pytest.mark.parametrize("which, dim", sorted(DSYGVD_SUITES))
    def test_dsygvd_gives_the_old_suite_rows(self, dsygvd, which, dim):
        """With dsygvd patched back in, every row is what it was: the
        eigensolver is the only source of the change."""
        assert self.suite_digest(which, dim) == self.DSYGVD_SUITES[which, dim]

    def suite_digest(self, which, dim):
        suite = run_suite(which, dim)
        return row_digest([report_dict(suite.reports.row(i)) for i in range(suite.points)])

    # the round base reaches the R_g and Ric_g terms of prod; a constant
    # factor has no round scalar curvature, so its rows carry no scalar_round
    CURVED = {
        ("prod", 3): "1a8e442e1f6ab993b119e5fff550d73131aa9fe15f119aa48581980cd0b93365",
        ("phi", 2): "fde1d2192a19b6ea869ab214607c170b77e5daa03dcacffbbd1fe00ffa1f27e5",
        ("phi", 3): "f89c4d36d45efaac11906d4f01e57024cd125f352fc21e8adeae7dde3a441d64",
    }

    #: CURVED as it was with dsygvd
    DSYGVD_CURVED = {
        ("prod", 3): "1dd57c8360eeb9d6f4ed9cb3464dfa6bd1b8352527e5e862c1cc7417ca6097df",
        ("phi", 2): "b52092ef3c609cbb1036491ec9ebb0ffbb5869b479b581689add5565530985bb",
        ("phi", 3): "f14ead2adc9f7b326d4e51117fb0659401a0092beef655623a4d88642594afa1",
    }

    @pytest.mark.parametrize("which, dim", sorted(CURVED))
    def test_curved_rows(self, which, dim):
        assert self.curved_digest(which, dim) == self.CURVED[which, dim]

    @pytest.mark.parametrize("which, dim", sorted(DSYGVD_CURVED))
    def test_dsygvd_gives_the_old_curved_rows(self, dsygvd, which, dim):
        assert self.curved_digest(which, dim) == self.DSYGVD_CURVED[which, dim]

    #: the one-row `check` reports on the curved-n3 benchmark's recipe (two
    #: fields, two levels, up to ten slice points each), prod on the round
    #: base and phi in the spherical ambient, then the round base's metric
    #: jet stack at the same points, as bytes: last bits and signed zeros
    ROUND_BASE = (
        "def6882c5f492d1bb98ad89b257b7f9a932bcd2d0d40e2ddff357bb7dd1b61db",
        "07d27bfb23f6871e31dead2facc9511ba332975166618c9519dff9cc282f0fc8",
    )

    def test_round_base_rows(self):
        base = round_sphere_base(3)
        ambients = {"prod": product_ambient(3, base), "phi": spherical_ambient(3)}
        rows, points = [], []
        for seed in (100_005, 100_006):
            field = random_trig_field(3, seed)
            for eps in pick_levels(field, 2, seed + 7):
                for x in slice_points(field, eps, rays=16, seed=seed + 13)[:10]:
                    points.append(x)
                    rows += [report_dict(check(which, field, eps, x, ambient)) for which, ambient in ambients.items()]
        jet = base.jets(np.array(points))
        arrays = (jet.g, jet.ginv, jet.gamma, jet.ricci, jet.scalar)
        digests = row_digest(rows), hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        assert len(points) >= 20
        assert digests == self.ROUND_BASE

    def curved_digest(self, which, dim):
        field = random_trig_field(dim, 5)
        eps = pick_levels(field, 1, 5)[0]
        X = np.array(slice_points(field, eps, rays=16, seed=5))
        ambient = product_ambient(dim, round_sphere_base(dim)) if which == "prod" else constant_ambient(dim, 2.0)
        _, regular, reps = inequality._checks(which, field, eps, X, ambient)
        return row_digest([regular.tolist(), [report_dict(reps.row(i)) for i in range(np.count_nonzero(regular))]])
