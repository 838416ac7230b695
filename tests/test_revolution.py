"""Tests for the rotationally symmetric model surfaces and their curvatures."""

import numpy as np
import pytest

from curv import revolution
from curv.conformal import conformal_points
from curv.errors import OutOfDomainError
from curv.graphgeom import extrinsic_points, flat_base
from curv.metrics import spherical_ambient
from curv.revolution import (
    RevolutionProfile,
    cap_curvature,
    cap_scalar_curvature,
    gauss_curvature_f,
    inverse_profile_jet,
    junction_c2_check,
    monotonicity_checks,
    normalize_kind,
    principal_curvatures_f,
    principal_curvatures_u,
    profile_jet,
    profile_jets,
    radial_field,
    spherical_cap_height,
    sweep_f,
    sweep_u,
    sweep_v,
)


def fd_derivatives(profile, s, h=1e-5):
    vm = profile_jet(profile, s - h)[0]
    v0 = profile_jet(profile, s)[0]
    vp = profile_jet(profile, s + h)[0]
    return (vp - vm) / (2 * h), (vp - 2 * v0 + vm) / h**2


class TestKinds:
    def test_aliases(self):
        assert normalize_kind("s-u") == "S-u"
        assert normalize_kind("S-V") == "S-v"
        assert normalize_kind("example-E-f") == "E-f"
        assert normalize_kind("f") == "E-f"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            normalize_kind("torus")

    def test_parameter_range(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                RevolutionProfile("S-u", bad)

    def test_domains(self):
        assert RevolutionProfile("S-u", 0.5).domain == (0.5, 1.0)
        assert RevolutionProfile("S-v", 0.5).domain == (0.0, 1.0)
        assert RevolutionProfile("E-f", 0.5).domain == (0.0, 1.0)


class TestOuterProfile:
    def test_root_values(self):
        prof = RevolutionProfile("S-u", 0.5)
        v, dv, ddv = profile_jet(prof, 0.5)
        assert v == 0.0
        assert dv == 0.0
        assert ddv == pytest.approx(1.0)

    def test_interior_value(self):
        prof = RevolutionProfile("S-u", 0.5)
        v, dv, ddv = profile_jet(prof, 0.75)
        assert v == pytest.approx(0.042893218813452594, abs=1e-14)
        fd1, fd2 = fd_derivatives(prof, 0.75)
        assert dv == pytest.approx(fd1, abs=1e-8)
        assert ddv == pytest.approx(fd2, abs=1e-5)

    def test_rim_is_singular(self):
        prof = RevolutionProfile("S-u", 0.5)
        v, dv, ddv = profile_jet(prof, 1.0)
        assert v == pytest.approx(0.5)
        assert np.isinf(dv) and dv > 0
        assert np.isinf(ddv)

    def test_out_of_domain(self):
        prof = RevolutionProfile("S-u", 0.5)
        with pytest.raises(OutOfDomainError):
            profile_jet(prof, 0.4)
        with pytest.raises(OutOfDomainError):
            profile_jet(prof, 1.1)

    def test_rim_height_matches_cap(self):
        # the outer graph and the inner cap share the rim height exactly
        for a in (0.25, 0.5, 0.9):
            prof_u = RevolutionProfile("S-u", a)
            prof_v = RevolutionProfile("S-v", a)
            assert profile_jet(prof_u, 1.0)[0] == profile_jet(prof_v, 1.0)[0]
            assert profile_jet(prof_u, 1.0)[0] == spherical_cap_height(a)


class TestCapProfile:
    def test_values(self):
        prof = RevolutionProfile("S-v", 0.5)
        v, dv, ddv = profile_jet(prof, 0.0)
        assert v == pytest.approx(1.5)
        assert dv == 0.0
        v1, dv1, _ = profile_jet(prof, 1.0)
        assert v1 == pytest.approx(0.5)
        assert np.isinf(dv1) and dv1 < 0

    def test_fd_cross_check(self):
        prof = RevolutionProfile("S-v", 0.5)
        v, dv, ddv = profile_jet(prof, 0.6)
        fd1, fd2 = fd_derivatives(prof, 0.6)
        assert dv == pytest.approx(fd1, abs=1e-8)
        assert ddv == pytest.approx(fd2, abs=1e-4)


class TestConeProfile:
    def test_endpoint_values_exact(self):
        prof = RevolutionProfile("E-f")
        assert profile_jet(prof, 0.0)[0] == 1.0
        assert profile_jet(prof, 1.0)[0] == 0.0

    def test_vertical_tangent_flags(self):
        prof = RevolutionProfile("E-f")
        _, d0, _ = profile_jet(prof, 0.0)
        assert np.isinf(d0) and d0 > 0
        _, d1, _ = profile_jet(prof, 1.0)
        assert np.isinf(d1) and d1 < 0

    def test_interior_value(self):
        prof = RevolutionProfile("E-f")
        v, dv, ddv = profile_jet(prof, 0.5)
        assert v == pytest.approx(1.478397839480233, abs=1e-14)
        fd1, fd2 = fd_derivatives(prof, 0.5)
        assert dv == pytest.approx(fd1, abs=1e-8)
        assert ddv == pytest.approx(fd2, abs=1e-4)

    def test_peak_constants_pinned(self):
        """The E-f peak, solved by one lane of the brentq.c port, is scipy's
        brentq root bit for bit, and the derived constants keep their values."""
        from scipy.optimize import brentq

        assert (revolution._F_PEAK_Z, revolution._F_PEAK, revolution._F_EDGE) == (
            0.40325576628102094, 1.4961899216206112, 8.945662391068493e-07
        )
        first = lambda z: profile_jet(RevolutionProfile("E-f"), z)[1]
        assert revolution._F_PEAK_Z == brentq(first, 0.05, 0.95, xtol=1e-14)
        assert type(revolution._F_PEAK_Z) is float

    def test_inverse_roundtrip(self):
        prof = RevolutionProfile("E-f")
        for r in (0.3, 0.7, 1.1, 1.3):
            z, dz, ddz = inverse_profile_jet(r)
            assert profile_jet(prof, z)[0] == pytest.approx(r, abs=1e-12)
            _, fz, _ = profile_jet(prof, z)


class TestEndpoints:
    """At the vertical tangents the formulas themselves give the endpoint
    jets bit for bit, at an array of s and at one s; S-u's value at s = 1
    is the gluing height sqrt((1-a)/2), set where the formula rounds off it."""

    CASES = [
        ("S-u", 0.5, 1.0, (spherical_cap_height(0.5), np.inf, np.inf)),
        ("S-u", 0.3, 1.0, (spherical_cap_height(0.3), np.inf, np.inf)),
        ("E-f", 0.5, 0.0, (1.0, np.inf, -np.inf)),
        ("E-f", 0.5, -0.0, (1.0, np.inf, -np.inf)),
        ("E-f", 0.5, 1.0, (0.0, -np.inf, -np.inf)),
    ]

    @pytest.mark.parametrize("kind, a, s, want", CASES)
    def test_endpoint_jets(self, kind, a, s, want):
        prof = RevolutionProfile(kind, a)
        rows = np.array(profile_jets(prof, np.array([s, 0.75])))[:, 0]
        point = np.array(profile_jet(prof, s))
        assert rows.tobytes() == point.tobytes() == np.array(want).tobytes()


class TestCapCurvature:
    def test_designated_parameter(self):
        assert cap_curvature(0.5) == pytest.approx(-0.125)
        assert cap_scalar_curvature(0.5) == pytest.approx(2.03125)

    def test_flattens_as_a_tends_to_one(self):
        assert abs(cap_curvature(1.0 - 1e-9)) <= 1e-9

    def test_scalar_formula(self):
        for a in (0.25, 0.5, 0.8):
            k = cap_curvature(a)
            assert cap_scalar_curvature(a) == pytest.approx(2.0 + 2.0 * k * k)


class TestPrincipalCurvatures:
    def test_at_waist(self):
        lam1, lam2 = principal_curvatures_u(0.5, 0.5)
        assert lam1 == pytest.approx(0.625, abs=1e-14)
        assert lam2 == pytest.approx(0.0, abs=1e-14)
        assert 2.0 + 2.0 * lam1 * lam2 == pytest.approx(2.0, abs=1e-14)

    def test_scalar_above_two_off_waist(self):
        lam1, lam2 = principal_curvatures_u(0.5, np.array([0.55, 0.7, 0.9]))
        assert (2.0 + 2.0 * lam1 * lam2 > 2.0).all()

    def test_domain(self):
        with pytest.raises(OutOfDomainError):
            principal_curvatures_u(0.5, 0.4)
        with pytest.raises(OutOfDomainError):
            principal_curvatures_u(0.5, 1.0)

    @staticmethod
    def pipeline_gap(a, radii):
        """Worst gap between the closed forms and the conformal pipeline's principal curvatures."""
        X = np.column_stack([radii, np.zeros_like(radii)])
        cp = conformal_points(radial_field(RevolutionProfile("S-u", a)), spherical_ambient(2), X)
        return np.abs(cp.principal - np.sort(np.column_stack(principal_curvatures_u(a, radii)), axis=1)).max()

    def test_pipeline_cross_check(self):
        assert self.pipeline_gap(0.5, np.linspace(0.52, 0.97, 40)) <= 1e-6

    def test_pipeline_cross_check_other_parameter(self):
        assert self.pipeline_gap(0.25, np.linspace(0.3, 0.9, 25)) <= 1e-6


class TestMonotonicity:
    @pytest.mark.parametrize("a", [0.5, 0.9])
    def test_passes(self, a):
        rep = monotonicity_checks(a)
        assert rep.passed
        assert rep.u_at_a == 0.0
        assert rep.du_at_a == 0.0
        assert rep.min_du_interior > 0.0
        assert rep.min_convexity_margin > 0.0

    def test_convexity_margin_normalized_at_waist(self):
        rep = monotonicity_checks(0.5)
        assert rep.convexity_margin_at_a == pytest.approx(1.0, abs=1e-9)

    def test_positive_lam1_where_convex(self):
        rep = monotonicity_checks(0.5)
        assert rep.min_lam1_where_convex > 0.0


class TestJunction:
    def test_designated_parameter(self):
        rep = junction_c2_check(0.5)
        assert rep.passed
        assert rep.value_target == pytest.approx(0.5)
        assert abs(rep.value_limit - 0.5) <= 1e-3
        assert abs(abs(rep.lam1_limit) - 0.125) <= 1e-3
        assert abs(abs(rep.lam2_limit) - 0.125) <= 1e-3
        assert rep.sign_flip

    def test_other_parameter(self):
        rep = junction_c2_check(0.25)
        assert rep.passed
        assert abs(abs(rep.lam1_limit) - 0.1875) <= 1e-3
        assert abs(rep.value_limit - spherical_cap_height(0.25)) <= 1e-3

    def test_cap_value_recorded(self):
        rep = junction_c2_check(0.5)
        assert rep.cap_value == pytest.approx(-0.125)


class TestGaussOnCone:
    def test_positive_on_grid(self):
        zs = np.linspace(0.01, 0.99, 500)
        ks = np.array([gauss_curvature_f(z) for z in zs])
        assert ks.min() >= -1e-10

    def test_designated_value(self):
        assert gauss_curvature_f(0.5) == pytest.approx(2.1142353516964647, abs=1e-10)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            gauss_curvature_f(0.0)
        with pytest.raises(OutOfDomainError):
            gauss_curvature_f(1.0)

    def test_principal_product_is_gauss(self):
        for z in (0.2, 0.5, 0.8):
            km, kp = principal_curvatures_f(z)
            assert km * kp == pytest.approx(gauss_curvature_f(z), abs=1e-12)

    def test_pipeline_cross_check(self):
        # K = R_M / 2 of the E-f inverse graph on the flat graph pipeline, the independent route
        radii = np.linspace(0.4, 1.3, 30)
        X = np.column_stack([radii, np.zeros_like(radii)])
        pts = extrinsic_points(radial_field(RevolutionProfile("E-f")), flat_base(2), X)
        assert np.abs(gauss_curvature_f(inverse_profile_jet(radii)[0]) - pts.scalar_curvature / 2.0).max() <= 1e-8


class TestArrayForms:
    """The curvatures, sweeps and checks are array expressions; each row is
    the per-point case of the same closed forms."""

    def test_curvatures_over_arrays(self):
        radii = np.linspace(0.5, 0.99, 7)
        lam1, lam2 = principal_curvatures_u(0.5, radii)
        zs = np.linspace(0.05, 0.95, 7)
        km, kp = principal_curvatures_f(zs)
        gauss = gauss_curvature_f(zs)
        for i in range(7):
            assert (lam1[i], lam2[i]) == tuple(principal_curvatures_u(0.5, radii[i]))
            assert (km[i], kp[i], gauss[i]) == (*principal_curvatures_f(zs[i]), gauss_curvature_f(zs[i]))
        with pytest.raises(OutOfDomainError):
            principal_curvatures_u(0.5, np.array([0.6, 1.0]))
        with pytest.raises(OutOfDomainError):
            gauss_curvature_f(np.array([0.5, 0.0]))

    def test_sweeps_are_the_row_loop(self):
        u_rows, v_rows, f_rows = sweep_u(0.4, count=50), sweep_v(0.4, count=20), sweep_f(count=50)
        for r, u, lam1, lam2, scal in u_rows:
            want1, want2 = principal_curvatures_u(0.4, r)
            assert (u, lam1, lam2, scal) == (profile_jet(RevolutionProfile("S-u", 0.4), r)[0], want1, want2,
                                             2.0 + 2.0 * want1 * want2)
        for r, v, k1, k2, scal in v_rows:
            assert (v, k1, k2, scal) == (profile_jet(RevolutionProfile("S-v", 0.4), r)[0], cap_curvature(0.4),
                                         cap_curvature(0.4), cap_scalar_curvature(0.4))
        for z, f, k1, k2, scal in f_rows:
            want1, want2 = principal_curvatures_f(z)
            assert (f, k1, k2, scal) == (profile_jet(RevolutionProfile("E-f"), z)[0], want1, want2, 2.0 * want1 * want2)


class TestSweeps:
    def test_outer_sweep_scalar_floor(self):
        rows = sweep_u(0.5, count=300)
        scalars = rows[:, 4]
        assert scalars.min() >= 2.0 - 1e-10
        # the equality locus sits at the waist r = a
        argmin = rows[np.argmin(scalars), 0]
        assert abs(argmin - 0.5) <= 1e-6

    def test_cap_sweep_constant_scalar(self):
        rows = sweep_v(0.5, count=100)
        assert np.allclose(rows[:, 4], 2.03125, atol=1e-10)

    def test_cone_sweep_columns(self):
        rows = sweep_f(count=200)
        assert rows.shape[1] == 5
        # doubled Gauss curvature stays nonnegative along the sweep
        assert rows[:, 4].min() >= -1e-10

    def test_radial_field_agrees_with_profile(self):
        field = radial_field(RevolutionProfile("S-u", 0.5))
        prof = RevolutionProfile("S-u", 0.5)
        x = np.array([0.7, 0.0])
        assert field.value(x) == pytest.approx(profile_jet(prof, 0.7)[0], abs=1e-14)
