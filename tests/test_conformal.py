"""Tests for conformally rescaled extrinsic geometry and the conformal
minor relation on the production `phi` route."""

import numpy as np
import pytest

from curv.conformal import (
    conformal_point,
    conformal_points,
    mean_curvature_spherical,
    normal_derivative,
)
from curv.errors import ConformalFactorError
from curv.fields import Constant, Paraboloid, SphereCap, random_trig_field
from curv.graphgeom import adapted_matrix, extrinsic_point, flat_base, slice_frames
from curv import inequality
from curv.metrics import AmbientSpec, ConformalMetric, FlatMetric, PhiJet, constant_ambient, spherical_ambient
from curv.util import trace


class TestSphericalFactor:
    def test_normal_derivative_pairs_coordinates(self):
        pt = extrinsic_point(Paraboloid(2), flat_base(2), np.array([1.0, 0.0]))
        amb = spherical_ambient(2)
        pj = amb.phis(np.array([[1.0, 0.0]]), np.array([pt.u])).row(0)
        mu = normal_derivative(pt, pj)
        # nu = (-1, 0, 1)/sqrt(2), grad phi = (x, t): mu = (-1 + 0.5)/sqrt(2)
        assert mu == pytest.approx((-1.0 + 0.5) / np.sqrt(2.0))


class TestConformalShape:
    def test_errors_name_the_first_failing_row_as_a_list(self):
        """The factor checks of a metric jet and an ambient factor name the
        first failing row, as the other errors of curv do."""
        X = np.array([[0.1, 0.2], [1.5, -0.5], [2.0, 0.25]])
        metric = ConformalMetric(2, lambda X: (1.0 - np.vecdot(X, X), X.copy(), np.eye(2)))
        ambient = AmbientSpec(FlatMetric(2), lambda x, t: PhiJet(1.0 - np.vecdot(x, x), x.copy(), t), "disc")
        cases = [
            (lambda: metric.jets(X), "conformal factor -1.5 is not positive at [1.5, -0.5]"),
            (lambda: ambient.phis(X, np.array([0.0, 0.25, 0.5])),
             "ambient factor -1.5 not positive at [1.5, -0.5, 0.25]"),
        ]
        for fn, message in cases:
            with pytest.raises(ConformalFactorError) as err:
                fn()
            assert str(err.value) == message

    def test_constant_factor_scales(self):
        field = random_trig_field(2, seed=1)
        x = np.array([0.3, -0.2])
        pt = extrinsic_point(field, flat_base(2), x)
        cp = conformal_point(field, constant_ambient(2, 2.5), x)
        assert cp.mean_curvature == pytest.approx(2.5 * pt.mean_curvature, abs=1e-12)
        assert np.allclose(cp.principal, 2.5 * np.sort(pt.principal), atol=1e-12)
        assert cp.scalar_curvature is None

    def test_unit_factor_is_identity(self):
        field = random_trig_field(2, seed=2)
        x = np.array([0.1, 0.4])
        pt = extrinsic_point(field, flat_base(2), x)
        cp = conformal_point(field, constant_ambient(2, 1.0), x)
        assert cp.mean_curvature == pytest.approx(pt.mean_curvature, abs=1e-14)
        assert cp.norm_a2 == pytest.approx(pt.norm_a2, abs=1e-14)


class TestSphericalMeanCurvature:
    def test_equator_disk_is_minimal(self):
        # the graph u = 0 sits on a totally geodesic equatorial ball
        field = Constant(2, 0.0)
        amb = spherical_ambient(2)
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.uniform(-0.9, 0.9, size=2)
            cp = conformal_point(field, amb, x)
            assert abs(cp.mean_curvature) <= 1e-12
            assert abs(mean_curvature_spherical(field, x)) <= 1e-12

    def test_hemisphere_is_minimal(self):
        field = SphereCap(2, 1.0)
        amb = spherical_ambient(2)
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = 0.9 * rng.uniform(-1.0, 1.0, size=2) / np.sqrt(2.0)
            cp = conformal_point(field, amb, x)
            assert abs(cp.mean_curvature) <= 1e-10
            assert abs(mean_curvature_spherical(field, x)) <= 1e-10

    def test_routes_agree_on_random_fields(self):
        amb = spherical_ambient(2)
        for seed in range(6):
            field = random_trig_field(2, seed=seed)
            rng = np.random.default_rng(seed + 50)
            for _ in range(8):
                x = rng.uniform(-0.8, 0.8, size=2)
                direct = mean_curvature_spherical(field, x)
                routed = conformal_point(field, amb, x).mean_curvature
                assert abs(direct - routed) <= 1e-8 * max(1.0, abs(direct))

    def test_flat_route_is_trace(self):
        field = random_trig_field(2, seed=9)
        x = np.array([0.2, -0.5])
        pt = extrinsic_point(field, flat_base(2), x)
        # the trace of the graph shape operator, minus the divergence of the upward unit normal
        g, hess = field.gradient(x), field.hessian(x)
        w2 = 1.0 + g @ g
        trace = np.trace((np.eye(2) - np.outer(g, g) / w2) @ hess) / np.sqrt(w2)
        assert trace == pytest.approx(pt.mean_curvature, abs=1e-13)

    def test_geodesic_sphere_has_constant_mean_curvature(self):
        # centered geodesic sphere: u = c + sqrt(rho^2 - |x|^2)
        field = SphereCap(2, 0.6, height=0.3)
        amb = spherical_ambient(2)
        rng = np.random.default_rng(5)
        values = []
        for _ in range(20):
            x = 0.5 * rng.uniform(-1.0, 1.0, size=2) / np.sqrt(2.0)
            values.append(conformal_point(field, amb, x).mean_curvature)
        values = np.asarray(values)
        assert np.allclose(values, -73.0 / 60.0, atol=1e-10)

    def test_round_scalar_curvature(self):
        field = SphereCap(2, 1.0)
        amb = spherical_ambient(2)
        cp = conformal_point(field, amb, np.array([0.3, 0.2]))
        # minimal umbilic-free hemisphere in the round 3-sphere: R = n(n-1) = 2
        assert cp.scalar_curvature == pytest.approx(2.0, abs=1e-10)

    def test_round_relation_needs_the_round_factor_not_its_name(self):
        # a constant factor labelled "spherical" is no round sphere
        amb = AmbientSpec(
            FlatMetric(2), lambda x, t: PhiJet(np.full(np.shape(t), 2.0), np.zeros(np.shape(x)), np.zeros(np.shape(t))),
            "spherical",
        )
        cp = conformal_point(random_trig_field(2, seed=1), amb, np.array([0.3, 0.2]))
        assert cp.scalar_curvature is None
        assert not amb.is_round_sphere
        assert spherical_ambient(2).is_round_sphere


AMBIENTS = {"spherical": spherical_ambient, "constant": lambda n: constant_ambient(n, 1.7)}


class TestMinorRelationOnThePhiRoute:
    """The conformal minor relation

        phi (A|1) + nu(phi) I = <nu, eta> Abar_Sigma + <nu, d_t> phi_t I,

    read from the reports of the production `phi` check and from the
    conformal points and slice frames it is built on."""

    def stacks(self, n, ambient):
        """The reports at 12 points of a trig field, each on its own level,
        the conformal points and slice frames of the regular rows, and (A|1),
        the graph shape operator in each frame less its first row and column."""
        field = random_trig_field(n, seed=10 + n)
        X = np.random.default_rng(n).uniform(-0.5, 0.5, (12, n))
        eps = field.values(X)
        _, regular, reports = inequality._checks("phi", field, eps, X, ambient)
        assert np.count_nonzero(regular) == 12
        cp = conformal_points(field, ambient, X)
        frames = slice_frames(cp.point, eps)[1]
        minor = adapted_matrix(frames.frame, cp.point.base_jet.g, cp.point.shape_operator)[:, 1:, 1:]
        return reports, cp, frames, minor

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("ambient", sorted(AMBIENTS))
    def test_bracket_is_the_trace_of_the_rescaled_minor(self, n, ambient):
        reports, cp, frames, minor = self.stacks(n, AMBIENTS[ambient](n))
        assert [reports.row(i).phi for i in range(12)] == cp.factor.value.tolist()
        assert [reports.row(i).dphi_nu for i in range(12)] == cp.dphi_nu.tolist()
        want = cp.factor.value * trace(minor) + (n - 1) * cp.dphi_nu
        bracket = np.array([reports.row(i).bracket for i in range(12)])
        assert np.abs(bracket - want).max() <= 1e-10 * (1.0 + np.abs(want).max())

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("ambient", sorted(AMBIENTS))
    def test_matrix_relation(self, n, ambient):
        reports, cp, frames, minor = self.stacks(n, AMBIENTS[ambient](n))
        phi, eye = cp.factor.value[:, None, None], np.eye(n - 1)
        lhs = phi * minor + cp.dphi_nu[:, None, None] * eye
        dphi_eta = np.vecdot(cp.factor.grad_x, frames.eta)
        abar_sigma = phi * frames.a_sigma + dphi_eta[:, None, None] * eye
        rhs = frames.cos_angle[:, None, None] * abar_sigma + (cp.point.nu[:, -1] * cp.factor.dt)[:, None, None] * eye
        assert np.abs(lhs - rhs).max() <= 1e-9
        assert np.allclose([reports.row(i).h_sigma for i in range(12)], trace(abar_sigma), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_unit_factor_reduces_to_plain_minor(self, n):
        reports, cp, frames, minor = self.stacks(n, constant_ambient(n, 1.0))
        assert [reports.row(i).h_sigma for i in range(12)] == frames.h_sigma.tolist()
        assert np.abs(minor - frames.cos_angle[:, None, None] * frames.a_sigma).max() <= 1e-12
