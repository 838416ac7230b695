"""Tests for extrinsic geometry of graphs and their level slices."""

import numpy as np
import pytest

from curv import graphgeom
from curv.errors import NonRegularPointError, NotOnLevelError, OutOfDomainError
from curv.fields import FiniteDifferenceField, Paraboloid, QuadraticCup, SphereCap, TrigField, random_trig_field
from curv.graphgeom import (
    adapted_frame,
    adapted_matrix,
    extrinsic_point,
    flat_base,
    intrinsic_scalar_curvature,
    level_slice,
    minor_relation_residual,
    slice_frame_of_point,
    slice_shape_sampled,
)
from curv.metrics import metric_jet, round_sphere_base
from curv.revolution import RevolutionProfile, radial_field

from syminv_reference import maxabs

SQRT2 = np.sqrt(2.0)


def minor(frame, pt):
    """(A|1): the graph shape operator in the slice's adapted frame, less its first row and column."""
    return adapted_matrix(frame.frame, pt.base_jet.g, pt.shape_operator)[1:, 1:]


class TestParaboloidPoint:
    """Frozen closed-form values for u = |x|^2 / 2 at (1, 0)."""

    def point(self):
        return extrinsic_point(Paraboloid(2), flat_base(2), np.array([1.0, 0.0]))

    def test_w_and_normal(self):
        pt = self.point()
        assert pt.w == pytest.approx(SQRT2)
        assert np.allclose(pt.nu, np.array([-1.0, 0.0, 1.0]) / SQRT2)
        assert pt.u == pytest.approx(0.5)

    def test_shape_operator_spectrum(self):
        pt = self.point()
        assert np.allclose(
            np.sort(pt.principal), [1.0 / (2.0 * SQRT2), 1.0 / SQRT2], atol=1e-14
        )
        assert pt.mean_curvature == pytest.approx(3.0 / (2.0 * SQRT2))
        assert pt.norm_a2 == pytest.approx(1.0 / 8.0 + 1.0 / 2.0)

    def test_scalar_curvature(self):
        pt = self.point()
        # H^2 - |A|^2 with flat base: 9/8 - 5/8 = 1/2
        assert pt.scalar_curvature == pytest.approx(0.5)


class TestParaboloidSlice:
    def frame(self):
        field = Paraboloid(2)
        pt = extrinsic_point(field, flat_base(2), np.array([1.0, 0.0]))
        return slice_frame_of_point(pt, eps=0.5), pt

    def test_angle_and_slice_curvature(self):
        frame, _ = self.frame()
        assert frame.cos_angle == pytest.approx(1.0 / SQRT2)
        assert frame.h_sigma == pytest.approx(1.0)
        assert np.allclose(frame.eta, [-1.0, 0.0])

    def test_minor_relation(self):
        frame, pt = self.frame()
        assert minor(frame, pt).shape == (1, 1)
        assert minor(frame, pt)[0, 0] == pytest.approx(1.0 / SQRT2)
        assert minor_relation_residual(frame, pt) <= 1e-12

    def test_level_slice_entry_point(self):
        frame = level_slice(Paraboloid(2), flat_base(2), 0.5, np.array([1.0, 0.0]))
        assert frame.eps == 0.5
        assert frame.h_sigma == pytest.approx(1.0)

    def test_not_on_level_raises(self):
        with pytest.raises(NotOnLevelError):
            level_slice(Paraboloid(2), flat_base(2), 0.9, np.array([1.0, 0.0]))

    def test_non_regular_point(self):
        pt = extrinsic_point(Paraboloid(2), flat_base(2), np.zeros(2))
        with pytest.raises(NonRegularPointError) as err:
            slice_frame_of_point(pt, eps=0.0)
        assert err.value.exact_zero
        assert err.value.grad_norm == 0.0


class TestSphereCapPoint:
    """Unit upper hemisphere at |x| = 1/sqrt(2): principal curvatures -1, -1."""

    def point(self):
        cap = SphereCap(2, 1.0)
        return extrinsic_point(cap, flat_base(2), np.array([1.0 / SQRT2, 0.0]))

    def test_umbilic_with_unit_curvature(self):
        pt = self.point()
        assert np.allclose(pt.principal, [-1.0, -1.0], atol=1e-12)
        assert pt.mean_curvature == pytest.approx(-2.0)
        assert pt.norm_a2 == pytest.approx(2.0)
        assert pt.scalar_curvature == pytest.approx(2.0)
        assert pt.w == pytest.approx(SQRT2)

    def test_slice_has_circle_curvature(self):
        pt = self.point()
        frame = slice_frame_of_point(pt, eps=1.0 / SQRT2)
        # the slice is a circle of radius 1/sqrt(2) seen from the outward side
        assert frame.cos_angle == pytest.approx(1.0 / SQRT2)
        assert frame.h_sigma == pytest.approx(-SQRT2)
        assert minor(frame, pt)[0, 0] == pytest.approx(-1.0)
        assert minor_relation_residual(frame, pt) <= 1e-12


class TestAdaptedFrame:
    def test_orthonormal_in_base_metric(self):
        field = random_trig_field(2, seed=3)
        base = flat_base(2)
        x = np.array([0.4, -0.2])
        pt = extrinsic_point(field, base, x)
        jet = metric_jet(base, x)
        frame = adapted_frame(pt.grad_up, jet.g)
        assert np.allclose(frame.T @ jet.g @ frame, np.eye(2), atol=1e-12)
        first = frame[:, 0]
        direction = pt.grad_up / np.sqrt(pt.grad_up @ jet.g @ pt.grad_up)
        assert np.allclose(first, direction, atol=1e-12)


class TestMinorRelationRandom:
    def test_residual_small_over_seeded_fields(self):
        base = flat_base(2)
        worst = 0.0
        checked = 0
        for seed in range(8):
            field = random_trig_field(2, seed=seed)
            rng = np.random.default_rng(seed + 100)
            for _ in range(12):
                x = rng.uniform(-0.9, 0.9, size=2)
                pt = extrinsic_point(field, base, x)
                if np.linalg.norm(pt.grad) < 1e-3:
                    continue
                frame = slice_frame_of_point(pt, eps=pt.u)
                worst = max(worst, minor_relation_residual(frame, pt))
                checked += 1
        assert checked > 50
        assert worst <= 1e-8

    def test_three_dimensional_minor(self):
        base = flat_base(3)
        field = random_trig_field(3, seed=21)
        x = np.array([0.3, -0.2, 0.4])
        pt = extrinsic_point(field, base, x)
        frame = slice_frame_of_point(pt, eps=pt.u)
        assert minor(frame, pt).shape == (2, 2)
        assert frame.a_sigma.shape == (2, 2)
        assert np.allclose(frame.a_sigma, frame.a_sigma.T)
        assert minor_relation_residual(frame, pt) <= 1e-10

    def test_trace_of_minor_is_projected_slice_trace(self):
        base = flat_base(3)
        field = random_trig_field(3, seed=5)
        x = np.array([0.2, 0.5, -0.3])
        pt = extrinsic_point(field, base, x)
        frame = slice_frame_of_point(pt, eps=pt.u)
        assert np.trace(minor(frame, pt)) == pytest.approx(
            frame.cos_angle * frame.h_sigma, abs=1e-12
        )


class TestIsometryInvariance:
    def test_rotation_preserves_invariants(self):
        base = flat_base(2)
        field = random_trig_field(2, seed=10)
        theta = 0.6
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        rot = TrigField(field.amps, field.freqs @ q, field.phases, field.domain)  # u(q x)
        x = np.array([0.3, -0.4])
        pt_rot = extrinsic_point(rot, base, x)
        pt_ref = extrinsic_point(field, base, q @ x)
        assert pt_rot.mean_curvature == pytest.approx(pt_ref.mean_curvature, abs=1e-12)
        assert pt_rot.norm_a2 == pytest.approx(pt_ref.norm_a2, abs=1e-12)
        assert pt_rot.scalar_curvature == pytest.approx(
            pt_ref.scalar_curvature, abs=1e-12
        )
        assert np.allclose(
            np.sort(pt_rot.principal), np.sort(pt_ref.principal), atol=1e-12
        )


class TestCurvedBase:
    def test_round_base_changes_scalar(self):
        base = round_sphere_base(2)
        pt = extrinsic_point(Paraboloid(2), base, np.array([0.5, 0.2]))
        flat_pt = extrinsic_point(Paraboloid(2), flat_base(2), np.array([0.5, 0.2]))
        # base scalar curvature 2 enters the Gauss identity
        assert pt.scalar_curvature != pytest.approx(flat_pt.scalar_curvature)
        assert np.isfinite(pt.mean_curvature)

    def test_slice_on_round_base(self):
        base = round_sphere_base(2)
        field = random_trig_field(2, seed=7)
        x = np.array([0.4, 0.1])
        pt = extrinsic_point(field, base, x)
        frame = slice_frame_of_point(pt, eps=pt.u)
        assert minor_relation_residual(frame, pt) <= 1e-9


class TestScalarCurvatureOracle:
    def test_gauss_identity_against_intrinsic_fd(self):
        base = flat_base(2)
        for seed in (0, 4):
            field = random_trig_field(2, seed=seed)
            rng = np.random.default_rng(seed)
            for _ in range(3):
                x = rng.uniform(-0.7, 0.7, size=2)
                r_m = extrinsic_point(field, base, x).scalar_curvature
                assert abs(r_m - intrinsic_scalar_curvature(field, base, x)) <= 1e-4

    def test_intrinsic_route_on_paraboloid(self):
        base = flat_base(2)
        x = np.array([0.8, -0.1])
        pt = extrinsic_point(Paraboloid(2), base, x)
        intr = intrinsic_scalar_curvature(Paraboloid(2), base, x)
        assert intr == pytest.approx(pt.scalar_curvature, abs=1e-6)

    def test_undefined_stencil_point_raises_the_fields_error(self):
        # the stencil of step 1e-3 at |x| = 0.5015 reaches |x| = 0.4995, below the S-u profile's 0.5
        field = radial_field(RevolutionProfile("S-u", 0.5))
        x = np.array([0.5015, 0.0])
        with pytest.raises(OutOfDomainError) as pointwise:
            field.gradient(x - np.array([2e-3, 0.0]))
        with pytest.raises(OutOfDomainError) as err:
            intrinsic_scalar_curvature(field, flat_base(2), x)
        assert str(err.value) == str(pointwise.value)


class TestSampledSliceShape:
    def test_matches_analytic_frame_second_order(self):
        field = Paraboloid(2)
        pt = extrinsic_point(field, flat_base(2), np.array([1.0, 0.0]))
        frame = slice_frame_of_point(pt, eps=0.5)
        steps = np.array([4e-3, 2e-3, 1e-3])
        errs = []
        for h in steps:
            sampled = slice_shape_sampled(field, 0.5, np.array([1.0, 0.0]), step=h)
            errs.append(maxabs(sampled - frame.a_sigma))
        assert errs[-1] <= 1e-5
        slopes = np.log(np.divide(errs[:-1], errs[1:])) / np.log(steps[:-1] / steps[1:])
        assert np.min(slopes) > 1.7

    def test_matches_on_trig_field(self):
        field = random_trig_field(2, seed=13)
        x = np.array([0.5, 0.1])
        pt = extrinsic_point(field, flat_base(2), x)
        frame = slice_frame_of_point(pt, eps=pt.u)
        sampled = slice_shape_sampled(field, pt.u, x, step=1e-3)
        assert maxabs(sampled - frame.a_sigma) <= 1e-4

    @pytest.mark.parametrize("dim", [2, 3])
    def test_roots_are_scipys(self, dim):
        """The point-by-point `brentq` that graphgeom falls back to on a NaN
        corridor gives scipy's brentq root on the central trig corridor, bit
        for bit, and so does the one-lane brentq_lanes solve."""
        from scipy.optimize import brentq

        field = random_trig_field(dim, seed=13)
        x = np.full(dim, 0.3)
        eps = field.value(x) + 1e-4  # off the level, so the corridor is not centred on a root
        grad = field.gradient(x)
        m = grad / np.linalg.norm(grad)
        span = 10.0 * 1e-3 + 10.0 * 1e-4 / np.linalg.norm(grad)

        def one(t):
            return field.value(x + t * m) - eps

        want = brentq(one, -span, span, xtol=1e-12)
        assert graphgeom.brentq(one, -span, span, xtol=1e-12) == want
        lane = graphgeom.brentq_lanes(lambda t, k: field.values(x + t[:, None] * m) - eps, [-span], [span], xtol=1e-12)
        assert lane[0] == want

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_each_corridor_root_is_scipys(self, monkeypatch, dim):
        """All corridors solved in one brentq_lanes call give the operator
        of one scipy brentq per corridor on the point values, bit for bit.
        No trig corridor meets NaN, so the point-by-point fallback `brentq`
        is never reached; patching it to fail says so."""
        from scipy.optimize import brentq

        def unreached(*args, **kwargs):
            raise AssertionError("a trig corridor fell back to the point-by-point brentq")

        monkeypatch.setattr(graphgeom, "brentq", unreached)

        def scipy_lanes(f, a, b, xtol):
            def one(t, k):
                return float(f(np.array([t]), np.array([k]))[0])

            return np.array([brentq(one, a[k], b[k], xtol=xtol, args=(k,)) for k in range(len(a))])

        field = random_trig_field(dim, seed=13)
        x = np.full(dim, 0.3)
        eps = field.value(x) + 1e-4  # off the level, so the corridor is not centred on a root
        got = slice_shape_sampled(field, eps, x)
        monkeypatch.setattr(graphgeom, "brentq_lanes", scipy_lanes)
        assert np.array_equal(got, slice_shape_sampled(field, eps, x))

    def test_corridor_errors(self):
        with pytest.raises(ValueError, match="level set left the sampling corridor"):
            slice_shape_sampled(QuadraticCup([2.0, 0.0]), -1.0, np.array([0.5, 0.0]))
        # the corridor runs past the rim, where the cap is undefined
        with pytest.raises(OutOfDomainError, match=r"outside domain of spherecap\(radius=1\.0"):
            slice_shape_sampled(SphereCap(2, 1.0), 0.3, np.array([0.99, 0.0]))


class TestFiniteDifferenceMode:
    def test_fd_point_matches_analytic(self):
        field = random_trig_field(2, seed=17)
        fd = FiniteDifferenceField(field, 2, step=1e-4)
        base = flat_base(2)
        x = np.array([0.2, 0.6])
        pa = extrinsic_point(field, base, x)
        pf = extrinsic_point(fd, base, x)
        assert pf.mean_curvature == pytest.approx(pa.mean_curvature, abs=1e-6)
        assert pf.norm_a2 == pytest.approx(pa.norm_a2, abs=1e-6)

    def test_mixed_mode_minor_residual(self):
        field = random_trig_field(2, seed=19)
        base = flat_base(2)
        x = np.array([0.4, -0.3])
        pt = extrinsic_point(field, base, x)
        frame = slice_frame_of_point(pt, eps=pt.u)
        fd_pt = extrinsic_point(FiniteDifferenceField(field, 2, step=1e-3), base, x)
        res = minor_relation_residual(frame, fd_pt)
        assert 0.0 < res <= 1e-4
