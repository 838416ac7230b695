"""Tests for the cone-barrier slide, its touch certificates, and bounds."""

import numpy as np
import pytest

from curv import barrier
from curv.barrier import (
    TOUCH_TOL,
    BarrierRun,
    _newton_cell,
    _newton_refine_ratio,
    _radial_polish,
    comparison_bounds,
    gradient_bound_margin,
    ring_mean_curvature,
    ring_mean_curvature_via_slices,
    sample_annulus,
    slide,
)
from curv.errors import NoTouchError, NonFiniteJetError, OutOfDomainError
from curv.fieldspec import parse_field
from curv.fields import (
    Ball,
    Constant,
    NegatedField,
    RadialField,
    ScaledField,
    random_trig_field,
    whole_space,
)
from curv.revolution import RevolutionProfile, radial_field

from kernels import enveloped_field

BISECT_TOL = 1e-10


def bump_field(a=0.3):
    """u(r) = (r - a)(1 - r)^2: one interior ridge of u/(1-|x|) at (1+2a)/3."""

    def jet(r, order):
        w = 1.0 - r
        return (r - a) * w * w, w * w - 2.0 * (r - a) * w, -4.0 * w + 2.0 * (r - a)

    return RadialField(2, jet, Ball(2, 1.5), name="bump")


def scan_oracle(field, inner, outer, samples=200001):
    """Fine 1-D scan of u/(1-r): an independent certificate for lambda_star.
    It reads only the field's values, in one call on the stack of its radii."""
    radii = np.linspace(inner, outer, samples)
    vals = field.values(np.column_stack([radii, np.zeros_like(radii)]))
    return float(np.max(vals / (1.0 - radii)))


class TestRing:
    def test_exact_values(self):
        assert ring_mean_curvature(1.0, 0.0, 2) == 0.0
        assert ring_mean_curvature(0.5, 0.0, 2) == pytest.approx(0.75)
        assert ring_mean_curvature(0.5, 0.5, 3) == pytest.approx(2.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            ring_mean_curvature(0.0, 0.0, 2)
        with pytest.raises(ValueError):
            ring_mean_curvature(-0.5, 0.0, 2)

    @pytest.mark.parametrize(
        "radius,eps,dim",
        [(0.5, 0.0, 2), (0.5, 0.5, 3), (0.8, 0.3, 2), (0.3, -0.2, 4), (0.9, 0.1, 3)],
    )
    def test_pipeline_cross_check(self, radius, eps, dim):
        direct = ring_mean_curvature(radius, eps, dim)
        routed = ring_mean_curvature_via_slices(radius, eps, dim)
        assert abs(direct - routed) <= 1e-8


class TestSampling:
    def test_annulus_grid_shape_and_range(self):
        pts = sample_annulus(2, 0.3, 0.9, radial=16, angular=8)
        assert pts.shape == (16 * 8, 2)
        norms = np.linalg.norm(pts, axis=1)
        assert norms.min() == pytest.approx(0.3, abs=1e-12)
        assert norms.max() == pytest.approx(0.9, abs=1e-12)

    def test_deterministic(self):
        a = sample_annulus(3, 0.2, 0.8, radial=8, angular=16, seed=4)
        b = sample_annulus(3, 0.2, 0.8, radial=8, angular=16, seed=4)
        assert np.array_equal(a, b)


class TestSlideInterior:
    def run(self, scale=1.0):
        field = bump_field()
        if scale != 1.0:
            field = ScaledField(field, scale)
        return slide(field, (0.3, 1.0), a_prime=0.35, radial=256, angular=32)

    def test_touches_at_interior_ridge(self):
        run = self.run()
        # analytic maximum of (r - 0.3)(1 - r) over the annulus
        assert run.lam_star == pytest.approx(0.1225, abs=1e-10)
        assert np.linalg.norm(run.x0) == pytest.approx(0.65, abs=1e-6)
        assert run.interior_touch
        assert not run.boundary_touch
        assert not run.degenerate
        assert run.successful

    def test_oracle_scan_agrees(self):
        run = self.run()
        oracle = scan_oracle(bump_field(), 0.35, run.r_out)
        assert run.lam_star == pytest.approx(oracle, abs=1e-8)

    def test_touch_certificate(self):
        run = self.run()
        assert run.lam_star * (1.0 - np.linalg.norm(run.x0)) == pytest.approx(run.u0, abs=1e-12)
        assert run.touch_gap <= 1e-8

    def test_gradient_bound_at_touch(self):
        run = self.run()
        assert gradient_bound_margin(run) >= -1e-6

    def test_scaling_equivariance(self):
        base = self.run()
        half = self.run(scale=0.5)
        quarter = self.run(scale=0.25)
        assert half.lam_star == pytest.approx(0.5 * base.lam_star, abs=1e-10)
        assert quarter.lam_star == pytest.approx(0.25 * base.lam_star, abs=1e-10)

    def test_comparison_bounds_ordering(self):
        run = self.run()
        bounds = comparison_bounds(run)
        assert bounds.upper == pytest.approx(0.35, abs=1e-6)
        assert bounds.cap == pytest.approx(0.35, abs=1e-6)
        assert bounds.lower == pytest.approx(
            ring_mean_curvature(0.65, run.u0, 2), abs=1e-6
        )
        assert bounds.upper_le_cap
        assert bounds.cap_lt_lower
        assert not bounds.ordering_skipped


class TestSlideEdgeCases:
    def test_zero_field_is_degenerate(self):
        run = slide(Constant(2, 0.0), (0.3, 1.0), 0.35, radial=64, angular=16)
        assert run.degenerate
        assert run.lam_star == 0.0
        assert not run.successful

    @pytest.mark.parametrize("a, a_prime", [(-0.5, -0.425), (-1.0, 0.0), (0.3, 0.3), (0.3, 1.0)])
    def test_annulus_needs_zero_to_a_to_a_prime_to_outer(self, a, a_prime):
        # a negative inner radius would sample rings of negative radius, mirrored through the origin
        with pytest.raises(ValueError, match=rf"^need 0 <= a < a_prime < outer, got {a}, {a_prime}, 1\.0$"):
            slide(Constant(2, 1.0), (a, 1.0), a_prime, radial=16, angular=8)
        assert slide(Constant(2, 1.0), (0.0, 1.0), 0.05, radial=16, angular=8).a_prime == 0.05

    def test_negative_field_never_touches(self):
        with pytest.raises(NoTouchError):
            slide(Constant(2, -1.0), (0.3, 1.0), 0.35, radial=64, angular=16)

    def test_negated_branch_touches_at_rim(self):
        field = NegatedField(Constant(2, -1.0))
        run = slide(field, (0.3, 1.0), 0.35, radial=64, angular=16)
        assert run.boundary_touch
        assert not run.successful
        assert run.lam_star > 1.0

    def test_samples_outside_the_domain_raise(self):
        field = radial_field(RevolutionProfile("S-u", 0.5))
        # the first sample in scan order is the one reported
        with pytest.raises(OutOfDomainError, match=r"^point \[0\.335, 0\.0\] outside domain of revolution-S-u$"):
            slide(field, (0.3, 1.0), 0.335, radial=64, angular=16)

    def test_non_finite_samples_raise(self):
        # the profile is NaN or inf beyond r = 0.8: the scan must not go silent;
        # a NaN value is undefined, and its point raises
        for beyond, error in [(np.nan, OutOfDomainError), (np.inf, NonFiniteJetError)]:
            profile = lambda r, order, beyond=beyond: (np.where(r < 0.8, 1.0 - r * r, beyond), -2.0 * r, -2.0)
            field = RadialField(2, profile, whole_space(2))
            with pytest.raises(error):
                slide(field, (0.3, 1.0), 0.35, radial=64, angular=16)

    def test_outer_ring_touch_is_not_polished(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("an outer-ring touch was polished")

        monkeypatch.setattr(barrier, "_newton_refine_ratio", unreachable)
        monkeypatch.setattr(barrier, "_radial_polish", unreachable)
        field = random_trig_field(2, seed=1)
        run = slide(field, (0.5, 1.0), 0.525, radial=128, angular=32)
        # the grid point on the outer ring, as the samples give it
        assert run.boundary_touch
        assert np.linalg.norm(run.x0) == pytest.approx(run.r_out, abs=1e-15)
        assert run.lam_star == pytest.approx(run.u0 / (1.0 - np.linalg.norm(run.x0)), rel=1e-14)
        assert run.u0 == field.value(np.array(run.x0))

    def test_profile_graph_touches_at_boundary(self):
        field = radial_field(RevolutionProfile("S-u", 0.5))
        run = slide(field, (0.5, 1.0), 0.55, radial=512, angular=32)
        assert run.lam_star > 0.0
        assert run.boundary_touch
        assert not run.successful
        bounds = comparison_bounds(run)
        assert bounds.ordering_skipped


#: the bump (1 - |x|^2)^2 (0.3 + 0.5 x - 0.2 y), which vanishes to second order on the rim, so the slide
#: touches inside; a_prime is the CLI default at --a 0.3
POLY_BUMP = "poly:0.3,0.5,-0.2,-0.6,0,-0.6,-1,0.4,-1,0.4,0.3,0,0.6,0,0.3,0.5,-0.2,1,-0.4,0.5,-0.2"
POLY_A_PRIME = 0.3 + 0.05 * (1.0 - 0.3)


def spy(monkeypatch, name):
    """Record what barrier.<name> returns on each call, and keep it working."""
    results, func = [], getattr(barrier, name)

    def recorded(*args, **kwargs):
        results.append(func(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(barrier, name, recorded)
    return results


class TestPolish:
    """The two polishes of an interior touch: Newton on the touching ratio
    where its steps stay in their cell, else one Brent lane on the ray.
    Either touch certifies |D_r u| >= lambda_star to rounding."""

    def poly_run(self, radial, angular):
        return slide(parse_field(POLY_BUMP, 2), (0.3, 1.0), POLY_A_PRIME, radial=radial, angular=angular)

    @pytest.mark.parametrize("radial, lam_star, margin", [
        (128, 0.6445897676493282, 0.0),
        (512, 0.6445897676493281, -1.1102230246251565e-16),
    ])
    def test_newton_converges(self, monkeypatch, radial, lam_star, margin):
        newton = spy(monkeypatch, "_newton_refine_ratio")
        polish = spy(monkeypatch, "_radial_polish")
        run = self.poly_run(radial, 128)
        assert len(newton) == 1 and newton[0] is not None and not polish
        assert run.successful and not run.boundary_touch
        assert run.x0 == tuple(newton[0])
        assert run.lam_star == lam_star and gradient_bound_margin(run) == margin

    @pytest.mark.parametrize("angular", [16, 32, 64])
    def test_newton_cell_covers_the_angular_spacing(self, monkeypatch, angular):
        """On coarse rings the touch lies between rays; Newton's cell reaches
        it, and lambda_star is the finer grids' to 2 ulps."""
        newton = spy(monkeypatch, "_newton_refine_ratio")
        polish = spy(monkeypatch, "_radial_polish")
        run = self.poly_run(128, angular)
        assert len(newton) == 1 and newton[0] is not None and not polish
        assert run.successful and run.x0 == tuple(newton[0])
        assert abs(run.lam_star - 0.6445897676493282) <= 2 * np.spacing(0.6445897676493282)

    def test_radial_polish_certifies(self, monkeypatch):
        # on the bump's ridge of q the Hessian is singular, Newton gives up and the Brent lane polishes the touch
        newton = spy(monkeypatch, "_newton_refine_ratio")
        polish = spy(monkeypatch, "_radial_polish")
        run = TestSlideInterior().run()
        assert newton == [None] and len(polish) == 1
        assert run.successful and run.x0 == tuple(polish[0])
        assert gradient_bound_margin(run) >= -1e-15
        assert run.lam_star == 0.1225

    def test_radial_polish_is_the_ratio_maximum(self):
        """On the bump, q = (r - 0.3)(1 - r) peaks at r = 0.65; a bracket on
        one side of the peak returns the point it was given."""
        field, x = bump_field(), np.array([0.36, 0.48])  # |x| = 0.6 on the ray (0.6, 0.8)
        got = _radial_polish(field, x, 0.6, 0.7)
        assert np.linalg.norm(got) == pytest.approx(0.65, abs=1e-12)
        assert got / np.linalg.norm(got) == pytest.approx([0.6, 0.8], abs=1e-15)
        for lo, hi in [(0.4, 0.6), (0.7, 0.8)]:
            assert _radial_polish(field, x, lo, hi) is x


class TestSlideBattery:
    def test_random_fields_respect_certificates(self):
        successful = 0
        for seed in range(10):
            field = enveloped_field(seed)
            try:
                run = slide(field, (0.3, 1.0), 0.35, radial=128, angular=24, seed=seed)
            except NoTouchError:
                run = slide(
                    NegatedField(field), (0.3, 1.0), 0.35, radial=128, angular=24, seed=seed
                )
            assert run.touch_gap <= 1e-8
            assert run.lam_star * (1.0 - np.linalg.norm(run.x0)) == pytest.approx(run.u0, abs=1e-10)
            if run.successful:
                successful += 1
                assert gradient_bound_margin(run) >= -1e-6
        assert successful >= 6

    def test_reported_numbers_are_pointwise(self):
        # the batched trig kernel moves the last bits; u0 and touch_gap must not move
        field = random_trig_field(2, seed=1)
        run = slide(field, (0.5, 1.0), 0.525, radial=128, angular=128)
        pts = sample_annulus(2, 0.525, run.r_out, radial=128, angular=128)
        slack = 1.0 - np.linalg.norm(pts, axis=1)
        assert run.u0 == field.value(np.asarray(run.x0))
        assert run.touch_gap == max(field.value(p) - run.lam_star * s for p, s in zip(pts, slack))

    def test_run_deterministic(self):
        field = random_trig_field(2, seed=3)
        a = slide(field, (0.3, 1.0), 0.35, radial=96, angular=16, seed=3)
        b = slide(field, (0.3, 1.0), 0.35, radial=96, angular=16, seed=3)
        assert a.lam_star == b.lam_star
        assert np.array_equal(a.x0, b.x0)


class TestComparisonBounds:
    def test_designated_pair(self):
        # |x0| = 0.5, eps = 0, n = 2: cap bound 0.5 strictly below ring 0.75
        run = BarrierRun(
            dim=2,
            annulus=(0.3, 1.0),
            a_prime=0.35,
            r_out=0.99,
            lam_star=0.0,
            x0=np.array([0.5, 0.0]),
            u0=0.0,
            grad_norm=1.0,
            radial_derivative=-0.5,
            touch_gap=0.0,
            interior_touch=True,
            boundary_touch=False,
            degenerate=False,
            radial=64,
            angular=16,
            seed=0,
        )
        bounds = comparison_bounds(run)
        assert bounds.upper == 0.0
        assert bounds.cap == pytest.approx(0.5)
        assert bounds.lower == pytest.approx(0.75)
        assert bounds.cap_lt_lower
        assert bounds.upper_le_cap
        assert not bounds.ordering_skipped


def bisection_slide(field, annulus, a_prime, lam_max, radial=512, angular=128, seed=0,
                    touch_tol=TOUCH_TOL):
    """The slide as it was before the closed form: lambda_star bracketed by
    bisection from lam_max down to BISECT_TOL, over every sample."""
    a, outer = float(annulus[0]), float(annulus[1])
    r_out = outer - (outer - a_prime) / radial
    pts = sample_annulus(field.dim, a_prime, r_out, radial=radial, angular=angular, seed=seed)
    vals = field.values(pts)
    norms = np.linalg.norm(pts, axis=1)
    umax = float(vals.max())

    if umax < -touch_tol:
        raise NoTouchError(f"field is below {-touch_tol} everywhere on the sampled annulus")

    if umax <= touch_tol:
        i = int(vals.argmax())
        x0 = pts[i]
        u0 = float(vals[i])
        du = field.gradient(x0)
        return BarrierRun(
            dim=field.dim, annulus=(a, outer), a_prime=a_prime, r_out=r_out,
            lam_star=0.0, x0=tuple(float(v) for v in x0),
            u0=u0, grad_norm=float(np.linalg.norm(du)),
            radial_derivative=float(du @ (x0 / norms[i])),
            touch_gap=u0, interior_touch=False, boundary_touch=False,
            degenerate=True, radial=radial, angular=angular, seed=seed,
        )

    slack = 1.0 - norms  # positive on the sampled range

    def excess(lam: float) -> float:
        return float((vals - lam * slack).max())

    if excess(lam_max) > 0.0:
        raise ValueError(
            f"lam_max = {lam_max} does not dominate the field on the sampled annulus"
        )
    lo, hi = 0.0, float(lam_max)
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    lam_grid = hi
    i0 = int((vals - lam_grid * slack).argmax())
    x_grid = pts[i0]

    spacing = (r_out - a_prime) / max(radial - 1, 1)
    on_rim = norms[i0] >= r_out - 0.5 * spacing
    x0 = None
    if not on_rim:
        x0 = _newton_refine_ratio(field, x_grid, a_prime, r_out,
                                  cell=_newton_cell(field.dim, angular, seed, spacing, float(norms[i0])))
    if x0 is None:
        lo_r = max(a_prime, norms[i0] - spacing)
        hi_r = min(r_out, norms[i0] + spacing)
        x0 = _radial_polish(field, x_grid, lo_r, hi_r)

    r0 = float(np.linalg.norm(x0))
    jet = field.jet(x0)
    u0, du = float(jet.value), jet.gradient
    lam_star = u0 / (1.0 - r0)
    if lam_star < lam_grid:  # polish must not lose the grid certificate
        x0, r0, u0, lam_star = x_grid, float(norms[i0]), float(vals[i0]), lam_grid
        du = field.gradient(x0)
    j = int((vals - lam_star * slack).argmax())
    boundary = r0 >= r_out - 1.5 * spacing
    return BarrierRun(
        dim=field.dim, annulus=(a, outer), a_prime=a_prime, r_out=r_out,
        lam_star=float(lam_star), x0=tuple(float(v) for v in x0),
        u0=u0, grad_norm=float(np.linalg.norm(du)),
        radial_derivative=float(du @ (x0 / r0)),
        touch_gap=float(vals[j] - lam_star * slack[j]),
        interior_touch=not boundary, boundary_touch=boundary,
        degenerate=False, radial=radial, angular=angular, seed=seed,
    )


class TestClosedFormAgainstBisection:
    """lambda_star = max u/(1 - |x|) over the samples against the bisection
    it replaced: lambda_star within the bisection's bracket, every other
    field but touch_gap equal."""

    SPECS = (
        [(f"trig:{s}", n, neg) for s in range(4) for n in (2, 3) for neg in (False, True)]
        + [("radial:S-u:0.5", 2, False), ("radial:S-v:0.5", 2, False), ("sphere-cap:1.5,0.2", 2, False)]
    )

    @pytest.mark.parametrize("spec, dim, negate", SPECS)
    def test_matches_the_bisection(self, spec, dim, negate):
        field = parse_field(spec, dim)
        if negate:
            field = NegatedField(field)
        try:
            ref = bisection_slide(field, (0.5, 1.0), 0.525, 1e4)
        except NoTouchError:
            with pytest.raises(NoTouchError):
                slide(field, (0.5, 1.0), 0.525)
            return
        run = slide(field, (0.5, 1.0), 0.525)
        assert abs(run.lam_star - ref.lam_star) <= BISECT_TOL
        assert ref.touch_gap <= TOUCH_TOL and run.touch_gap <= TOUCH_TOL
        others = set(vars(run)) - {"lam_star", "touch_gap"}
        assert {k: getattr(run, k) for k in others} == {k: getattr(ref, k) for k in others}

    def test_degenerate_run_matches(self):
        field = Constant(2, 1e-9)
        assert slide(field, (0.5, 1.0), 0.525) == bisection_slide(field, (0.5, 1.0), 0.525, 1e4)
