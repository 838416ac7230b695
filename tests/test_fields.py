"""Tests for scalar fields: analytic jets, FD jets, grids, and the parser."""

import itertools
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curv.barrier import slide
from curv.errors import NonFiniteJetError, OutOfDomainError
from curv.fields import (
    Annulus,
    Ball,
    Box,
    Constant,
    FiniteDifferenceField,
    GridField,
    Jet,
    NegatedField,
    Paraboloid,
    Plane,
    PolynomialField,
    QuadraticCup,
    RadialField,
    ScalarField,
    SphereCap,
    TrigField,
    eval_jet,
    eval_jets,
    random_trig_family,
    random_trig_field,
    sample_to_grid,
    whole_space,
)
import curv.fields
from curv.fieldspec import graded_lex_monomials, parse_field
from curv.graphgeom import flat_base, intrinsic_scalar_curvature
from curv.inequality import pick_levels
from curv import revolution
from curv.revolution import RevolutionProfile, radial_field

from kernels import ScaledField, ValuesKernel, cap_without_domain, write_grid


def fd_gradient(field, x, h=1e-5):
    dim = len(x)
    g = np.zeros(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        g[i] = (field.value(x + e) - field.value(x - e)) / (2 * h)
    return g


def fd_hessian(field, x, h=1e-4):
    dim = len(x)
    out = np.zeros((dim, dim))
    f0 = field.value(x)
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = h
        out[i, i] = (field.value(x + ei) - 2 * f0 + field.value(x - ei)) / h**2
        for j in range(i + 1, dim):
            ej = np.zeros(dim)
            ej[j] = h
            out[i, j] = out[j, i] = (
                field.value(x + ei + ej)
                - field.value(x + ei - ej)
                - field.value(x - ei + ej)
                + field.value(x - ei - ej)
            ) / (4 * h**2)
    return out


ANALYTIC_CASES = [
    (Paraboloid(2), np.array([0.4, -0.7])),
    (Paraboloid(3, scale=0.5), np.array([0.2, 0.1, -0.3])),
    (QuadraticCup([1.0, 4.0, 9.0]), np.array([0.3, -0.2, 0.1])),
    (Plane([0.5, -0.25]), np.array([1.3, 2.0])),
    (SphereCap(2, 1.0), np.array([0.3, 0.4])),
    (SphereCap(3, 2.0, height=0.5), np.array([0.5, -0.4, 0.8])),
    (PolynomialField(2, [(1.0, (2, 1)), (-0.5, (0, 3))]), np.array([0.7, -0.4])),
    (random_trig_field(2, seed=4), np.array([0.3, 0.9])),
    (random_trig_field(3, seed=9), np.array([-0.4, 0.2, 0.6])),
]


class TestAnalyticJets:
    @pytest.mark.parametrize("field,x", ANALYTIC_CASES, ids=lambda v: getattr(v, "name", ""))
    def test_gradient_matches_fd(self, field, x):
        assert np.allclose(field.gradient(x), fd_gradient(field, x), atol=1e-7)

    @pytest.mark.parametrize("field,x", ANALYTIC_CASES, ids=lambda v: getattr(v, "name", ""))
    def test_hessian_matches_fd(self, field, x):
        h = field.hessian(x)
        assert np.allclose(h, h.T)
        assert np.allclose(h, fd_hessian(field, x), atol=1e-5)

    def test_jet_consistency(self):
        f = Paraboloid(2)
        x = np.array([0.3, -0.5])
        jet = f.jet(x)
        assert jet.value == f.value(x)
        assert np.array_equal(jet.gradient, f.gradient(x))
        assert np.array_equal(jet.hessian, f.hessian(x))

    def test_paraboloid_closed_form(self):
        f = Paraboloid(2, scale=2.0)
        x = np.array([1.0, 2.0])
        assert f.value(x) == 5.0
        assert np.array_equal(f.gradient(x), 2.0 * x)
        assert np.array_equal(f.hessian(x), 2.0 * np.eye(2))

    def test_plane_constant_hessian(self):
        f = Plane([0.5, -0.25])
        x = np.array([3.0, -1.0])
        assert f.value(x) == pytest.approx(0.5 * 3.0 - 0.25 * -1.0)
        assert np.array_equal(f.hessian(x), np.zeros((2, 2)))

    def test_constant_field(self):
        f = Constant(3, 2.5)
        x = np.zeros(3)
        assert f.value(x) == 2.5
        assert np.array_equal(f.gradient(x), np.zeros(3))


class TestDomains:
    def test_ball_contains(self):
        b = Ball(2, 1.0)
        assert b.contains(np.array([0.5, 0.5]))
        assert not b.contains(np.array([0.8, 0.8]))
        assert not b.contains(np.array([0.69, 0.69]), margin=0.05)

    def test_annulus_contains(self):
        a = Annulus(2, 0.5, 1.0)
        assert a.contains(np.array([0.7, 0.0]))
        assert not a.contains(np.array([0.3, 0.0]))
        assert not a.contains(np.array([1.1, 0.0]))

    def test_box_contains(self):
        b = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        assert b.contains(np.array([0.0, 1.0]))
        assert not b.contains(np.array([0.0, 2.5]))

    def test_ray_extent(self):
        b = Ball(2, 2.0)
        d = np.array([1.0, 0.0])
        assert b.ray_extent(np.zeros(2), d) == pytest.approx(2.0)
        ann = Annulus(2, 0.5, 1.5)
        assert ann.ray_extent(np.zeros(2), d) == pytest.approx(1.5)

    def test_out_of_domain_raises(self):
        cap = SphereCap(2, 1.0)
        with pytest.raises(OutOfDomainError):
            cap.value(np.array([1.2, 0.0]))
        with pytest.raises(OutOfDomainError):
            cap.jet(np.array([0.9, 0.9]))

    def test_rim_margin_excludes_boundary(self, monkeypatch):
        monkeypatch.setattr(curv.fields, "CAP_RIM_MARGIN", 1e-2)
        cap = SphereCap(2, 1.0)
        with pytest.raises(OutOfDomainError):
            eval_jet(cap, np.array([0.995, 0.0]))

    def test_non_finite_jet_raises(self):
        bad = RadialField(2, lambda r, order: (np.full(np.shape(r), np.inf), 0.0, 0.0), Ball(2, 1.0))
        with pytest.raises(NonFiniteJetError):
            eval_jet(bad, np.array([0.5, 0.0]))

    def test_profile_of_the_wrong_shape_raises(self):
        """A profile whose p is not of the radii's shape fails by name, on
        the stack and at a point, never returning its scalar."""
        bad = RadialField(2, lambda r, order: (0.5, 0.0, 0.0), Ball(2, 1.0), name="flat")
        x = np.array([0.5, 0.0])
        with pytest.raises(ValueError, match=r"^profile of flat gave p of shape \(\) for radii of shape \(3,\)$"):
            bad.values(np.stack([x, x, x]))
        for method in (bad.value, bad.jet, lambda x: eval_jet(bad, x)):
            with pytest.raises(ValueError, match=r"^profile of flat gave p of shape \(\) for radii of shape \(1,\)$"):
                method(x)


class TestWrappers:
    def test_negated_and_scaled(self):
        base = Paraboloid(2)
        x = np.array([0.5, 0.5])
        assert NegatedField(base).value(x) == -base.value(x)
        assert ScaledField(base, 0.25).value(x) == 0.25 * base.value(x)
        assert np.array_equal(NegatedField(base).hessian(x), -base.hessian(x))

    def test_radial_field_profile(self):
        prof = lambda r, order: (r**2, 2.0 * r, 2.0)
        f = RadialField(2, prof, Ball(2, 2.0))
        x = np.array([0.6, 0.8])
        assert f.value(x) == pytest.approx(1.0)
        assert np.allclose(f.gradient(x), 2.0 * x)
        assert np.allclose(f.hessian(x), 2.0 * np.eye(2), atol=1e-12)

    def test_radial_field_origin_limit(self):
        prof = lambda r, order: (r**2, 2.0 * r, 2.0)
        f = RadialField(2, prof, Ball(2, 2.0))
        assert np.allclose(f.hessian(np.zeros(2)), 2.0 * np.eye(2), atol=1e-9)


class TestFiniteDifference:
    def test_wraps_scalar_field(self):
        base = random_trig_field(2, seed=6)
        fd = FiniteDifferenceField(base, 2, step=1e-4)
        x = np.array([0.2, -0.3])
        assert fd.value(x) == base.value(x)
        assert np.allclose(fd.gradient(x), base.gradient(x), atol=1e-7)
        assert np.allclose(fd.hessian(x), base.hessian(x), atol=1e-5)

    def test_second_order_convergence(self):
        base = random_trig_field(2, seed=8)
        x = np.array([0.4, 0.1])
        steps = np.array([4e-3, 2e-3, 1e-3])
        errs = []
        for h in steps:
            fd = FiniteDifferenceField(base, 2, step=h)
            errs.append(
                max(
                    float(np.max(np.abs(fd.gradient(x) - base.gradient(x)))),
                    float(np.max(np.abs(fd.hessian(x) - base.hessian(x)))),
                )
            )
        slopes = np.log(np.divide(errs[:-1], errs[1:])) / np.log(steps[:-1] / steps[1:])
        assert np.min(slopes) > 1.7


def reference_fd_jet(func, x, step=None):
    """The per-point central stencil, one `func` call per stencil point, as
    FiniteDifferenceField computed it before its jets were one array
    program: the bit-for-bit reference for that kernel."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if step is None:
        s = np.maximum(1.0, np.sqrt(np.vecdot(x, x)))
        h1, h2 = float(np.finfo(float).eps) ** (1.0 / 3.0) * s, float(np.finfo(float).eps) ** 0.25 * s
    else:
        h1 = h2 = float(step)
    g = np.zeros(n)
    for k in range(n):
        e = np.zeros(n)
        e[k] = h1
        g[k] = (func(x + e) - func(x - e)) / (2.0 * h1)
    hess = np.zeros((n, n))
    f0 = func(x)
    for k in range(n):
        ek = np.zeros(n)
        ek[k] = h2
        hess[k, k] = (func(x + ek) - 2.0 * f0 + func(x - ek)) / (h2 * h2)
    for k in range(n):
        for l in range(k + 1, n):
            ek = np.zeros(n)
            ek[k] = h2
            el = np.zeros(n)
            el[l] = h2
            v = (func(x + ek + el) - func(x + ek - el) - func(x - ek + el) + func(x - ek - el)) / (4.0 * h2 * h2)
            hess[k, l] = hess[l, k] = v
    return Jet(float(func(x)), g, hess)


def _bits(*arrays):
    """The bytes of float arrays, which tell -0.0 from 0.0 and one NaN from
    another (but not a shape (1,) array from its 0-d element)."""
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def _signed_zero_rows(n, seed):
    """Rows in [-1.2, 1.2]^n, with rows and coordinates at +0.0 and -0.0."""
    X = np.random.default_rng(seed).uniform(-1.2, 1.2, size=(12, n))
    X[0], X[1] = 0.0, -0.0
    X[2, ::2], X[3, 1::2] = -0.0, 0.0
    return X


#: math.atan2 of each pair of entries, as an object array
ATAN2 = np.frompyfunc(math.atan2, 2, 1)


class TestFiniteDifferenceStencil:
    """FD jets from one stencil stack equal the per-point stencil of the
    wrapped field's `value` bit for bit, on a point and on a stack, for a
    field of curv and for kernels that only the tests define."""

    INPUTS = {
        "field": lambda trig: (trig, trig.value),
        # a kernel whose values are a field's bound method
        "bound-method": lambda trig: (ValuesKernel(trig.values, trig.dim), trig.value),
        # atan2(+-0.0, negative) is +-pi: the stencil must keep each zero's sign as x +- e did
        # (np.arctan2 of an array rounds otherwise than math.atan2, so the kernel maps math.atan2)
        "callable": lambda trig: (
            ValuesKernel(lambda X: ATAN2(X[..., -1], X[..., 0] - 2.0).astype(float) - trig.values(X), trig.dim),
            lambda x: math.atan2(x[-1], x[0] - 2.0) - trig.value(x),
        ),
    }

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("step", [None, 1e-3, 0.05])
    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_jets_are_the_pointwise_stencil(self, n, step, kind):
        field, ref = self.INPUTS[kind](random_trig_field(n, seed=n))
        fd = FiniteDifferenceField(field, n, step=step)
        X = _signed_zero_rows(n, seed=10 * n)
        want = [reference_fd_jet(ref, x, step) for x in X]
        stack = fd.jets(X)
        for i, (x, j) in enumerate(zip(X, want)):
            ref_bits = _bits(j.value, j.gradient, j.hessian)
            assert _bits(*(a[i] for a in stack)) == ref_bits
            assert _bits(*fd.jets(X[i : i + 1])) == ref_bits  # m = 1
            assert _bits(*fd.jets(x)) == ref_bits
            got = fd.jet(x)
            assert _bits(got.value, got.gradient, got.hessian) == ref_bits and type(got.value) is float
        # leading axes are rows
        for got, flat in zip(fd.jets(X.reshape(3, 4, n)), stack):
            assert _bits(got) == _bits(flat.reshape((3, 4) + flat.shape[1:]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("step", [None, 0.01])
    def test_family_rows_are_the_members(self, n, step):
        members = [random_trig_field(n, seed=s) for s in range(5)]
        family = random_trig_family(n, range(5))
        idx = np.random.default_rng(n).integers(0, len(members), size=9)
        X = _signed_zero_rows(n, seed=n)[:9]
        stack = FiniteDifferenceField(family.rows(idx[:, None]), n, step=step).jets(X)
        for i, (k, x) in enumerate(zip(idx, X)):
            want = _bits(*FiniteDifferenceField(members[k], n, step=step).jets(x))
            assert _bits(*(a[i] for a in stack)) == want

    def test_stencil_past_the_rim_is_a_non_finite_jet(self):
        # the cap is the whole plane's field here, so the domain check passes and the stencil meets the rim
        cap = cap_without_domain()
        fd = FiniteDifferenceField(cap, 2)
        rim = np.array([1.0 - 1e-7, 0.0])
        # the value is defined and the derivatives are not: the jet has NaN where the stencil crossed
        assert fd.value(rim) == cap.value(rim)
        assert np.isnan(fd.jet(rim).gradient).tolist() == [True, False]
        message = f"^non-finite jet of fd\\(spherecap\\(radius=1.0,height=0.0\\)\\) at {re.escape(str(rim.tolist()))}$"
        with pytest.raises(NonFiniteJetError, match=message):
            eval_jet(fd, rim)
        with pytest.raises(NonFiniteJetError, match=message):
            eval_jets(fd, np.array([[0.1, 0.2], rim, [0.3, -0.1]]))
        # values follows the field contract: NaN on a stack, raised at a point, in the FD field's name
        assert np.isnan(fd.values(np.array([[0.1, 0.2], [1.5, 0.0]]))).tolist() == [False, True]
        for method in (fd.value, fd.jet):
            with pytest.raises(OutOfDomainError, match=r"^point \[1\.5, 0\.0\] outside domain of fd\(spherecap"):
                method(np.array([1.5, 0.0]))


class TestGrid:
    def make_grid(self):
        base = Paraboloid(2)
        return sample_to_grid(base, origin=np.array([-1.0, -1.0]), h=0.05, counts=(41, 41))

    def test_interpolation_accuracy(self):
        grid = self.make_grid()
        base = Paraboloid(2)
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = rng.uniform(-0.8, 0.8, size=2)
            # quadratic interpolation reproduces a quadratic exactly
            assert grid.value(x) == pytest.approx(base.value(x), abs=1e-12)
            assert np.allclose(grid.gradient(x), base.gradient(x), atol=1e-10)
            assert np.allclose(grid.hessian(x), base.hessian(x), atol=1e-8)

    def test_roundtrip_bytes(self, tmp_path):
        grid = self.make_grid()
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_grid(grid, p1)
        again = GridField.read(p1)
        write_grid(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        x = np.array([0.3, -0.2])
        assert again.value(x) == grid.value(x)

    def test_domain_margin(self):
        grid = self.make_grid()
        with pytest.raises(OutOfDomainError):
            eval_jet(grid, np.array([1.5, 0.0]))
        # a two-cell safety band inside the box is also rejected
        with pytest.raises(OutOfDomainError):
            eval_jet(grid, np.array([0.99, 0.0]))
        assert np.isfinite(eval_jet(grid, np.array([0.85, 0.0])).value)

    def test_rows_outside_the_box_are_undefined(self):
        """The clamped stencil is not extrapolated past the box: a row
        outside [lo, hi] is NaN, and `value` raises there as other kinds do."""
        grid = sample_to_grid(random_trig_field(2, 5), (-1.5, -1.5), 0.05, (61, 61))
        lo, hi = grid.domain.lo[0], grid.domain.hi[0]
        below, above = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        X = np.array([[5.0, 5.0], [below, 0.0], [0.0, above], [lo, hi], [hi, 0.2], [0.3, -0.4]])
        assert np.isnan(grid.values(X)).tolist() == [True, True, True, False, False, False]
        for part in grid.jets(X):
            assert np.isnan(part[:3]).all() and np.isfinite(part[3:]).all()
        with pytest.raises(OutOfDomainError, match=r"point \[5.0, 5.0\] outside domain of gridded"):
            grid.value(np.array([5.0, 5.0]))

    def test_min_samples_enforced(self):
        with pytest.raises(ValueError):
            GridField(np.zeros(2), 0.1, np.zeros((3, 3)))

    @pytest.mark.parametrize("dim, counts", [(2, 21), (3, 9)])
    def test_value_is_the_value_of_the_jet(self, dim, counts):
        grid = sample_to_grid(random_trig_field(dim, 4), -np.ones(dim), 2.0 / (counts - 1), (counts,) * dim)
        rng = np.random.default_rng(dim)
        lo, hi = np.array(grid.domain.lo), np.array(grid.domain.hi)
        band = [lo + 2 * grid.h, hi - 2 * grid.h]  # the edges of the 2h band
        rows = list(rng.uniform(band[0], band[1], size=(200, dim)))
        for edge in band:
            for k in range(dim):
                for shift in (-1e-12, 0.0, 1e-12, 0.3 * grid.h):
                    x = rng.uniform(band[0], band[1])
                    x[k] = edge[k] + shift
                    rows.append(x)
        for x in rows:
            assert grid.value(x) == grid.jet(x).value


class TestParser:
    def test_graded_lex_monomials(self):
        mono = graded_lex_monomials(2, 6)
        assert mono == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_named_fields(self):
        x = np.array([0.3, 0.1])
        assert parse_field("paraboloid").value(x) == pytest.approx(Paraboloid(2).value(x))
        assert parse_field("paraboloid:2.0").value(x) == pytest.approx(
            Paraboloid(2, scale=2.0).value(x)
        )
        cap = parse_field("sphere-cap:1.0,0.5")
        assert cap.value(np.zeros(2)) == pytest.approx(1.5)
        hemi = parse_field("hemisphere:1")
        assert hemi.value(np.zeros(2)) == pytest.approx(1.0)
        assert parse_field("constant:2.5").value(x) == 2.5
        assert parse_field("plane:0.5,-0.25").value(x) == pytest.approx(
            0.5 * 0.3 - 0.25 * 0.1
        )
        assert parse_field("cup:1,4").value(x) == pytest.approx(
            0.5 * (0.3**2 + 4 * 0.1**2)
        )

    def test_poly_uses_graded_lex(self):
        # coefficients attach to 1, x, y, x^2, xy, y^2 in order
        f = parse_field("poly:0,0,0,1")
        assert f.value(np.array([2.0, 0.0])) == pytest.approx(4.0)
        f2 = parse_field("poly:0,0,0,0,1")
        assert f2.value(np.array([2.0, 3.0])) == pytest.approx(6.0)

    def test_trig_seeded(self):
        a = parse_field("trig:5")
        b = parse_field("random:5")
        x = np.array([0.2, 0.4])
        assert a.value(x) == b.value(x)

    def test_radial_profiles(self):
        f = parse_field("radial:S-u:0.5")
        assert f.value(np.array([0.5, 0.0])) == pytest.approx(0.0, abs=1e-14)
        g = parse_field("radial:S-v")
        assert g.value(np.zeros(2)) == pytest.approx(1.5)

    def test_grid_spec(self, tmp_path):
        grid = sample_to_grid(
            Paraboloid(2), origin=np.array([-1.0, -1.0]), h=0.1, counts=(21, 21)
        )
        path = tmp_path / "g.csv"
        write_grid(grid, path)
        f = parse_field(f"grid:{path}")
        assert f.value(np.array([0.2, 0.2])) == pytest.approx(0.04, abs=1e-12)

    def test_malformed_specs_raise(self):
        for bad in ["nope", "paraboloid:x", "cup:", "radial:banana", "poly:"]:
            with pytest.raises(ValueError):
                parse_field(bad)

    def test_trig_field_is_deterministic(self):
        a = random_trig_field(3, seed=12)
        b = random_trig_field(3, seed=12)
        x = np.array([0.1, 0.2, 0.3])
        assert a.value(x) == b.value(x)
        assert isinstance(a, TrigField)


#: one field of every built-in kind; the sphere caps and S-u/E-f profiles are
#: undefined on part of the [-1.5, 1.5] sampling cube
BATCHED_CASES = {
    "paraboloid": Paraboloid(2, scale=0.7),
    "cup": QuadraticCup([1.0, 4.0, 9.0]),
    "plane": Plane([0.5, -0.25]),
    "constant": Constant(2, 2.5),
    "sphere-cap": SphereCap(2, 1.0, height=0.2),
    "poly": parse_field("poly:0.3,0,1,-2,0.5,1,0,0.25"),
    "trig-2": random_trig_field(2, seed=4),
    "trig-3": random_trig_field(3, seed=9),
    "trig-4": random_trig_field(4, seed=11, modes=6),
    "radial-S-u": radial_field(RevolutionProfile("S-u", 0.5)),
    "radial-S-v": radial_field(RevolutionProfile("S-v", 0.3)),
    "radial-E-f": radial_field(RevolutionProfile("E-f")),
    "negated": NegatedField(SphereCap(2, 1.2)),
    "scaled": ScaledField(radial_field(RevolutionProfile("S-u", 0.4)), -1.5),
    "fd": FiniteDifferenceField(random_trig_field(2, seed=6), 2, step=1e-4),
    "grid": sample_to_grid(random_trig_field(2, seed=5), origin=(-1.0, -1.0), h=0.1, counts=(21, 21)),
}


def _pointwise_values(field, X):
    out = []
    for x in X:
        try:
            out.append(field.value(x))
        except OutOfDomainError:
            out.append(np.nan)
    return np.array(out)


@st.composite
def sample_rows(draw, dim):
    rows = draw(st.integers(1, 12))
    coords = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    flat = draw(st.lists(coords, min_size=rows * dim, max_size=rows * dim))
    return np.array(flat).reshape(rows, dim)


class TestBatchedValues:
    """values(X) against a loop of value(x), NaN exactly where value raises."""

    @pytest.mark.parametrize("kind", sorted(BATCHED_CASES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_values_match_value(self, kind, data):
        field = BATCHED_CASES[kind]
        X = data.draw(sample_rows(field.dim))
        pointwise = _pointwise_values(field, X)
        batched = field.values(X)
        assert batched.shape == (len(X),)
        assert np.array_equal(batched, pointwise, equal_nan=True)

    @pytest.mark.parametrize("kind", sorted(BATCHED_CASES))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_gradients_are_the_gradient_loop(self, kind, data):
        field = BATCHED_CASES[kind]
        X = data.draw(sample_rows(field.dim))
        X = X[~np.isnan(_pointwise_values(field, X))]
        with np.errstate(invalid="ignore"):  # a radial jet at its rim has a non-finite Hessian
            got, loop = field.jets(X)[1], [field.gradient(x) for x in X]
        assert got.shape == X.shape
        assert np.array_equal(got, np.reshape(loop, X.shape), equal_nan=True)

    @pytest.mark.parametrize("kind", ["radial-S-u", "radial-S-v", "radial-E-f"])
    def test_radial_value_is_the_jet_value(self, kind):
        field = BATCHED_CASES[kind]
        rng = np.random.default_rng(3)
        X = rng.uniform(-1.0, 1.0, size=(200, 2))
        inside = [x for x in X if field.domain.contains(x)]
        assert len(inside) > 20
        for x in inside:
            assert field.value(x) == field.jet(x).value

    def test_out_of_domain_rows_are_nan(self):
        cap = BATCHED_CASES["sphere-cap"]
        got = cap.values(np.array([[0.5, 0.0], [1.2, 0.0], [0.0, -0.9], [0.8, 0.8]]))
        assert np.array_equal(np.isnan(got), [False, True, False, True])
        su = BATCHED_CASES["radial-S-u"]
        got = su.values(np.array([[0.3, 0.0], [0.7, 0.0], [0.0, 0.0], [0.5, 0.5]]))
        assert np.array_equal(np.isnan(got), [True, False, True, False])
        assert got[1] == su.value(np.array([0.7, 0.0]))
        with pytest.raises(OutOfDomainError):
            su.value(np.array([0.3, 0.0]))

    @pytest.mark.parametrize("kind", ["radial-S-u", "radial-S-v"])
    def test_radial_kernel_is_the_row_loop(self, kind):
        field = BATCHED_CASES[kind]
        rng = np.random.default_rng(4)
        edges = [[0.0, 0.0], [1e-13, 0.0], [1.0, 0.0], [0.0, -1.0], [0.5, 0.0], [0.4, 0.0], [0.6, 0.8]]
        X = np.concatenate([edges, rng.uniform(-1.2, 1.2, size=(5000, 2))])
        assert np.array_equal(field.values(X), _pointwise_values(field, X), equal_nan=True)

    def test_e_f_origin_rows_are_nan(self):
        # radii below f(1 - 1e-13), the origin limit 1e-12 among them, have no inverse
        ef = BATCHED_CASES["radial-E-f"]
        got = ef.values(np.array([[0.0, 0.0], [5e-7, 0.0], [0.5, 0.0]]))
        assert np.array_equal(np.isnan(got), [True, True, False])
        with pytest.raises(OutOfDomainError):
            ef.value(np.zeros(2))

    def test_empty_batch(self):
        for kind in ("trig-2", "radial-S-u", "paraboloid", "grid"):
            assert BATCHED_CASES[kind].values(np.empty((0, 2))).shape == (0,)


def reference_grid_jet(grid, x):
    """GridField's jet as a per-point loop over the stencil nodes: the
    reference for its gather kernel. Raises outside the sample box."""
    if not (np.all(x >= grid.origin) and np.all(x <= np.asarray(grid.domain.hi))):
        raise OutOfDomainError(f"point {x.tolist()} outside the box of {grid.name}")
    idx = np.clip(np.rint((x - grid.origin) / grid.h).astype(int), 1, np.asarray(grid.samples.shape) - 2)
    t = (x - (grid.origin + idx * grid.h)) / grid.h
    basis = [
        (np.array([0.5 * tk * (tk - 1.0), 1.0 - tk * tk, 0.5 * tk * (tk + 1.0)]),
         np.array([tk - 0.5, -2.0 * tk, tk + 0.5]),
         np.array([1.0, -2.0, 1.0]))
        for tk in t
    ]
    n = grid.dim
    value, grad, hess = 0.0, np.zeros(n), np.zeros((n, n))
    for offsets in itertools.product((-1, 0, 1), repeat=n):
        v = float(grid.samples[tuple(idx + np.asarray(offsets))])
        w = 1.0
        for k, o in enumerate(offsets):
            w *= basis[k][0][o + 1]
        value += v * w
        for k in range(n):
            wk = 1.0
            for m, o in enumerate(offsets):
                wk *= basis[m][1][o + 1] if m == k else basis[m][0][o + 1]
            grad[k] += v * wk
            for l in range(k, n):
                wkl = 1.0
                for m, o in enumerate(offsets):
                    if m == k and m == l:
                        wkl *= basis[m][2][o + 1]
                    elif m == k or m == l:
                        wkl *= basis[m][1][o + 1]
                    else:
                        wkl *= basis[m][0][o + 1]
                hess[k, l] += v * wkl
    for k in range(n):
        for l in range(k):
            hess[k, l] = hess[l, k]
    return Jet(value, grad / grid.h, hess / (grid.h * grid.h))


#: the configured kinds and the kernel kind each one sets up
CONFIGURED = {Paraboloid: PolynomialField, QuadraticCup: PolynomialField, Plane: PolynomialField,
              Constant: PolynomialField}


def closed_form_jet(field, x):
    """The one-point jet of a polynomial built-in in closed form: the second
    check beside the polynomial reference, whose kernel it runs."""
    if isinstance(field, Paraboloid):
        return Jet(0.5 * field.scale * float(x @ x), field.scale * x, field.scale * np.eye(field.dim))
    if isinstance(field, QuadraticCup):
        return Jet(0.5 * float(field.coeffs @ (x * x)), field.coeffs * x, np.diag(field.coeffs))
    if isinstance(field, Plane):
        return Jet(float(field.coeffs @ x), field.coeffs.copy(), np.zeros((field.dim, field.dim)))
    assert isinstance(field, Constant)
    return Jet(field.c, np.zeros(field.dim), np.zeros((field.dim, field.dim)))


def reference_jet(field, x):
    """The one-point jet of each kernel kind from per-point formulas: the
    reference for the kernels, and for a configured kind the reference of
    the kernel it runs. Raises where the field is undefined."""
    if isinstance(field, SphereCap):
        s2 = field.radius**2 - float(x @ x)
        if s2 <= 0:
            raise OutOfDomainError(f"point at or beyond the rim of {field.name}")
        s = float(np.sqrt(s2))
        return Jet(field.height + s, -x / s, -np.eye(field.dim) / s - np.outer(x, x) / s**3)
    if isinstance(field, TrigField):
        args = field.freqs @ x + field.phases
        return Jet(
            float(field.amps @ np.sin(args)),
            (field.amps * np.cos(args)) @ field.freqs,
            np.einsum("k,ki,kj->ij", -field.amps * np.sin(args), field.freqs, field.freqs),
        )
    if isinstance(field, GridField):
        return reference_grid_jet(field, x)
    if isinstance(field, RadialField):
        return reference_radial_jet(field.reference_profile, x)
    if isinstance(field, PolynomialField):
        return reference_poly_jet(field, x)
    if isinstance(field, NegatedField):
        j = reference_jet(field.base, x)
        return Jet(-j.value, -j.gradient, -j.hessian)
    if isinstance(field, ScaledField):
        j = reference_jet(field.base, x)
        return Jet(field.factor * j.value, field.factor * j.gradient, field.factor * j.hessian)
    raise AssertionError(f"no reference for {type(field).__name__}")


def reference_profile_jet(kind, a, s):
    """A revolution profile's (p, p', p'') at one s in scalar `math`, with
    signed infinities at the vertical tangents; raises OutOfDomainError off
    the profile. The per-point reference for `profile_jets`."""
    lo, hi = (a, 1.0) if kind == "S-u" else (0.0, 1.0)
    if not (lo <= s <= hi):
        raise OutOfDomainError(f"{kind} profile is defined on [{lo}, {hi}], got s = {s}")
    if kind == "S-u":
        if s == 1.0:
            return math.sqrt((1.0 - a) / 2.0), math.inf, math.inf
        sa, sr = math.sqrt(1.0 - a), math.sqrt(1.0 - s)
        return (
            math.sqrt(2.0) * (sa - sr) + (a - s) / (math.sqrt(2.0) * sa),
            (1.0 / sr - 1.0 / sa) / math.sqrt(2.0),
            (1.0 / (2.0 * math.sqrt(2.0))) * (1.0 - s) ** -1.5,
        )
    if kind == "S-v":
        if s == 1.0:
            return math.sqrt((1.0 - a) / 2.0), -math.inf, -math.inf
        w = 1.0 - s * s
        return math.sqrt((1.0 - a) / 2.0) + math.sqrt(w), -s / math.sqrt(w), -w ** -1.5
    if s == 0.0:
        return 1.0, math.inf, -math.inf
    if s == 1.0:
        return 0.0, -math.inf, -math.inf
    rz, w = math.sqrt(s), 1.0 - s * s
    sw = math.sqrt(w)
    second = -0.25 * s**-1.5 * sw - 0.5 * rz / sw - (1.0 + rz) / sw - 0.5 * rz / sw - s * s * (1.0 + rz) * w**-1.5
    return (rz + 1.0) * sw, sw / (2.0 * rz) - s * (1.0 + rz) / sw, second


def reference_inverse_jet(r):
    """The E-f inverse profile's jet at one radius, its root by scipy's
    brentq: the per-point reference for `inverse_profile_jet`."""
    from scipy.optimize import brentq

    if not (revolution._F_EDGE <= r < revolution._F_PEAK):
        raise OutOfDomainError(f"no inverse at r = {r}")
    z = brentq(lambda t: reference_profile_jet("E-f", 0.5, t)[0] - r, revolution._F_PEAK_Z, revolution._F_Z_END,
               xtol=1e-14)
    _, df, ddf = reference_profile_jet("E-f", 0.5, z)
    return z, 1.0 / df, -ddf / df**3


def reference_radial_jet(profile, x):
    """A radial field's jet at one point from its per-point profile."""
    r, eye = float(np.linalg.norm(x)), np.eye(len(x))
    if r < 1e-12:
        p, _, ddp = profile(1e-12)
        return Jet(p, np.zeros(len(x)), ddp * eye)
    p, dp, ddp = profile(r)
    xu = x / r
    return Jet(p, dp * xu, ddp * np.outer(xu, xu) + dp / r * (eye - np.outer(xu, xu)))


def revolution_case(kind, a=0.5):
    """radial_field of a revolution profile, carrying the per-point profile
    that `reference_jet` checks it against."""
    field = radial_field(RevolutionProfile(kind, a))
    field.reference_profile = reference_inverse_jet if kind == "E-f" else partial(reference_profile_jet, kind, a)
    return field


def reference_poly_jet(field, x):
    """PolynomialField's one-point jet from per-point formulas with scalar
    `**`, term by term: the reference for its kernel."""

    def mono(a):
        v = 1.0
        for xk, ek in zip(x, a):
            v *= xk**ek
        return v

    value = float(sum(c * mono(a) for c, a in field.terms))
    g = np.zeros(field.dim)
    for c, a in field.terms:
        for k, ek in enumerate(a):
            if ek == 0:
                continue
            aa = list(a)
            aa[k] -= 1
            g[k] += c * ek * mono(aa)
    h = np.zeros((field.dim, field.dim))
    for c, a in field.terms:
        for k, ek in enumerate(a):
            if ek == 0:
                continue
            for l, el_ in enumerate(a):
                aa = list(a)
                aa[k] -= 1
                mult = ek
                if l == k:
                    if aa[k] == 0:
                        continue
                    mult *= aa[k]
                else:
                    if el_ == 0:
                        continue
                    mult *= el_
                aa[l] -= 1
                h[k, l] += c * mult * mono(aa)
    return Jet(value, g, h)


@pytest.mark.parametrize("exponent", [*range(11), -1.5])
def test_float_power_is_scalar_pow(exponent):
    """The kernels' powers are np.float_power: PolynomialField's integer
    exponents (0 to 10 here), ConformalMetric's phi^2 and the revolution
    profiles' powers -1.5 of positive bases. The kernels equal the per-point
    formulas only while np.float_power equals scalar `**` (C pow) bit for
    bit; array `**` differs at -1.5. A numpy or libm upgrade that breaks this
    fails here, with the cause named, beside the kernel and golden-report
    tests."""
    if exponent == -1.5:
        rng = np.random.default_rng(15)
        a = np.concatenate([rng.uniform(1e-9, 1.0, 20_000), rng.uniform(0.5, 5.0, 20_000), np.logspace(-15, 0, 16)])
    else:
        rng = np.random.default_rng(exponent)
        a = np.concatenate([rng.uniform(-3.0, 3.0, 20_000), rng.uniform(0.5, 5.0, 20_000), [0.0, -0.0, 1.0, -1.0]])
    assert np.array_equal(np.float_power(a, exponent), [x**exponent for x in a])
    assert np.array_equal(np.float_power(a, exponent), [float(x) ** exponent for x in a])


@st.composite
def polynomials(draw):
    """(a polynomial of up to 8 terms with exponents up to 5, an (m, n) stack
    of 1..6 points) with n in 2..4; signed zeros included."""
    n, m = draw(st.sampled_from([2, 3, 4])), draw(st.integers(1, 6))
    exps = st.lists(st.integers(0, 5), min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), exps), max_size=8))
    coords = st.floats(-1.5, 1.5, allow_nan=False) | st.sampled_from([0.0, -0.0])
    X = np.array(draw(st.lists(coords, min_size=m * n, max_size=m * n))).reshape(m, n)
    return PolynomialField(n, terms), X


class TestPolynomialKernel:
    """PolynomialField's values and jets, on a stack and at a point, equal
    the per-point formulas bit for bit."""

    def check(self, field, X, points=True):
        u, du, ddu = field.jets(X)
        assert u.shape == (len(X),) and du.shape == X.shape and ddu.shape == X.shape + (field.dim,)
        values = field.values(X)
        for i, x in enumerate(X):
            want = reference_poly_jet(field, x)
            assert values[i] == want.value
            assert _same_jet((u[i], du[i], ddu[i]), want)
            if not points:
                continue
            assert _same_jet(field.jets(x), want) and field.values(x) == want.value
            assert field.value(x) == want.value and type(field.value(x)) is float
            assert _same_jet(tuple(vars(field.jet(x)).values()), want)
            assert _same_jet((want.value, field.gradient(x), field.hessian(x)), want)

    @given(case=polynomials())
    @settings(max_examples=80, deadline=None)
    def test_kernel_is_the_reference(self, case):
        self.check(*case)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_thousand_rows(self, n):
        rng = np.random.default_rng(n)
        field = parse_field("poly:" + ",".join(repr(float(c)) for c in rng.uniform(-1.0, 1.0, 20)), n)
        self.check(field, rng.uniform(-1.5, 1.5, (1000, n)), points=False)


def _grid(dim, seed):
    h = 0.1 if dim == 2 else 0.25
    return sample_to_grid(random_trig_field(dim, seed), -1.2 * np.ones(dim), h, (int(2.4 / h) + 1,) * dim)


#: the kernel kinds at n = 2 and 3 (the sphere cap also at 4); the caps, and
#: the wrappers of caps, are undefined on part of the [-1.5, 1.5] sampling cube
KERNEL_CASES = {
    "paraboloid-2": lambda: Paraboloid(2, scale=0.7),
    "paraboloid-3": lambda: Paraboloid(3),
    "cup-2": lambda: QuadraticCup([1.0, -4.0]),
    "cup-3": lambda: QuadraticCup([1.0, 4.0, 9.0]),
    "plane-2": lambda: Plane([0.5, -0.25]),
    "plane-3": lambda: Plane([0.5, -0.25, 2.0]),
    "constant-2": lambda: Constant(2, 2.5),
    "constant-3": lambda: Constant(3, -0.5),
    "cap-2": lambda: SphereCap(2, 1.0, height=0.2),
    "cap-3": lambda: SphereCap(3, 1.7, height=0.3),
    "cap-4": lambda: SphereCap(4, 2.0, height=-0.5),
    "trig-2": lambda: random_trig_field(2, seed=4),
    "trig-3": lambda: random_trig_field(3, seed=9, modes=6),
    "grid-2": lambda: _grid(2, 5),
    "grid-3": lambda: _grid(3, 7),
    "poly-2": lambda: parse_field("poly:0.3,0,1,-2,0.5,1,0,0.25,-0.7,0.1,0.4,-1.5"),
    "poly-3": lambda: PolynomialField(3, [(0.5, (3, 0, 1)), (-1.25, (0, 2, 2)), (2.0, (1, 1, 1)), (0.1, (0, 0, 5))]),
    "negated-cap-2": lambda: NegatedField(SphereCap(2, 1.2)),
    "negated-trig-3": lambda: NegatedField(random_trig_field(3, seed=1)),
    "radial-S-u": lambda: revolution_case("S-u", 0.5),
    "radial-S-v": lambda: revolution_case("S-v", 0.3),
    "radial-E-f": lambda: revolution_case("E-f"),
    "scaled-radial-2": lambda: ScaledField(revolution_case("S-u", 0.4), -1.5),
    "scaled-poly-3": lambda: ScaledField(parse_field("poly:0.3,0,1,-2,0.5,1,0,0.25", 3), 0.5),
}


def _reference_rows(field, X):
    """(values with NaN where the reference raises, jets of the other rows)."""
    vals, jets = [], []
    for x in X:
        try:
            jets.append(reference_jet(field, x))
            vals.append(jets[-1].value)
        except OutOfDomainError:
            vals.append(np.nan)
    return np.array(vals), jets


def _same_jet(got, want):
    return all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, (want.value, want.gradient, want.hessian)))


def undefined_point(field, x):
    """The one error message of `value` and `jet` at a point where the field is undefined."""
    return f"point {np.asarray(x).tolist()} outside domain of {field.name}"


class TestKernelKinds:
    """Each kind's `values` and `jets` on a stack, and its point methods on
    the rows, equal the per-point reference of its kernel bit for bit; at an
    undefined row the point methods raise the one error. A polynomial
    built-in also meets its closed form."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernel_is_the_reference(self, kind, data):
        field = KERNEL_CASES[kind]()
        assert type(field).__bases__ == (CONFIGURED.get(type(field), ScalarField),)
        X = data.draw(sample_rows(field.dim))
        # each E-f point is a root solve, one per point method; 4 rows a draw keep its cost near the others'
        self.check(field, X[:4] if kind == "radial-E-f" else X)
        if CONFIGURED.get(type(field)) is PolynomialField:
            self.check_closed_form(field, X)

    @staticmethod
    def check_closed_form(field, X):
        """Du and D^2u equal the closed form up to the sign of zero (the
        derivative coefficients are exact), and u is within 4 eps sum_alpha
        |c_alpha x^alpha|: the kernel adds the terms in order, the closed form
        is a dot product. Below the normal range rounding is absolute, one
        subnormal ulp an operation."""
        u, du, ddu = field.jets(X)
        tiny = np.finfo(float).smallest_subnormal
        for i, x in enumerate(X):
            want = closed_form_jet(field, x)
            size = sum(abs(c) * math.prod(abs(float(xk)) ** e for xk, e in zip(x, a)) for c, a in field.terms)
            assert abs(u[i] - want.value) <= 4.0 * np.finfo(float).eps * size + 8 * field.dim * tiny
            assert np.array_equal(du[i], want.gradient) and np.array_equal(ddu[i], want.hessian)

    @pytest.mark.parametrize("kind", ["radial-S-u", "radial-S-v", "radial-E-f", "scaled-radial-2"])
    def test_radial_edges(self, kind):
        """The origin and its 1e-12 limit, the r = 1 rim where the S-u and
        S-v derivatives are infinite, and the ends of the E-f inverse."""
        peak, edge = revolution._F_PEAK, revolution._F_EDGE
        radii = [0.0, 1e-13, 1e-12, 0.3, 0.4, 0.5, 1.0 - 1e-6, np.nextafter(1.0, 0.0), 1.0, 1.0 + 1e-15,
                 edge, np.nextafter(edge, 0.0), np.nextafter(peak, 0.0), peak, 1.2]
        X = np.concatenate([[[r, 0.0] for r in radii], [[0.0, -1.0], [0.6, 0.8], [-1e-13, 0.0]]])
        self.check(KERNEL_CASES[kind](), X)

    def test_leading_axes(self):
        field = KERNEL_CASES["radial-S-u"]()
        X = np.random.default_rng(9).uniform(-1.0, 1.0, (3, 5, 2))
        flat = field.jets(X.reshape(-1, 2))
        assert np.array_equal(field.values(X), flat[0].reshape(3, 5), equal_nan=True)
        for got, want in zip(field.jets(X), flat):
            assert np.array_equal(got, want.reshape(X.shape[:-1] + want.shape[1:]), equal_nan=True)

    @np.errstate(invalid="ignore")  # a radial Hessian at a vertical tangent is inf * 0
    def check(self, field, X):
        want, jets = _reference_rows(field, X)
        assert np.array_equal(field.values(X), want, equal_nan=True)
        defined = X[~np.isnan(want)]
        u, du, ddu = field.jets(defined)
        assert u.shape == (len(defined),) and du.shape == defined.shape
        assert ddu.shape == defined.shape + (field.dim,)
        for i, (x, j) in enumerate(zip(defined, jets)):
            assert _same_jet((u[i], du[i], ddu[i]), j)
            value = field.value(x)
            assert value == j.value and type(value) is float
            assert _same_jet(tuple(vars(field.jet(x)).values()), j)
            assert _same_jet((j.value, field.gradient(x), field.hessian(x)), j)
        for x in X[np.isnan(want)]:
            for method in (field.value, field.jet):
                with pytest.raises(OutOfDomainError, match=f"^{re.escape(undefined_point(field, x))}$"):
                    method(x)


class TestSphereCapKernel:
    """The cap kernel on stacks with leading axes equals its per-point
    formulas bit for bit; at and past the rim a row is NaN, and `value` and
    `jet` raise."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_leading_axes_are_the_reference(self, n):
        cap = SphereCap(n, 1.7, height=0.3)
        X = np.random.default_rng(n).uniform(-1.5, 1.5, (4, 60, n))
        X[0, 0] = 0.0
        want, jets = _reference_rows(cap, X.reshape(-1, n))
        assert 0 < np.isnan(want).sum() < len(want)
        assert _bits(cap.values(X)) == _bits(want.reshape(4, 60))
        u, du, ddu = cap.jets(X)
        assert (u.shape, du.shape, ddu.shape) == ((4, 60), (4, 60, n), (4, 60, n, n))
        defined = ~np.isnan(want)
        assert np.isnan(du.reshape(-1, n)[~defined]).all() and np.isnan(ddu.reshape(-1, n, n)[~defined]).all()
        rows = [a.reshape((-1,) + a.shape[2:])[defined] for a in (u, du, ddu)]
        for i, j in enumerate(jets):
            assert _bits(*(a[i] for a in rows)) == _bits(j.value, j.gradient, j.hessian)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_row_on_the_sphere_is_undefined(self, n):
        cap = SphereCap(n, 1.5, height=0.3)
        on = np.zeros(n)
        on[-1] = -1.5
        assert cap.radius**2 - on @ on == 0.0
        inside = np.full(n, 0.2)
        X = np.stack([inside, on, np.nextafter(on, 0.0), 2.0 * on])
        u, du, ddu = cap.jets(X)
        for got in (cap.values(X), u, du, ddu):
            assert np.isnan(got.reshape(4, -1)).all(axis=1).tolist() == [False, True, False, True]
        for x in (on, 2.0 * on):
            for method in (cap.value, cap.jet):
                with pytest.raises(OutOfDomainError, match=f"^{re.escape(undefined_point(cap, x))}$"):
                    method(x)


class TestRevolutionProfiles:
    """The array closed forms behind the radial kernel kinds equal their
    per-point references bit for bit, NaN where a reference raises."""

    @pytest.mark.parametrize("kind, a", [("S-u", 0.5), ("S-u", 0.3), ("S-v", 0.3), ("E-f", 0.5)])
    @np.errstate(over="ignore")  # the reference's s**-1.5 at the subnormal s
    def test_profile_jets_are_the_reference(self, kind, a):
        rng = np.random.default_rng(7)
        edges = [-0.0, 0.0, 5e-324, 1e-12, a, np.nextafter(a, 0.0), 0.5, np.nextafter(1.0, 0.0), 1.0,
                 np.nextafter(1.0, 2.0), 1.5, -0.25, np.nan]
        s = np.concatenate([edges, rng.uniform(-0.1, 1.1, 2000)])
        got = revolution.profile_jets(RevolutionProfile(kind, a), s.reshape(-1, 3))
        (value,) = revolution.profile_jets(RevolutionProfile(kind, a), s.reshape(-1, 3), 0)
        assert np.array_equal(value, got[0], equal_nan=True)  # values-only calls read the same value
        for i, si in enumerate(s):
            try:
                want = reference_profile_jet(kind, a, si)
            except OutOfDomainError:
                want = (np.nan,) * 3
            row = [v.reshape(-1)[i] for v in got]
            assert np.array_equal(row, want, equal_nan=True), si
            assert all(np.signbit(g) == np.signbit(w) for g, w in zip(row, want)), si

    def test_inverse_is_scipys_root(self):
        peak, edge = revolution._F_PEAK, revolution._F_EDGE
        radii = np.concatenate([[0.0, edge, np.nextafter(edge, 0.0), np.nextafter(peak, 0.0), peak, 2.0],
                                np.random.default_rng(8).uniform(0.0, 1.6, 300)])
        got = revolution.inverse_profile_jet(radii)
        (value,) = revolution.inverse_profile_jet(radii, 0)
        assert np.array_equal(value, got[0], equal_nan=True)
        field = radial_field(RevolutionProfile("E-f"))
        for i, r in enumerate(radii):
            try:
                want = reference_inverse_jet(r)
            except OutOfDomainError:
                want = (np.nan,) * 3
                with pytest.raises(OutOfDomainError, match=f"^{re.escape(undefined_point(field, [r, 0.0]))}$"):
                    field.value([r, 0.0])
            assert np.array_equal([v[i] for v in got], want, equal_nan=True), r

    def test_nan_profile_raises_at_a_point(self):
        field = RadialField(2, lambda r, order: (np.sqrt(1.0 - r * r), -r / np.sqrt(1.0 - r * r), 0.0), Ball(2, 2.0))
        X = np.array([[0.6, 0.0], [1.5, 0.0]])
        with np.errstate(invalid="ignore"):
            assert np.array_equal(np.isnan(field.values(X)), [False, True])
            assert np.isnan(field.jets(X)[1][1]).all()
            for method in (field.value, field.jet):
                with pytest.raises(OutOfDomainError, match=r"^point \[1\.5, 0\.0\] outside domain of radial$"):
                    method(X[1])


def _concrete_field_classes():
    classes = [c for c in vars(curv.fields).values() if isinstance(c, type) and issubclass(c, ScalarField)]
    return [c for c in classes if c is not ScalarField]


class TestDeclaredStructure:
    """Every field kind is a kernel kind or a configured kind. A kernel kind
    subclasses ScalarField and defines `values` and `jets`; a configured kind
    subclasses a kernel kind, which it only sets up, and defines neither. No
    kind defines a point method."""

    POINT_METHODS = {"value", "gradient", "hessian", "jet"}

    def test_each_kind_defines_one_route(self):
        classes = _concrete_field_classes()
        assert {c.__name__ for c in classes} - {c.__name__ for c in CONFIGURED} == {
            "SphereCap", "PolynomialField", "TrigField", "RadialField", "GridField", "NegatedField",
            "FiniteDifferenceField",
        }
        for cls in classes:
            assert cls.__bases__ == (CONFIGURED.get(cls, ScalarField),), cls
            kernel = {"values", "jets"} & set(vars(cls))
            assert kernel == (set() if cls in CONFIGURED else {"values", "jets"}), cls
            assert not self.POINT_METHODS & set(vars(cls)), cls
        assert set(CONFIGURED) <= set(classes)
        assert not hasattr(ScalarField, "gradients")


def reference_contains(dom, x, margin):
    """The per-point membership test the domains had before they took stacks."""
    if isinstance(dom, Box):
        return bool(np.all(x >= np.asarray(dom.lo) + margin) and np.all(x <= np.asarray(dom.hi) - margin))
    r = float(np.linalg.norm(x))
    return dom.inner + margin <= r <= dom.outer - margin


def _round_rims(x):
    """Radii one ulp either side of |x|, and that radius itself."""
    r = float(np.linalg.norm(x))
    return (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf))


class TestStackedContains:
    """contains(X) on a stack is the pointwise contains of each row."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_mask_is_the_pointwise_contains(self, n, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        X = np.concatenate([data.draw(sample_rows(n)), rng.uniform(-1.5, 1.5, size=(16, n))])
        margin = data.draw(st.sampled_from([0.0, 1e-6, 0.05]))
        domains = [
            Ball(n, 1.0),
            Annulus(n, 0.4, 1.1),
            Box(tuple(-0.8 * np.ones(n)), tuple(np.linspace(0.5, 1.2, n))),
        ]
        # rims through rows, where the last bit of the radius decides
        for x in X[:4]:
            for rim in _round_rims(x):
                domains += [Ball(n, rim), Annulus(n, rim, rim + 1.0)]
            domains += [Box(tuple(np.nextafter(x, np.inf)), tuple(x + 1.0)), Box(tuple(x - 1.0), tuple(x))]
        for dom in domains:
            for m in (0.0, margin):
                mask = dom.contains(X, margin=m)
                assert mask.shape == (len(X),) and mask.dtype == bool
                want = [reference_contains(dom, x, m) for x in X]
                assert mask.tolist() == want
                points = [dom.contains(x, margin=m) for x in X]
                assert all(type(p) is bool for p in points)
                assert points == want
            # one margin per row
            margins = rng.choice([0.0, margin, 0.2], size=len(X))
            assert dom.contains(X, margin=margins).tolist() == [
                reference_contains(dom, x, m) for x, m in zip(X, margins)
            ]


def reference_eval_jets(field, X):
    """eval_jets as it tested domain membership before, one row at a time."""
    inside = [field.domain.contains(x, margin=field.margin(x)) for x in X]
    k = inside.index(False) if False in inside else len(X)
    u, du, ddu = field.jets(X[:k])
    if not (np.isfinite(u).all() and np.isfinite(du).all() and np.isfinite(ddu).all()):
        finite = np.isfinite(u) & np.isfinite(du).all(axis=1) & np.isfinite(ddu).all(axis=(1, 2))
        raise NonFiniteJetError(f"non-finite jet of {field.name} at {X[np.argmin(finite)].tolist()}")
    if k < len(X):
        raise OutOfDomainError(f"point {X[k].tolist()} outside domain of {field.name}")
    return u, du, ddu


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (OutOfDomainError, NonFiniteJetError) as err:
        return type(err), str(err)


class TestEvalJetsDomainCheck:
    """eval_jets tests membership with one stacked contains call, with the
    field's margin at each row, and raises for the first failing row."""

    def _cases(self):
        trig = random_trig_field(2, 3)
        fd = FiniteDifferenceField(trig, 2)
        grid = sample_to_grid(trig, (-1.0, -1.0), 0.1, (21, 21))
        return {
            # trig has no margin: the band row lies just outside the ball
            "trig": (trig, np.array([np.nextafter(2.0, 3.0), 0.0])),
            # FD's margin grows with |x|: inside the ball, not its stencil band
            "fd": (fd, np.array([0.0, 2.0 - 1e-4])),
            # a grid is evaluated 2h inside its box
            "grid": (grid, np.array([0.3, 1.0 - 0.15])),
        }

    @pytest.mark.parametrize("case", ["trig", "fd", "grid"])
    def test_first_failing_row_raises(self, case):
        field, band = self._cases()[case]
        X = np.array([[0.1, 0.2], [-0.4, 0.3], band, [0.2, -0.1], [5.0, 5.0]])
        if case != "trig":
            assert field.domain.contains(band)
        assert not field.domain.contains(band, margin=field.margin(band))
        got = _outcome(eval_jets, field, X)
        assert got == (OutOfDomainError, f"point {band.tolist()} outside domain of {field.name}")
        assert got == _outcome(reference_eval_jets, field, X)
        for rows in (X[:2], X[1:2], X[:0]):
            for a, b in zip(eval_jets(field, rows), reference_eval_jets(field, rows)):
                assert np.array_equal(a, b)

    def test_fd_margin_per_row(self):
        fd = FiniteDifferenceField(random_trig_field(3, 1), 3)
        X = np.random.default_rng(2).uniform(-3.0, 3.0, size=(50, 3))
        eps = float(np.finfo(float).eps)
        # the scalar margin as it was computed before it took stacks
        scales = [max(1.0, float(np.linalg.norm(x))) for x in X]
        want = [2.0 * max(eps ** (1.0 / 3.0) * s, eps**0.25 * s) for s in scales]
        assert fd.margin(X).tolist() == want
        assert [float(fd.margin(x)) for x in X] == want

    def test_non_finite_row_before_an_outside_row(self):
        field = Constant(2, np.inf)
        X = np.array([[0.0, 0.0], [np.nan, 0.0]])
        assert _outcome(eval_jets, field, X) == _outcome(reference_eval_jets, field, X)
        assert _outcome(eval_jets, field, X)[0] is NonFiniteJetError


def reference_sample_to_grid(field, origin, h, counts):
    """sample_to_grid as the per-node loop of value it was."""
    values = np.empty(counts)
    for idx in itertools.product(*(range(c) for c in counts)):
        values[idx] = field.value(np.asarray(origin, dtype=float) + h * np.asarray(idx, dtype=float))
    return values


class TestSampleToGrid:
    @pytest.mark.parametrize("spec, origin, h, counts", [
        ("trig:3", (-1.0, -1.0), 0.1, (21, 21)),
        ("trig:5", (-0.7, -0.5, -0.6), 0.13, (6, 7, 5)),
        ("poly:0.1,0.3,-0.2,0.5,0.4,-0.3", (-1.2, -0.9), 0.07, (23, 19)),
        ("radial:S-u:0.5", (0.55, 0.05), 0.02, (11, 12)),
    ])
    def test_samples_are_the_node_loop(self, spec, origin, h, counts):
        field = parse_field(spec, len(origin))
        grid = sample_to_grid(field, origin, h, counts)
        want = reference_sample_to_grid(field, origin, h, counts)
        assert grid.samples.shape == counts
        assert np.array_equal(grid.samples, want)

    def test_pointwise_error_of_the_first_undefined_node(self):
        field = parse_field("radial:S-u:0.5", 2)
        args = ((-0.3, -0.2), 0.05, (13, 11))  # nodes in the hole of the annulus
        with pytest.raises(OutOfDomainError) as want:
            reference_sample_to_grid(field, *args)
        with pytest.raises(OutOfDomainError) as got:
            sample_to_grid(field, *args)
        assert str(got.value) == str(want.value)

    def test_non_finite_kernel_samples_are_refused(self):
        # a NaN node is undefined, and its point raises; an infinite one reaches the grid's check
        with pytest.raises(OutOfDomainError, match=r"^point \[0\.0, 0\.0\] outside domain of constant\(nan\)$"):
            sample_to_grid(Constant(2, np.nan), (0.0, 0.0), 0.1, (6, 6))
        with pytest.raises(ValueError, match="finite"):
            sample_to_grid(Constant(2, np.inf), (0.0, 0.0), 0.1, (6, 6))


def s_u_field():
    """The S-u revolution field, NaN in the hole r < 0.5 that its domain leaves out."""
    return radial_field(RevolutionProfile("S-u", 0.5))


class TestNanRowsRaiseWhereFound:
    """A caller that finds a NaN row in a stack raises the field's
    OutOfDomainError at the first one and evaluates no point again: a
    NaN row of `values` and a raise of `value` mean the same thing."""

    # pick_levels probes only inside a field's domain, so it reads the whole-plane cap, NaN past its rim
    SITES = {
        "pick_levels": (cap_without_domain, lambda field: pick_levels(field, 2, seed=3)),
        "sample_to_grid": (s_u_field, lambda field: sample_to_grid(field, (-0.3, -0.2), 0.05, (13, 11))),
        "slide": (s_u_field, lambda field: slide(field, (0.3, 1.0), 0.335, radial=64, angular=16)),
        "intrinsic_scalar_curvature": (
            s_u_field, lambda field: intrinsic_scalar_curvature(field, flat_base(2), [0.5015, 0.0])
        ),
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_no_point_is_read_again(self, site):
        make, call = self.SITES[site]
        field = make()

        def read_again(x):
            raise AssertionError(f"{site} read {np.asarray(x).tolist()} again")

        field.value = field.jet = field.gradient = read_again
        with pytest.raises(OutOfDomainError, match=rf"^point \[.*\] outside domain of {re.escape(field.name)}$"):
            call(field)


def reference_ray_extent(dom, center, d, margin):
    """ray_extent as the per-direction code it was before it took stacks."""
    if isinstance(dom, Box):
        lo, hi = np.asarray(dom.lo) + margin, np.asarray(dom.hi) - margin
        t = np.inf
        for k in range(len(d)):
            if d[k] > 0:
                t = min(t, (hi[k] - center[k]) / d[k])
            elif d[k] < 0:
                t = min(t, (lo[k] - center[k]) / d[k])
        return max(t, 0.0)
    r = dom.outer - margin
    b = float(center @ d)
    disc = b * b - (center @ center - r * r)
    return 0.0 if disc < 0 or r < 0 else max(-b + np.sqrt(disc), 0.0)


class TestStackedRayExtent:
    @pytest.mark.parametrize("dom", [Ball(2, 1e-7), Annulus(2, 0.0, 1e-7)], ids=["ball", "annulus"])
    def test_thinner_than_the_margin_is_empty(self, dom):
        """A round domain whose rim is below the margin has no room left, as a box has none."""
        center, D = np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
        box = Box(tuple(center - 1e-7), tuple(center + 1e-7))
        assert box.ray_extent(center, D[0], margin=1e-6) == 0.0
        assert dom.ray_extent(center, D[0], margin=1e-6) == 0.0
        assert dom.ray_extent(center, D, margin=1e-6).tolist() == [0.0, 0.0, 0.0]
        assert [reference_ray_extent(dom, center, d, 1e-6) for d in D] == [0.0, 0.0, 0.0]
        assert dom.ray_extent(center, D[0], margin=0.0) == pytest.approx(1e-7)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rows_are_the_per_direction_extent(self, n, seed):
        rng = np.random.default_rng(seed)
        center = rng.uniform(-0.5, 0.5, n) * rng.integers(0, 2)
        D = rng.standard_normal((10, n))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        D[0, 0], D[1], D[2] = 0.0, 0.0, np.eye(n)[0]  # axis-parallel and zero directions
        domains = [
            Box(tuple(-rng.uniform(0.5, 1.5, n)), tuple(rng.uniform(0.5, 1.5, n))),
            Box(tuple(np.full(n, -np.inf)), tuple(np.ones(n))),
            Ball(n, 1.3), Ball(n, 0.1), Annulus(n, 0.3, 1.0), whole_space(n),
        ]
        for dom in domains:
            for m in (0.0, 1e-6):
                want = [reference_ray_extent(dom, center, d, m) for d in D]
                assert dom.ray_extent(center, D, margin=m).tolist() == want
                assert [dom.ray_extent(center, d, margin=m) for d in D] == want
