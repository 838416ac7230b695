"""Tests for scalar fields: analytic jets, FD jets, grids, and the parser."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curv.errors import NonFiniteJetError, OutOfDomainError
from curv.fields import (
    Annulus,
    Ball,
    Box,
    Constant,
    FiniteDifferenceField,
    GridField,
    NegatedField,
    Paraboloid,
    Plane,
    PolynomialField,
    QuadraticCup,
    RadialField,
    RotatedField,
    ScaledField,
    SphereCap,
    TrigField,
    eval_jet,
    random_trig_field,
    sample_to_grid,
)
from curv.fieldspec import graded_lex_monomials, parse_field
from curv.revolution import RevolutionProfile, profile_values, radial_field
from curv.util import convergence_slopes


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

    def test_rim_margin_excludes_boundary(self):
        cap = SphereCap(2, 1.0, rim_margin=1e-2)
        with pytest.raises(OutOfDomainError):
            eval_jet(cap, np.array([0.995, 0.0]))

    def test_non_finite_jet_raises(self):
        bad = RadialField(2, lambda r: (np.inf, 0.0, 0.0), Ball(2, 1.0))
        with pytest.raises(NonFiniteJetError):
            eval_jet(bad, np.array([0.5, 0.0]))


class TestWrappers:
    def test_rotated_field_composes(self):
        base = random_trig_field(2, seed=2)
        theta = 0.7
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        rot = RotatedField(base, q)
        x = np.array([0.3, -0.4])
        assert rot.value(x) == pytest.approx(base.value(q @ x), abs=1e-14)
        assert np.allclose(rot.gradient(x), q.T @ base.gradient(q @ x), atol=1e-13)

    def test_negated_and_scaled(self):
        base = Paraboloid(2)
        x = np.array([0.5, 0.5])
        assert NegatedField(base).value(x) == -base.value(x)
        assert ScaledField(base, 0.25).value(x) == 0.25 * base.value(x)
        assert np.array_equal(NegatedField(base).hessian(x), -base.hessian(x))

    def test_radial_field_profile(self):
        prof = lambda r: (r**2, 2.0 * r, 2.0)
        f = RadialField(2, prof, Ball(2, 2.0))
        x = np.array([0.6, 0.8])
        assert f.value(x) == pytest.approx(1.0)
        assert np.allclose(f.gradient(x), 2.0 * x)
        assert np.allclose(f.hessian(x), 2.0 * np.eye(2), atol=1e-12)

    def test_radial_field_origin_limit(self):
        prof = lambda r: (r**2, 2.0 * r, 2.0)
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
        slopes = convergence_slopes(steps, np.array(errs))
        assert np.min(slopes) > 1.7

    def test_wraps_plain_callable(self):
        fd = FiniteDifferenceField(lambda x: float(x[0] ** 2 + x[1]), 2, step=1e-4)
        x = np.array([1.5, 0.2])
        assert np.allclose(fd.gradient(x), [3.0, 1.0], atol=1e-7)


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
        grid.write(p1)
        again = GridField.read(p1)
        again.write(p2)
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
        grid.write(path)
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


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


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
    "rotated": RotatedField(random_trig_field(2, seed=2), _rotation(0.7)),
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
        assert np.array_equal(np.isnan(batched), np.isnan(pointwise))
        if isinstance(field, TrigField):
            # matmul order moves the last bits
            ok = ~np.isnan(pointwise)
            assert np.all(np.abs(batched[ok] - pointwise[ok]) <= 1e-13 * (1.0 + np.abs(pointwise[ok])))
        else:
            assert np.array_equal(batched, pointwise, equal_nan=True)

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

    def test_array_profile_is_for_s_u_and_s_v_only(self):
        with pytest.raises(ValueError):
            profile_values(RevolutionProfile("E-f"), np.array([0.5]))

    def test_e_f_origin_rows_are_nan(self):
        # radii below f(1 - 1e-13), the origin limit 1e-12 among them, have no inverse
        ef = BATCHED_CASES["radial-E-f"]
        got = ef.values(np.array([[0.0, 0.0], [5e-7, 0.0], [0.5, 0.0]]))
        assert np.array_equal(np.isnan(got), [True, True, False])
        with pytest.raises(OutOfDomainError):
            ef.value(np.zeros(2))

    def test_empty_batch(self):
        for kind in ("trig-2", "radial-S-u", "paraboloid"):
            assert BATCHED_CASES[kind].values(np.empty((0, 2))).shape == (0,)


def reference_contains(dom, x, margin):
    """The per-point membership test the domains had before they took stacks."""
    if isinstance(dom, Box):
        return bool(np.all(x >= np.asarray(dom.lo) + margin) and np.all(x <= np.asarray(dom.hi) - margin))
    r = float(np.linalg.norm(x - dom._center()))
    inner = dom.inner if isinstance(dom, Annulus) else -np.inf
    return inner + margin <= r <= dom.rim - margin


def _round_rims(x, center):
    """Radii one ulp either side of |x - center|, and that radius itself."""
    r = float(np.linalg.norm(x - center))
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
        center = np.array(data.draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)))
        margin = data.draw(st.sampled_from([0.0, 1e-6, 0.05]))
        domains = [
            Ball(n, 1.0),
            Ball(n, 1.2, center=tuple(center)),
            Annulus(n, 0.4, 1.1),
            Annulus(n, 0.3, 1.0, center=tuple(center)),
            Box(tuple(-0.8 * np.ones(n)), tuple(np.linspace(0.5, 1.2, n))),
        ]
        # rims through rows, where the last bit of the radius decides
        for x in X[:4]:
            for rim in _round_rims(x, center):
                domains += [Ball(n, rim, center=tuple(center)),
                            Annulus(n, rim, rim + 1.0, center=tuple(center))]
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
