"""Tests for base metrics, conformal factors, and ambient specifications."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curv.errors import ConformalFactorError, MetricNotPositiveError
from curv.fields import Paraboloid
from curv.graphgeom import extrinsic_points
import curv.metrics
from curv.metrics import (
    AmbientSpec,
    ConformalMetric,
    FlatMetric,
    GeneralMetric,
    Metric,
    MetricJet,
    PhiJet,
    constant_ambient,
    metric_jet,
    product_ambient,
    round_sphere_base,
    round_sphere_factor,
    spherical_ambient,
)


class TestFlat:
    def test_zero_curvature(self):
        flat = FlatMetric(3)
        jet = metric_jet(flat, np.array([0.3, -0.2, 0.5]))
        assert np.array_equal(jet.g, np.eye(3))
        assert np.array_equal(jet.ginv, np.eye(3))
        assert np.array_equal(jet.gamma, np.zeros((3, 3, 3)))
        assert np.array_equal(jet.ricci, np.zeros((3, 3)))
        assert jet.scalar == 0.0


class TestRoundSphere:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_constant_scalar_curvature(self, dim):
        base = round_sphere_base(dim)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-0.8, 0.8, size=dim)
            jet = metric_jet(base, x)
            assert jet.scalar == pytest.approx(dim * (dim - 1), abs=1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_einstein_ricci(self, dim):
        base = round_sphere_base(dim)
        x = np.full(dim, 0.3)
        jet = metric_jet(base, x)
        phi = (1.0 + float(x @ x)) / 2.0
        # Ric = (n-1) g = (n-1)/phi^2 delta in these coordinates
        assert np.allclose(jet.ricci, (dim - 1) / phi**2 * np.eye(dim), atol=1e-10)
        assert np.allclose(jet.g, np.eye(dim) / phi**2, atol=1e-14)

    def test_factor_jet(self):
        x = np.array([0.4, -0.3])
        phi, grad, hess = round_sphere_factor(x)
        assert phi == pytest.approx((1.0 + 0.25) / 2.0)
        assert np.allclose(grad, x)
        assert np.array_equal(hess, np.eye(2))

    def test_fd_agrees_with_closed_form(self):
        for dim in (2, 3, 4):
            base = round_sphere_base(dim)
            fd = GeneralMetric(dim, lambda Y: base.jets(Y).g)
            X = np.random.default_rng(dim).uniform(-0.5, 0.5, (6, dim))
            X[0, :2] = 0.25, -0.4
            ja, jb = base.jets(X), fd.jets(X)
            assert np.allclose(ja.gamma, jb.gamma, atol=1e-8)
            assert np.allclose(ja.ricci, jb.ricci, atol=1e-6)
            assert np.allclose(jb.scalar, ja.scalar, rtol=0, atol=1e-6)


def constant_factor(c):
    """The factor jet of phi = c, at a point or at the rows of a stack."""
    return lambda X: (np.full(X.shape[:-1], c), np.zeros(X.shape), np.zeros(X.shape + X.shape[-1:]))


class TestConformalMetric:
    def test_rejects_nonpositive_factor(self):
        bad = ConformalMetric(2, constant_factor(-1.0))
        with pytest.raises(ConformalFactorError):
            metric_jet(bad, np.zeros(2))

    def test_constant_factor_is_flat_rescaled(self):
        c = 2.0
        metric = ConformalMetric(2, constant_factor(c))
        jet = metric_jet(metric, np.array([0.3, 0.1]))
        assert np.allclose(jet.g, np.eye(2) / c**2)
        assert np.allclose(jet.gamma, 0.0, atol=1e-15)
        assert jet.scalar == pytest.approx(0.0, abs=1e-12)


def identity_components(Y):
    """The Euclidean metric at each row of Y."""
    n = Y.shape[1]
    return np.broadcast_to(np.eye(n), (len(Y), n, n))


class TestGeneralMetric:
    def test_rejects_non_spd(self):
        bad = GeneralMetric(2, lambda Y: -identity_components(Y))
        with pytest.raises(MetricNotPositiveError):
            metric_jet(bad, np.zeros(2))

    def test_non_spd_row_is_named(self):
        # g = diag(1, x0) stops being positive definite at x0 = 0: rows 2 and 3 fail, and row 2 is named
        gm = GeneralMetric(2, lambda Y: np.eye(2) * np.stack([np.ones(len(Y)), Y[:, 0]], axis=1)[:, None])
        X = np.array([[0.5, 0.1], [0.2, -0.3], [-0.1, 0.7], [0.0, 0.2], [0.4, 0.4]])
        gm.jets(X[:2])
        with pytest.raises(MetricNotPositiveError, match=r"at \[-0\.1, 0\.7\]"):
            gm.jets(X)

    def test_components_must_be_a_stack(self):
        with pytest.raises(ValueError, match="must be a stack of 2x2 matrices"):
            GeneralMetric(2, lambda Y: np.eye(2)).jets(np.zeros((3, 2)))

    def test_flat_components_give_zero_curvature(self):
        gm = GeneralMetric(2, identity_components)
        jet = metric_jet(gm, np.array([0.5, -0.5]))
        assert np.allclose(jet.gamma, 0.0, atol=1e-12)
        assert jet.scalar == pytest.approx(0.0, abs=1e-10)

    def test_polar_like_metric(self):
        # g = diag(1, x0^2) on x0 > 0 is flat in disguise
        gm = GeneralMetric(2, lambda Y: np.eye(2) * np.stack([np.ones(len(Y)), Y[:, 0] ** 2], axis=1)[:, None])
        jet = metric_jet(gm, np.array([1.3, 0.2]))
        assert jet.scalar == pytest.approx(0.0, abs=1e-8)
        assert jet.gamma[0, 1, 1] == pytest.approx(-1.3, abs=1e-8)

    def test_empty_stack(self):
        jets = GeneralMetric(2, identity_components).jets(np.empty((0, 2)))
        shapes = [jets.g.shape, jets.ginv.shape, jets.gamma.shape, jets.ricci.shape, jets.scalar.shape]
        assert shapes == [(0, 2, 2), (0, 2, 2), (0, 2, 2, 2), (0, 2, 2), (0,)]

    def test_empty_stack_through_the_geometry(self):
        def shapes(stack):
            return {k: shapes(v) if isinstance(v, MetricJet) else np.shape(v) for k, v in vars(stack).items()}

        X = np.empty((0, 2))
        general = extrinsic_points(Paraboloid(2), GeneralMetric(2, identity_components), X)
        assert shapes(general) == shapes(extrinsic_points(Paraboloid(2), FlatMetric(2), X))


class TestAmbients:
    def test_product_ambient_unit_factor(self):
        amb = product_ambient(2)
        assert amb.phi_jet is None
        pj = amb.phis(np.array([[0.3, 0.4]]), np.array([1.7])).row(0)
        assert pj.value == 1.0
        assert np.array_equal(pj.grad_x, np.zeros(2))
        assert pj.dt == 0.0

    def test_spherical_ambient_factor(self):
        amb = spherical_ambient(2)
        assert amb.phi_jet is not None
        assert amb.name == "spherical"
        pj = amb.phis(np.array([[0.3, 0.4]]), np.array([0.5])).row(0)
        assert pj.value == pytest.approx((1.0 + 0.25 + 0.25) / 2.0)
        assert np.allclose(pj.grad_x, [0.3, 0.4])
        assert pj.dt == 0.5

    def test_constant_ambient(self):
        amb = constant_ambient(3, 2.5)
        pj = amb.phis(np.zeros((1, 3)), np.array([1.0])).row(0)
        assert pj.value == 2.5
        assert pj.dt == 0.0
        assert amb.phi_jet is not None

    def test_dim(self):
        assert isinstance(spherical_ambient(2), AmbientSpec)


# ---------------------------------------------------------------------------
# the array kernels against the per-point formulas


def reference_round_jet(x):
    """The round-sphere MetricJet at one point from per-point formulas with
    scalar `**`: the reference for ConformalMetric's array kernel."""
    n = x.size
    phi, dphi, ddphi = (1.0 + float(x @ x)) / 2.0, x.copy(), np.eye(n)
    w1 = -dphi / phi
    w2 = -ddphi / phi + np.outer(dphi, dphi) / phi**2
    lap_w = float(np.trace(w2))
    grad2 = float(w1 @ w1)
    eye = np.eye(n)
    gamma = (
        np.einsum("ki,j->kij", eye, w1)
        + np.einsum("kj,i->kij", eye, w1)
        - np.einsum("ij,k->kij", eye, w1)
    )
    ricci = -(n - 2) * (w2 - np.outer(w1, w1)) - (lap_w + (n - 2) * grad2) * eye
    scalar = phi**2 * (-2.0 * (n - 1) * lap_w - (n - 1) * (n - 2) * grad2)
    return MetricJet(eye / phi**2, eye * phi**2, gamma, ricci, float(scalar))


def reference_constant_phi(dim, value):
    """The constant ambient factor's jet at one point."""
    return PhiJet(float(value), np.zeros(dim), 0.0)


def assert_same(got, want):
    """Field by field equality of one-point data, compared with ==."""
    assert type(got) is type(want)
    for name, w in vars(want).items():
        g = getattr(got, name)
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape and np.array_equal(g, w), name
        else:
            assert type(g) is float and g == w, name


@st.composite
def point_stacks(draw, max_rows=6):
    """An (m, n) stack with n in 2..4 and m in 1..max_rows; signed zeros included."""
    n, m = draw(st.sampled_from([2, 3, 4])), draw(st.integers(1, max_rows))
    coords = st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from([0.0, -0.0])
    return np.array(draw(st.lists(coords, min_size=m * n, max_size=m * n))).reshape(m, n)


class TestKernelsAreThePerPointFormulas:
    """The round metric's and the constant factor's stacks equal the
    per-point formulas bit for bit, row by row and at one point."""

    def check_round(self, X):
        base = round_sphere_base(X.shape[1])
        stack = base.jets(X)
        for i, x in enumerate(X):
            want = reference_round_jet(x)
            assert_same(stack.row(i), want)
            assert_same(base.jet(x), want)
            assert_same(metric_jet(base, x), want)

    def check_constant(self, X, t, value):
        amb = constant_ambient(X.shape[1], value)
        stack = amb.phis(X, t)
        want = reference_constant_phi(X.shape[1], value)
        for name in ("value", "grad_x", "dt"):
            assert np.array_equal(getattr(stack, name), np.array([getattr(want, name)] * len(X)))
        for x, ti in zip(X, t):
            assert_same(amb.phis(x[None], np.array([ti])).row(0), reference_constant_phi(X.shape[1], value))

    @settings(max_examples=60, deadline=None)
    @given(X=point_stacks())
    def test_round_metric(self, X):
        self.check_round(X)

    @settings(max_examples=30, deadline=None)
    @given(X=point_stacks(), value=st.floats(0.1, 10.0), seed=st.integers(0, 2**16))
    def test_constant_factor(self, X, value, seed):
        self.check_constant(X, np.random.default_rng(seed).uniform(-2.0, 2.0, len(X)), value)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_thousand_rows(self, n):
        rng = np.random.default_rng(n)
        X = rng.uniform(-3.0, 3.0, (1000, n))
        self.check_round(X)
        self.check_constant(X, rng.uniform(-2.0, 2.0, 1000), 1.7)


class TestDeclaredStructure:
    """Each metric kind has one evaluation route, and a conformal factor is
    one array call per stack."""

    def test_each_kind_defines_one_route(self):
        kinds = [c for c in vars(curv.metrics).values() if isinstance(c, type) and issubclass(c, Metric)]
        assert {c.__name__ for c in kinds} == {"Metric", "FlatMetric", "ConformalMetric", "GeneralMetric"}
        for cls in (FlatMetric, ConformalMetric, GeneralMetric):
            assert cls.__bases__ == (Metric,)
            assert "jets" in vars(cls) and "jet" not in vars(cls), cls
        assert "jet" in vars(Metric) and "jets" not in vars(Metric)

    @pytest.mark.parametrize("m", [1, 4])
    def test_general_components_are_called_once_per_stack(self, m):
        calls = []

        def counted(Y):
            calls.append(Y.shape)
            return identity_components(Y)

        GeneralMetric(3, counted).jets(np.zeros((m, 3)))
        assert calls == [(m * 61, 3)]  # the point, 4 per axis and 16 per pair of axes

    @pytest.mark.parametrize("m", [1, 5])
    def test_factors_are_called_once_per_stack(self, m):
        calls = []

        def counted(factor):
            def jet(*args):
                calls.append(np.shape(args[0]))
                return factor(*args)

            return jet

        X = np.random.default_rng(m).uniform(-1.0, 1.0, (m, 3))
        ConformalMetric(3, counted(curv.metrics.round_sphere_factor)).jets(X)
        for factor in (curv.metrics.round_ambient_factor, constant_ambient(3, 1.5).phi_jet):
            AmbientSpec(FlatMetric(3), counted(factor)).phis(X, np.linspace(-1.0, 1.0, m))
        assert calls == [(m, 3)] * 3
