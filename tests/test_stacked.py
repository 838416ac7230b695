"""The stacked geometry equals the one-point route bit for bit.

Every row of a stack (jets, extrinsic points, slice frames, conformal points,
inequality reports) must equal what the one-point function returns for that
row, compared with ==, never with a tolerance. The one-point functions are
the m = 1 case of the stacked ones, so these tests pin that numpy's stacked
kernels give each row the bits they give a stack of one.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

from curv import inequality
from curv.conformal import conformal_point, conformal_points
from curv.errors import NonRegularPointError, OutOfDomainError
from curv.fields import (
    FiniteDifferenceField,
    Paraboloid,
    eval_jet,
    eval_jets,
    random_trig_field,
    sample_to_grid,
)
from curv.graphgeom import (
    _generalized_eigvalsh,
    adapted_frame,
    adapted_frames,
    extrinsic_point,
    extrinsic_points,
    minor_relation_residual,
    minor_relation_residuals,
    slice_frame_of_point,
    slice_frames,
)
from curv.inequality import WHICH, check, checks, pick_levels, run_suite, slice_points
from curv.metrics import (
    FlatMetric,
    GeneralMetric,
    constant_ambient,
    product_ambient,
    round_sphere_base,
    spherical_ambient,
)
from curv.revolution import RevolutionProfile, radial_field
from curv.util import Stacked

from report_dict import report_dict


def assert_same(a, b):
    """Exact equality of one-point data, field by field."""
    if isinstance(a, Stacked) or dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and np.array_equal(a, b)
    else:
        assert a == b


def general_metric(dim):
    def components(Y):
        s = np.sin(Y)
        return np.eye(dim) * (1.0 + 0.1 * np.vecdot(Y, Y))[:, None, None] + 0.05 * s[:, :, None] * s[:, None, :]

    return GeneralMetric(dim, components)


def field_of(kind):
    """(field, radius of the sampled points)."""
    if kind.startswith("trig"):
        return random_trig_field(int(kind[-1]), 17), 1.6
    if kind == "radial":
        return radial_field(RevolutionProfile("S-u", 0.5)), 0.97
    if kind == "grid":
        return sample_to_grid(random_trig_field(2, 5), (-1.0, -1.0), 0.1, (21, 21)), 0.75
    if kind == "fd":
        return FiniteDifferenceField(random_trig_field(2, 9), 2), 1.6
    return Paraboloid(2), 1.0


KINDS = ("trig2", "trig3", "trig4", "radial", "grid", "fd", "paraboloid")


def sample(field, radius, seed, m):
    """m points of the field's domain (less its margin); a Paraboloid stack
    also holds the origin, where the gradient vanishes exactly."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < m:
        x = rng.uniform(-radius, radius, field.dim)
        if field.domain.contains(x, margin=field.margin(x)):
            rows.append(x)
    if isinstance(field, Paraboloid):
        rows[len(rows) // 2] = np.zeros(field.dim)
    return np.array(rows)


def bases(dim):
    return {"flat": FlatMetric(dim), "round": round_sphere_base(dim), "general": general_metric(dim)}


def ambients(dim):
    return {
        "product": product_ambient(dim, round_sphere_base(dim)),
        "spherical": spherical_ambient(dim),
        "constant": constant_ambient(dim, 1.7),
    }


CASE = dict(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**16), m=st.integers(1, 6))


class TestStackedEqualsPointwise:
    @settings(max_examples=25, deadline=None)
    @given(**CASE)
    def test_jets(self, kind, seed, m):
        field, radius = field_of(kind)
        X = sample(field, radius, seed, m)
        u, du, ddu = eval_jets(field, X)
        for i, x in enumerate(X):
            jet = eval_jet(field, x)
            assert u[i] == jet.value
            assert np.array_equal(du[i], jet.gradient) and np.array_equal(ddu[i], jet.hessian)

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([2, 3, 4]), seed=CASE["seed"], m=CASE["m"])
    def test_metric_jets(self, n, seed, m):
        X = np.random.default_rng(seed).uniform(-1.5, 1.5, (m, n))
        for base in bases(n).values():
            stack = base.jets(X)
            for i, x in enumerate(X):
                assert_same(stack.row(i), base.jet(x))

    @settings(max_examples=25, deadline=None)
    @given(**CASE)
    def test_extrinsic_points_and_slice_frames(self, kind, seed, m):
        field, radius = field_of(kind)
        X = sample(field, radius, seed, m)
        eps = 0.25
        for base in bases(field.dim).values():
            points = extrinsic_points(field, base, X)
            regular, frames = slice_frames(points, eps)
            residuals = minor_relation_residuals(frames, points.select(regular))
            for i, j in zip(np.flatnonzero(regular), range(len(residuals))):
                pt = extrinsic_point(field, base, X[i])
                assert_same(points.row(i), pt)
                fr = slice_frame_of_point(pt, eps)
                assert_same(frames.row(j), fr)
                assert residuals[j] == minor_relation_residual(fr, pt)
            for i in np.flatnonzero(~regular):
                pt = extrinsic_point(field, base, X[i])
                assert_same(points.row(i), pt)
                with pytest.raises(NonRegularPointError) as err:
                    slice_frame_of_point(pt, eps)
                assert err.value.exact_zero == isinstance(field, Paraboloid)

    @settings(max_examples=25, deadline=None)
    @given(**CASE)
    def test_conformal_points(self, kind, seed, m):
        field, radius = field_of(kind)
        X = sample(field, radius, seed, m)
        for ambient in ambients(field.dim).values():
            stack = conformal_points(field, ambient, X)
            for i, x in enumerate(X):
                assert_same(stack.row(i), conformal_point(field, ambient, x))

    @settings(max_examples=25, deadline=None)
    @given(**CASE, which=st.sampled_from(WHICH))
    def test_inequality_reports(self, kind, seed, m, which):
        field, radius = field_of(kind)
        X = sample(field, radius, seed, m)
        eps = np.linspace(-0.3, 0.3, m)  # one level per row
        for ambient in (None, *ambients(field.dim).values()):
            _, regular, reports = inequality._checks(which, field, eps, X, ambient)
            assert reports.gap.shape == (np.count_nonzero(regular),)
            rows = (reports.row(i) for i in range(np.count_nonzero(regular)))
            for i, x in enumerate(X):
                if regular[i]:
                    assert report_dict(next(rows)) == report_dict(check(which, field, eps[i], x, ambient=ambient))
                else:
                    with pytest.raises(NonRegularPointError):
                        check(which, field, eps[i], x, ambient=ambient)

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(KINDS[:-1]), seed=CASE["seed"], m=CASE["m"], bad=st.integers(0, 5))
    def test_out_of_domain_row_raises_the_pointwise_error(self, kind, seed, m, bad):
        field, radius = field_of(kind)
        X = sample(field, radius, seed, m)
        X[bad % m] = 10.0  # outside each bounded domain above
        X[-1] = 11.0
        with pytest.raises(OutOfDomainError) as pointwise:
            eval_jet(field, X[bad % m])  # the first failing row
        for stacked in (
            lambda: eval_jets(field, X),
            lambda: extrinsic_points(field, FlatMetric(field.dim), X),
            lambda: conformal_points(field, spherical_ambient(field.dim), X),
            lambda: checks("prod", field, 0.0, X),
        ):
            with pytest.raises(OutOfDomainError) as err:
                stacked()
            assert str(err.value) == str(pointwise.value)


def reference_extrinsic_point(field, base, x):
    """The extrinsic package one point at a time, the principal curvatures
    from np.linalg.cholesky, inv and eigvalsh, whose gufuncs extrinsic_points
    calls directly: the route that extrinsic_points replaces."""
    jet = field.jet(x)
    mj = base.jet(x)
    grad = np.asarray(jet.gradient, dtype=float)
    grad_up = mj.ginv @ grad
    w2 = 1.0 + float(grad @ grad_up)
    w = float(np.sqrt(w2))
    hess_cov = jet.hessian - np.einsum("mkj,m->kj", mj.gamma, grad)
    a = (mj.ginv - np.outer(grad_up, grad_up) / w2) @ hess_cov / w
    gm = mj.g + np.outer(grad, grad)
    h_form = gm @ a
    inv = np.linalg.inv(np.linalg.cholesky(gm))
    principal = np.linalg.eigvalsh(inv @ (0.5 * (h_form + h_form.T)) @ inv.T)
    mean = float(np.trace(a))
    norm_a2 = float(np.trace(a @ a))
    nu_h = -grad_up / w
    r_m = mean * mean - norm_a2 + mj.scalar - 2.0 * float(nu_h @ mj.ricci @ nu_h)
    return {
        "u": float(jet.value), "nu": np.concatenate([nu_h, [1.0 / w]]), "shape_operator": a,
        "mean_curvature": mean, "norm_a2": norm_a2, "principal": principal,
        "scalar_curvature": float(r_m), "w": w, "grad": grad, "grad_up": grad_up, "cov_hessian": hess_cov,
    }


def reference_adapted_frame(grad_up, g):
    """Gram-Schmidt over the coordinate axes one point at a time: the loop
    that adapted_frames replaces."""
    n = grad_up.size
    cols = [grad_up / float(np.sqrt(grad_up @ g @ grad_up))]
    for k in range(n):
        if len(cols) == n:
            break
        v = np.zeros(n)
        v[k] = 1.0
        for e in cols:
            v = v - (e @ g @ v) * e
        vn = float(np.sqrt(v @ g @ v))
        if vn > 1e-10:
            cols.append(v / vn)
    return np.stack(cols, axis=1)


class TestAgainstTheOnePointLoop:
    @settings(max_examples=25, deadline=None)
    @given(**CASE)
    def test_extrinsic_points(self, kind, seed, m):
        field, radius = field_of(kind)
        X = sample(field, radius, seed, m)
        for base in bases(field.dim).values():
            points = extrinsic_points(field, base, X)
            for i, x in enumerate(X):
                row = points.row(i)
                for name, value in reference_extrinsic_point(field, base, x).items():
                    assert_same(getattr(row, name), value)


class TestAdaptedFrames:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**16), aligned=st.lists(st.integers(0, 3), max_size=3))
    def test_rows_are_the_pointwise_gram_schmidt(self, n, seed, aligned):
        """Rows along a coordinate axis skip that axis, so a stack mixes rows
        that fill their frames from different axes."""
        rng = np.random.default_rng(seed)
        rows = list(rng.standard_normal((3, n)))
        for k in aligned:
            e = np.zeros(n)
            e[k % n] = rng.choice([-2.0, 0.5])
            rows.insert(int(rng.integers(0, len(rows) + 1)), e)
        grad_up = np.array(rows)
        a = rng.standard_normal((len(rows), n, n))
        g = np.eye(n) + 0.1 * (a @ np.swapaxes(a, 1, 2))
        frames = adapted_frames(grad_up, g)
        for i in range(len(rows)):
            assert np.array_equal(frames[i], reference_adapted_frame(grad_up[i], g[i]))
            assert np.array_equal(frames[i], adapted_frame(grad_up[i], g[i]))


class TestEigensolverChecks:
    """The Cholesky eigensolver agrees with LAPACK's dsygvd to the rounding
    of a Cholesky reduction, and keeps the checks of scipy.linalg.eigh."""

    def pencil(self):
        a = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 3.0]]])
        b = np.array([np.eye(2), [[2.0, 0.1], [0.1, 1.0]]])
        return a, b

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), log_du=st.floats(-3.0, 3.0), log_a=st.floats(-3.0, 3.0))
    def test_within_cholesky_rounding_of_dsygvd(self, n, seed, log_du, log_a):
        """Pencils (a, g + Du Du^T), the induced metric of a graph with |Du|
        from 1e-3 to 1e3, against dsygvd: the two reductions differ by a few
        eps cond2(b) max|lambda| (at most 4.4 in 300,000 seeded pencils)."""
        rng = np.random.default_rng(seed)
        c, du = rng.standard_normal((n, n)), rng.standard_normal(n)
        du *= 10.0**log_du / np.linalg.norm(du)
        b = np.eye(n) + 0.3 * c @ c.T + np.outer(du, du)
        a = rng.standard_normal((n, n)) * 10.0**log_a
        a = 0.5 * (a + a.T)
        want, _, info = lapack.dsygvd(a, b, jobz="N")
        assert info == 0
        bound = 8.0 * np.finfo(float).eps * np.linalg.cond(b) * np.abs(want).max()
        assert np.abs(_generalized_eigvalsh(a[None], b[None])[0] - want).max() <= bound

    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_input_raises_value_error(self, which):
        for bad in (np.nan, np.inf):
            a, b = self.pencil()
            (a, b)[which][1, 0, 1] = bad  # the upper triangle, which the factorization of b does not read
            with pytest.raises(ValueError) as ours:
                _generalized_eigvalsh(a, b)
            with pytest.raises(ValueError) as theirs:
                scipy.linalg.eigh(a[1], b[1], eigvals_only=True)
            assert str(ours.value) == str(theirs.value)

    def test_failed_factorization_raises_linalg_error(self):
        for b1 in (-np.eye(2), [[1.0, 1.0], [1.0, 1.0]]):  # negative, then singular
            a, b = self.pencil()
            b[1] = b1
            with pytest.raises(np.linalg.LinAlgError, match="cholesky"):
                _generalized_eigvalsh(a, b)

    def test_residual_needs_the_same_points(self):
        field = random_trig_field(2, 3)
        X = sample(field, 1.5, 0, 3)
        points = extrinsic_points(field, FlatMetric(2), X)
        regular, frames = slice_frames(points, 0.0)
        assert regular.all()
        shifted = extrinsic_points(field, FlatMetric(2), X + np.array([[0.0, 0.0], [1e-3, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="different base points"):
            minor_relation_residuals(frames, shifted)


class TestSharedAndBoolFields:
    def test_which_is_shared_and_equality_is_a_bool(self):
        """A str field is shared by every row, and a bool column's row is a
        bool, through row, select and stacked."""
        rep = check("prod", Paraboloid(2), 0.5, np.array([1.0, 0.0]))
        assert type(rep.which) is str and type(rep.equality_detected) is bool
        stack = rep.stacked()
        assert stack.which == "prod" and stack.equality_detected.dtype == bool
        assert stack.select(np.array([True])).which == "prod"
        assert_same(stack.row(0), rep)
        assert report_dict(stack.row(0)) == report_dict(rep)


class TestSuiteSkips:
    def test_every_sampled_point_is_checked_or_counted_as_skipped(self):
        summary = run_suite("prod", dim=2, n_fields=3, seed=4)
        sampled = 0
        for k in range(3):
            fld = random_trig_field(2, 4 + 1000 * k)
            for eps in pick_levels(fld, 2, 4 + 1000 * k + 7):
                sampled += len(slice_points(fld, eps, rays=10, seed=4 + 1000 * k + 13))
        assert summary.points + summary.nonregular_skips == sampled
        assert summary.points > 0

    def test_checks_report_the_non_regular_rows(self):
        field = Paraboloid(2)
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.5]])
        for which in WHICH:
            regular, reports = checks(which, field, np.array([0.5, 0.0, 0.125]), X)
            assert regular.tolist() == [True, False, True]
            assert reports.x.tolist() == [[1.0, 0.0], [0.0, 0.5]]
            # with no regular row, an all-False mask and a stack of no rows
            regular, reports = checks(which, field, 0.0, np.zeros((2, 2)))
            assert regular.tolist() == [False, False]
            assert reports.x.shape == (0, 2) and reports.gap.shape == (0,)
