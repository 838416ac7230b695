"""Tests for the symmetric-function identity and the Newton-style gap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curv import syminv
from curv.syminv import _identity_terms, randomized_identity_suite

from syminv_reference import SignConditionError, identity_residual, newton_gap, sigma1, sigma1_minor, sigma2


def random_matrix(order, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(order, order))


@st.composite
def square_matrices(draw, min_order=2, max_order=6):
    order = draw(st.integers(min_order, max_order))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    flat = draw(st.lists(entries, min_size=order * order, max_size=order * order))
    return np.array(flat).reshape(order, order)


class TestSigmas:
    def test_sigma2_matches_trace_formula(self):
        for seed in range(20):
            a = random_matrix(5, seed)
            expected = 0.5 * (np.trace(a) ** 2 - np.trace(a @ a))
            assert sigma2(a) == pytest.approx(expected, abs=1e-12)

    def test_sigma1_minor_drops_first_entry(self):
        a = np.diag([3.0, 5.0, 7.0])
        assert sigma1(a) == 15.0
        assert sigma1_minor(a) == 12.0

    def test_two_by_two(self):
        a = np.array([[2.0, 0.5], [0.25, 3.0]])
        assert sigma1(a) == 5.0
        assert sigma1_minor(a) == 3.0
        assert sigma2(a) == pytest.approx(2.0 * 3.0 - 0.5 * 0.25)


class TestIdentity:
    @given(square_matrices())
    @settings(max_examples=200, deadline=None)
    def test_identity_holds_for_arbitrary_matrices(self, a):
        scale = max(1.0, float(np.max(np.abs(a))) ** 2)
        assert abs(identity_residual(a)) <= 1e-10 * scale

    def test_identity_tight_on_integer_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.integers(-4, 5, size=(4, 4)).astype(float)
            assert abs(identity_residual(a)) <= 1e-12

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(3)
        batch = rng.uniform(-1.0, 1.0, size=(64, 5, 5))
        res = _identity_terms(batch)[0]
        assert res.shape == (64,)
        assert np.array_equal(res, rowwise_terms(batch)[0])
        assert [identity_residual(a) for a in batch] == res.tolist()

    def test_randomized_suite_small(self):
        out = randomized_identity_suite(orders=(2, 3, 4), trials=3000, seed=5)
        assert out.trials == 3000
        assert out.max_rel_residual <= 1e-10
        assert out.max_rel_residual <= 1e-12

    def test_batch_size_does_not_change_the_result(self, monkeypatch):
        # a (m, n, n) draw is m successive matrix draws, so batches keep the stream
        results = []
        for batch in (7, 333, 4096):
            monkeypatch.setattr(syminv, "IDENTITY_BATCH", batch)
            results.append(randomized_identity_suite(orders=(2, 5, 9), trials=3000, seed=2))
        assert results[0] == results[1] == results[2]

    def test_draws_are_the_uniform_draws(self, monkeypatch):
        """The suite's matrices are uniform(-1, 1)'s doubles, order after order, batch after batch."""
        seen, terms = [], syminv._identity_terms
        monkeypatch.setattr(syminv, "IDENTITY_BATCH", 333)
        monkeypatch.setattr(syminv, "_identity_terms", lambda a: seen.append(a.copy()) or terms(a))
        randomized_identity_suite(orders=(2, 5), trials=1000, seed=4)
        rng = np.random.default_rng(4)
        want = [rng.uniform(-1.0, 1.0, size=(m, n, n)) for n in (2, 5) for m in (333, 167)]
        assert [a.tobytes() for a in seen] == [a.tobytes() for a in want]

    def test_suite_deterministic(self):
        a = randomized_identity_suite(orders=(3,), trials=500, seed=1)
        b = randomized_identity_suite(orders=(3,), trials=500, seed=1)
        assert a.max_rel_residual == b.max_rel_residual
        assert a.worst_order == b.worst_order


def rowwise_terms(a):
    """The residuals of a stack and the suite's lhs, sigma1 * sigma1_minor,
    by reductions along each matrix's diagonal (np.sum, np.trace): the
    reference for the column kernel."""
    n = a.shape[1]
    d = np.diagonal(a, axis1=1, axis2=2)
    s1 = d.sum(axis=1)
    s1m = s1 - a[:, 0, 0]
    tr_sq = np.einsum("mij,mji->m", a, a)
    offdiag = 0.5 * (tr_sq - np.sum(d * d, axis=1))
    s2 = 0.5 * (s1 * s1 - tr_sq)
    dm = d[:, 1:]
    spread = (n - 1) * np.sum(dm * dm, axis=1) - dm.sum(axis=1) ** 2
    rhs = s2 + n / (2.0 * (n - 1.0)) * s1m**2 + offdiag + spread / (2.0 * (n - 1.0))
    lhs = np.trace(a, axis1=1, axis2=2) * (np.trace(a, axis1=1, axis2=2) - a[:, 0, 0])
    return s1 * s1m - rhs, lhs


class TestIdentityKernel:
    """The kernel sums the diagonal as columns in add.reduce's order, so it
    equals the rowwise reductions bit for bit: sequential below 8 terms,
    eight accumulators to 128, and the pairwise split above (order 137)."""

    @pytest.mark.parametrize("order", [*range(2, 21), 31, 64, 137])
    def test_equals_the_rowwise_reductions(self, order):
        rng = np.random.default_rng(order)
        # each matrix scaled by 1e-3 to 1e5, both ends included
        scale = 10.0 ** np.concatenate([[-3.0, 5.0], rng.uniform(-3.0, 5.0, size=38)])
        a = scale[:, None, None] * rng.uniform(-1.0, 1.0, size=(40, order, order))
        res, lhs = _identity_terms(a)
        want_res, want_lhs = rowwise_terms(a)
        assert np.array_equal(res, want_res) and np.array_equal(lhs, want_lhs)


class TestNewtonGap:
    @given(square_matrices(min_order=2, max_order=5))
    @settings(max_examples=200, deadline=None)
    def test_gap_nonnegative_for_symmetric_part(self, a):
        sym = 0.5 * (a + a.T)
        out = newton_gap(sym)
        scale = max(1.0, float(np.max(np.abs(sym))) ** 2)
        assert out.gap >= -1e-10 * scale

    def test_gap_nonnegative_for_nonnegative_products(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.uniform(0.0, 1.0, size=(4, 4))
            out = newton_gap(a)
            assert out.gap >= -1e-12

    def test_sign_condition_violation_raises(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(SignConditionError):
            newton_gap(a)

    def test_equality_for_scalar_minor_block(self):
        # first diagonal entry free, remaining block a multiple of the identity
        a = np.diag([2.5, 0.7, 0.7, 0.7])
        out = newton_gap(a)
        assert out.gap == pytest.approx(0.0, abs=1e-14)
        assert out.minor_diag_equal
        assert out.offdiag_products_zero
        assert out.equality

    def test_equality_flags_fail_on_spread(self):
        a = np.diag([2.5, 0.7, 0.9, 0.7])
        out = newton_gap(a)
        assert out.gap > 0.0
        assert not out.minor_diag_equal
        assert not out.equality

    def test_gap_consistent_with_identity(self):
        # gap = sigma1*sigma1_minor - sigma2 - n/(2(n-1)) sigma1_minor^2
        # when every off-diagonal product vanishes and spread is folded in
        a = np.diag([1.0, 2.0, 3.0])
        out = newton_gap(a)
        n = 3
        s1, s1m, s2 = sigma1(a), sigma1_minor(a), sigma2(a)
        expected = s1 * s1m - s2 - n / (2.0 * (n - 1.0)) * s1m**2
        assert out.gap == pytest.approx(expected, abs=1e-13)
        assert out.gap == pytest.approx((2.0 - 3.0) ** 2 / 4.0, abs=1e-13)
