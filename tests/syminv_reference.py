"""Closed-form references for the symmetric-invariant splitting, one matrix
at a time: the oracles the tests check `curv.syminv`'s identity kernel and
the inequality reports' gaps against.

For a real n x n matrix A (n >= 2), with (A|1) its lower-right minor, the
identity kernel splits sigma1(A) * sigma1(A|1) into

    sigma2(A) + n/(2(n-1)) * sigma1(A|1)^2
             + sum_{i<j} a_ij a_ji
             + 1/(2(n-1)) * sum_{2<=i<j} (a_ii - a_jj)^2

When every off-diagonal product a_ij a_ji is nonnegative the last two groups
are nonnegative, giving the Newton-type bound

    sigma1(A) * sigma1(A|1) >= sigma2(A) + n/(2(n-1)) * sigma1(A|1)^2

with equality exactly when the minor diagonal is constant and all
off-diagonal products vanish.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from curv.errors import CurvError
from curv.syminv import _identity_terms

#: relative tolerance for the equality diagnostics and the sign precondition
DEFAULT_EQUALITY_TOL = 1e-8


class SignConditionError(CurvError):
    """Off-diagonal sign condition a_ij * a_ji >= 0 violated beyond tolerance."""


def maxabs(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _checked(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("matrix order must be at least 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def sigma1(a) -> float:
    """Trace of A."""
    return float(np.trace(_checked(a)))


def sigma1_minor(a) -> float:
    """Trace of the minor (A|1): the diagonal sum skipping the first entry."""
    a = _checked(a)
    return float(np.trace(a) - a[0, 0])


def sigma2(a) -> float:
    """Second elementary symmetric invariant, sum_{i<j} (a_ii a_jj - a_ij a_ji).

    Computed definitionally; tests cross-check against (sigma1^2 - tr A^2)/2.
    """
    a = _checked(a)
    d = np.diagonal(a)
    i, j = np.triu_indices(a.shape[0], k=1)
    return float(np.sum(d[i] * d[j] - a[i, j] * a[j, i]))


@dataclass(frozen=True)
class NewtonGap:
    """Gap of the Newton-type bound plus its equality diagnostics."""

    gap: float
    minor_diag_spread: float
    max_offdiag_product: float
    minor_diag_equal: bool
    offdiag_products_zero: bool

    @property
    def equality(self) -> bool:
        return self.minor_diag_equal and self.offdiag_products_zero


def newton_gap(a) -> NewtonGap:
    """Evaluate sigma1*sigma1_minor - sigma2 - n/(2(n-1))*sigma1_minor^2.

    Requires a_ij a_ji >= 0 for all i != j (up to DEFAULT_EQUALITY_TOL,
    relative to the squared max-norm); raises SignConditionError otherwise.
    Under that condition the gap is nonnegative up to roundoff. Equality
    flags use DEFAULT_EQUALITY_TOL relative to the matrix max-norm.
    """
    a = _checked(a)
    n = a.shape[0]
    scale = max(1.0, maxabs(a))
    i, j = np.triu_indices(n, k=1)
    products = a[i, j] * a[j, i]
    if products.size and float(products.min()) < -DEFAULT_EQUALITY_TOL * scale * scale:
        raise SignConditionError(
            f"off-diagonal product a_ij*a_ji = {products.min():.3e} violates the sign condition"
        )
    d = np.diagonal(a)
    s1 = float(d.sum())
    s1m = s1 - float(a[0, 0])
    s2 = float(np.sum(d[i] * d[j] - products))
    gap = s1 * s1m - s2 - n / (2.0 * (n - 1.0)) * s1m**2
    dm = d[1:]
    spread = float(dm.max() - dm.min()) if dm.size else 0.0
    max_prod = float(np.max(np.abs(products))) if products.size else 0.0
    return NewtonGap(
        gap=float(gap),
        minor_diag_spread=spread,
        max_offdiag_product=max_prod,
        minor_diag_equal=spread <= DEFAULT_EQUALITY_TOL * scale,
        offdiag_products_zero=max_prod <= DEFAULT_EQUALITY_TOL * scale * scale,
    )


def identity_residual(a) -> float:
    """lhs - rhs of the exact splitting; zero up to roundoff for every
    matrix. The one-matrix case of the suite's kernel."""
    return float(_identity_terms(_checked(a)[None])[0][0])
