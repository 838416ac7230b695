"""The splitting of sigma1(A) * sigma1(A|1), and its randomized suite.

For a real n x n matrix A (n >= 2) with first row/column singled out, the
product of the traces sigma1(A) * sigma1(A|1) splits exactly as

    sigma2(A) + n/(2(n-1)) * sigma1(A|1)^2
             + sum_{i<j} a_ij a_ji
             + 1/(2(n-1)) * sum_{2<=i<j} (a_ii - a_jj)^2

where (A|1) is the lower-right (n-1) x (n-1) minor and sigma2(A) =
sum_{i<j} (a_ii a_jj - a_ij a_ji).

The batched residual sums each diagonal as columns, in the order numpy's
`add.reduce` sums a row: fewer than 8 terms in sequence; 8 to 128 into eight
accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest
in sequence; above 128, two halves (the first a multiple of 8) summed alike.
So it equals the rowwise `sum` and `trace` bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: randomized_identity_suite's matrices per draw: 2 MB at order 8, which keeps
#: the suite's peak memory low; the draws, and so its result, do not depend on it
IDENTITY_BATCH = 4096


def _column_sum(cols: np.ndarray) -> np.ndarray:
    """The sum of the rows of cols, shape (n, m), in add.reduce's order for a
    row of n terms (see above), by elementwise adds only."""
    n = len(cols)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _column_sum(cols[:half]) + _column_sum(cols[half:])
    if n < 8:
        out, rest = cols[0].copy(), cols[1:]
    else:
        acc = cols[:8]
        for i in range(8, n - n % 8, 8):
            acc = acc + cols[i : i + 8]
        pairs = acc[0::2] + acc[1::2]  # r0+r1, r2+r3, r4+r5, r6+r7
        pairs[0::2] += pairs[1::2]
        out, rest = pairs[0] + pairs[2], cols[n - n % 8 :]
    for col in rest:
        out += col
    return out


def _identity_terms(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residual, lhs) of the splitting for each matrix of a stack (m, n, n):
    the diagonal copied once and summed as columns, one einsum for tr(A^2)."""
    n = a.shape[1]
    d = np.diagonal(a, axis1=1, axis2=2).T.copy()  # row k: entry (k, k) of every matrix
    s1, dm_sum = _column_sum(d), _column_sum(d[1:])
    s1m = s1 - d[0]
    np.square(d, out=d)
    diag_sq, dm_sq = _column_sum(d), _column_sum(d[1:])
    tr_sq = np.einsum("mij,mji->m", a, a)
    offdiag = 0.5 * (tr_sq - diag_sq)
    s2 = 0.5 * (s1 * s1 - tr_sq)
    spread = (n - 1) * dm_sq - dm_sum**2
    lhs = s1 * s1m
    rhs = s2 + n / (2.0 * (n - 1.0)) * s1m**2 + offdiag + spread / (2.0 * (n - 1.0))
    return lhs - rhs, lhs


@dataclass(frozen=True)
class IdentitySuiteResult:
    seed: int
    orders: tuple[int, ...]
    trials: int
    max_rel_residual: float
    worst_order: int


def randomized_identity_suite(
    orders=(2, 3, 4, 5, 6, 7, 8), trials: int = 100_000, seed: int = 0
) -> IdentitySuiteResult:
    """Check the splitting on `trials` matrices with i.i.d. U(-1,1) entries,
    drawn IDENTITY_BATCH at a time.

    Trials are distributed round-robin over the requested orders; the residual
    is measured relative to max(1, |lhs|).
    """
    orders = tuple(int(n) for n in orders)
    if not orders or min(orders) < 2:
        raise ValueError("orders must be integers >= 2")
    if trials < 0:
        raise ValueError(f"need a nonnegative number of trials, got {trials}")
    rng = np.random.default_rng(seed)
    counts = {n: trials // len(orders) for n in orders}
    for k in range(trials - sum(counts.values())):
        counts[orders[k % len(orders)]] += 1
    worst, worst_n = 0.0, orders[0]
    buf = np.empty(max(min(IDENTITY_BATCH, counts[n]) * n * n for n in orders))
    for n in orders:
        left = counts[n]
        while left > 0:
            m = min(IDENTITY_BATCH, left)
            left -= m
            # uniform(-1, 1) draws -1 + 2 r from the same stream; 2 r and 2 r - 1 are exact
            a = rng.random(out=buf[: m * n * n].reshape(m, n, n))
            a *= 2.0
            a -= 1.0
            res, lhs = _identity_terms(a)
            r = float((np.abs(res) / np.maximum(1.0, np.abs(lhs))).max())
            if r > worst:
                worst, worst_n = r, n
    return IdentitySuiteResult(
        seed=seed,
        orders=orders,
        trials=trials,
        max_rel_residual=worst,
        worst_order=worst_n,
    )
