"""Sliding cone barrier on an annulus.

The barrier family is psi_lambda(x) = lambda (1 - |x|), the cone over the
unit sphere. Slid down from above, psi_lambda first touches u on the sampled
shrunken annulus at lambda_star = max u(x_i)/(1 - |x_i|) over the samples
x_i, since psi_lambda >= u at every sample exactly when lambda is at least
that maximum. At an interior touching point x0 the gradient bound

    |Du|(x0) >= |D_r u|(x0) >= lambda_star

holds (the touch is a stationary point of u - psi); a touch on the outermost
sampled ring carries no such bound and is flagged instead. An interior grid
touch is polished: Newton on q = u/(1 - |x|), else one Brent lane on its
ray. The slice comparison at the touch uses the ring mean curvature

    ((n-1)/rho) (1 + eps^2 - rho^2)/2

of the sphere of radius rho at height eps, taken with the inward normal, in
the round-sphere-factor ambient. The closed form is checked against the
Hbar_Sigma that the production `phi` inequality check reports on a cone
field.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoTouchError, NonFiniteJetError, NonRegularPointError
from .fields import Annulus, RadialField, ScalarField
from .inequality import check
from .metrics import spherical_ambient
from .util import brentq_lanes, unit_directions

TOUCH_TOL = 1e-8
#: comparison_bounds skips the ordering check where |x0| > 1 - EDGE_MARGIN
EDGE_MARGIN = 1e-3


def ring_mean_curvature(radius: float, eps: float, dim: int) -> float:
    """Mean curvature (inward normal, round-sphere factor) of the radius
    sphere in the slice at height eps."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return (dim - 1.0) / radius * (1.0 + eps * eps - radius * radius) / 2.0


def ring_mean_curvature_via_slices(radius: float, eps: float, dim: int) -> float:
    """Same ring value, but as the Hbar_Sigma of the production `phi`
    inequality check on a radial cone field; serves as an independent
    cross-check."""

    def cone(r, order):
        return r - radius + eps, 1.0, 0.0

    field = RadialField(dim, cone, Annulus(dim, radius / 2.0, min(2.0 * radius, radius + 0.5)), name="cone")
    return check("phi", field, eps, radius * np.eye(dim)[0], spherical_ambient(dim)).h_sigma


# ---------------------------------------------------------------------------
# sampling


def sample_annulus(
    dim: int, inner: float, outer: float, radial: int = 512, angular: int = 128, seed: int = 0
) -> np.ndarray:
    """Deterministic sample points of the annulus inner <= |x| <= outer: a
    radial grid crossed with golden-angle directions (2-D) or seeded unit
    vectors (higher dimensions)."""
    radii = np.linspace(inner, outer, radial)
    dirs = unit_directions(dim, angular, seed)
    return (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)


# ---------------------------------------------------------------------------
# the slide


@dataclass(frozen=True)
class BarrierRun:
    dim: int
    annulus: tuple[float, float]
    a_prime: float
    r_out: float
    lam_star: float
    x0: tuple[float, ...]
    u0: float
    grad_norm: float
    radial_derivative: float
    touch_gap: float  # max_u (u - psi_{lam_star}) over the samples
    interior_touch: bool
    boundary_touch: bool
    degenerate: bool
    radial: int
    angular: int
    seed: int

    @property
    def successful(self) -> bool:
        """A slide whose touching point is interior; Eq-style gradient bound applies."""
        return (not self.degenerate) and self.interior_touch


def _newton_refine_ratio(field: ScalarField, x: np.ndarray, inner: float, outer: float,
                         cell: float) -> np.ndarray | None:
    """Newton ascent on q(x) = u(x)/(1 - |x|) from x; None when it leaves the
    trust region or fails to converge in 30 steps."""
    x = x.copy()
    start = x.copy()
    for _ in range(30):
        r = float(np.linalg.norm(x))
        if not (inner < r < outer):
            return None
        s = 1.0 - r
        xhat = x / r
        jet = field.jet(x)
        u, du, hu = jet.value, jet.gradient, jet.hessian
        grad_q = du / s + u * xhat / s**2
        proj = (np.eye(x.size) - np.outer(xhat, xhat)) / r
        hess_q = (
            hu / s
            + (np.outer(du, xhat) + np.outer(xhat, du)) / s**2
            + u * proj / s**2
            + 2.0 * u * np.outer(xhat, xhat) / s**3
        )
        try:
            step = np.linalg.solve(hess_q, -grad_q)
        except np.linalg.LinAlgError:
            return None
        if np.linalg.norm(step) > cell:
            return None
        x = x + step
        if np.linalg.norm(x - start) > 2.5 * cell:
            return None
        if np.linalg.norm(step) < 1e-13 * max(1.0, np.linalg.norm(x)):
            r = float(np.linalg.norm(x))
            if inner < r < outer:
                return x
            return None
    return None


def _radial_polish(field: ScalarField, x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The maximum of q = u/(1 - |x|) on the ray through x over |x| in [lo, hi]:
    the root of h(r) = (1 - r) Du(r d).d + u(r d), which has the sign of
    dq/dr, as one lane of brentq_lanes; x itself where h does not fall from
    + to - on [lo, hi]."""
    d = x / np.linalg.norm(x)

    def h(r, lanes):
        u, du, _ = field.jets(r[:, None] * d)
        return (1.0 - r) * (du @ d) + u

    ends = h(np.array([lo, hi]), None)
    return float(brentq_lanes(h, [lo], [hi], xtol=1e-13)[0]) * d if ends[0] > 0.0 > ends[1] else x


def _newton_cell(dim: int, angular: int, seed: int, spacing: float, r0: float) -> float:
    """Newton's trust cell at a grid touch of radius r0: it spans the grid
    around the touch, 4 times the wider of the radial spacing and, at r0, the
    widest angle between a sample direction and its nearest neighbour."""
    dirs = unit_directions(dim, angular, seed)
    cos = dirs @ dirs.T
    np.fill_diagonal(cos, -1.0)
    return 4.0 * max(spacing, r0 * float(np.arccos(min(1.0, cos.max(axis=1).min()))))


def slide(
    field: ScalarField,
    annulus: tuple[float, float],
    a_prime: float,
    radial: int = 512,
    angular: int = 128,
    seed: int = 0,
    touch_tol: float = TOUCH_TOL,
) -> BarrierRun:
    """Slide psi_lambda down onto u over the shrunken annulus (a_prime, r_out),
    where r_out = outer - (outer - a_prime) / radial.

    On the sample grid the touching value is lambda_grid = max u/(1 - |x|).
    A grid touching point inside the outer sampled ring is then polished
    (Newton on the touching ratio, one Brent lane on the ray where Newton
    fails), and the grid point is kept when the polish does not reach
    lambda_grid; a touch on the outer ring keeps the grid point. Outcomes: a
    normal run when max u > touch_tol; the degenerate lambda_star = 0 when
    |max u| <= touch_tol; NoTouchError when u < -touch_tol everywhere. The
    annulus is sampled with one `field.values` call; a NaN sample raises the
    OutOfDomainError of `value` at its point, an infinite one
    NonFiniteJetError.
    """
    a, outer = float(annulus[0]), float(annulus[1])
    if not (0.0 <= a < a_prime < outer):
        raise ValueError(f"need 0 <= a < a_prime < outer, got {a}, {a_prime}, {outer}")
    if radial < 2:
        raise ValueError(f"need radial >= 2, got {radial}")
    r_out = outer - (outer - a_prime) / radial

    pts = sample_annulus(field.dim, a_prime, r_out, radial=radial, angular=angular, seed=seed)
    vals = field.values(pts)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:  # a NaN would silence every comparison below
        x_bad = pts[bad[0]]
        if np.isnan(vals[bad[0]]):
            field.raise_outside(x_bad)
        raise NonFiniteJetError(f"non-finite value of {field.name} at {x_bad.tolist()}")
    norms = np.linalg.norm(pts, axis=1)
    slack = 1.0 - norms  # positive on the sampled range
    umax = float(vals.max())

    if umax < -touch_tol:
        raise NoTouchError(f"field is below {-touch_tol} everywhere on the sampled annulus")

    degenerate = umax <= touch_tol
    i0 = int(vals.argmax()) if degenerate else int((vals / slack).argmax())
    x0, r0, u0, du = pts[i0], float(norms[i0]), float(vals[i0]), None
    lam_star = 0.0 if degenerate else u0 / (1.0 - r0)
    spacing = (r_out - a_prime) / (radial - 1)
    # a touch on the outer sampled ring keeps the grid point
    if not degenerate and r0 < r_out - 0.5 * spacing:
        x = _newton_refine_ratio(field, x0, a_prime, r_out, cell=_newton_cell(field.dim, angular, seed, spacing, r0))
        if x is None:
            x = _radial_polish(field, x0, max(a_prime, r0 - spacing), min(r_out, r0 + spacing))
        r, jet = float(np.linalg.norm(x)), field.jet(x)
        lam = float(jet.value) / (1.0 - r)
        if not lam < lam_star:  # the polish must not lose the grid certificate
            x0, r0, u0, lam_star, du = x, r, float(jet.value), lam, jet.gradient
    boundary = not degenerate and r0 >= r_out - 1.5 * spacing
    if du is None:
        du = field.gradient(x0)
    return BarrierRun(
        dim=field.dim, annulus=(a, outer), a_prime=a_prime, r_out=r_out,
        lam_star=float(lam_star), x0=tuple(float(v) for v in x0),
        u0=u0, grad_norm=float(np.linalg.norm(du)),
        radial_derivative=float(du @ (x0 / r0)),
        touch_gap=float((vals - lam_star * slack).max()),
        interior_touch=not (degenerate or boundary), boundary_touch=boundary,
        degenerate=degenerate, radial=radial, angular=angular, seed=seed,
    )


# ---------------------------------------------------------------------------
# comparison bounds at the touching point


@dataclass(frozen=True)
class ComparisonBounds:
    upper: float  # (n-1) u(x0) / |Du|(x0)
    cap: float  # (n-1) (1 - |x0|)
    lower: float  # ring mean curvature at (|x0|, u(x0))
    upper_le_cap: bool
    cap_lt_lower: bool
    ordering_skipped: bool


def comparison_bounds(run: BarrierRun) -> ComparisonBounds:
    """Bound pair at the touching point; the ordering check is skipped within
    EDGE_MARGIN of |x0| = 1 where both sides collapse."""
    n = run.dim
    rho = float(np.linalg.norm(run.x0))
    if run.grad_norm < 1e-12:
        raise NonRegularPointError("comparison bounds need |Du|(x0) > 0", grad_norm=run.grad_norm)
    upper = (n - 1.0) * run.u0 / run.grad_norm
    cap = (n - 1.0) * (1.0 - rho)
    lower = ring_mean_curvature(rho, run.u0, n)
    skipped = rho > 1.0 - EDGE_MARGIN
    return ComparisonBounds(
        upper=float(upper),
        cap=float(cap),
        lower=float(lower),
        upper_le_cap=bool(upper <= cap + 1e-12),
        cap_lt_lower=bool(cap < lower) if not skipped else False,
        ordering_skipped=bool(skipped),
    )


def gradient_bound_margin(run: BarrierRun) -> float:
    """min(|Du| - |D_r u|, |D_r u| - lambda_star) at the touching point; both
    must be >= -1e-6 for a successful slide."""
    return float(
        min(run.grad_norm - abs(run.radial_derivative), abs(run.radial_derivative) - run.lam_star)
    )
