"""Explicit surfaces of revolution with closed-form curvature.

Three profiles:

* ``S-u``: the graph u(r) on [a, 1] with

      u(r) = sqrt(2) (sqrt(1-a) - sqrt(1-r)) + (a - r) / (sqrt(2) sqrt(1-a)),

  which vanishes to first order at r = a and has a vertical tangent at
  r = 1 where u(1) = sqrt((1-a)/2).
* ``S-v``: the unit-sphere cap v(r) = sqrt((1-a)/2) + sqrt(1-r^2) on [0, 1],
  glued to the u-graph along the circle r = 1 (u(1) = v(1) exactly).
* ``E-f``: the concave bump f(z) = (sqrt(z) + 1) sqrt(1-z^2) on [0, 1],
  rotated about the z-axis in flat space.

The u/v pair is measured in the round-sphere-factor ambient; their closed
forms are cross-checked against the generic graph pipeline in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import OutOfDomainError
from .fields import Annulus, Ball, RadialField, ScalarField
from .util import brentq_lanes, richardson_limit

KINDS = ("E-f", "S-u", "S-v")
_ALIASES = {
    "e-f": "E-f", "example-e-f": "E-f", "f": "E-f",
    "s-u": "S-u", "example-s-u": "S-u", "u": "S-u",
    "s-v": "S-v", "example-s-v": "S-v", "v": "S-v",
}
JUNCTION_TOL = 1e-3
#: junction_c2_check samples the u-graph at r_k = 1 - 10^-k for these k
JUNCTION_KS = (2, 3, 4, 5, 6)
#: radial_field keeps this far inside the vertical tangent at r = 1
RIM_MARGIN = 1e-6


def normalize_kind(kind: str) -> str:
    k = _ALIASES.get(kind.strip().lower())
    if k is None:
        raise ValueError(f"unknown revolution profile {kind!r}; use one of {KINDS}")
    return k


def spherical_cap_height(a: float) -> float:
    """u(1) = v(1) = sqrt((1-a)/2), the height of the gluing circle."""
    _check_a(a)
    return math.sqrt((1.0 - a) / 2.0)


def _check_a(a: float) -> None:
    if not (0.0 < a < 1.0):
        raise ValueError(f"profile parameter a must lie in (0, 1), got {a}")


@dataclass(frozen=True)
class RevolutionProfile:
    kind: str
    a: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "kind", normalize_kind(self.kind))
        if self.kind != "E-f":
            _check_a(self.a)

    @property
    def domain(self) -> tuple[float, float]:
        return (self.a, 1.0) if self.kind == "S-u" else (0.0, 1.0)


def profile_jet(profile: RevolutionProfile, s: float) -> tuple[float, float, float]:
    """(value, first, second derivative) of the profile at s.

    At a vertical-tangent endpoint (s = 1 for S-u and S-v, s in {0, 1} for
    E-f) the value is finite and the derivatives are returned as signed
    infinities, which is how callers detect the singularity.
    """
    lo, hi = profile.domain
    if not (lo <= s <= hi):
        raise OutOfDomainError(f"{profile.kind} profile is defined on [{lo}, {hi}], got s = {s}")
    a = profile.a
    if profile.kind == "S-u":
        if s == 1.0:
            return spherical_cap_height(a), math.inf, math.inf
        sa = math.sqrt(1.0 - a)
        sr = math.sqrt(1.0 - s)
        value = math.sqrt(2.0) * (sa - sr) + (a - s) / (math.sqrt(2.0) * sa)
        first = (1.0 / sr - 1.0 / sa) / math.sqrt(2.0)
        second = (1.0 / (2.0 * math.sqrt(2.0))) * (1.0 - s) ** -1.5
        return value, first, second
    if profile.kind == "S-v":
        if s == 1.0:
            return spherical_cap_height(a), -math.inf, -math.inf
        w = 1.0 - s * s
        return (
            spherical_cap_height(a) + math.sqrt(w),
            -s / math.sqrt(w),
            -w ** -1.5,
        )
    # E-f
    if s == 0.0:
        return 1.0, math.inf, -math.inf
    if s == 1.0:
        return 0.0, -math.inf, -math.inf
    rz = math.sqrt(s)
    w = 1.0 - s * s
    sw = math.sqrt(w)
    value = (rz + 1.0) * sw
    first = sw / (2.0 * rz) - s * (1.0 + rz) / sw
    second = (
        -0.25 * s**-1.5 * sw
        - 0.5 * rz / sw
        - (1.0 + rz) / sw
        - 0.5 * rz / sw
        - s * s * (1.0 + rz) * w**-1.5
    )
    return value, first, second


def profile_values(profile: RevolutionProfile, s: np.ndarray) -> np.ndarray:
    """`profile_jet(profile, s)[0]` over an array of s, bit for bit, and NaN
    where it raises OutOfDomainError; S-u and S-v only."""
    lo, hi = profile.domain
    a = profile.a
    with np.errstate(all="ignore"):  # NaN outside [lo, hi] is masked below
        if profile.kind == "S-u":
            sa = math.sqrt(1.0 - a)
            value = math.sqrt(2.0) * (sa - np.sqrt(1.0 - s)) + (a - s) / (math.sqrt(2.0) * sa)
        elif profile.kind == "S-v":
            value = spherical_cap_height(a) + np.sqrt(1.0 - s * s)
        else:
            raise ValueError(f"no array profile for {profile.kind}")
    value = np.where(s == 1.0, spherical_cap_height(a), value)
    return np.where((lo <= s) & (s <= hi), value, np.nan)


def vertical_tangent(profile: RevolutionProfile, s: float) -> bool:
    _, first, _ = profile_jet(profile, s)
    return math.isinf(first)


# ---------------------------------------------------------------------------
# closed-form curvature


def cap_curvature(a: float) -> float:
    """Both principal curvatures of the v-cap (upward normal): -(1-a)/4."""
    _check_a(a)
    return -(1.0 - a) / 4.0


def cap_scalar_curvature(a: float) -> float:
    k = cap_curvature(a)
    return 2.0 + 2.0 * k * k


def principal_curvatures_u(a: float, r: float) -> tuple[float, float]:
    """Closed-form principal curvatures of the u-graph in the round ambient.

    The first is the meridian direction, the second the rotational one; the
    rotational expression carries u'/r (not u' times a polynomial), which is
    what the generic pipeline reproduces.
    """
    _check_a(a)
    if not (a <= r < 1.0):
        raise OutOfDomainError(f"principal curvatures of u need a <= r < 1, got r = {r}")
    u, du, ddu = profile_jet(RevolutionProfile("S-u", a), r)
    w2 = 1.0 + du * du
    w = math.sqrt(w2)
    phi = (1.0 + u * u + r * r) / 2.0
    lam1 = (u - r * du + phi * ddu / w2) / w
    lam2 = (u - r * du + phi * du / r) / w
    return lam1, lam2


def scalar_curvature_u(a: float, r: float) -> float:
    lam1, lam2 = principal_curvatures_u(a, r)
    return 2.0 + 2.0 * lam1 * lam2


def gauss_curvature_f(z: float) -> float:
    """Gauss curvature of the rotation of f about the z-axis: -f''/(f (1+f'^2)^2)."""
    if not (0.0 < z < 1.0):
        raise OutOfDomainError(f"gauss_curvature_f needs 0 < z < 1, got {z}")
    f, df, ddf = profile_jet(RevolutionProfile("E-f"), z)
    return -ddf / (f * (1.0 + df * df) ** 2)


def principal_curvatures_f(z: float) -> tuple[float, float]:
    """Meridian and parallel curvatures of the E-f rotation surface (outward
    normal); their product is gauss_curvature_f."""
    if not (0.0 < z < 1.0):
        raise OutOfDomainError(f"principal curvatures of f need 0 < z < 1, got {z}")
    f, df, ddf = profile_jet(RevolutionProfile("E-f"), z)
    w = math.sqrt(1.0 + df * df)
    return -ddf / w**3, 1.0 / (f * w)


# ---------------------------------------------------------------------------
# property reports


@dataclass(frozen=True)
class MonotonicityReport:
    a: float
    samples: int
    u_at_a: float
    du_at_a: float
    min_du_interior: float  # min u' over (a, 1) samples; must be > 0
    min_convexity_margin: float  # min u'' - u'(1 + u'^2) over [a, 1)
    convexity_margin_at_a: float
    min_lam1_where_convex: float

    @property
    def passed(self) -> bool:
        return (
            abs(self.u_at_a) <= 1e-14
            and abs(self.du_at_a) <= 1e-14
            and self.min_du_interior > 0.0
            and self.min_convexity_margin > 0.0
            and self.min_lam1_where_convex > 0.0
        )


def monotonicity_checks(a: float, samples: int = 10_000) -> MonotonicityReport:
    """First-order vanishing at r = a, strict monotonicity, and the profile
    convexity bound u'' > u'(1+u'^2), with worst margins over `samples`
    equally spaced radii of [a, 1)."""
    _check_a(a)
    prof = RevolutionProfile("S-u", a)
    grid = a + (1.0 - a) * np.arange(samples) / samples
    u_a, du_a, ddu_a = profile_jet(prof, a)
    jets = np.array([profile_jet(prof, r) for r in grid])
    du = jets[:, 1]
    ddu = jets[:, 2]
    margin = ddu - du * (1.0 + du * du)
    interior = grid > a
    lam1 = np.array([principal_curvatures_u(a, r)[0] for r in grid])
    return MonotonicityReport(
        a=a,
        samples=grid.size,
        u_at_a=float(u_a),
        du_at_a=float(du_a),
        min_du_interior=float(du[interior].min()) if interior.any() else math.inf,
        min_convexity_margin=float(margin.min()),
        convexity_margin_at_a=float(ddu_a - du_a * (1.0 + du_a * du_a)),
        min_lam1_where_convex=float(lam1[margin > 0.0].min()),
    )


@dataclass(frozen=True)
class JunctionReport:
    a: float
    value_limit: float
    value_target: float  # u(1) = v(1)
    lam1_limit: float
    lam2_limit: float
    cap_value: float
    sign_flip: bool  # u-side limits carry the opposite sign of the cap values
    tolerance: float

    @property
    def passed(self) -> bool:
        cap = abs(self.cap_value)
        return (
            abs(self.value_limit - self.value_target) <= self.tolerance
            and abs(abs(self.lam1_limit) - cap) <= self.tolerance
            and abs(abs(self.lam2_limit) - cap) <= self.tolerance
        )


def junction_c2_check(a: float, tol: float = JUNCTION_TOL) -> JunctionReport:
    """One-sided limits of the u-graph along r_k = 1 - 10^-k (k in
    JUNCTION_KS), Richardson extrapolated in s = sqrt(1-r) where the jets are
    regular, compared with the v-cap value and curvature at the gluing
    circle."""
    _check_a(a)
    prof = RevolutionProfile("S-u", a)
    rs = [1.0 - 10.0 ** (-k) for k in JUNCTION_KS]
    ss = np.array([math.sqrt(1.0 - r) for r in rs])
    vals = np.array([profile_jet(prof, r)[0] for r in rs])
    lams = np.array([principal_curvatures_u(a, r) for r in rs])
    cap = cap_curvature(a)
    lam1_lim = richardson_limit(ss, lams[:, 0])
    lam2_lim = richardson_limit(ss, lams[:, 1])
    return JunctionReport(
        a=a,
        value_limit=float(richardson_limit(ss, vals)),
        value_target=spherical_cap_height(a),
        lam1_limit=float(lam1_lim),
        lam2_limit=float(lam2_lim),
        cap_value=cap,
        sign_flip=bool(np.sign(lam1_lim) != np.sign(cap)),
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# graph-field views


def radial_field(profile: RevolutionProfile) -> ScalarField:
    """The profile as a radial graph field, for the generic pipeline.

    S-u lives on the annulus a < |x| < 1 (shrunk by RIM_MARGIN at the
    vertical tangent), S-v on the ball, E-f as the inverse graph of the
    decreasing branch (see inverse_profile_jet).
    """
    if profile.kind == "E-f":
        return RadialField(2, inverse_profile_jet, Annulus(2, *_F_INVERSE_RANGE), name="revolution-E-f")
    dom = Annulus(2, profile.a, 1.0 - RIM_MARGIN) if profile.kind == "S-u" else Ball(2, 1.0 - RIM_MARGIN)
    return RadialField(2, partial(profile_jet, profile), dom, name=f"revolution-{profile.kind}",
                       profile_values=partial(profile_values, profile))


def _f_first(z: float) -> float:
    return profile_jet(RevolutionProfile("E-f"), z)[1]


_F_PROFILE = RevolutionProfile("E-f")
# one lane of the brentq.c port, so that importing curv needs no scipy.optimize
_F_PEAK_Z = float(brentq_lanes(lambda t, k: np.array([_f_first(v) for v in t]), [0.05], [0.95], xtol=1e-14)[0])
_F_PEAK = profile_jet(_F_PROFILE, _F_PEAK_Z)[0]
_F_INVERSE_RANGE = (0.05, _F_PEAK - 0.05)
# the inverse is solved for z in [_F_PEAK_Z, _F_Z_END], so radii below f(_F_Z_END) have no root there
_F_Z_END = 1.0 - 1e-13
_F_EDGE = profile_jet(_F_PROFILE, _F_Z_END)[0]


def inverse_profile_jet(r: float) -> tuple[float, float, float]:
    """Jet of zeta(r) = inverse of the decreasing branch of f, so the E-f
    surface is locally the graph z = zeta(|x|)."""
    if not (_F_EDGE <= r < _F_PEAK):
        raise OutOfDomainError(f"inverse profile needs {_F_EDGE:.6g} <= r < {_F_PEAK:.6f}, got {r}")
    from scipy.optimize import brentq  # scipy's C solver: per point, it costs less than a one-lane solve

    z = brentq(lambda t: profile_jet(_F_PROFILE, t)[0] - r, _F_PEAK_Z, _F_Z_END, xtol=1e-14)
    _, df, ddf = profile_jet(_F_PROFILE, z)
    return z, 1.0 / df, -ddf / df**3


def gauss_check_f(radii) -> float:
    """Worst |K_formula - R_M/2| over the E-f inverse graph at the given radii;
    the flat graph pipeline is the independent route."""
    from .graphgeom import extrinsic_point, flat_base

    field = radial_field(RevolutionProfile("E-f"))
    base = flat_base(2)
    worst = 0.0
    for r in np.atleast_1d(np.asarray(radii, dtype=float)):
        x = np.array([r, 0.0])
        pt = extrinsic_point(field, base, x)
        z = inverse_profile_jet(r)[0]
        worst = max(worst, abs(gauss_curvature_f(z) - pt.scalar_curvature / 2.0))
    return worst


def closed_vs_pipeline(a: float, radii) -> float:
    """Worst principal-curvature disagreement between the closed forms and
    the generic conformal pipeline on the u-graph."""
    from .conformal import conformal_point
    from .metrics import spherical_ambient

    field = radial_field(RevolutionProfile("S-u", a))
    ambient = spherical_ambient(2)
    worst = 0.0
    for r in np.atleast_1d(np.asarray(radii, dtype=float)):
        x = np.array([r, 0.0])
        cp = conformal_point(field, ambient, x)
        lam = np.sort(np.asarray(principal_curvatures_u(a, r)))
        worst = max(worst, float(np.max(np.abs(cp.principal - lam))))
    return worst


def sweep_u(a: float, count: int = 400) -> np.ndarray:
    """Columns (r, u, lam1, lam2, R) over [a, 1)."""
    _check_a(a)
    radii = np.linspace(a, 1.0 - 1e-6, count)
    rows = []
    for r in radii:
        u = profile_jet(RevolutionProfile("S-u", a), r)[0]
        lam1, lam2 = principal_curvatures_u(a, r)
        rows.append((r, u, lam1, lam2, 2.0 + 2.0 * lam1 * lam2))
    return np.array(rows)


def sweep_v(a: float, count: int = 200) -> np.ndarray:
    """Columns (r, v, lam, lam, R) over [0, 1); the cap is umbilic."""
    _check_a(a)
    radii = np.linspace(0.0, 1.0 - 1e-6, count)
    k = cap_curvature(a)
    rr = cap_scalar_curvature(a)
    rows = [(r, profile_jet(RevolutionProfile("S-v", a), r)[0], k, k, rr) for r in radii]
    return np.array(rows)


def sweep_f(count: int = 400) -> np.ndarray:
    """Columns (z, f, kappa_meridian, kappa_parallel, R = 2K) over (0, 1)."""
    zs = np.linspace(1e-4, 1.0 - 1e-4, count)
    rows = []
    for z in zs:
        f = profile_jet(RevolutionProfile("E-f"), z)[0]
        k1, k2 = principal_curvatures_f(z)
        rows.append((z, f, k1, k2, 2.0 * k1 * k2))
    return np.array(rows)
