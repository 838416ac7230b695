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

Each profile has one closed form, `profile_jets`, over an array of s and
NaN off the profile; `profile_jet` is its checked one-point case. The
closed-form curvatures, the sweeps and the monotonicity and junction checks
are array expressions over one `profile_jets` call each, and `radial_field`
hands `profile_jets` itself to the generic pipeline as a `RadialField`
profile, whose point methods raise the fields' one OutOfDomainError where
it is NaN. The E-f field is the inverse of the decreasing branch of f,
solved for all radii in one `brentq_lanes` call.

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
from .util import brentq_lanes, count_nonzero, richardson_limit

KINDS = ("E-f", "S-u", "S-v")
_SQRT2 = math.sqrt(2.0)
_HALF_OVER_SQRT2 = 1.0 / (2.0 * _SQRT2)
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


def profile_jets(profile: RevolutionProfile, s, order: int = 2) -> tuple[np.ndarray, ...]:
    """(value, first, second derivative) of the profile over an array of s,
    NaN outside profile.domain. With order 0 it is the one-tuple (value,),
    and the derivative formulas are not evaluated.

    At a vertical-tangent endpoint (s = 1 for S-u and S-v, s in {0, 1} for
    E-f) the value is finite and the derivatives are signed infinities,
    which is how callers detect the singularity. Powers go through
    np.float_power, which is scalar `**` (C pow) bit for bit; array `**` is
    not at the exponent -1.5.
    """
    s = np.asarray(s, dtype=float)[()]  # one s as a numpy scalar, whose arithmetic costs less than a 0-d array's
    lo, hi = profile.domain
    a = profile.a
    with np.errstate(all="ignore"):  # the endpoints divide by zero; the outside is masked below
        if profile.kind == "S-u":
            sa, sr = math.sqrt(1.0 - a), np.sqrt(1.0 - s)
            jet = (_SQRT2 * (sa - sr) + (a - s) / (_SQRT2 * sa),)
            if order:
                jet += ((1.0 / sr - 1.0 / sa) / _SQRT2, _HALF_OVER_SQRT2 * np.float_power(1.0 - s, -1.5))
        elif profile.kind == "S-v":
            w = 1.0 - s * s
            jet = (spherical_cap_height(a) + np.sqrt(w),)
            if order:
                jet += (-s / np.sqrt(w), -np.float_power(w, -1.5))
        else:
            jet = (_f_value(s),)
            if order:  # s + 0.0 is 0.0 at s = -0.0, where f' is +inf as at 0.0
                rz, s2 = np.sqrt(s + 0.0), s * s
                rz1, sw = 1.0 + rz, np.sqrt(1.0 - s2)
                half = 0.5 * rz / sw
                jet += (
                    sw / (2.0 * rz) - s * rz1 / sw,
                    -0.25 * np.float_power(s, -1.5) * sw - half - rz1 / sw - half
                    - s2 * rz1 * np.float_power(1.0 - s2, -1.5),
                )
    if profile.kind == "S-u" and count_nonzero(s == 1.0):  # the counts skip the selects on interior points
        # the formula reads u(1) = 0.5000000000000003 at a = 0.5; the gluing needs u(1) = v(1) exactly
        jet = (np.where(s == 1.0, spherical_cap_height(a), jet[0]), *jet[1:])
    outside = ~((lo <= s) & (s <= hi))
    if count_nonzero(outside):
        jet = tuple(np.where(outside, np.nan, v) for v in jet)
    return jet


def _f_value(s):
    """The E-f value (1 + sqrt(s)) sqrt(1 - s^2) alone: profile_jets' E-f
    value, and what the inverse solve reads at each iterate, where the
    derivatives would cost it about 40%."""
    return (1.0 + np.sqrt(s)) * np.sqrt(1.0 - s * s)


def profile_jet(profile: RevolutionProfile, s: float) -> tuple[float, ...]:
    """profile_jets at one s, as floats; raises OutOfDomainError outside
    profile.domain."""
    lo, hi = profile.domain
    if not (lo <= s <= hi):
        raise OutOfDomainError(f"{profile.kind} profile is defined on [{lo}, {hi}], got s = {s}")
    return tuple(float(v) for v in profile_jets(profile, s))


# ---------------------------------------------------------------------------
# closed-form curvature


def cap_curvature(a: float) -> float:
    """Both principal curvatures of the v-cap (upward normal): -(1-a)/4."""
    _check_a(a)
    return -(1.0 - a) / 4.0


def cap_scalar_curvature(a: float) -> float:
    k = cap_curvature(a)
    return 2.0 + 2.0 * k * k


def _u_graph(a: float, r) -> tuple[tuple, tuple]:
    """((u, u', u''), (lam1, lam2)) of the u-graph over radii r in [a, 1),
    from one profile_jets call."""
    profile, r = RevolutionProfile("S-u", a), np.asarray(r, dtype=float)
    if not ((a <= r) & (r < 1.0)).all():
        raise OutOfDomainError(f"principal curvatures of u need a <= r < 1, got r = {r}")
    u, du, ddu = profile_jets(profile, r)
    w2 = 1.0 + du * du
    w = np.sqrt(w2)
    phi = (1.0 + u * u + r * r) / 2.0
    return (u, du, ddu), ((u - r * du + phi * ddu / w2) / w, (u - r * du + phi * du / r) / w)


def principal_curvatures_u(a: float, r) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form principal curvatures of the u-graph in the round ambient,
    over an array of radii.

    The first is the meridian direction, the second the rotational one; the
    rotational expression carries u'/r (not u' times a polynomial), which is
    what the generic pipeline reproduces.
    """
    return _u_graph(a, r)[1]


def _f_graph(z) -> tuple[tuple, tuple]:
    """((f, f', f''), (kappa_meridian, kappa_parallel)) of the E-f rotation
    surface (outward normal) over z in (0, 1), from one profile_jets call."""
    z = np.asarray(z, dtype=float)
    if not ((0.0 < z) & (z < 1.0)).all():
        raise OutOfDomainError(f"curvatures of f need 0 < z < 1, got z = {z}")
    f, df, ddf = profile_jets(_F_PROFILE, z)
    w = np.sqrt(1.0 + df * df)
    return (f, df, ddf), (-ddf / np.float_power(w, 3), 1.0 / (f * w))


def gauss_curvature_f(z) -> np.ndarray:
    """Gauss curvature of the rotation of f about the z-axis over an array of
    z: -f''/(f (1+f'^2)^2)."""
    (f, df, ddf), _ = _f_graph(z)
    return -ddf / (f * np.float_power(1.0 + df * df, 2))


def principal_curvatures_f(z) -> tuple[np.ndarray, np.ndarray]:
    """Meridian and parallel curvatures of the E-f rotation surface (outward
    normal) over an array of z; their product is gauss_curvature_f."""
    return _f_graph(z)[1]


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
    equally spaced radii of [a, 1), the first of which is a."""
    grid = a + (1.0 - a) * np.arange(samples) / samples
    (u, du, ddu), (lam1, _) = _u_graph(a, grid)
    margin = ddu - du * (1.0 + du * du)
    interior = grid > a
    return MonotonicityReport(
        a=a,
        samples=grid.size,
        u_at_a=float(u[0]),
        du_at_a=float(du[0]),
        min_du_interior=float(du[interior].min()) if interior.any() else math.inf,
        min_convexity_margin=float(margin.min()),
        convexity_margin_at_a=float(margin[0]),
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
    rs = 1.0 - np.float_power(10.0, -np.array(JUNCTION_KS))
    ss = np.sqrt(1.0 - rs)
    (vals, _, _), (lam1, lam2) = _u_graph(a, rs)
    cap = cap_curvature(a)
    lam1_lim = richardson_limit(ss, lam1)
    lam2_lim = richardson_limit(ss, lam2)
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
    return RadialField(2, partial(profile_jets, profile), dom, name=f"revolution-{profile.kind}")


_F_PROFILE = RevolutionProfile("E-f")
# one lane of the brentq.c port, so that importing curv needs no scipy
_F_PEAK_Z = float(brentq_lanes(lambda t, k: profile_jets(_F_PROFILE, t)[1], [0.05], [0.95], xtol=1e-14)[0])
_F_PEAK = profile_jet(_F_PROFILE, _F_PEAK_Z)[0]
_F_INVERSE_RANGE = (0.05, _F_PEAK - 0.05)
# the inverse is solved for z in [_F_PEAK_Z, _F_Z_END], so radii below f(_F_Z_END) have no root there
_F_Z_END = 1.0 - 1e-13
_F_EDGE = profile_jet(_F_PROFILE, _F_Z_END)[0]


def inverse_profile_jet(r, order: int = 2) -> tuple[np.ndarray, ...]:
    """Jet of zeta(r) = inverse of the decreasing branch of f over an array of
    radii, so the E-f surface is locally the graph z = zeta(|x|); with order
    0, the one-tuple (zeta,). It is NaN outside [f(_F_Z_END), _F_PEAK). One
    brentq_lanes call solves every radius, each root scipy's brentq root bit
    for bit."""
    r = np.asarray(r, dtype=float)
    inside = (_F_EDGE <= r) & (r < _F_PEAK)
    z, rk = np.full(r.shape, np.nan), r[inside]
    lo, hi = np.full(rk.shape, _F_PEAK_Z), np.full(rk.shape, _F_Z_END)
    z[inside] = brentq_lanes(lambda t, k: _f_value(t) - rk[k], lo, hi, xtol=1e-14)
    if not order:
        return (z,)
    _, df, ddf = profile_jets(_F_PROFILE, z)
    return z, 1.0 / df, -ddf / np.float_power(df, 3)


def sweep_u(a: float, count: int = 400) -> np.ndarray:
    """Columns (r, u, lam1, lam2, R) over [a, 1)."""
    radii = np.linspace(a, 1.0 - 1e-6, count)
    (u, _, _), (lam1, lam2) = _u_graph(a, radii)
    return np.column_stack([radii, u, lam1, lam2, 2.0 + 2.0 * lam1 * lam2])


def sweep_v(a: float, count: int = 200) -> np.ndarray:
    """Columns (r, v, lam, lam, R) over [0, 1); the cap is umbilic."""
    k = np.full(count, cap_curvature(a))
    radii = np.linspace(0.0, 1.0 - 1e-6, count)
    v = profile_jets(RevolutionProfile("S-v", a), radii)[0]
    return np.column_stack([radii, v, k, k, np.full(count, cap_scalar_curvature(a))])


def sweep_f(count: int = 400) -> np.ndarray:
    """Columns (z, f, kappa_meridian, kappa_parallel, R = 2K) over (0, 1)."""
    zs = np.linspace(1e-4, 1.0 - 1e-4, count)
    (f, _, _), (k1, k2) = _f_graph(zs)
    return np.column_stack([zs, f, k1, k2, 2.0 * k1 * k2])
