"""Scalar fields u: R^n -> R with second-order jets.

A kernel kind defines `values(X)` and `jets(X)` on a stack of points, NaN in
a row where the field is undefined. `value` and `jet` (and `gradient` and
`hessian`, which read `jet`) are row 0 of the stack of one, and raise
OutOfDomainError where that row is NaN, through `raise_outside`, which a
caller that finds a NaN row in a stack calls too. The kernel kinds are the
trig, sphere-cap and polynomial built-ins, radial profiles (the profile maps
an array of radii to its jet, NaN where it is undefined), gridded samples
with local quadratic tensor interpolation (an index gather), the scaled
wrapper of any field, and finite differences on a field (central stencils,
order 2, one `values` call on the stencil stack). Finite differences read
only values, never the wrapped field's jets, so they serve as an independent
oracle. A configured kind only sets up a kernel kind and defines no kernel:
the paraboloid, cup, plane and constant are polynomials, and the negated
wrapper is the scaled one at factor -1. A kernel raises to a power with
`np.float_power`, which calls C `pow` per element as scalar `**` does; array
`**` rounds differently, and a kernel must equal the per-point formula bit
for bit.

A field carries its domain; `eval_jet` refuses points outside it (including
any finite-difference or interpolation margin) and refuses non-finite output.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteJetError, OutOfDomainError
from .util import as_point, as_points, count_nonzero, einsum, eye, outer, where

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.lo)

    @functools.cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """lo and hi as arrays, built at the first call."""
        return np.asarray(self.lo), np.asarray(self.hi)

    def contains(self, x: np.ndarray, margin=0.0):
        """Whether x lies in the box less the margin (one value, or one per
        row): a bool for a point, a mask for a stack of rows."""
        (lo, hi), margin = self._bounds, np.asarray(margin)[..., None]
        inside = np.logical_and.reduce((x >= lo + margin) & (x <= hi - margin), axis=-1)
        return inside if x.ndim > 1 else bool(inside)

    def ray_extent(self, center: np.ndarray, direction: np.ndarray, margin: float = 0.0):
        """Largest t >= 0 with center + t d in the box less the margin, for d
        or each row of a stack; the minimum over the axes skips NaN (fmin)."""
        lo, hi = self._bounds
        lo, hi = lo + margin, hi - margin
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(direction > 0, (hi - center) / direction, (lo - center) / direction)
        t = np.maximum(np.fmin.reduce(np.where(direction != 0, t, np.inf), axis=-1, initial=np.inf), 0.0)
        return t if np.ndim(direction) > 1 else float(t)

    def probe_cube(self) -> tuple[np.ndarray, float]:
        """Midpoint and half-width of the cube about it that covers the box."""
        lo, hi = self._bounds
        return 0.5 * (lo + hi), float(np.max(0.5 * (hi - lo)))


class _RoundDomain:
    """Geometry shared by the round domains, centred at the origin: an inner
    rim (-inf for a ball) and an outer rim."""

    @property
    def dim(self) -> int:
        return self.dim_

    def contains(self, x: np.ndarray, margin=0.0):
        """Whether x lies in the domain less the margin (one value, or one
        per row): a bool for a point, a mask for a stack of rows."""
        r = np.sqrt(np.vecdot(x, x))  # np.linalg.norm of each row bit for bit, unlike norm(X, axis=1)
        inside = (self.inner + margin <= r) & (r <= self.rim - margin)
        return inside if x.ndim > 1 else bool(inside)

    def ray_extent(self, center: np.ndarray, direction: np.ndarray, margin: float = 0.0):
        """Largest t >= 0 with |center + t d| <= rim - margin, for d or each
        row of a stack; 0 where the rim less the margin is negative."""
        r = self.rim - margin
        b = np.vecdot(direction, center)
        disc = b * b - (center @ center - r * r)
        t = np.where((disc < 0) | (r < 0), 0.0, np.maximum(-b + np.sqrt(np.maximum(disc, 0.0)), 0.0))
        return t if np.ndim(direction) > 1 else float(t)

    def probe_cube(self) -> tuple[np.ndarray, float]:
        """Center and half-width of the cube that probes the domain, capped
        at 1.5 for large or unbounded domains."""
        return np.zeros(self.dim_), min(float(self.rim), 1.5)


@dataclass(frozen=True)
class Ball(_RoundDomain):
    dim_: int
    radius: float
    inner = -np.inf  # no hole

    @property
    def rim(self) -> float:
        return self.radius


@dataclass(frozen=True)
class Annulus(_RoundDomain):
    dim_: int
    inner: float
    outer: float

    @property
    def rim(self) -> float:
        return self.outer


def whole_space(dim: int) -> Ball:
    return Ball(dim, np.inf)


# ---------------------------------------------------------------------------
# jets and the field base class


@dataclass(frozen=True)
class Jet:
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


class ScalarField:
    """Base class of the field kinds. A kernel kind defines `values(X)` and
    `jets(X)` (a configured kind inherits them) on a stack of rows, shape
    (m, n) or with more leading axes: `values` gives u, shape (m,), and
    `jets` gives (u, Du, D^2u), shapes (m,), (m, n), (m, n, n). An undefined
    row is NaN. The one-point methods take row 0 of the stack of one, x[None],
    and raise OutOfDomainError where its value is NaN.
    """

    dim: int
    domain: Box | Ball | Annulus
    name: str = "field"

    def values(self, X: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def jets(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:  # pragma: no cover - abstract
        raise NotImplementedError

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        u = float(self.values(x[None])[0])
        return u if u == u else self.raise_outside(x)  # u != u only where u is NaN

    def gradient(self, x) -> np.ndarray:
        return self.jet(x).gradient

    def hessian(self, x) -> np.ndarray:
        return self.jet(x).hessian

    def jet(self, x) -> Jet:
        x = np.asarray(x, dtype=float)
        u, du, ddu = self.jets(x[None])
        u = float(u[0])
        return Jet(u if u == u else self.raise_outside(x), du[0], ddu[0])

    def raise_outside(self, x: np.ndarray):
        """Raise the OutOfDomainError of a NaN row at x, as `value` does."""
        raise OutOfDomainError(f"point {x.tolist()} outside domain of {self.name}")

    def margin(self, x: np.ndarray):
        """Boundary band the evaluation needs around x or each row (0 for analytic)."""
        return 0.0

    def ray_slopes(self, dirs: np.ndarray, reach):
        """(L, M, delta) on each ray o + t d, d a row of dirs, its points
        within `reach` of 0 in each coordinate: |d/dt u| <= L, |d^2/dt^2 u| <=
        M, and delta bounds the rounding of the slicer's two block tests; inf
        declares no bound."""
        return (np.full(dirs.shape[:-1], np.inf),) * 3


def eval_jets(field: ScalarField, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (u, Du, D^2u) on the rows of X, shape (m, n), with domain and
    finiteness checks: a row must lie in the domain less the field's margin
    there, and its jet must be finite. The first failing row raises
    OutOfDomainError or NonFiniteJetError, as eval_jet does for it."""
    X = as_points(X, field.dim)
    inside = field.domain.contains(X, margin=field.margin(X))
    k = len(X) if count_nonzero(inside) == len(X) else int(inside.argmin())
    u, du, ddu = field.jets(X[:k])
    finite = count_nonzero(np.isfinite(u)) + count_nonzero(np.isfinite(du)) + count_nonzero(np.isfinite(ddu))
    if finite < u.size + du.size + ddu.size:  # counts cost less than .all()
        finite = np.isfinite(u) & np.isfinite(du).all(axis=1) & np.isfinite(ddu).all(axis=(1, 2))
        raise NonFiniteJetError(f"non-finite jet of {field.name} at {X[np.argmin(finite)].tolist()}")
    if k < len(X):
        field.raise_outside(X[k])
    return u, du, ddu


def eval_jet(field: ScalarField, x) -> Jet:
    """Evaluate (u, Du, D^2u) at x with domain and finiteness checks: the
    one-row case of eval_jets."""
    u, du, ddu = eval_jets(field, as_point(x, field.dim)[None])
    return Jet(float(u[0]), du[0], ddu[0])


# ---------------------------------------------------------------------------
# analytic built-ins


#: SphereCap's domain stops this fraction of the radius short of the equator
CAP_RIM_MARGIN = 1e-8


class SphereCap(ScalarField):
    """u = height + sqrt(radius^2 - |x|^2): the upper cap of a round sphere.

    The domain stops CAP_RIM_MARGIN of the radius short of the equator, where
    the gradient blows up; at and past the rim a row is NaN.
    """

    def __init__(self, dim: int, radius: float, height: float = 0.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = dim
        self.radius = float(radius)
        self.height = float(height)
        self.domain = Ball(dim, radius * (1.0 - CAP_RIM_MARGIN))
        self.name = f"spherecap(radius={radius},height={height})"

    def _s(self, X):
        """sqrt(radius^2 - |x|^2) at each row, NaN at or past the rim."""
        s2 = self.radius**2 - np.vecdot(X, X)
        return np.sqrt(np.where(s2 > 0, s2, np.nan))

    def values(self, X):
        return self.height + self._s(X)

    def jets(self, X):
        s = self._s(X)
        ss = s[..., None, None]
        return self.height + s, -X / s[..., None], -eye(self.dim) / ss - outer(X, X) / np.float_power(ss, 3)


class PolynomialField(ScalarField):
    """u = sum of coeff * x^alpha over multi-indices alpha.

    u, each D_k u and each D_k D_l u is a polynomial, kept as a row of a
    (coefficient, exponents) table in the order of `terms`, padded with zero
    terms. The kernel raises each coordinate to p = 0 ... top, the largest
    exponent, with np.float_power (n (top + 1) powers a point, not one per
    row, term and axis), gathers each term's powers from that table,
    multiplies them from the first axis on and adds the terms in order
    (cumsum), so a point's jet is the term-by-term formula with scalar `**`
    bit for bit.
    """

    def __init__(self, dim: int, terms: Sequence[tuple[float, tuple[int, ...]]]):
        self.dim = dim
        self.terms = [(float(c), tuple(int(e) for e in a)) for c, a in terms]
        for _, a in self.terms:
            if len(a) != dim or any(e < 0 for e in a):
                raise ValueError(f"bad exponent tuple {a} for dimension {dim}")
        self.domain = whole_space(dim)
        self.name = "poly"

        eye = np.eye(dim, dtype=int)
        table = [self.terms]
        table += [[(c * a[k], a - eye[k]) for c, a in self.terms if a[k]] for k in range(dim)]
        table += [
            [(c * (a[k] * (a[l] - (k == l))), a - eye[k] - eye[l]) for c, a in self.terms if a[k] and a[l] - (k == l)]
            for k in range(dim)
            for l in range(dim)
        ]
        width = max(1, *map(len, table))
        pad = [(0.0, [0] * dim)]
        table = [row + pad * (width - len(row)) for row in table]
        self._coeffs = np.array([[c for c, _ in row] for row in table])
        self._exps = np.array([[a for _, a in row] for row in table])
        self._powers = np.arange(self._exps.max() + 1.0)[:, None]  # the table's rows p = 0 ... top
        self._axes = np.arange(dim)

    def _sums(self, X, rows):
        """The table rows `rows` (a slice) at the rows of a stack, last axis."""
        factors = np.float_power(X[..., None, :], self._powers)[..., self._exps[rows], self._axes]
        prod = factors[..., 0]
        for k in range(1, self.dim):
            prod = prod * factors[..., k]
        # add.accumulate is cumsum, adding in term order; + 0.0 is the 0.0 the sum starts from
        return np.add.accumulate(self._coeffs[rows] * prod, axis=-1)[..., -1] + 0.0

    def values(self, X):
        return self._sums(X, slice(1))[..., 0]

    def jets(self, X):
        n, s = self.dim, self._sums(X, slice(None))
        return s[..., 0], s[..., 1 : n + 1], s[..., n + 1 :].reshape(s.shape[:-1] + (n, n))


class Paraboloid(PolynomialField):
    """u = scale * |x|^2 / 2, the polynomial sum_k (scale / 2) x_k^2."""

    def __init__(self, dim: int, scale: float = 1.0):
        self.scale = float(scale)
        super().__init__(dim, [(0.5 * self.scale, 2 * e) for e in np.eye(dim, dtype=int)])
        self.name = f"paraboloid(scale={scale})" if scale != 1.0 else "paraboloid"


class QuadraticCup(PolynomialField):
    """u = sum_k c_k x_k^2 / 2 (anisotropic paraboloid)."""

    def __init__(self, coeffs: Sequence[float]):
        self.coeffs = np.asarray(coeffs, dtype=float)
        super().__init__(self.coeffs.size, list(zip(0.5 * self.coeffs, 2 * np.eye(self.coeffs.size, dtype=int))))
        self.name = f"cup({','.join(repr(float(c)) for c in coeffs)})"


class Plane(PolynomialField):
    """u = c . x"""

    def __init__(self, coeffs: Sequence[float]):
        self.coeffs = np.asarray(coeffs, dtype=float)
        super().__init__(self.coeffs.size, list(zip(self.coeffs, np.eye(self.coeffs.size, dtype=int))))
        self.name = "plane"


class Constant(PolynomialField):
    """u = c, the polynomial c x^0."""

    def __init__(self, dim: int, c: float = 0.0):
        self.c = float(c)
        super().__init__(dim, [(self.c, (0,) * dim)])
        self.name = f"constant({c})"


class TrigField(ScalarField):
    """u = sum_k amp_k sin(freq_k . x + phase_k): smooth with bounded jets.
    Parameters with leading axes, which broadcast against the points', make
    a family: each point's jet is its own field's, bit for bit."""

    def __init__(self, amps, freqs, phases, domain=None, name="trig"):
        self.amps = np.asarray(amps, dtype=float)
        self.freqs = np.asarray(freqs, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        self.dim = self.freqs.shape[-1]
        self.domain = domain if domain is not None else Ball(self.dim, 2.0)
        self.name = name

    def rows(self, idx):
        """Member idx of a family, or a family for an index array (take
        gathers rows faster than [])."""
        return TrigField(*[v.take(idx, axis=0) for v in (self.amps, self.freqs, self.phases)], self.domain, self.name)

    def values(self, X):
        return np.vecdot(np.sin(np.matvec(self.freqs, X) + self.phases), self.amps)

    def ray_slopes(self, dirs, reach):
        """L = sum_k |a_k| |f_k . d| bounds d/dt u(o + t d), and M = sum_k
        |a_k| (f_k . d)^2 bounds d^2/dt^2 u(o + t d). With unit roundoff r, C =
        n + K + 9 for K modes, S = sum_k |a_k| |f_k|_1, S2 = sum_k |a_k|
        |f_k|_1^2 and rho = reach, a value computed at fl(o + fl(t d)) is
        within N = C r (S rho + sum_k |a_k| (1 + |phi_k|)) of u(o + t d): the
        point, the matvec and the phase move the angle of mode k by (n + 5) r
        |f_k|_1 rho + r |phi_k|, sin (taken as accurate to 4 ulps) adds 8 r and
        the sum K r sum_k |a_k|. The computed L is at most C r (S + L) short.
        The matvec is within n r |f_k|_1 of f_k . d, and |f_k . d| <= |f_k|_1,
        so the computed M is at most 2 C r S2 short, and M <= S2. So delta =
        8 C r (S rho + sum_k |a_k| (1 + |phi_k|) + L rho + S2 rho^2) + 2^-500
        exceeds 6 N, the shortfall of L over t <= rho and the rounding of the
        slope test, and also 2 N, the shortfall of M h^2 / 8 over h <= rho and
        the rounding of the curvature test (see `_slice_rows`)."""
        a, c = np.abs(self.amps), self.dim + self.amps.shape[-1] + 9
        fd, f1 = np.matvec(self.freqs, dirs), np.add.reduce(np.abs(self.freqs), axis=-1)
        slopes, curvs = np.vecdot(np.abs(fd), a), np.vecdot(fd * fd, a)
        size = (np.vecdot(a, f1) + slopes + np.vecdot(a, f1 * f1) * reach) * reach
        return slopes, curvs, 4.0 * _EPS * c * (size + np.vecdot(a, 1.0 + np.abs(self.phases))) + 2.0**-500

    def jets(self, X):
        args = np.matvec(self.freqs, X) + self.phases
        sin = np.sin(args)
        return (
            np.vecdot(sin, self.amps),
            np.vecmat(self.amps * np.cos(args), self.freqs),
            einsum("...k,...ki,...kj->...ij", -self.amps * sin, self.freqs, self.freqs),
        )


def random_trig_field(dim: int, seed: int, modes: int = 4) -> TrigField:
    """Seeded random superposition of sinusoids, of total amplitude 0.6 and
    frequencies in [-1.7, 1.7); the suites' generic field, and the one-seed
    case of `random_trig_family`."""
    family = random_trig_family(dim, [seed], modes)
    return TrigField(family.amps[0], family.freqs[0], family.phases[0], family.domain, f"trig(seed={seed})")


def random_trig_family(dim: int, seeds: Sequence[int], modes: int = 4) -> TrigField:
    """random_trig_field of each seed as one family (see TrigField), bit for
    bit: one draw a seed, of its freqs, phases and amps, into one buffer,
    taken to Generator.uniform(low, high)'s values, low + (high - low) r."""
    r = np.empty((len(seeds), modes * (dim + 2)))
    for seed, row in zip(seeds, r):
        np.random.default_rng(seed).random(out=row)
    low, high = np.repeat([[-1.7, 0.0, 0.3], [1.7, 2.0 * np.pi, 1.0]], [modes * dim, modes, modes], axis=1)
    r = low + (high - low) * r
    freqs, phases, amps = r[:, : modes * dim].reshape(-1, modes, dim), r[:, modes * dim : -modes], r[:, -modes:]
    amps *= 0.6 / np.add.reduce(amps, axis=-1, keepdims=True)
    return TrigField(amps, freqs, phases, name="trig family")


class RadialField(ScalarField):
    """u(x) = p(|x|) for a radial profile: `profile(r, order)` maps an array
    of radii to (p, p', p''), p of the radii's shape and NaN where it is
    undefined, p' and p'' arrays or scalars that broadcast; `values` asks
    for order 0, where (p,) is enough. Below |x| = 1e-12 the jet is the
    symmetric limit (p, 0, p'' I) of the profile at 1e-12, smooth only when
    p'(0) = 0."""

    def __init__(self, dim: int, profile: Callable, domain, name: str = "radial"):
        self.dim = dim
        self.profile = profile
        self.domain = domain
        self.name = name

    def _profile(self, X, order: int):
        """|x| of each row, max(|x|, 1e-12), and the profile there; a p not
        of the radii's shape raises ValueError."""
        r = np.sqrt(np.vecdot(X, X))  # np.linalg.norm of each row, bit for bit
        rr = np.maximum(r, 1e-12)
        p, *rest = self.profile(rr, order)
        if np.shape(p) != rr.shape:
            raise ValueError(f"profile of {self.name} gave p of shape {np.shape(p)} for radii of shape {rr.shape}")
        return r, rr, p, *rest

    def values(self, X):
        return self._profile(X, 0)[2]

    def jets(self, X):
        r, rr, p, dp, ddp = self._profile(X, 2)
        dp, ddp = np.asarray(dp), np.asarray(ddp)
        xu = X / rr[..., None]
        uu = outer(xu, xu)
        ident = eye(self.dim)
        grad = dp[..., None] * xu
        hess = ddp[..., None, None] * uu + (dp / rr)[..., None, None] * (ident - uu)
        origin = r < 1e-12
        if count_nonzero(origin):  # the symmetric limit
            grad = np.where(origin[..., None], 0.0, grad)
            hess = np.where(origin[..., None, None], ddp[..., None, None] * ident, hess)
        return p, grad, hess


class ScaledField(ScalarField):
    def __init__(self, base: ScalarField, factor: float):
        self.base = base
        self.factor = float(factor)
        self.dim = base.dim
        self.domain = base.domain
        self.name = f"scaled({base.name},{factor})"

    def values(self, X):
        return self.factor * self.base.values(X)

    def jets(self, X):
        u, du, ddu = self.base.jets(X)
        return self.factor * u, self.factor * du, self.factor * ddu

    def margin(self, x):
        return self.base.margin(x)


class NegatedField(ScaledField):
    """-u: the scaled field at factor -1. Negation is exact, so the base's
    slope and curvature bounds hold unchanged; a general factor rounds and
    declares none."""

    def __init__(self, base: ScalarField):
        super().__init__(base, -1.0)
        self.name = f"neg({base.name})"

    def ray_slopes(self, dirs, reach):
        return self.base.ray_slopes(dirs, reach)


# ---------------------------------------------------------------------------
# finite-difference mode


class FiniteDifferenceField(ScalarField):
    """Jets by central differences on a field's values, never on its jets:
    the independent oracle. With no explicit step, Du uses eps^(1/3) *
    max(1, |x|) and D^2u eps^(1/4) * max(1, |x|); an explicit step serves
    both (as convergence studies vary it). `values` and `jets` each make one
    call to the field's `values`, `jets` on the whole stencil stack."""

    def __init__(self, field: ScalarField, dim: int, step: float | None = None):
        self._field = field
        self.dim = dim
        self.domain = field.domain
        self.step = None if step is None else np.float64(step)  # a numpy scalar takes [..., None] as a row step does
        self.name = f"fd({field.name})"

    def _steps(self, x):
        """The steps h1 of Du and h2 of D^2u at x or at each row."""
        if self.step is not None:
            return self.step, self.step
        s = np.maximum(1.0, np.sqrt(np.vecdot(x, x)))  # np.linalg.norm of each row, bit for bit
        return _EPS ** (1.0 / 3.0) * s, _EPS**0.25 * s

    def margin(self, x):
        return 2.0 * np.maximum(*self._steps(x))

    def values(self, X):
        return self._field.values(X)

    def jets(self, X):
        n, (a, b, step, sym) = self.dim, _stencil(self.dim)
        h1, h2 = self._steps(X)
        h1, h2 = h1[..., None], h2[..., None]
        h = np.concatenate((h1, h2), axis=-1)[..., step, None]
        f = self._field.values((X[..., None, :] + h * a) + h * b)
        f0, g, d, o = f[..., :1], f[..., 1 : 2 * n + 1], f[..., 2 * n + 1 : 4 * n + 1], f[..., 4 * n + 1 :]
        hh = h2 * h2  # 4 hh is 4 h2 h2 exactly while h2 h2 is normal (h2 > 1.5e-154)
        diag = (d[..., ::2] - 2.0 * f0 + d[..., 1::2]) / hh
        mixed = (o[..., ::4] - o[..., 1::4] - o[..., 2::4] + o[..., 3::4]) / (4.0 * hh)
        return f0[..., 0], (g[..., ::2] - g[..., 1::2]) / (2.0 * h1), np.concatenate([diag, mixed], axis=-1)[..., sym]


@functools.cache
def _stencil(n: int):
    """The central stencil as points (x + h a) + h b: rows a and b, each
    row's step (0 for Du, 1 for the Hessian), and the Hessian's gather from
    its diagonal and pairs k < l. Rows: x, x +- h e_k twice, (x +- h e_k) +-
    h e_l. x - h e_k is x + h (-e_k), -0.0 off axis k; x + (-0.0) is x."""
    eye, z = np.eye(n), np.full(n, -0.0)
    pm = [(e, -e) for e in eye]
    k, l = np.triu_indices(n, 1)
    rows = [(z, z)] + [(d, z) for e in pm for d in e] * 2
    rows += [(c, d) for i, j in zip(k, l) for c in pm[i] for d in pm[j]]
    sym = np.diag(np.arange(n))
    sym[k, l] = sym[l, k] = n + np.arange(len(k))
    out = (*np.array(rows).transpose(1, 0, 2), (np.arange(len(rows)) > 2 * n).astype(int), sym)
    for arr in out:  # shared by every call: read-only
        arr.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# gridded mode

GRID_MIN_SAMPLES = 5
#: the grid basis (a t) (d t + b) + c, columns 3 order + offset: weights, first and second derivatives
_GRID_A = np.array([0.5, -1.0, 0.5, 1.0, -2.0, 1.0, 0.0, 0.0, 0.0])
_GRID_D = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_GRID_B = np.array([-1.0, -0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
_GRID_C = np.array([-0.0, 1.0, -0.0, -0.5, -0.0, 0.5, 1.0, -2.0, 1.0])
for _arr in (_GRID_A, _GRID_D, _GRID_B, _GRID_C):  # shared by every call: read-only
    _arr.flags.writeable = False


class GridField(ScalarField):
    """Uniform tensor grid with local quadratic (3-point per axis) interpolation.

    Queries within a 2h band of the grid boundary are out of domain, and a
    row outside the box is NaN.
    """

    def __init__(self, origin, h: float, samples: np.ndarray, name="grid"):
        self.origin = np.asarray(origin, dtype=float)
        self.h = float(h)
        self.samples = np.asarray(samples, dtype=float)
        self.dim = self.samples.ndim
        if self.origin.size != self.dim:
            raise ValueError("origin dimension does not match sample array rank")
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
        if min(self.samples.shape) < GRID_MIN_SAMPLES:
            raise ValueError(f"need at least {GRID_MIN_SAMPLES} samples per axis")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("grid samples must be finite")
        lo = self.origin
        hi = self.origin + self.h * (np.asarray(self.samples.shape) - 1)
        self.domain = Box(tuple(lo), tuple(hi))
        self.name = name
        # constants of the gather, built once: the box's upper corner, the
        # largest stencil center index on each axis, the samples in C order
        # with each axis' stride and the flat offsets of the 3^n stencil nodes
        # (lexicographic), the basis gathers, and the Hessian's symmetric gather
        self._hi = hi
        self._top = np.asarray(self.samples.shape, dtype=float) - 2.0
        self._flat = self.samples.ravel()
        strides = np.cumprod((self.samples.shape[1:] + (1,))[::-1])[::-1]
        self._strides = strides.astype(float)
        self._nodes = np.array(list(itertools.product((-1, 0, 1), repeat=self.dim))) @ strides
        n, offsets = self.dim, np.array(list(itertools.product((0, 1, 2), repeat=self.dim)))
        eye = np.eye(n, dtype=int)
        k, l = np.triu_indices(n)
        orders = np.concatenate([np.zeros((1, n), dtype=int), eye, eye[k] + eye[l]])
        # the factor of (node, component c, axis a) is entry 3 orders[c, a] + offset[node, a] of axis
        # a's 9 basis values, which lie at 9 a + ... of the basis row
        select = 9 * np.arange(n) + 3 * orders[None, :, :] + offsets[:, None, :]  # (node, component, axis)
        self._select = select[:, :1], select
        self._sym = np.empty((n, n), dtype=int)
        self._sym[k, l] = self._sym[l, k] = n + 1 + np.arange(len(k))

    def margin(self, x) -> float:
        return 2.0 * self.h

    def _gather(self, X, select) -> np.ndarray:
        """The jet components selected by `select` at the rows of a stack,
        last axis; NaN in a row outside the box. Each is the sum over the
        stencil nodes, in order, of the sample times the product over the
        axes, in order, of the basis values, so every row is the per-point
        loop bit for bit. The basis on an axis at offset t from its node is
        (a t) (d t + b) + c per column: the quadratic weights (t/2)(t - 1),
        1 - t^2, (t/2)(t + 1), their derivatives t - 1/2, -2t, t + 1/2 and
        second derivatives 1, -2, 1, each as the loop rounds it (x + -0.0 is
        x, and 0 t + c is c at a finite t, NaN at a NaN one)."""
        idx = np.fmin(np.fmax(np.rint((X - self.origin) / self.h), 1.0), self._top)  # fmax takes NaN to 1
        t = (X - (self.origin + idx * self.h)) / self.h
        t = where((X < self.origin) | (X > self._hi), np.nan, t)[..., None]
        basis = ((_GRID_A * t) * (_GRID_D * t + _GRID_B) + _GRID_C).reshape(X.shape[:-1] + (9 * self.dim,))
        # multiply.reduce multiplies in axis order (only add.reduce sums pairwise)
        products = np.multiply.reduce(basis[..., select], axis=-1)
        nodes = self._flat[(np.vecdot(idx, self._strides)[..., None] + self._nodes).astype(np.intp)]
        # add.accumulate adds in node order; + 0.0 is the 0.0 the loop starts from
        return np.add.accumulate(nodes[..., None] * products, axis=-2)[..., -1, :] + 0.0

    def values(self, X):
        return self._gather(X, self._select[0])[..., 0]

    def jets(self, X):
        n, s = self.dim, self._gather(X, self._select[1])
        return s[..., 0], s[..., 1 : n + 1] / self.h, s[..., self._sym] / (self.h * self.h)

    # ---- file round trip: header "n,h,origin...,counts...", then one sample
    # per line in row-major (C) order.

    def write(self, path) -> None:
        header = [repr(self.dim), repr(self.h)]
        header += [repr(float(v)) for v in self.origin]
        header += [repr(int(c)) for c in self.samples.shape]
        lines = [",".join(header)]
        lines += [repr(float(v)) for v in self.samples.ravel(order="C")]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path) -> "GridField":
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        head = lines[0].split(",")
        dim = int(float(head[0]))
        if len(head) != 2 + 2 * dim:
            raise ValueError(f"grid header needs {2 + 2 * dim} entries, got {len(head)}")
        h = float(head[1])
        origin = [float(v) for v in head[2 : 2 + dim]]
        counts = [int(float(v)) for v in head[2 + dim :]]
        expected = int(np.prod(counts))
        if len(lines) - 1 != expected:
            raise ValueError(f"grid body has {len(lines) - 1} samples, expected {expected}")
        values = np.array([float(v) for v in lines[1:]], dtype=float).reshape(counts, order="C")
        return cls(origin, h, values, name=f"grid({path})")


def sample_to_grid(field: ScalarField, origin, h: float, counts) -> GridField:
    """Sample a field onto a uniform grid: one `values` call on the nodes."""
    origin = np.asarray(origin, dtype=float)
    counts = tuple(int(c) for c in counts)
    nodes = origin + h * np.indices(counts).reshape(len(counts), -1).T
    values = field.values(nodes)
    nan = np.isnan(values)
    if nan.any():
        field.raise_outside(nodes[nan.argmax()])
    return GridField(origin, h, values.reshape(counts), name=f"gridded({field.name})")
