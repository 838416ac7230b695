"""Base metrics on R^n and their curvature jets.

Supported kinds:

* flat (identity components, zero curvature),
* conformally flat g = phi^-2 delta with closed-form Christoffel symbols and
  Ricci/scalar curvature assembled from the jets of w = -log(phi),
* general component callables on stacks of points, with curvature from one
  fourth-order central-difference program over the stencils of all rows.

Each kind defines one route, `jets(X)` on a stack of rows; `jet(x)` is its
one-row case.

The ambient product space is N x R with metric g + dt^2, optionally rescaled
by a conformal factor phi(x, t)^-2; `AmbientSpec` bundles the base with the
factor's first-order jet.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConformalFactorError, MetricNotPositiveError
from .util import Stacked, _new, as_point, count_nonzero, einsum, eye, outer, trace


@dataclass(frozen=True)
class MetricJet(Stacked):
    """Metric data at a point: components, inverse, Christoffel symbols
    gamma[k, i, j] = Gamma^k_ij, Ricci tensor, and scalar curvature; or a
    stack of them, one row per point."""

    g: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray
    ricci: np.ndarray
    scalar: float


class Metric:
    """Base of the metric kinds. A kind defines `jets(X)`, the MetricJet
    stack on the rows of X, shape (m, n), as one array program whose rows do
    not mix; `jet(x)` is row 0 of the stack of x, so row i of a stack equals
    jet(X[i]) bit for bit."""

    def jet(self, x) -> MetricJet:
        return self.jets(as_point(x, self.dim)[None]).row(0)


class FlatMetric(Metric):
    def __init__(self, dim: int):
        self.dim = dim
        self.name = "flat"

    def jets(self, X) -> MetricJet:
        m, n = len(X), self.dim
        g = eye(n)[None].repeat(m, axis=0)
        gamma, ricci = np.zeros((m, n, n, n)), np.zeros((m, n, n))
        return _new(MetricJet, dict(g=g, ginv=g, gamma=gamma, ricci=ricci, scalar=np.zeros(m)))


class ConformalMetric(Metric):
    """g = phi(x)^-2 delta with closed-form curvature.

    factor_jet(X) takes a point, shape (n,), or a stack of rows, shape
    (m, n), and returns (phi, grad phi, hess phi): shapes (), (n,), (n, n)
    at a point and (m,), (m, n), (m, n, n) on a stack, where hess phi may
    be any array that broadcasts to its shape; phi must be positive. The
    jets are one array program over the rows, with every power a
    `np.float_power`, which rounds as scalar `**` does.
    """

    def __init__(self, dim: int, factor_jet: Callable[[np.ndarray], tuple], name="conformal"):
        self.dim = dim
        self.factor_jet = factor_jet
        self.name = name

    def jets(self, X) -> MetricJet:
        n = self.dim
        phi, dphi, ddphi = self.factor_jet(X)
        bad = phi <= 0.0
        if count_nonzero(bad):
            i = np.argmax(bad)
            raise ConformalFactorError(f"conformal factor {phi[i]} is not positive at {X[i].tolist()}")
        # g = e^{2w} delta with w = -log(phi)
        phi2 = np.float_power(phi, 2.0)[:, None, None]
        w1 = -dphi / phi[:, None]
        w2 = outer(dphi, dphi) / phi2 - ddphi / phi[:, None, None]
        lap_w = trace(w2)
        grad2 = np.vecdot(w1, w1)
        e = eye(n)
        # Gamma^k_ij = delta_ki w_j + delta_kj w_i - delta_ij w_k: the three
        # products are views of d[:, k, i, j] = delta_ki w_j
        d = e[:, :, None] * w1[:, None, None, :]
        gamma = d + d.transpose(0, 1, 3, 2) - d.transpose(0, 3, 1, 2)
        ricci = (2.0 - n) * (w2 - outer(w1, w1)) - (lap_w + (n - 2.0) * grad2)[:, None, None] * e
        scalar = phi2[:, 0, 0] * (-2.0 * (n - 1) * lap_w - (n - 1.0) * (n - 2) * grad2)
        return _new(MetricJet, dict(g=e / phi2, ginv=e * phi2, gamma=gamma, ricci=ricci, scalar=scalar))


#: GeneralMetric's finite-difference step
GENERAL_STEP = 1e-3


@functools.cache
def _general_stencil(n: int):
    """GeneralMetric's fourth-order stencil (Fornberg 1988): the offsets, in
    steps of GENERAL_STEP, of the point, of its neighbours 2, 1, -1, -2
    steps along each axis, and of the 16 points s e_k + t e_l for k < l with
    s and t among those steps; and the weights on those four steps of 12 h
    d/dx (row 0) and of 12 h^2 d^2/dx^2, less its -30 f(x) (row 1). Shared
    by every call: read-only."""
    steps = np.array([2.0, 1.0, -1.0, -2.0])
    axis = steps[:, None, None] * np.eye(n)  # (step, k, n)
    k, l = np.triu_indices(n, 1)
    pairs = axis[:, None, k] + axis[None, :, l]  # (step on k, step on l, pair, n)
    offsets = np.concatenate([np.zeros((1, n)), axis.reshape(-1, n), pairs.reshape(-1, n)])
    weights = np.array([[-1.0, 8.0, -8.0, 1.0], [-1.0, 16.0, 16.0, -1.0]])
    for arr in (offsets, weights):
        arr.flags.writeable = False
    return offsets, weights


def _weigh(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_s w[s] a[:, s], term by term: elementwise, so rows do not mix."""
    return functools.reduce(np.add, [ws * a[:, s] for s, ws in enumerate(w)])


class GeneralMetric(Metric):
    """Metric from a component callable, the finite-difference oracle.

    components(Y) takes a stack of rows, shape (k, n), and returns the
    metric at each, shape (k, n, n). The jets make one components call on
    the stencil of every row and differentiate it with fourth-order central
    differences of step GENERAL_STEP; the first row whose metric is not
    positive definite raises MetricNotPositiveError."""

    def __init__(self, dim: int, components: Callable[[np.ndarray], np.ndarray], name="general"):
        self.dim = dim
        self.components = components
        self.name = name

    def jets(self, X) -> MetricJet:
        m, n, h = len(X), self.dim, GENERAL_STEP
        offsets, (w1, w2) = _general_stencil(n)
        Y = (X[:, None] + h * offsets).reshape(-1, n)
        c = np.asarray(self.components(Y), dtype=float)
        if c.shape != (len(Y), n, n):
            raise ValueError(f"metric components must be a stack of {n}x{n} matrices, got shape {c.shape}")
        c = c.reshape(m, len(offsets), n, n)
        g = c[:, 0]
        bad = np.linalg.eigvalsh(0.5 * (g + g.swapaxes(1, 2)))[:, 0] <= 0
        if count_nonzero(bad):
            raise MetricNotPositiveError(f"metric {self.name} not positive definite at {X[np.argmax(bad)].tolist()}")
        k, l = np.triu_indices(n, 1)
        axis = c[:, 1 : 4 * n + 1].reshape(m, 4, n, n, n)  # (row, step, k, i, j)
        pairs = c[:, 4 * n + 1 :].reshape(m, 4, 4, len(k), n, n)  # (row, step on k, step on l, pair, i, j)
        dg = _weigh(w1, axis) / (12 * h)  # dg[:, k] = d_k g
        ddg = np.empty((m, n, n, n, n))  # ddg[:, k, l] = d_k d_l g
        ddg[:, range(n), range(n)] = (_weigh(w2, axis) - 30 * g[:, None]) / (12 * h * h)
        ddg[:, k, l] = ddg[:, l, k] = _weigh(w1, _weigh(w1, pairs)) / (144 * h * h)
        return _assemble_curvature(g, dg, ddg)


def _assemble_curvature(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> MetricJet:
    """Christoffel, Ricci, scalar from the stacks of g, d_k g_ij and
    d_k d_l g_ij, row by row."""
    ginv = np.linalg.inv(g)
    # Gamma^k_ij = 1/2 g^{kl} bracket[l, i, j], bracket[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    bracket = dg.transpose(0, 3, 1, 2) + dg.transpose(0, 3, 2, 1) - dg
    gamma = 0.5 * einsum("mkl,mlij->mkij", ginv, bracket)
    # d_p Gamma^k_ij needs d(g^{-1}) = -ginv dg ginv
    dginv = -einsum("mab,mpbc,mcd->mpad", ginv, dg, ginv)
    dbracket = ddg.transpose(0, 1, 4, 2, 3) + ddg.transpose(0, 1, 4, 3, 2) - ddg
    dgamma = 0.5 * (einsum("mpkl,mlij->mpkij", dginv, bracket) + einsum("mkl,mplij->mpkij", ginv, dbracket))
    # Ric_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_kp Gamma^p_ij - Gamma^k_ip Gamma^p_kj
    ricci = (
        einsum("mkkij->mij", dgamma)
        - einsum("mikkj->mij", dgamma)
        + einsum("mkkp,mpij->mij", gamma, gamma)
        - einsum("mkip,mpkj->mij", gamma, gamma)
    )
    ricci = 0.5 * (ricci + ricci.swapaxes(1, 2))
    scalar = einsum("mij,mij->m", ginv, ricci)
    return _new(MetricJet, dict(g=g, ginv=ginv, gamma=gamma, ricci=ricci, scalar=scalar))


def metric_jet(metric, x) -> MetricJet:
    """Metric data at x for any of the metric kinds."""
    return metric.jet(x)


def round_sphere_factor(x):
    """phi = (1 + |x|^2)/2, the factor whose metric phi^-2 delta is the round
    unit sphere (less a point); at a point or at the rows of a stack, whose
    Hessians are all the one identity matrix."""
    x = np.asarray(x, dtype=float)
    return (1.0 + np.vecdot(x, x)) / 2.0, x.copy(), eye(x.shape[-1])


def round_sphere_base(dim: int) -> ConformalMetric:
    return ConformalMetric(dim, round_sphere_factor, name="round-sphere")


# ---------------------------------------------------------------------------
# ambient product space


@dataclass(frozen=True)
class PhiJet(Stacked):
    """The ambient factor phi, its x-gradient and its t-derivative at a
    point (x, t), or a stack of them."""

    value: float
    grad_x: np.ndarray
    dt: float


@dataclass(frozen=True)
class AmbientSpec:
    """Base metric g on N plus the conformal factor phi(x, t) of the ambient
    metric phi^-2 (g + dt^2); phi_jet is None for the plain product metric.

    phi_jet(x, t) takes a point x, shape (n,), with its height t, or a stack
    of rows x, shape (m, n), with heights t, shape (m,), and returns the
    PhiJet at the point or the PhiJet stack at the rows."""

    base: object
    phi_jet: Callable[[np.ndarray, np.ndarray], PhiJet] | None = None
    name: str = "product"

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def is_round_sphere(self) -> bool:
        """True for the unit round sphere that `spherical_ambient` builds: its
        own factor over a flat base, whatever the spec is named."""
        return self.phi_jet is round_ambient_factor and isinstance(self.base, FlatMetric)

    def phis(self, X: np.ndarray, t: np.ndarray) -> PhiJet:
        """The PhiJet stack at the rows (X[i], t[i]), one call of phi_jet.
        The first row with a factor that is not positive raises
        ConformalFactorError."""
        m = len(X)
        if self.phi_jet is None:
            return _new(PhiJet, dict(value=np.ones(m), grad_x=np.zeros((m, self.base.dim)), dt=np.zeros(m)))
        out = self.phi_jet(X, t)
        bad = out.value <= 0.0
        if count_nonzero(bad):
            i = np.argmax(bad)
            raise ConformalFactorError(f"ambient factor {out.value[i]} not positive at {[*X[i].tolist(), float(t[i])]}")
        return out


def product_ambient(dim: int, base=None) -> AmbientSpec:
    return AmbientSpec(base if base is not None else FlatMetric(dim), None, "product")


def round_ambient_factor(x, t) -> PhiJet:
    """phi = (1 + |x|^2 + t^2)/2, whose rescaled flat product is the round
    unit (n+1)-sphere; at a point, or at the rows of a stack x with heights t."""
    x = np.asarray(x, dtype=float)
    return _new(PhiJet, dict(value=(1.0 + np.vecdot(x, x) + t * t) / 2.0, grad_x=x.copy(), dt=t))


def spherical_ambient(dim: int) -> AmbientSpec:
    """Flat base with phi = (1 + |x|^2 + t^2)/2: the round (n+1)-sphere."""
    return AmbientSpec(FlatMetric(dim), round_ambient_factor, "spherical")


def constant_ambient(dim: int, value: float = 1.0) -> AmbientSpec:
    """Constant conformal factor; rescales the product metric rigidly."""
    if value <= 0:
        raise ConformalFactorError("constant factor must be positive")

    def jet(x, t):
        return PhiJet(np.full(np.shape(t), float(value)), np.zeros(np.shape(x)), np.zeros(np.shape(t)))

    return AmbientSpec(FlatMetric(dim), jet, f"constant({value})")
