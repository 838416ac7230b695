"""Conformal change of the ambient product metric.

For gbar = phi^-2 (g + dt^2) the shape operator of a hypersurface transforms
as Abar = phi A + nu(phi) I and the mean curvature as Hbar = phi H + n nu(phi),
where nu(phi) is the derivative of phi along the (product-metric) upward unit
normal. For a level slice Sigma inside N x {eps} the same shift with the
slice normal eta gives Abar_Sigma = phi A_Sigma + eta(phi) I, and splitting
nu into its eta and d_t parts turns the exact minor relation into

    phi (A|1) + nu(phi) I = <nu, eta> Abar_Sigma + <nu, d_t> phi_t I,

whose trace is the bracket B of the `phi` inequality in `curv.inequality`;
that check computes Abar_Sigma and Hbar_Sigma.

The distinguished factor phi = (1 + |X|^2)/2 on R^{n+1} produces the round
unit sphere; for graphs over R^n its mean curvature operator evaluates as

    H(u) = (1 + |x|^2 + u^2)/2 * (flat mean curvature) + n (u - x . Du)/W.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, eval_jet
from .graphgeom import ExtrinsicPoint, extrinsic_points
from .metrics import AmbientSpec, PhiJet
from .util import Stacked, _new, as_point


def normal_derivative(point: ExtrinsicPoint, phi_jet: PhiJet) -> float | np.ndarray:
    """nu(phi) = dphi(nu), pairing the factor differential with the upward
    normal's contravariant components (metric independent); at a point or
    row by row over a stack."""
    return np.vecdot(phi_jet.grad_x, point.nu[..., :-1]) + phi_jet.dt * point.nu[..., -1]


@dataclass(frozen=True)
class ConformalPoint(Stacked):
    """Extrinsic data of the same graph point after the conformal change, or
    a stack of it (see `conformal_points`)."""

    point: ExtrinsicPoint
    factor: PhiJet  # the ambient factor jet at (x, u)
    dphi_nu: float
    mean_curvature: float
    norm_a2: float
    principal: np.ndarray  # Abar's eigenvalues, phi times A's plus nu(phi), ascending
    scalar_curvature: float | None  # via the round Gauss relation; round-sphere ambient only


def conformal_points(field: ScalarField, ambient: AmbientSpec, X) -> ConformalPoint:
    """Graph geometry at every row of X, shape (m, n), in the conformally
    rescaled ambient, as a ConformalPoint stack; row i equals
    conformal_point(field, ambient, X[i]) bit for bit."""
    pt = extrinsic_points(field, ambient.base, X)
    pj = ambient.phis(pt.x, pt.u)
    mu = normal_derivative(pt, pj)
    n = pt.dim
    principal = pj.value[:, None] * pt.principal + mu[:, None]
    principal.sort(axis=-1)
    hbar = pj.value * pt.mean_curvature + n * mu
    norm2 = np.add.reduce(principal**2, -1)
    # the Gauss relation R = n(n-1) + Hbar^2 - |Abar|^2 needs the rescaled
    # ambient to be the unit round sphere; leave R unset otherwise
    scalar = None
    if ambient.is_round_sphere:
        scalar = n * (n - 1) + hbar * hbar - norm2
    return _new(ConformalPoint, dict(
        point=pt, factor=pj, dphi_nu=mu, mean_curvature=hbar, norm_a2=norm2, principal=principal,
        scalar_curvature=scalar,
    ))


def conformal_point(field: ScalarField, ambient: AmbientSpec, x) -> ConformalPoint:
    """Evaluate graph geometry at x in the conformally rescaled ambient."""
    return conformal_points(field, ambient, as_point(x, field.dim)[None]).row(0)


def mean_curvature_spherical(field: ScalarField, x) -> float:
    """Direct evaluation of the spherical graph mean curvature operator

        H(u) = (1 + |x|^2 + u^2)/2 * H_flat(u) + n (u - x . Du) / W.

    Written independently of the conformal_point route so the two can serve
    as mutual oracles.
    """
    x = as_point(x, field.dim)
    jet = eval_jet(field, x)
    g = np.asarray(jet.gradient, dtype=float)
    n = field.dim
    w2 = 1.0 + float(g @ g)
    w = float(np.sqrt(w2))
    phi = (1.0 + float(x @ x) + jet.value**2) / 2.0
    flat = float(np.trace((np.eye(n) - np.outer(g, g) / w2) @ jet.hessian)) / w
    return phi * flat + n * (jet.value - float(x @ g)) / w
