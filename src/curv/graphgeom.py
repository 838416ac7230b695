"""Extrinsic geometry of graph hypersurfaces M = graph(u) in (N x R, g + dt^2).

Conventions. The upward unit normal is nu = (-grad u + d_t)/W with
W = sqrt(1 + |grad u|_g^2), where grad u = g^{ij} u_j d_i. The shape operator
in graph coordinates is

    A^i_j = (g^{ik} - u^i u^k / W^2) (Hess u)_{kj} / W,

with the covariant Hessian (Hess u)_{kj} = u_{kj} - Gamma^m_{kj} u_m. A is
self-adjoint for the induced metric gM_ij = g_ij + u_i u_j, so its
eigenvalues (the principal curvatures) are real. The scalar curvature of M
follows from the ambient curvature decomposition:

    R_M = H^2 - |A|^2 + R_g - 2 Ric_g(nu', nu'),

nu' being the horizontal part of nu.

A level slice Sigma = M cap {t = eps} projects to {u = eps} in N. Its unit
normal inside N x {eps} is eta = -grad u / |grad u|_g, which makes
cos = <nu, eta> = |grad u|/W nonnegative, and its shape operator is
A_Sigma = Hess u restricted to T Sigma / |grad u|. In any g-orthonormal frame
adapted to grad u (first vector along grad u), the lower-right minor of A
satisfies (A|1) = cos * A_Sigma exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import NonRegularPointError, NotOnLevelError
from .fields import ScalarField, eval_jets
from .metrics import FlatMetric, GeneralMetric, MetricJet, metric_jet
from .util import (
    Stacked, _new, as_point, as_points, brentq, brentq_lanes, count_nonzero, einsum, eye, outer, trace, vdot,
)

#: regularity threshold for slice frames: a point is regular where |grad u|_g >= DELTA_REG
DELTA_REG = 1e-6
#: level_slice's relative tolerance on |u(x) - eps|
LEVEL_TOL = 1e-8


@dataclass(frozen=True)
class ExtrinsicPoint(Stacked):
    """Second-order extrinsic data of graph(u) above the base point x, or a
    stack of it, one row per base point (see `extrinsic_points`)."""

    x: np.ndarray
    u: float
    nu: np.ndarray  # n+1 contravariant components, upward
    shape_operator: np.ndarray  # A^i_j in graph coordinates
    mean_curvature: float
    principal: np.ndarray  # eigenvalues of A, ascending
    w: float
    grad: np.ndarray  # covariant u_i
    grad_up: np.ndarray  # contravariant u^i
    cov_hessian: np.ndarray
    base_jet: MetricJet

    @property
    def dim(self) -> int:
        return self.x.shape[-1]

    @property
    def norm_a2(self) -> float | np.ndarray:
        """|A|^2 = tr(A A), computed when it is read."""
        a = self.shape_operator
        return trace(a @ a)

    @property
    def scalar_curvature(self) -> float | np.ndarray:
        """R_M = H^2 - |A|^2 + R_g - 2 Ric_g(nu', nu'), computed when it is read."""
        nu_h, mj = self.nu[..., :-1], self.base_jet
        ric_nn = np.vecdot(np.vecmat(nu_h, mj.ricci), nu_h)
        return self.mean_curvature * self.mean_curvature - self.norm_a2 + mj.scalar - 2.0 * ric_nn


def _generalized_eigvalsh(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each pencil (a[i], b[i]), a[i] symmetric and
    b[i] positive definite, for the whole stack at once: with b = L L^T
    (Cholesky), those of L^-1 a L^-T. Non-finite input raises ValueError, and
    a b that is not positive definite LinAlgError. The gufuncs behind
    np.linalg.cholesky, inv and eigvalsh are called directly, as their
    argument checks would add about 10 us to a one-point solve; one that
    fails flags the invalid state, which np.errstate(invalid="raise"), set
    without its context manager, raises. A non-finite entry makes vdot(a, b)
    non-finite, so only then are the entries tested."""
    if not math.isfinite(vdot(a, b)):
        if count_nonzero(np.isfinite(a)) + count_nonzero(np.isfinite(b)) < a.size + b.size:
            raise ValueError("array must not contain infs or NaNs")
    token = _extobj_contextvar.set(_make_extobj(invalid="raise"))
    try:
        inv = _umath_linalg.inv(_umath_linalg.cholesky_lo(b))
        return _umath_linalg.eigvalsh_lo(inv @ a @ inv.mT)
    except FloatingPointError as err:
        raise LinAlgError(f"generalized eigensolve failed: {err}") from None
    finally:
        _extobj_contextvar.reset(token)


#: np.linalg.eigvalsh of a stack of finite symmetric matrices, less the wrapper's checks
eigvalsh = _umath_linalg.eigvalsh_lo


def extrinsic_points(field: ScalarField, base, X) -> ExtrinsicPoint:
    """The extrinsic package of graph(field) at every row of X, shape (m, n),
    as an ExtrinsicPoint stack; row i equals extrinsic_point(field, base,
    X[i]) bit for bit."""
    X = as_points(X, field.dim)
    u, grad, hess = eval_jets(field, X)
    mj = base.jets(X)

    grad_up = np.matvec(mj.ginv, grad)
    w2 = 1.0 + np.vecdot(grad, grad_up)
    w = np.sqrt(w2)

    hess_cov = hess - einsum("imkj,im->ikj", mj.gamma, grad)
    proj = mj.ginv - outer(grad_up, grad_up) / w2[:, None, None]
    a = proj @ hess_cov / w[:, None, None]

    gm = mj.g + outer(grad, grad)  # the induced metric gM_ij = g_ij + u_i u_j
    h_form = gm @ a
    h_form = 0.5 * (h_form + h_form.mT)
    principal = _generalized_eigvalsh(h_form, gm)

    nu = np.empty((len(X), field.dim + 1))  # (-grad u, 1) / W
    nu[:, :-1], nu[:, -1] = -grad_up, 1.0
    nu /= w[:, None]
    return _new(ExtrinsicPoint, dict(
        x=X, u=u, nu=nu, shape_operator=a, mean_curvature=trace(a), principal=principal, w=w,
        grad=grad, grad_up=grad_up, cov_hessian=hess_cov, base_jet=mj,
    ))


def extrinsic_point(field: ScalarField, base, x) -> ExtrinsicPoint:
    """Evaluate the full extrinsic package of graph(field) at base point x."""
    return extrinsic_points(field, base, as_point(x, field.dim)[None]).row(0)


# ---------------------------------------------------------------------------
# adapted frames and level slices


def adapted_frames(grad_up: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The adapted frame of each row of grad_up (m, n) for g (m, n, n); row
    i equals adapted_frame(grad_up[i], g[i]) bit for bit."""
    m, n = grad_up.shape
    norm = np.sqrt(np.vecdot(np.vecmat(grad_up, g), grad_up))
    if count_nonzero(norm) < m:
        raise ValueError("adapted frame needs a nonzero gradient")
    frame = np.zeros((m, n, n))
    frame[:, :, 0] = grad_up / norm[:, None]
    axes, eg, filled = eye(n), [], None  # e^T g of the columns every row has; columns per row, once rows differ
    fewest = most = 1 if m else n
    for k in range(n):
        if fewest == n:
            break
        v = axes[k]
        # a column a row has not found yet is zero and leaves its v as it is
        # (v never holds -0.0, so v - (+-0.0) = v)
        for j in range(most):
            e = frame[:, :, j]
            if j == len(eg):
                eg.append(np.vecmat(e, g))
            v = v - np.vecdot(eg[j], v)[:, None] * e
        vn = np.sqrt(np.vecdot(np.vecmat(v, g), v))
        take = vn > 1e-10
        if filled is None and count_nonzero(take) == m:  # every row gains column `most`
            frame[:, :, most] = v / vn[:, None]
            fewest = most = most + 1
        else:
            filled = np.full(m, most) if filled is None else filled
            rows = np.flatnonzero(take & (filled < n))
            frame[rows, :, filled[rows]] = v[rows] / vn[rows, None]
            filled[rows] += 1
            del eg[fewest:]  # rows write only to columns from `fewest` on
            fewest, most = filled.min(), filled.max()
    if fewest != n:
        raise ValueError("failed to complete the adapted frame")
    return frame


def adapted_frame(grad_up: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g-orthonormal frame with first column along grad_up.

    Remaining columns come from Gram-Schmidt over the coordinate axes taken
    in index order (the smallest-index axis wins ties), which makes the frame
    deterministic.
    """
    return adapted_frames(np.asarray(grad_up, dtype=float)[None], np.asarray(g, dtype=float)[None])[0]


@dataclass(frozen=True)
class SliceFrame(Stacked):
    """Level-slice data of Sigma = {u = eps} inside N x {eps}, or a stack of
    it (see `slice_frames`)."""

    eps: float
    x: np.ndarray
    eta: np.ndarray  # contravariant, eta = -grad u/|grad u|
    a_sigma: np.ndarray  # shape operator of Sigma in the orthonormal frame E_2..E_n
    h_sigma: float
    cos_angle: float  # <nu, eta> = |grad u|/W in [0, 1]
    frame: np.ndarray  # columns E_1 = grad u/|grad u|, E_2, ..., E_n
    grad_norm: float

    @property
    def dim(self) -> int:
        return self.x.shape[-1]


def level_slice(field: ScalarField, base, eps: float, x) -> SliceFrame:
    """Slice frame at a point of {u = eps}.

    Raises NotOnLevelError if u(x) != eps (up to LEVEL_TOL) and
    NonRegularPointError when |grad u|_g < DELTA_REG; an exactly vanishing
    gradient is reported on the error as the distinct exact_zero outcome.
    """
    x = as_point(x, field.dim)
    point = extrinsic_point(field, base, x)
    if abs(point.u - eps) > LEVEL_TOL * max(1.0, abs(eps)):
        raise NotOnLevelError(f"u(x) = {point.u} is not on the level {eps}")
    return slice_frame_of_point(point, eps)


def adapted_matrix(frame: np.ndarray, g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The operator a in the g-orthonormal frame: P^-1 a P = P^T g a P, for
    one matrix or a stack."""
    return frame.mT @ g @ a @ frame


def _grad_norms(points: ExtrinsicPoint) -> np.ndarray:
    return np.sqrt(np.vecdot(points.grad, points.grad_up))


def slice_frames(points: ExtrinsicPoint, eps) -> tuple[np.ndarray, SliceFrame]:
    """Slice frames of a stack of extrinsic points, at the level eps (one
    value, or one per row).

    Returns the mask of the regular rows, those with |grad u|_g >= DELTA_REG,
    and the SliceFrame stack of those rows; row i of the stack equals
    slice_frame_of_point on its point bit for bit. A row off the mask is one
    where slice_frame_of_point raises `nonregular_error`. A slice of a
    surface over a base of dimension below 2 is a point, and raises
    ValueError.
    """
    if points.dim < 2:
        raise ValueError(f"level slices need dimension >= 2, got {points.dim}")
    grad_norm = _grad_norms(points)
    regular = ~(grad_norm < DELTA_REG)
    levels = np.empty(len(grad_norm))  # np.full less its Python wrapper
    levels[...] = eps
    if count_nonzero(regular) < len(regular):
        points, grad_norm, levels = points.select(regular), grad_norm[regular], levels[regular]
    frame = adapted_frames(points.grad_up, points.base_jet.g)
    tangent = frame[:, :, 1:]
    a_sigma = tangent.mT @ points.cov_hessian @ tangent / grad_norm[:, None, None]
    a_sigma = 0.5 * (a_sigma + a_sigma.mT)
    return regular, _new(SliceFrame, dict(
        eps=levels, x=points.x, eta=-points.grad_up / grad_norm[:, None], a_sigma=a_sigma, h_sigma=trace(a_sigma),
        cos_angle=grad_norm / points.w, frame=frame, grad_norm=grad_norm,
    ))


def nonregular_error(points: ExtrinsicPoint, row: int) -> NonRegularPointError:
    """The error slice_frame_of_point raises at a row off the regular mask."""
    grad_norm = float(_grad_norms(points)[row])
    return NonRegularPointError(
        f"|grad u| = {grad_norm:.3e} below the regularity threshold {DELTA_REG:.3e}",
        grad_norm=grad_norm,
        exact_zero=(grad_norm == 0.0),
    )


def slice_frame_of_point(point: ExtrinsicPoint, eps: float) -> SliceFrame:
    """Build the slice frame from already-computed extrinsic data."""
    points = point.stacked()
    regular, frames = slice_frames(points, eps)
    if not regular[0]:
        raise nonregular_error(points, 0)
    return frames.row(0)


def minor_relation_residuals(frames: SliceFrame, points: ExtrinsicPoint) -> np.ndarray:
    """Row by row minor_relation_residual of two stacks of equal length."""
    if frames.dim != points.dim:
        raise ValueError("frame and point dimensions differ")
    if not np.allclose(frames.x, points.x, atol=1e-12):
        raise ValueError("frame and point sit at different base points")
    minor = adapted_matrix(frames.frame, points.base_jet.g, points.shape_operator)[:, 1:, 1:]
    gap = minor - frames.cos_angle[:, None, None] * frames.a_sigma
    return np.abs(gap).max(axis=(1, 2), initial=0.0)


def minor_relation_residual(frame: SliceFrame, point: ExtrinsicPoint) -> float:
    """Max-norm of (A|1) - <nu, eta> A_Sigma, recomputing the minor from the
    supplied extrinsic point in the frame's adapted basis."""
    return float(minor_relation_residuals(frame.stacked(), point.stacked())[0])


# ---------------------------------------------------------------------------
# independent oracles


def intrinsic_scalar_curvature(field: ScalarField, base, x) -> float:
    """Scalar curvature of the induced metric gM = g + du (x) du, computed by
    finite differences on the metric components. Independent of the
    Gauss-relation route inside extrinsic_point."""
    x = as_point(x, field.dim)

    def components(Y):
        u, du, _ = field.jets(Y)
        nan = np.isnan(u)
        if nan.any():  # the first undefined stencil point raises the field's own error
            field.raise_outside(Y[nan.argmax()])
        return base.jets(Y).g + outer(du, du)

    induced = GeneralMetric(field.dim, components, name="induced")
    return metric_jet(induced, x).scalar


def slice_shape_sampled(field: ScalarField, eps: float, x, step: float = 1e-3) -> np.ndarray:
    """Shape operator of the slice {u = eps} over a flat base, estimated from
    the level set itself.

    The level set is written locally as a graph over its tangent plane at x:
    points x + s E + tau(s) m with m = grad u/|grad u| are traced by 1-D root
    finding in tau, and the second fundamental form for eta = -m is the
    negated second difference of tau. Order-2 accurate in `step`; entirely
    independent of the Hessian of u.
    """
    x = as_point(x, field.dim)
    n = field.dim
    grad = field.gradient(x)
    gn = float(np.linalg.norm(grad))
    if gn < DELTA_REG:
        raise NonRegularPointError("sampled slice operator needs a regular point", grad_norm=gn)
    m = grad / gn
    frame = adapted_frame(grad, np.eye(n))
    tangent = frame[:, 1:]

    span = 10.0 * step + 10.0 * abs(field.value(x) - eps) / gn

    # the corridor offsets: 0, then +-step E_a, then step (+-E_a +-E_b) for a < b
    E, pairs = tangent.T, [(a, b) for a in range(n - 1) for b in range(a + 1, n - 1)]
    offsets = [np.zeros(n)] + [o for a in range(n - 1) for o in (step * E[a], -step * E[a])]
    offsets += [step * o for a, b in pairs for o in (E[a] + E[b], E[a] - E[b], -E[a] + E[b], -E[a] - E[b])]
    starts, lanes = x + np.array(offsets), np.arange(len(offsets))
    ends = np.full(len(offsets), span)

    def corridor(t, k):
        return field.values(starts[k] + t[:, None] * m) - eps

    if (corridor(-ends, lanes) * corridor(ends, lanes) > 0).any():
        raise ValueError("level set left the sampling corridor")
    taus = brentq_lanes(corridor, -ends, ends, xtol=1e-12)
    for k in np.flatnonzero(np.isnan(taus)):
        # a corridor that met an undefined point, solved point by point, raises the field's error there
        taus[k] = brentq(lambda t: field.value(starts[k] + t * m) - eps, -span, span, xtol=1e-12)
    t0, sides, corners = taus[0], taus[1 : 2 * n - 1].reshape(-1, 2), taus[2 * n - 1 :].reshape(-1, 4)
    out = np.zeros((n - 1, n - 1))
    out[np.diag_indices(n - 1)] = (sides[:, 0] - 2.0 * t0 + sides[:, 1]) / step**2
    for (a, b), (tpp, tpm, tmp, tmm) in zip(pairs, corners):
        out[a, b] = out[b, a] = (tpp - tpm - tmp + tmm) / (4.0 * step**2)
    return -out  # second form for eta = -m


def flat_base(dim: int) -> FlatMetric:
    return FlatMetric(dim)
