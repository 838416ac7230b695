"""Curvature inequalities at regular level-slice points, with equality
diagnostics.

Product metric (which = "prod"), for M = graph(u) in (N x R, g + dt^2) and
Sigma = M cap {t = eps}:

    <nu,eta> H H_Sigma >= 1/2 R_M - 1/2 R_g + <nu,eta>^2 Ric_g(eta,eta)
                          + n/(2(n-1)) <nu,eta>^2 H_Sigma^2.

Conformally product metric (which = "phi"), with Hbar, Abar the rescaled
data and B = <nu,eta> Hbar_Sigma + (n-1) <nu,d_t> phi_t:

    Hbar B >= 1/2 (Hbar^2 - |Abar|^2) + n/(2(n-1)) B^2.

"euclid" and "sphere" are the flat-base and round-sphere-factor
specializations. Equality holds exactly when Sigma is umbilic and the
ambient shape operator has the predicted eigenvalue with multiplicity at
least n-1; the report carries both deviations and an equality flag.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .conformal import conformal_point, normal_derivative
from .errors import NonRegularPointError
from .fields import ScalarField
from .graphgeom import DELTA_REG, extrinsic_point, slice_frame_of_point
from .metrics import AmbientSpec, product_ambient, spherical_ambient
from .util import as_point, unit_directions

WHICH = ("prod", "phi", "euclid", "sphere")

#: equality thresholds, relative to 1 + the relevant operator norm
UMBILIC_TOL = 1e-6
MULTIPLICITY_TOL = 1e-6


@dataclass(frozen=True)
class InequalityReport:
    which: str
    x: tuple[float, ...]
    eps: float
    lhs: float
    rhs: float
    gap: float
    cos_angle: float
    h_mean: float  # H (prod/euclid) or Hbar (phi/sphere)
    h_sigma: float  # H_Sigma or Hbar_Sigma
    kappa: float  # mean slice principal curvature
    umbilicity_deviation: float
    multiplicity_diagnostic: float
    equality_detected: bool
    extras: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "which": self.which,
            "x": list(self.x),
            "eps": self.eps,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "cos_angle": self.cos_angle,
            "h_mean": self.h_mean,
            "h_sigma": self.h_sigma,
            "kappa": self.kappa,
            "umbilicity_deviation": self.umbilicity_deviation,
            "multiplicity_diagnostic": self.multiplicity_diagnostic,
            "equality_detected": self.equality_detected,
        }
        out.update({k: v for k, v in sorted(self.extras.items())})
        return out


CSV_COLUMNS = (
    "which",
    "eps",
    "x",
    "lhs",
    "rhs",
    "gap",
    "cos_angle",
    "h_mean",
    "h_sigma",
    "kappa",
    "umbilicity_deviation",
    "multiplicity_diagnostic",
    "equality_detected",
)


def _equality_diagnostics(
    slice_eigs: np.ndarray, ambient_eigs: np.ndarray, predicted: float
) -> tuple[float, float, float, bool]:
    """(kappa, umbilicity deviation, multiplicity diagnostic, equality flag)."""
    kappa = float(np.mean(slice_eigs))
    spread = float(slice_eigs.max() - slice_eigs.min()) if slice_eigs.size else 0.0
    dist = np.sort(np.abs(ambient_eigs - predicted))
    # n-1 of the n ambient eigenvalues must sit at the predicted value
    mult = float(dist[:-1].max()) if dist.size > 1 else float(dist.max())
    norm_slice = float(np.max(np.abs(slice_eigs))) if slice_eigs.size else 0.0
    norm_amb = float(np.max(np.abs(ambient_eigs)))
    equal = spread <= UMBILIC_TOL * (1.0 + norm_slice) and mult <= MULTIPLICITY_TOL * (
        1.0 + norm_amb
    )
    return kappa, spread, mult, equal


def check_prod(field: ScalarField, base, eps: float, x, delta_reg: float = DELTA_REG) -> InequalityReport:
    """Product-metric inequality at a regular point of {u = eps}."""
    pt = extrinsic_point(field, base, x)
    fr = slice_frame_of_point(pt, eps, delta_reg=delta_reg)
    cos = fr.cos_angle
    n = pt.dim
    mj = pt.base_jet
    ric_eta = float(fr.eta @ mj.ricci @ fr.eta)
    lhs = cos * pt.mean_curvature * fr.h_sigma
    rhs = (
        0.5 * pt.scalar_curvature
        - 0.5 * mj.scalar
        + cos * cos * ric_eta
        + n / (2.0 * (n - 1.0)) * cos * cos * fr.h_sigma**2
    )
    slice_eigs = np.linalg.eigvalsh(fr.a_sigma)
    kappa, spread, mult, equal = _equality_diagnostics(
        slice_eigs, pt.principal, cos * float(np.mean(slice_eigs))
    )
    return InequalityReport(
        which="prod",
        x=tuple(float(v) for v in pt.x),
        eps=float(eps),
        lhs=float(lhs),
        rhs=float(rhs),
        gap=float(lhs - rhs),
        cos_angle=cos,
        h_mean=pt.mean_curvature,
        h_sigma=fr.h_sigma,
        kappa=kappa,
        umbilicity_deviation=spread,
        multiplicity_diagnostic=mult,
        equality_detected=equal,
        extras={"scalar_m": pt.scalar_curvature, "scalar_base": mj.scalar},
    )


def check_euclid(field: ScalarField, eps: float, x, delta_reg: float = DELTA_REG) -> InequalityReport:
    """Flat-base specialization: rhs = R_M/2 + n/(2(n-1)) cos^2 H_Sigma^2."""
    from .metrics import FlatMetric

    rep = check_prod(field, FlatMetric(field.dim), eps, x, delta_reg=delta_reg)
    return replace(rep, which="euclid")


def check_phi(
    field: ScalarField, ambient: AmbientSpec, eps: float, x, delta_reg: float = DELTA_REG
) -> InequalityReport:
    """Conformally-product inequality at a regular point of {u = eps}."""
    cp = conformal_point(field, ambient, x)
    pt = cp.point
    fr = slice_frame_of_point(pt, eps, delta_reg=delta_reg)
    n = pt.dim
    pj = ambient.phi(pt.x, pt.u)
    dphi_eta = float(pj.grad_x @ fr.eta)
    abar_sigma = pj.value * fr.a_sigma + dphi_eta * np.eye(n - 1)
    hbar_sigma = float(np.trace(abar_sigma))
    nu_t = pt.nu[-1]
    bracket = fr.cos_angle * hbar_sigma + (n - 1.0) * nu_t * pj.dt
    lhs = cp.mean_curvature * bracket
    rhs = 0.5 * (cp.mean_curvature**2 - cp.norm_a2) + n / (2.0 * (n - 1.0)) * bracket**2
    slice_eigs = np.linalg.eigvalsh(abar_sigma)
    kappa = float(np.mean(slice_eigs))
    predicted = fr.cos_angle * kappa + nu_t * pj.dt
    kappa, spread, mult, equal = _equality_diagnostics(slice_eigs, cp.principal, predicted)
    extras = {"phi": cp.phi, "dphi_nu": cp.dphi_nu, "bracket": bracket}
    if cp.scalar_curvature is not None:
        extras["scalar_round"] = cp.scalar_curvature
    return InequalityReport(
        which="phi",
        x=tuple(float(v) for v in pt.x),
        eps=float(eps),
        lhs=float(lhs),
        rhs=float(rhs),
        gap=float(lhs - rhs),
        cos_angle=fr.cos_angle,
        h_mean=cp.mean_curvature,
        h_sigma=hbar_sigma,
        kappa=kappa,
        umbilicity_deviation=spread,
        multiplicity_diagnostic=mult,
        equality_detected=equal,
        extras=extras,
    )


def check_sphere(field: ScalarField, eps: float, x, delta_reg: float = DELTA_REG) -> InequalityReport:
    """Round-sphere-factor specialization of the conformal inequality."""
    rep = check_phi(field, spherical_ambient(field.dim), eps, x, delta_reg=delta_reg)
    return replace(rep, which="sphere")


def check(which: str, field: ScalarField, eps: float, x, ambient: AmbientSpec | None = None):
    if which == "prod":
        amb = ambient if ambient is not None else product_ambient(field.dim)
        return check_prod(field, amb.base, eps, x)
    if which == "euclid":
        return check_euclid(field, eps, x)
    if which == "phi":
        amb = ambient if ambient is not None else spherical_ambient(field.dim)
        return check_phi(field, amb, eps, x)
    if which == "sphere":
        return check_sphere(field, eps, x)
    raise ValueError(f"unknown inequality selector {which!r}; expected one of {WHICH}")


# ---------------------------------------------------------------------------
# slice-point sampling


def slice_points(
    field: ScalarField,
    eps: float,
    rays: int = 16,
    seed: int = 0,
    center=None,
    delta_reg: float = DELTA_REG,
    samples_per_ray: int = 160,
    max_per_ray: int = 2,
) -> list[np.ndarray]:
    """Deterministic points of {u = eps}: 1-D root finding along rays from the
    center (golden-angle directions in 2-D, seeded unit vectors otherwise),
    keeping regular interior points only.

    All rays are sampled with one `field.values` call. A sample where the
    field is undefined is NaN and brackets no root. The ends of each candidate
    bracket are re-read with the pointwise `value`, which decides the bracket
    and is what `brentq` solves, so the roots are those of a per-sample scan
    of `value`; a root is kept if it lies inside the
    domain less the field's evaluation margin and |Du| >= delta_reg there,
    and at most max_per_ray roots are kept per ray."""
    center = np.zeros(field.dim) if center is None else as_point(center, field.dim)
    dirs = unit_directions(field.dim, rays, seed)
    extents = np.array([field.domain.ray_extent(center, d, margin=1e-6) for d in dirs])
    extents[~np.isfinite(extents)] = 2.0
    dirs, extents = dirs[extents > 0], extents[extents > 0]
    ts = np.linspace(0.0, extents, samples_per_ray, axis=1)  # each row is the ray's own linspace
    X = center + ts[:, :, None] * dirs[:, None, :]
    u = field.values(X.reshape(-1, field.dim)).reshape(ts.shape)
    vals = u - eps
    # `values` may differ from `value` in the last bits, so a sign change
    # or a near-zero sample only marks a candidate; its ends are re-read
    # with `value` and the bracket test is made on those
    near = np.abs(vals) <= 1e-13 * (1.0 + np.abs(u))
    a, b = vals[:, :-1], vals[:, 1:]
    marked = np.isfinite(a) & np.isfinite(b) & (~(a * b > 0) | near[:, :-1] | near[:, 1:])
    found: list[np.ndarray] = []
    for k in np.flatnonzero(marked.any(axis=1)):
        d, candidates = dirs[k], np.flatnonzero(marked[k])
        ends = np.union1d(candidates, candidates + 1)
        vals[k, ends] = [field.value(x) - eps for x in X[k, ends]]
        hits = 0
        for i in candidates:
            if hits >= max_per_ray:
                break
            if vals[k, i] * vals[k, i + 1] > 0 or (vals[k, i] == 0 and vals[k, i + 1] == 0):
                continue
            root = brentq(lambda t: field.value(center + t * d) - eps, ts[k, i], ts[k, i + 1], xtol=1e-13)
            p = center + root * d
            if not field.domain.contains(p, margin=field.margin(p)):
                continue
            if float(np.linalg.norm(field.gradient(p))) < delta_reg:
                continue
            found.append(p)
            hits += 1
    return found


def pick_levels(field: ScalarField, count: int, seed: int, probes: int = 256) -> list[float]:
    """Level values at interior quantiles of u over seeded domain samples:
    the first `probes` of at most 50 * probes draws inside the domain."""
    rng = np.random.default_rng(seed)
    dom = field.domain
    extent = dom.probe_extent()
    # a (k, dim) draw is k successive one-point draws, so the chunks keep the stream
    P, drawn, chunk = np.empty((0, field.dim)), 0, probes
    while len(P) < probes and drawn < 50 * probes:
        X = rng.uniform(-extent, extent, size=(min(chunk, 50 * probes - drawn), field.dim))
        P = np.concatenate([P, X[dom.contains(X, margin=1e-6)]])
        drawn, chunk = drawn + len(X), 2 * chunk
    P = P[:probes]
    if not len(P):
        raise ValueError("could not probe the field's domain for level values")
    vals = field.values(P)
    qs = np.linspace(0.35, 0.65, count) if count > 1 else np.array([0.5])
    # np.quantile interpolates the order statistics at ranks floor((n - 1) q)
    # and one above. Sorting moves no value by more than `values` differs from
    # `value`, so once the samples near those are re-read the quantiles are exact;
    # a NaN sample is re-read too, and raises the pointwise error.
    ranks = np.floor((len(vals) - 1) * qs).astype(int)
    stats = np.sort(vals)[np.clip(np.concatenate([ranks, ranks + 1]), 0, len(vals) - 1)]
    near = np.isnan(vals) | np.any(np.abs(vals[:, None] - stats) <= 1e-13 * (1.0 + np.abs(stats)), axis=1)
    vals[near] = [field.value(x) for x in P[near]]
    return [float(v) for v in np.quantile(vals, qs)]


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True)
class SuiteSummary:
    which: str
    seed: int
    fields: int
    points: int
    min_gap: float
    violations: int
    reports: tuple[InequalityReport, ...]


def run_suite(
    which: str,
    dim: int = 2,
    n_fields: int = 20,
    rays: int = 10,
    levels: int = 2,
    seed: int = 0,
    gap_tol: float = 1e-8,
) -> SuiteSummary:
    """Randomized verification suite over seeded analytic fields.

    Every sampled regular slice point is checked; a violation is a gap below
    -gap_tol.
    """
    if which not in WHICH:
        raise ValueError(f"unknown inequality selector {which!r}")
    from .fields import random_trig_field

    reports: list[InequalityReport] = []
    min_gap = np.inf
    violations = 0
    for k in range(n_fields):
        fld = random_trig_field(dim, seed + 1000 * k)
        for eps in pick_levels(fld, levels, seed + 1000 * k + 7):
            for p in slice_points(fld, eps, rays=rays, seed=seed + 1000 * k + 13):
                try:
                    rep = check(which, fld, eps, p)
                except NonRegularPointError:
                    continue
                reports.append(rep)
                min_gap = min(min_gap, rep.gap)
                if rep.gap < -gap_tol:
                    violations += 1
    return SuiteSummary(
        which=which,
        seed=seed,
        fields=n_fields,
        points=len(reports),
        min_gap=float(min_gap) if reports else np.nan,
        violations=violations,
        reports=tuple(reports),
    )


def decomposition_gap(report_gap: float, a_adapted: np.ndarray) -> float:
    """|inequality gap - algebraic gap of the adapted-chart matrix|.

    In the adapted graph chart the inequality's gap equals the Newton-type
    gap of the shape operator matrix (whose off-diagonal products are squares
    there), so the two must agree.
    """
    from .syminv import newton_gap

    return abs(report_gap - newton_gap(a_adapted).gap)


def adapted_graph_matrix(field: ScalarField, base, x) -> np.ndarray:
    """Shape operator in the graph-adapted orthonormal frame: the first frame
    vector is the normalized horizontal gradient lifted to the graph; entries
    a_1b a_b1 = W^2 (A^1_b)^2 are nonnegative by construction."""
    pt = extrinsic_point(field, base, x)
    fr = slice_frame_of_point(pt, eps=pt.u)
    g = pt.base_jet.g
    return fr.frame.T @ g @ pt.shape_operator @ fr.frame


def adapted_conformal_matrix(field: ScalarField, ambient: AmbientSpec, x) -> np.ndarray:
    """Abar in the same adapted frame (conformal shift keeps the sign pattern)."""
    cp = conformal_point(field, ambient, x)
    pt = cp.point
    fr = slice_frame_of_point(pt, eps=pt.u)
    g = pt.base_jet.g
    a_ad = fr.frame.T @ g @ pt.shape_operator @ fr.frame
    return cp.phi * a_ad + cp.dphi_nu * np.eye(pt.dim)
