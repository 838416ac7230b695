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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conformal import ConformalPoint, conformal_points
from .fields import ScalarField, random_trig_family
from .graphgeom import (
    DELTA_REG,
    ExtrinsicPoint,
    SliceFrame,
    eigvalsh,
    extrinsic_points,
    nonregular_error,
    slice_frames,
)
from .metrics import AmbientSpec, FlatMetric, product_ambient, spherical_ambient
from .util import (
    Stacked, _new, as_point, as_points, brentq, brentq_lanes, count_nonzero, eye, trace, unit_directions,
)

WHICH = ("prod", "phi", "euclid", "sphere")

#: equality thresholds, relative to 1 + the relevant operator norm
UMBILIC_TOL = 1e-6
MULTIPLICITY_TOL = 1e-6

#: slice_points' scan samples per ray and roots kept per ray
SAMPLES_PER_RAY, MAX_PER_RAY = 160, 2
#: pick_levels' domain samples: the first PROBES of at most 50 * PROBES draws inside the domain
PROBES = 256
#: the block sizes of the scan's screen, coarse to fine: each divides SAMPLES_PER_RAY and is a multiple
#: of the next, and each level screens the blocks of its size inside the blocks the level before kept
SCREEN = (32, 8)
#: per level, the screen's then the inner samples' (size 1): by a block the level before kept, the ends of its
#: blocks there (the inner samples': the block's own, the last repeated, bracketing nothing); read-only
_LEVELS = [(size, np.arange(0, SAMPLES_PER_RAY - 1, parent)[:, None] + np.arange(0, parent + 1, size))
           for size, parent in zip(SCREEN + (1,), (SAMPLES_PER_RAY,) + SCREEN)]
for _, _ends in _LEVELS:
    np.minimum(_ends, SAMPLES_PER_RAY - 1, out=_ends)
    _ends.flags.writeable = False


@dataclass(frozen=True)
class InequalityReport(Stacked):
    """The inequality at a regular point of a level slice, or a stack of it
    (see `checks`). Each selector sets its own optional columns, in sorted
    order: `bracket`, `dphi_nu` and `phi` on the phi route, `scalar_round` in
    the round-sphere ambient only, `scalar_base` and `scalar_m` on the prod
    route; the rest are None."""

    which: str
    x: np.ndarray
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
    bracket: float | None = None  # B = <nu,eta> Hbar_Sigma + (n-1) <nu,d_t> phi_t
    dphi_nu: float | None = None
    phi: float | None = None
    scalar_base: float | None = None  # R_g
    scalar_m: float | None = None  # R_M
    scalar_round: float | None = None  # R_M via the round Gauss relation


def _mean(a: np.ndarray) -> np.ndarray:
    """np.mean over the last axis, bit for bit (the sum, then one division)."""
    return np.add.reduce(a, -1) / float(a.shape[-1])


def _reports(
    which, fr: SliceFrame, *, lhs, rhs, h_mean, h_sigma, kappa, slice_eigs, ambient_eigs, predicted,
    bracket=None, dphi_nu=None, phi=None, scalar_base=None, scalar_m=None, scalar_round=None,
):
    """The report stack over the rows of the slice stack fr, from its
    columns and the equality diagnostics. The eigenvalue stacks are
    ascending, so the slice spread and both norms read the two ends, and n -
    1 of the n ambient eigenvalues sit at `predicted` when the second largest
    distance to it is small."""
    spread = slice_eigs[:, -1] - slice_eigs[:, 0]
    dist = np.abs(ambient_eigs - predicted[:, None])
    dist.sort(axis=-1)
    mult = dist[:, -2]
    norm_slice = np.maximum(-slice_eigs[:, 0], slice_eigs[:, -1])
    norm_amb = np.maximum(-ambient_eigs[:, 0], ambient_eigs[:, -1])
    equal = (spread <= UMBILIC_TOL * (1.0 + norm_slice)) & (mult <= MULTIPLICITY_TOL * (1.0 + norm_amb))
    return _new(InequalityReport, {
        "which": which, "x": fr.x, "eps": fr.eps, "lhs": lhs, "rhs": rhs, "gap": lhs - rhs, "cos_angle": fr.cos_angle,
        "h_mean": h_mean, "h_sigma": h_sigma, "kappa": kappa, "umbilicity_deviation": spread,
        "multiplicity_diagnostic": mult, "equality_detected": equal, "bracket": bracket, "dphi_nu": dphi_nu,
        "phi": phi, "scalar_base": scalar_base, "scalar_m": scalar_m, "scalar_round": scalar_round,
    })


def prod_reports(pt: ExtrinsicPoint, regular: np.ndarray, fr: SliceFrame, which: str = "prod"):
    """The product-metric inequality on a stack of extrinsic points, given
    `slice_frames(pt, eps)`: the regular-row mask and the report stack of the
    regular rows, as `checks` returns them. The stack comes from one array
    program over the rows, whose builder `_reports` the conformal inequality
    shares."""
    if count_nonzero(regular) < len(regular):
        pt = pt.select(regular)
    n, mj = pt.dim, pt.base_jet
    cos, h, hs = fr.cos_angle, pt.mean_curvature, fr.h_sigma
    ric_eta = np.vecdot(np.vecmat(fr.eta, mj.ricci), fr.eta)
    slice_eigs = eigvalsh(fr.a_sigma)
    kappa = _mean(slice_eigs)
    c = n / (2.0 * (n - 1.0))
    r_m = pt.scalar_curvature
    rhs = 0.5 * r_m - 0.5 * mj.scalar + cos * cos * ric_eta + c * cos * cos * np.float_power(hs, 2.0)
    return regular, _reports(
        which, fr, lhs=cos * h * hs, rhs=rhs, h_mean=h, h_sigma=hs, kappa=kappa, slice_eigs=slice_eigs,
        ambient_eigs=pt.principal, predicted=cos * kappa, scalar_base=mj.scalar, scalar_m=r_m,
    )


def _phi_reports(cp: ConformalPoint, regular: np.ndarray, fr: SliceFrame, which: str):
    """(regular mask, report stack) of the conformally-product inequality
    over a stack, given `slice_frames(cp.point, eps)`: one array program over
    the rows, through the builder `_reports`."""
    if count_nonzero(regular) < len(regular):
        cp = cp.select(regular)
    pt, pj = cp.point, cp.factor
    n, cos, hbar = pt.dim, fr.cos_angle, cp.mean_curvature
    dphi_eta = np.vecdot(pj.grad_x, fr.eta)
    abar_sigma = pj.value[:, None, None] * fr.a_sigma + dphi_eta[:, None, None] * eye(n - 1)
    hbar_sigma = trace(abar_sigma)
    slice_eigs = eigvalsh(abar_sigma)
    kappa = _mean(slice_eigs)
    nu_t, phi_t = pt.nu[:, -1], pj.dt
    c = n / (2.0 * (n - 1.0))
    bracket = cos * hbar_sigma + (n - 1.0) * nu_t * phi_t
    rhs = 0.5 * (np.float_power(hbar, 2.0) - cp.norm_a2) + c * np.float_power(bracket, 2.0)
    return regular, _reports(
        which, fr, lhs=hbar * bracket, rhs=rhs, h_mean=hbar, h_sigma=hbar_sigma, kappa=kappa,
        slice_eigs=slice_eigs, ambient_eigs=cp.principal, predicted=cos * kappa + nu_t * phi_t,
        bracket=bracket, dphi_nu=cp.dphi_nu, phi=pj.value, scalar_round=cp.scalar_curvature,
    )


def _checks(which: str, field: ScalarField, eps, X, ambient: AmbientSpec | None):
    """(extrinsic stack, regular mask, report stack of the regular rows)."""
    if which in ("prod", "euclid"):
        if which == "euclid":
            base = FlatMetric(field.dim)
        else:
            base = (ambient if ambient is not None else product_ambient(field.dim)).base
        pt = extrinsic_points(field, base, X)
        return (pt, *prod_reports(pt, *slice_frames(pt, eps), which))
    if which in ("phi", "sphere"):
        if which == "sphere" or ambient is None:
            ambient = spherical_ambient(field.dim)
        cp = conformal_points(field, ambient, X)
        return (cp.point, *_phi_reports(cp, *slice_frames(cp.point, eps), which))
    raise ValueError(f"unknown inequality selector {which!r}; expected one of {WHICH}")


def checks(which: str, field: ScalarField, eps, X):
    """The inequality `which` at every row of X, shape (m, n), on the level
    eps (one value, or one per row), in the selector's default ambient.

    Returns the mask of the regular rows and the InequalityReport stack of
    those rows, in row order; each row equals check(which, field, eps_i,
    X[i]) bit for bit, and check raises NonRegularPointError at a row off
    the mask. The stack comes from one array program: squares use
    np.float_power, which rounds as scalar `**` does, and the equality
    diagnostics read ascending eigenvalue stacks.
    """
    X = as_points(X, field.dim)
    if np.ndim(eps) and np.shape(eps) != X.shape[:1]:
        raise ValueError(f"eps of shape {np.shape(eps)} is neither one level nor one per row of X, shape {X.shape}")
    _, regular, reports = _checks(which, field, eps, X, None)
    return regular, reports


def check(which: str, field: ScalarField, eps: float, x, ambient: AmbientSpec | None = None):
    """The inequality `which` at the point x of {u = eps}: the one-row case
    of `checks`, row 0 of its stack, raising NonRegularPointError at a
    non-regular point."""
    pt, regular, reports = _checks(which, field, eps, as_point(x, field.dim)[None], ambient)
    if not regular[0]:
        raise nonregular_error(pt, 0)
    return reports.row(0)


def check_prod(field: ScalarField, base, eps: float, x) -> InequalityReport:
    """Product-metric inequality at a regular point of {u = eps}."""
    return check("prod", field, eps, x, product_ambient(field.dim, base))


def check_euclid(field: ScalarField, eps: float, x) -> InequalityReport:
    """Flat-base specialization: rhs = R_M/2 + n/(2(n-1)) cos^2 H_Sigma^2."""
    return check("euclid", field, eps, x)


def check_phi(field: ScalarField, ambient: AmbientSpec, eps: float, x) -> InequalityReport:
    """Conformally-product inequality at a regular point of {u = eps}."""
    return check("phi", field, eps, x, ambient)


def check_sphere(field: ScalarField, eps: float, x) -> InequalityReport:
    """Round-sphere-factor specialization of the conformal inequality."""
    return check("sphere", field, eps, x)


# ---------------------------------------------------------------------------
# slice-point sampling


def _slice_rows(at, eps, dirs):
    """slice_points of each member f of a family at its levels eps[f], along
    its rays dirs[f] from the domain's probe center: the arrays (f, j,
    points) of the rows, in the order field, level, ray, root. `at(idx)` is
    member idx, or a family for an index array.

    The scan screens blocks coarse to fine (see SCREEN), reading each sample
    once: with (L, M, delta) = `ray_slopes` and h = t_B - t_A <= the reach,
    a block [A, B] is skipped where, at every level e, z = v - e passes one
    of two tests (never at a NaN, which fails both). A bracket [t_i, t_i+1]
    is a pair of finite samples whose signs (np.sign: -1, 0 or 1) differ, so
    in the block it would give some z_i <= 0 <= z_i+1 or the reverse; with N
    the error of a value:
    - the slope test, |z_A| + |z_B| > L h + delta: the bracket would give
      |z_A| + |z_B| <= |z_i - z_A| + |z_i+1 - z_i| + |z_B - z_i+1| <= L h + 6
      N, which delta exceeds;
    - the curvature test, z_A and z_B both > M h^2 / 8 + delta or both <
      -(M h^2 / 8 + delta): on [A, B] the exact z is at least min(z_A, z_B)
      - M h^2 / 8 less the error N of an end (Taylor about the chord), and a
      sample is within N of it, so no sample in the block reaches 0: 2 N,
      the rounding of M h^2 / 8 + delta and the relative rounding of v - e
      stay below delta (see `TrigField.ray_slopes`). A product M h^2 that
      underflows loses under 2^-1074, far below delta.
    Each sample read is the full scan's, and so are the brackets, put back
    in its order, and all that follows; `brentq_lanes` solves all brackets."""
    (F, L), (R, n), dom = eps.shape, dirs.shape[1:], at(0).domain
    # origin + t d, not t d: adding +0.0 turns a -0.0 coordinate into +0.0
    origin, S = dom.probe_cube()[0] + 0.0, SAMPLES_PER_RAY
    rays, owner = dirs.reshape(-1, n), np.arange(F * R) // R  # rays field by field; take gathers rows faster than []
    extents = dom.ray_extent(origin, rays, margin=1e-6)
    extents[~np.isfinite(extents)] = 2.0
    # each row is the ray's np.linspace(0.0, extent, S) as linspace computes it, less its 40-odd Python calls:
    # k times the step, or (k / div) times the extent where any step of the call is 0, plus the start 0.0
    k, div = np.arange(S, dtype=float), S - 1
    step = extents[:, None] / div
    ts = k / div * extents[:, None] if 0.0 in step else k * step
    ts += 0.0
    ts[:, -1] = extents
    bounds = np.array(at(owner).ray_slopes(rays, np.maximum.reduce(np.abs(origin)) + extents))[:, :, None, None]
    # the samples' values and positions at the flat index ray * S + sample; u_at is read only where written
    u_at, ts_at, eps_ray = np.empty(ts.size), ts.reshape(-1), eps[owner, :, None]
    q, b = (extents[:, None] > 0).nonzero()  # the blocks kept, by ray and block: first each ray of extent > 0
    for size, ends in _LEVELS:
        c = (q * S)[:, None] + ends[b]  # the ends of the level's blocks in the blocks kept
        # the ends the level before did not read, less the last, which recurs among the inner samples
        new = c if ends.shape[0] == 1 else c[:, 1:-1][c[:, 1:-1] % S < S - 1]
        u_at[new] = at(owner[new // S]).values(origin + ts_at[new, None] * rays.take(new // S, axis=0))
        z = u_at[c][:, None] - eps_ray[q]
        if size == 1:  # z is the samples' of the blocks kept, less each level
            break
        (za, zb, t), (slopes, curvs, delta) = (z[..., :-1], z[..., 1:], ts_at[c][:, None]), bounds[:, q]
        h = t[..., 1:] - t[..., :-1]
        bend = curvs * (h * h) / 8.0 + delta
        far = np.abs(za) + np.abs(zb) > slopes * h + delta
        far |= (np.minimum(za, zb) > bend) | (np.maximum(za, zb) < -bend)
        row, k = (~np.logical_and.reduce(far, axis=1)).nonzero()
        q, b = q[row], b[row] * (ends.shape[1] - 1) + k
    a, z = z[..., :-1], z[..., 1:]
    row, j, k = (np.isfinite(a) & np.isfinite(z) & (np.sign(a) != np.sign(z))).nonzero()
    q, i = q[row], ends[b[row], k]
    order = ((owner[q] * L + j) * (R * S) + (q % R) * S + i).argsort()
    q, j, i = q[order], j[order], i[order]
    f, r = owner[q], q % R
    d, e, lo, hi = rays.take(q, axis=0), eps[f, j], ts_at[q * S + i], ts_at[q * S + i + 1]
    roots = brentq_lanes(lambda t, k: at(f[k]).values(origin + t[:, None] * d[k]) - e[k], lo, hi, xtol=1e-13)
    P = origin + roots[:, None] * d
    ok = ~np.isnan(roots)
    ok[ok] = dom.contains(P[ok], margin=at(f[ok]).margin(P[ok]))
    grad = at(f[ok]).jets(P[ok])[1]
    ok[ok] = ~(np.sqrt(np.vecdot(grad, grad)) < DELTA_REG)  # np.linalg.norm of each row, bit for bit
    ray, before = (f * L + j) * R + r, ok.cumsum() - ok
    reached = before - before[ray.searchsorted(ray)] < MAX_PER_RAY  # fewer roots kept before it on its ray
    for k in (np.isnan(roots) & reached).nonzero()[0]:
        # a lane that met NaN, solved point by point, raises the field's error there
        brentq(lambda t, fk=at(f[k]): fk.value(origin + t * d[k]) - e[k], lo[k], hi[k], xtol=1e-13)
    keep = ok & reached
    return f[keep], j[keep], P[keep]


def slice_points(field: ScalarField, eps: float, rays: int = 16, seed: int = 0) -> list[np.ndarray]:
    """Deterministic points of {u = eps}: 1-D root finding along rays from the
    domain's probe center (golden-angle directions in 2-D, seeded otherwise),
    keeping regular interior points only; the one-field, one-level case of
    `_slice_rows`. A sample where the field is undefined is NaN and brackets
    no root. A root is kept if it lies inside the domain less the field's
    evaluation margin and |Du| >= DELTA_REG there, and at most MAX_PER_RAY
    roots are kept per ray."""
    dirs = unit_directions(field.dim, rays, seed)
    return list(_slice_rows(lambda idx: field, np.array([[eps]], dtype=float), dirs[None])[2])


def _probes(domain, dim: int, seeds: Sequence[int]):
    """For each seed, the first PROBES of at most 50 * PROBES draws from its
    own generator on the domain's probe cube that lie inside the domain (a
    list if ragged). Each round draws a chunk per seed still short into one
    buffer; one `contains` call tests all, and one mask gathers the kept."""
    (center, extent), rngs = domain.probe_cube(), [np.random.default_rng(s) for s in seeds]
    row = f"V{8 * dim}"  # a row as one item of a void dtype, which a mask selects and fills whole
    out, count, live, drawn = np.empty((len(seeds), PROBES, dim)), np.zeros(len(seeds), int), np.arange(len(seeds)), 0
    while live.size and drawn < 50 * PROBES:
        k = min(drawn + 2 * PROBES, 50 * PROBES - drawn)  # chunks of 2, 4, 8, ... times PROBES
        X = np.empty((live.size, k, dim))
        for f, Xf in zip(live.tolist(), X):
            rngs[f].random(out=Xf)  # (k, dim) draws are k one-point draws, so chunks keep each stream
        # Generator.uniform(-extent, extent), then + center (+ 0.0 keeps a centred domain's draws)
        X = X * (extent - -extent) - extent + center
        inside = domain.contains(X.reshape(-1, dim), margin=1e-6).reshape(live.size, k)
        kept, before = inside.cumsum(axis=1), count.copy()  # kept: the round's draws kept up to each
        count[live] = np.minimum(before[live] + kept[:, -1], PROBES)
        fill = (before[:, None] <= np.arange(PROBES)) & (np.arange(PROBES) < count[:, None])
        out.view(row)[..., 0][fill] = X.view(row)[..., 0][inside & (kept <= PROBES - before[live, None])]
        live, drawn = live[count[live] < PROBES], drawn + k
    return [P[:c] for P, c in zip(out, count.tolist())] if count_nonzero(count < PROBES) else out


def _levels(at, probes, count: int) -> np.ndarray:
    """pick_levels of each member f of a family on its probes[f] (a stack, or
    a list if ragged), shape (F, count); NaN for a member with no probes."""
    if count < 1:
        raise ValueError(f"need at least one level, got {count}")
    if type(probes) is list:  # ragged draws go one member at a time
        return np.concatenate([_levels(lambda idx, k=k: at(k), P[None], count) for k, P in enumerate(probes)])
    if not probes.shape[1]:
        return np.full((len(probes), count), np.nan)
    vals = at(np.arange(len(probes))[:, None]).values(probes)
    nan = np.isnan(vals)
    if nan.any():  # the first NaN sample raises the field's OutOfDomainError there
        f, i = np.unravel_index(nan.argmax(), nan.shape)
        at(f).raise_outside(probes[f, i])
    return np.quantile(vals, np.linspace(0.35, 0.65, count) if count > 1 else [0.5], axis=1).T


def pick_levels(field: ScalarField, count: int, seed: int) -> list[float]:
    """Level values at interior quantiles of u over seeded domain samples:
    the first PROBES of at most 50 * PROBES draws inside the domain."""
    P = _probes(field.domain, field.dim, [seed])[0]
    if not len(P):
        raise ValueError("could not probe the field's domain for level values")
    return _levels(lambda idx: field, P[None], count)[0].tolist()


def family_slices(family, count: int, level_seeds: Sequence[int], ray_seeds: Sequence[int], rays: int):
    """pick_levels(member f, count, level_seeds[f]), NaN where that raises,
    and slice_points(member f, eps, rays, ray_seeds[f]) at those levels, for
    a nonempty trig family: the levels (F, count) and _slice_rows' rows."""
    eps = _levels(family.rows, _probes(family.domain, family.dim, level_seeds), count)
    # the 2-D golden-angle ring does not depend on the seed, so it is computed once
    dirs = [unit_directions(family.dim, rays, s) for s in (ray_seeds[:1] if family.dim == 2 else ray_seeds)]
    dirs = np.broadcast_to(dirs, (len(ray_seeds), rays, family.dim))
    return (eps, *_slice_rows(family.rows, eps, dirs))


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
    reports: InequalityReport | None  # the stack of the checked points; None if there are none
    nonregular_skips: int = 0  # sampled points where the check found |grad u|_g < delta_reg


def run_suite(
    which: str, dim: int = 2, n_fields: int = 20, rays: int = 10, levels: int = 2, seed: int = 0, gap_tol: float = 1e-8
) -> SuiteSummary:
    """Randomized verification suite over seeded analytic fields, as one
    array program: one trig family sampled by family_slices, and one stacked
    `checks` call on every sampled point, in the order field, level, ray,
    root; a violation is a gap below -gap_tol, and the minimum gap skips a
    NaN gap."""
    if which not in WHICH:
        raise ValueError(f"unknown inequality selector {which!r}")
    if n_fields < 0:
        raise ValueError(f"need a nonnegative number of fields, got {n_fields}")

    reports, skips = None, 0
    seeds = [seed + 1000 * k for k in range(n_fields)]
    if seeds:
        family = random_trig_family(dim, seeds)
        eps, f, j, X = family_slices(family, levels, [s + 7 for s in seeds], [s + 13 for s in seeds], rays)
        if np.isnan(eps).any():
            raise ValueError("could not probe the field's domain for level values")
        if len(X):
            regular, reports = checks(which, family.rows(f), eps[f, j], X)
            skips = int(count_nonzero(~regular))
    gaps = reports.gap if reports is not None else np.empty(0)
    return SuiteSummary(
        which=which, seed=seed, fields=n_fields, points=len(gaps),
        min_gap=float(np.fmin.reduce(gaps, initial=np.inf)) if len(gaps) else np.nan,
        violations=count_nonzero(gaps < -gap_tol), reports=reports if len(gaps) else None, nonregular_skips=skips,
    )

