"""Command-line front end.

Subcommands: point, slice, verify {identity, minor, inequality}, barrier,
example. Each handler computes results and a verdict; one runner does the
rest. Every report embeds the tool version, the effective configuration,
the seed, and the tolerances; identical configuration and seed give
byte-identical output. Exit codes: 0 all checks passed, 1 violation found
or nothing checked, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import functools

import numpy as np

from . import __version__
from .barrier import (
    comparison_bounds,
    gradient_bound_margin,
    ring_mean_curvature,
    ring_mean_curvature_via_slices,
    slide,
)
from .conformal import conformal_point, mean_curvature_spherical
from .errors import CurvError, NoTouchError
from .fields import FiniteDifferenceField, NegatedField, random_trig_family
from .fieldspec import parse_field
from .graphgeom import (
    extrinsic_point,
    extrinsic_points,
    flat_base,
    minor_relation_residuals,
    nonregular_error,
    slice_frames,
)
from .inequality import WHICH, family_slices, prod_reports, run_suite, slice_points
from .metrics import constant_ambient, spherical_ambient
from .reporting import emit, jsonable, meta_block, render_csv, render_json
from .revolution import (
    JUNCTION_TOL,
    RevolutionProfile,
    cap_curvature,
    cap_scalar_curvature,
    junction_c2_check,
    monotonicity_checks,
    profile_jet,
    sweep_f,
    sweep_u,
    sweep_v,
)
from .syminv import randomized_identity_suite

MIN_TOL = 1e-14

#: parsed arguments that route a run or pick its output; every other argument
#: except the tolerance flags is echoed into the report's config
_NOT_CONFIG = frozenset({"config", "command", "suite", "handler", "tolerances", "out", "format"})


def _parse_floats(text: str, flag: str) -> np.ndarray:
    try:
        values = np.array([float(t) for t in text.split(",") if t.strip()], dtype=float)
    except ValueError:
        values = np.empty(0)
    if not values.size:
        raise ValueError(f"bad {flag} {text!r}: use one number or a comma-separated list like 0.1,-0.2")
    if not np.isfinite(values).all():
        raise ValueError(f"bad {flag} {text!r}: every number must be finite")
    return values


def _parse_orders(text: str) -> tuple[int, ...]:
    lo, dash, hi = text.partition("-")
    try:
        orders = tuple(range(int(lo), int(hi) + 1)) if dash else tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        orders = ()
    if not orders or min(orders) < 2:
        raise ValueError(f"bad --n {text!r}: use an order, a range lo-hi with 2 <= lo <= hi, or a list like 2,3,5")
    return orders


def _ambient(selector: str, dim: int):
    sel = selector.strip().lower()
    if sel == "flat":
        return None
    if sel == "spherical":
        return spherical_ambient(dim)
    if sel.startswith("constant"):
        _, _, v = sel.partition(":")
        return constant_ambient(dim, float(v) if v else 1.0)
    raise ValueError(f"unknown ambient {selector!r}; use flat, spherical, or constant:<value>")


def _flatten(d: dict) -> tuple[list[str], list]:
    cols: list[str] = []
    row: list = []
    for k in sorted(d):
        v = d[k]
        if isinstance(v, (list, tuple, np.ndarray)):
            for i, vi in enumerate(np.asarray(v).ravel(), start=1):
                cols.append(f"{k}_{i}")
                row.append(float(vi))
        elif isinstance(v, dict):
            continue
        else:
            cols.append(k)
            row.append(v)
    return cols, row


def _run(args) -> int:
    """The one run path: resolve output and tolerances, call the subcommand's
    handler, then render the report and map its verdict to the exit code."""
    out, fmt = args.out, args.format
    if out in ("csv", "json"):  # a bare format name selects it, on stdout
        out, fmt = None, fmt or out
    tol = {
        key: getattr(args, flag) if isinstance(flag, str) else flag
        for key, flag in args.tolerances.items()
    }
    for key, value in tol.items():
        if not np.isfinite(value):
            raise ValueError(f"tolerance {key} = {value} is not finite")
        if value < MIN_TOL:
            raise ValueError(f"tolerance {key} = {value} is below the floor {MIN_TOL}")
    results, passed, csv_table = args.handler(args, tol)
    skip = _NOT_CONFIG | {flag for flag in args.tolerances.values() if isinstance(flag, str)}
    config = {k: v for k, v in vars(args).items() if k not in skip}
    command = " ".join(filter(None, (args.command, getattr(args, "suite", None))))
    meta = meta_block(command, config, getattr(args, "seed", None), tol)
    if fmt == "csv":
        if csv_table is None:
            flat = [_flatten(jsonable(r)) for r in results]
            csv_table = (flat[0][0] if flat else [], [row for _, row in flat])
        text = render_csv(*csv_table)
    else:
        text = render_json(meta, results)
    emit(text, out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# handlers


def _handle_point(args, tol):
    x = _parse_floats(args.at, "--at")
    f = parse_field(args.field, args.dim or x.size)
    if x.size != f.dim:
        raise ValueError(f"point has dimension {x.size} but field {f.name} has {f.dim}")
    ambient = _ambient(args.ambient, f.dim)
    args.dim = f.dim  # the report echoes the resolved dimension
    if ambient is None:
        geo = pt = extrinsic_point(f, flat_base(f.dim), x)
        result = {}
    else:
        geo = conformal_point(f, ambient, x)
        pt = geo.point
        result = {"phi": geo.factor.value, "dphi_nu": geo.dphi_nu}
    result.update({
        "x": list(pt.x),
        "value": pt.u,
        "w": pt.w,
        "nu": list(pt.nu),
        "mean_curvature": geo.mean_curvature,
        "norm_a2": geo.norm_a2,
        "principal": list(geo.principal),
    })
    if geo.scalar_curvature is not None:
        result["scalar_curvature"] = geo.scalar_curvature
    if ambient is not None and ambient.is_round_sphere:
        direct = mean_curvature_spherical(f, x)
        result["mean_curvature_direct"] = direct
        result["route_residual"] = abs(direct - geo.mean_curvature)
    return [result], True, None


def _handle_slice(args, tol):
    f = parse_field(args.field, args.dim)
    args.dim = f.dim  # the report echoes the resolved dimension
    # one geometry pass over the slice points of every level, in level order
    levels = _parse_floats(args.eps, "--eps")
    per_level = [slice_points(f, eps, rays=args.rays, seed=args.seed) for eps in levels]
    eps = np.repeat(levels, [len(pts) for pts in per_level])
    X = np.reshape([x for pts in per_level for x in pts], (-1, f.dim))
    points = extrinsic_points(f, flat_base(f.dim), X)
    regular, frames = slice_frames(points, eps)
    if not regular.all():
        raise nonregular_error(points, int(np.argmin(regular)))
    residuals = minor_relation_residuals(frames, points).tolist()
    gaps = prod_reports(points, regular, frames)[1].gap.tolist()
    keys = ("x", "eps", "cos_angle", "grad_norm", "h_sigma", "minor_residual", "gap")
    results = [dict(zip(keys, row)) for row in zip(
        points.x.tolist(), eps.tolist(), frames.cos_angle.tolist(), frames.grad_norm.tolist(),
        frames.h_sigma.tolist(), residuals, gaps,
    )]
    worst_residual = max([0.0] + residuals)
    min_gap = min([np.inf] + gaps)
    # a sweep that found no slice point checked nothing and fails
    ok = bool(results) and worst_residual <= tol["minor"] and min_gap >= -tol["gap"]
    results.append({
        "summary": True,
        "points": len(results),
        "worst_minor_residual": worst_residual,
        "min_gap": float(min_gap) if results else None,
        "passed": ok,
    })
    cols = list(keys[1:])
    rows = [[r[c] for c in cols] for r in results if "summary" not in r]
    return results, ok, (cols, rows)


def _handle_verify_identity(args, tol):
    orders = _parse_orders(args.n)
    suite = randomized_identity_suite(orders=orders, trials=args.trials, seed=args.seed)
    # a suite that checked no matrix fails
    ok = suite.trials > 0 and suite.max_rel_residual <= tol["residual"]
    return [{
        "orders": list(suite.orders),
        "trials": suite.trials,
        "max_rel_residual": suite.max_rel_residual,
        "worst_order": suite.worst_order,
        "passed": ok,
    }], ok, None


def _handle_verify_minor(args, tol):
    base = flat_base(args.dim)
    worst = 0.0
    worst_fd = 0.0
    slopes_all: list[float] = []
    checked = 0
    if not np.isfinite(args.fd_step):
        raise ValueError(f"need a finite --fd-step, got {args.fd_step}")
    if args.fd_step <= 0:
        raise ValueError(f"need --fd-step > 0, got {args.fd_step}")
    if min(args.fields, args.points) < 0:
        raise ValueError(f"need --fields and --points >= 0, got {args.fields} and {args.points}")
    steps = [args.fd_step, args.fd_step / 2.0, args.fd_step / 4.0]
    seeds = [args.seed + i for i in range(args.fields)]
    # the analytic half is one array program, on the first args.points points
    # of each field (a field whose domain gave no level probes samples none)
    owner = np.empty(0, dtype=int)
    if seeds:
        family = random_trig_family(args.dim, seeds)
        eps, owner, _, X = family_slices(family, 1, seeds, seeds, max(2, args.points // 2))
        first = np.arange(len(owner)) - np.searchsorted(owner, owner) < args.points
        owner, X = owner[first], X[first]
    if len(owner):
        points = extrinsic_points(family.rows(owner), base, X)
        # a non-regular point is not checked
        regular, frames = slice_frames(points, eps[owner, 0])
        worst = max([worst] + minor_relation_residuals(frames, points.select(regular)).tolist())
        checked = int(np.count_nonzero(regular))
        owner = owner[regular]
    # the finite-difference half is the independent oracle, one stencil pass
    # per step over every kept row of every field; points in the stencil
    # margin of the largest step (it holds the others) stay analytic only
    if args.fd and len(owner):
        keep = family.domain.contains(frames.x, margin=2.0 * steps[0])
        fds = [FiniteDifferenceField(family.rows(owner[keep][:, None]), args.dim, step=h) for h in steps]
        kept = frames.select(keep)
        errs = np.stack([minor_relation_residuals(kept, extrinsic_points(fd, base, kept.x)) for fd in fds], axis=1)
        worst_fd = max([worst_fd] + errs[:, -1].tolist())
        with np.errstate(divide="ignore"):
            slopes_all = np.log2(errs[:, :-1] / errs[:, 1:]).ravel().tolist()
    ok = checked > 0 and worst <= tol["analytic"]
    if args.fd:  # an FD check that checked no point has no slope, and fails
        ok = ok and bool(slopes_all) and worst_fd <= tol["fd"]
    return [{
        "points_checked": checked,
        "worst_analytic_residual": worst,
        "worst_fd_residual": worst_fd if args.fd else None,
        "median_fd_slope": float(np.median(slopes_all)) if slopes_all else None,
        "passed": ok,
    }], ok, None


def _handle_verify_inequality(args, tol):
    suite = run_suite(
        args.which, dim=args.dim, n_fields=args.fields, rays=args.rays,
        levels=args.levels, seed=args.seed, gap_tol=tol["gap"],
    )
    # a suite that checked no point fails, and has no minimum gap
    ok = suite.points > 0 and suite.violations == 0
    results = [{
        "which": suite.which,
        "fields": suite.fields,
        "points": suite.points,
        "min_gap": suite.min_gap if suite.points else None,
        "violations": suite.violations,
        "passed": ok,
    }]
    if not ok and suite.points:
        bad = suite.reports.select(suite.reports.gap < -tol["gap"])
        results += [
            {"violation": True, "x": x, "eps": e, "gap": g}
            for x, e, g in zip(bad.x.tolist(), bad.eps.tolist(), bad.gap.tolist())
        ]
    return results, ok, None


def _handle_barrier(args, tol):
    f = parse_field(args.field, args.dim)
    if args.negate:
        f = NegatedField(f)
    aprime = args.aprime if args.aprime is not None else args.a + 0.05 * (1.0 - args.a)
    try:
        run = slide(
            f, (args.a, 1.0), aprime, radial=args.radial, angular=args.angular, seed=args.seed,
            touch_tol=tol["touch"],
        )
    except NoTouchError as exc:
        no_touch = {"outcome": "no-touch", "detail": str(exc), "hint": "rerun with --negate"}
        return [no_touch], False, None
    result = {
        "outcome": "degenerate" if run.degenerate else "touch",
        "lam_star": run.lam_star,
        "x0": list(run.x0),
        "u0": run.u0,
        "grad_norm": run.grad_norm,
        "radial_derivative": run.radial_derivative,
        "touch_gap": run.touch_gap,
        "interior_touch": run.interior_touch,
        "boundary_touch": run.boundary_touch,
        "successful": run.successful,
    }
    ok = run.touch_gap <= tol["touch"]
    if run.successful:
        margin = gradient_bound_margin(run)
        result["gradient_bound_margin"] = margin
        ok = ok and margin >= -tol["gradient_bound"]
    rho = float(np.linalg.norm(run.x0))
    if not run.degenerate and run.grad_norm > 1e-12:
        bounds = comparison_bounds(run)
        result["bounds"] = {
            "upper": bounds.upper, "cap": bounds.cap, "lower": bounds.lower,
            "ordering_skipped": bounds.ordering_skipped,
        }
        if 0.0 < rho < 1.0:
            ring = ring_mean_curvature(rho, run.u0, run.dim)
            ring_slice = ring_mean_curvature_via_slices(rho, run.u0, run.dim)
            result["ring_residual"] = abs(ring - ring_slice)
            ok = ok and result["ring_residual"] <= tol["ring"]
    result["passed"] = ok
    return [result], ok, None


def _handle_example(args, tol):
    if args.count < 2:
        raise ValueError(f"need --count >= 2, got {args.count}")
    if args.name == "euclid-cone":
        table = sweep_f(count=args.count)
        gauss = table[:, 2] * table[:, 3]
        prof = RevolutionProfile("E-f")
        f0 = profile_jet(prof, 0.0)
        f1 = profile_jet(prof, 1.0)
        checks = {
            "min_gauss": float(gauss.min()),
            "f_at_0": f0[0],
            "f_at_1": f1[0],
            "vertical_tangent_at_0": bool(np.isinf(f0[1]) and f0[1] > 0),
            "passed": bool(
                gauss.min() >= -tol["scalar_floor"]
                and f0[0] == 1.0 and f1[0] == 0.0 and np.isinf(f0[1])
            ),
        }
        cols = ["z", "value", "lam1", "lam2", "scalar"]
        return [checks], checks["passed"], (cols, table.tolist())

    # spherical-glued
    a = args.a
    u_table = sweep_u(a, count=args.count)
    v_table = sweep_v(a, count=max(2, args.count // 2))
    scal = u_table[:, 4]
    i_min = int(scal.argmin())
    junction = junction_c2_check(a, tol=tol["junction"])
    mono = monotonicity_checks(a, samples=2000)
    checks = {
        "cap_curvature": cap_curvature(a),
        "cap_scalar": cap_scalar_curvature(a),
        "min_scalar_u": float(scal.min()),
        "argmin_r": float(u_table[i_min, 0]),
        "equality_locus_offset": abs(float(u_table[i_min, 0]) - a),
        "junction_value_limit": junction.value_limit,
        "junction_lam1_limit": junction.lam1_limit,
        "junction_lam2_limit": junction.lam2_limit,
        "junction_passed": junction.passed,
        "monotonicity_passed": mono.passed,
    }
    checks["passed"] = bool(
        scal.min() >= 2.0 - tol["scalar_floor"]
        and checks["equality_locus_offset"] <= tol["locus"]
        and junction.passed
        and mono.passed
    )
    cols = ["branch", "r", "value", "lam1", "lam2", "scalar"]
    rows = [[0.0, *row] for row in u_table.tolist()] + [[1.0, *row] for row in v_table.tolist()]
    return [checks], checks["passed"], (cols, rows)


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="curv",
        description="Extrinsic geometry of graph hypersurfaces in product and "
        "conformally product metrics: pointwise data, slice traces, "
        "verification suites, barrier slides, and example surfaces.",
    )
    p.add_argument("--version", action="version", version=f"curv {__version__}")
    p.add_argument("--config", default=None, help="key = value defaults file")
    sub = p.add_subparsers(dest="command", required=True)

    def add_run(sp, handler, tolerances=None):
        """I/O flags last, then the handler and its tolerances (key -> flag or value)."""
        sp.add_argument("--out", default=None, help="output path; bare 'csv'/'json' select the format")
        sp.add_argument("--format", choices=("json", "csv"), default=None)
        sp.set_defaults(handler=handler, tolerances=tolerances or {})

    sp = sub.add_parser("point", help="extrinsic/conformal data at one point")
    sp.add_argument("--field", required=True)
    sp.add_argument("--ambient", default="flat")
    sp.add_argument("--at", required=True, help="comma-separated coordinates")
    sp.add_argument("--dim", type=int, default=None)
    add_run(sp, _handle_point)

    sp = sub.add_parser("slice", help="level-slice sweep")
    sp.add_argument("--field", required=True)
    sp.add_argument("--eps", required=True, help="level value(s), comma-separated")
    sp.add_argument("--rays", type=int, default=16)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--gap-tol", type=float, default=1e-8)
    add_run(sp, _handle_slice, {"minor": "tol", "gap": "gap_tol"})

    spv = sub.add_parser("verify", help="verification suites")
    vsub = spv.add_subparsers(dest="suite", required=True)

    sp = vsub.add_parser("identity", help="randomized symmetric-function identity suite")
    sp.add_argument("--n", default="2-8", help="matrix order: 4, 2-8, or 2,3,5")
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-10)
    add_run(sp, _handle_verify_identity, {"residual": "tol"})

    sp = vsub.add_parser("minor", help="slice minor relation residuals")
    sp.add_argument("--fields", type=int, default=50)
    sp.add_argument("--points", type=int, default=20)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fd", action="store_true", help="also check finite-difference jets")
    sp.add_argument("--fd-step", type=float, default=1e-2)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--fd-tol", type=float, default=1e-4)
    add_run(sp, _handle_verify_minor, {"analytic": "tol", "fd": "fd_tol"})

    sp = vsub.add_parser("inequality", help="trace inequality suites")
    sp.add_argument("--which", choices=WHICH, required=True)
    sp.add_argument("--fields", type=int, default=25)
    sp.add_argument("--rays", type=int, default=10)
    sp.add_argument("--levels", type=int, default=2)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--gap-tol", type=float, default=1e-8)
    add_run(sp, _handle_verify_inequality, {"gap": "gap_tol"})

    sp = sub.add_parser("barrier", help="cone barrier slide and comparison bounds")
    sp.add_argument("--field", required=True)
    sp.add_argument("--negate", action="store_true", help="slide onto -u instead")
    sp.add_argument("--a", type=float, default=0.5, help="inner annulus radius")
    sp.add_argument("--aprime", type=float, default=None, help="shrunken inner radius")
    sp.add_argument("--radial", type=int, default=512)
    sp.add_argument("--angular", type=int, default=128)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--touch-tol", type=float, default=1e-8)
    add_run(sp, _handle_barrier, {"touch": "touch_tol", "gradient_bound": 1e-6, "ring": 1e-8})

    sp = sub.add_parser("example", help="explicit example surfaces and sweeps")
    sp.add_argument("--name", choices=("euclid-cone", "spherical-glued"), required=True)
    sp.add_argument("--a", type=float, default=0.5)
    sp.add_argument("--count", type=int, default=1000)
    add_run(sp, _handle_example, {"scalar_floor": 1e-10, "junction": JUNCTION_TOL, "locus": 1e-6})

    return p


def _apply_config(argv: list[str]) -> list[str]:
    """Inline `key = value` lines from --config as leading flags of the
    subcommand, so explicit flags override them."""
    argv = list(argv)
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config needs a path")
            path = argv[i + 1]
            del argv[i : i + 2]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            del argv[i]
            break
    if path is None:
        return argv
    tokens: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}; expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    tokens.append(flag)
            else:
                tokens += [flag, value]
    head = 2 if argv and argv[0] == "verify" else 1
    if len(argv) < head:
        raise ValueError("--config requires a subcommand")
    return argv[:head] + tokens + argv[head:]


def main(argv=None) -> int:
    import sys

    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        return _run(args)
    except BrokenPipeError:
        # downstream consumer (head, less) closed the stream mid-report
        return 0
    except (ValueError, OSError, CurvError) as exc:
        print(f"curv: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
