"""The benchmark's three workloads: their inputs, operations and records.

Every workload is built from a seed and drives `curv` only through its public
functions. An operation returns a record: a flat dict of the values it
produced, with `passed` (the program's own verdict) and `points` (slice or
base points that received a verdict). `bench.py` times the operations and
checks each record against the stored reference for the seed.

Workloads:

* ``battery``: the nine stages of ``scripts/verify_all.py`` through
  ``curv.cli.main`` at production defaults; one operation is one stage.
* ``points``: the single-point path (batch size 1) on six field kinds; one
  operation is one base point taken through five calls.
* ``curved-n3``: ``prod`` on the round-sphere base and ``phi`` in the
  spherical ambient at n = 3; one operation is one (field, level) set:
  sample its slice points, check up to `MAX_CHECKS` of them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_curv():
    """Import `curv` from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import curv
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import curv from {SRC}: {exc}") from exc
    if not Path(curv.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: curv was imported from {curv.__file__}, not from {SRC}")
    return curv


_import_curv()

import numpy as np  # noqa: E402

from curv import cli, conformal, fields, fieldspec, graphgeom, inequality, metrics  # noqa: E402
from curv.errors import NonRegularPointError  # noqa: E402

#: references are stored for input seeds 0 .. REFERENCE_SEEDS-1; a larger
#: --seed is reduced modulo this count, so seed 0 is the verify_all battery
REFERENCE_SEEDS = 16
#: a gap below -GAP_TOL is a violation (the CLI's --gap-tol default)
GAP_TOL = 1e-8
SIZES = ("full", "tiny")


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


@dataclass(frozen=True)
class Op:
    """One timed operation: `run()` returns (record, emitted report text or None)."""

    op_id: str
    run: Callable[[], tuple[dict, str | None]]


# ---------------------------------------------------------------------------
# battery


#: (stage name, argv, takes --seed) exactly as scripts/verify_all.py runs them
STAGES = (
    ("identity", ["verify", "identity"], True),
    ("minor", ["verify", "minor", "--fd"], True),
    ("inequality-prod", ["verify", "inequality", "--which", "prod"], True),
    ("inequality-phi", ["verify", "inequality", "--which", "phi"], True),
    ("inequality-euclid", ["verify", "inequality", "--which", "euclid"], True),
    ("inequality-sphere", ["verify", "inequality", "--which", "sphere"], True),
    ("barrier-outer-graph", ["barrier", "--field", "radial:S-u:0.5"], True),
    ("example-euclid-cone", ["example", "--name", "euclid-cone"], False),
    ("example-spherical-glued", ["example", "--name", "spherical-glued"], False),
)

#: argument overrides that shrink each stage for the smoke test
_TINY_STAGE_ARGS = {
    "identity": ["--trials", "2000"],
    "minor": ["--fields", "2", "--points", "4"],
    "inequality": ["--fields", "2"],
    "barrier": ["--radial", "64", "--angular", "16"],
    "example": ["--count", "50"],
}


def _flatten(obj, prefix: str, out: dict) -> dict:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}.{i}", out)
    else:
        out[prefix] = obj
    return out


def _battery_op(argv: list[str]) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    results = json.loads(text)["results"] if code in (0, 1) else []
    record = _flatten(results, "results", {"exit_code": code})
    head = results[0] if results else {}
    record["points"] = int(head.get("points_checked", head.get("points", 0)))
    record["passed"] = code == 0
    return record, text


def build_battery(seed: int, size: str) -> list[Op]:
    ops = []
    for name, argv, seeded in STAGES:
        args = list(argv)
        if size == "tiny":
            args += _TINY_STAGE_ARGS[name.split("-")[0]]
        if seeded:
            args += ["--seed", str(seed)]
        ops.append(Op(name, lambda args=args: _battery_op(args)))
    return ops


# ---------------------------------------------------------------------------
# points: the single-point path


#: base points must have |grad u| above this, so every slice frame exists
_MIN_GRAD = 1e-2


def _point_fields(seed: int, rng) -> dict:
    """The six field kinds with seeded parameters, and the radius range each
    samples base points from."""
    poly = ",".join(repr(float(c)) for c in rng.uniform(-0.5, 0.5, size=10))
    radius = float(rng.uniform(1.5, 3.0))
    height = float(rng.uniform(-0.5, 0.5))
    a = float(rng.uniform(0.3, 0.6))
    grid = fields.sample_to_grid(
        fields.random_trig_field(2, 2000 + seed), origin=(-1.5, -1.5), h=0.05, counts=(61, 61)
    )
    return {
        "trig": (fields.random_trig_field(2, 1000 + seed), 0.0, 1.5),
        "poly": (fieldspec.parse_field(f"poly:{poly}", 2), 0.0, 1.2),
        "sphere-cap": (fieldspec.parse_field(f"sphere-cap:{radius!r},{height!r}", 2), 0.05, 0.8 * radius),
        "radial-S-u": (fieldspec.parse_field(f"radial:S-u:{a!r}", 2), a + 0.05, 0.95),
        "grid-trig": (grid, 0.0, 1.2),
        "fd-trig": (fields.FiniteDifferenceField(fields.random_trig_field(2, 3000 + seed), 2), 0.0, 1.5),
    }


def _regular_points(field, r_lo: float, r_hi: float, count: int, rng) -> list[np.ndarray]:
    pts = []
    while len(pts) < count:
        r = rng.uniform(r_lo, r_hi)
        th = rng.uniform(0.0, 2.0 * np.pi)
        x = np.array([r * np.cos(th), r * np.sin(th)])
        if not field.domain.contains(x, margin=field.margin(x)):
            continue
        if float(np.linalg.norm(field.gradient(x))) > _MIN_GRAD:
            pts.append(x)
    return pts


def _point_op(field, x, eps, flat, rnd, sph) -> tuple[dict, None]:
    e_flat = graphgeom.extrinsic_point(field, flat, x)
    e_round = graphgeom.extrinsic_point(field, rnd, x)
    cp = conformal.conformal_point(field, sph, x)
    prod = inequality.check_prod(field, rnd, eps, x)
    phi = inequality.check_phi(field, sph, eps, x)
    record = {
        "u": e_flat.u,
        "H_flat": e_flat.mean_curvature,
        "R_flat": e_flat.scalar_curvature,
        "k_min": float(e_flat.principal[0]),
        "k_max": float(e_flat.principal[-1]),
        "H_round": e_round.mean_curvature,
        "R_round": e_round.scalar_curvature,
        "Hbar": cp.mean_curvature,
        "Abar2": cp.norm_a2,
        "prod_gap": prod.gap,
        "prod_equal": bool(prod.equality_detected),
        "phi_gap": phi.gap,
        "phi_equal": bool(phi.equality_detected),
        "points": 1,
        "passed": bool(prod.gap >= -GAP_TOL and phi.gap >= -GAP_TOL),
    }
    return record, None


def build_points(seed: int, size: str) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    per_kind = 10 if size == "full" else 2
    flat = graphgeom.flat_base(2)
    rnd = metrics.round_sphere_base(2)
    sph = metrics.spherical_ambient(2)
    ops = []
    for kind, (field, r_lo, r_hi) in _point_fields(seed, rng).items():
        for i, x in enumerate(_regular_points(field, r_lo, r_hi, per_kind, rng)):
            eps = field.value(x)
            ops.append(Op(f"{kind}/{i}", lambda f=field, x=x, e=eps: _point_op(f, x, e, flat, rnd, sph)))
    return ops


# ---------------------------------------------------------------------------
# curved-n3: suites on a curved base and in the spherical ambient at n = 3


#: slice points checked per (field, level) set, in ray order; the cap keeps
#: the work of a pass nearly independent of the seed (the checked-point
#: total of a pass spreads by 2% across seeds with it, 7% without)
MAX_CHECKS = 10


def _suite_op(which: str, field, eps: float, ambient, rays: int, ray_seed: int) -> tuple[dict, None]:
    pts = inequality.slice_points(field, eps, rays=rays, seed=ray_seed)
    gaps, kappas = [], []
    skips = equal = 0
    for p in pts[:MAX_CHECKS]:
        try:
            rep = inequality.check(which, field, eps, p, ambient=ambient)
        except NonRegularPointError:
            skips += 1
            continue
        gaps.append(rep.gap)
        kappas.append(rep.kappa)
        equal += bool(rep.equality_detected)
    violations = sum(g < -GAP_TOL for g in gaps)
    record = {
        "sampled": len(pts),
        "points": len(gaps),
        "nonregular_skips": skips,
        "violations": violations,
        "equalities": equal,
        "min_gap": min(gaps) if gaps else math.nan,
        "max_gap": max(gaps) if gaps else math.nan,
        "mean_gap": math.fsum(gaps) / len(gaps) if gaps else math.nan,
        "mean_kappa": math.fsum(kappas) / len(kappas) if kappas else math.nan,
        "passed": bool(gaps) and violations == 0,
    }
    return record, None


def build_curved_n3(seed: int, size: str) -> list[Op]:
    n_fields, n_levels, rays = (6, 3, 16) if size == "full" else (1, 1, 4)
    ambients = {
        "prod": metrics.product_ambient(3, metrics.round_sphere_base(3)),
        "phi": metrics.spherical_ambient(3),
    }
    ops = []
    for s, (which, ambient) in enumerate(ambients.items()):
        for k in range(n_fields):
            field_seed = 100_000 * (s + 1) + 1000 * seed + k
            field = fields.random_trig_field(3, field_seed)
            for j, eps in enumerate(inequality.pick_levels(field, n_levels, field_seed + 7)):
                ops.append(Op(
                    f"{which}/{k}/{j}",
                    lambda w=which, f=field, e=eps, a=ambient, sd=field_seed + 13: _suite_op(w, f, e, a, rays, sd),
                ))
    return ops


WORKLOADS = {
    "battery": build_battery,
    "points": build_points,
    "curved-n3": build_curved_n3,
}


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The workload's operations for an input seed (see `input_seed`)."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return WORKLOADS[workload](seed, size)
