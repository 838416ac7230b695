"""Acceptance battery: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
Every criterion states its tolerance and, where bounded, its time budget.
"""

import itertools
import time

import numpy as np

from curv.barrier import (
    BarrierRun,
    comparison_bounds,
    gradient_bound_margin,
    ring_mean_curvature,
    ring_mean_curvature_via_slices,
    slide,
)
from curv.cli import main
from curv.conformal import conformal_point, conformal_points, mean_curvature_spherical
from curv.errors import NoTouchError
from curv.fields import (
    Constant,
    FiniteDifferenceField,
    NegatedField,
    Paraboloid,
    QuadraticCup,
    SphereCap,
    random_trig_field,
)
from curv.graphgeom import (
    adapted_matrix,
    extrinsic_point,
    flat_base,
    intrinsic_scalar_curvature,
    minor_relation_residual,
    slice_frame_of_point,
)
from curv.inequality import (
    check_euclid,
    check_prod,
    check_sphere,
    pick_levels,
    run_suite,
    slice_points,
)
from curv.metrics import GeneralMetric, round_sphere_base, spherical_ambient
from curv.revolution import (
    RevolutionProfile,
    cap_curvature,
    cap_scalar_curvature,
    gauss_curvature_f,
    junction_c2_check,
    principal_curvatures_u,
    profile_jet,
    radial_field,
    sweep_u,
)
from curv.syminv import randomized_identity_suite

from kernels import enveloped_field

SQRT2 = np.sqrt(2.0)


def report(num, name, ok, detail, elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s" + (f" of {budget:.0f}s budget]" if budget else "]")
    print(f"ACCEPTANCE {num} ({name}): {status} - {detail}{timing}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_1_symmetric_identity_suite():
    t0 = time.perf_counter()
    out = randomized_identity_suite(orders=tuple(range(2, 9)), trials=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = out.max_rel_residual <= 1e-10 and out.trials == 100_000
    report(
        1,
        "randomized symmetric-function identity",
        ok,
        f"100000 matrices, orders 2-8, max relative residual {out.max_rel_residual:.3e} <= 1e-10",
        elapsed,
        5.0,
    )


def collect_slice_battery(n_fields=50, per_field=20, dim=2):
    """Seeded fields with a fixed number of regular slice points each."""
    battery = []
    for seed in itertools.count():
        field = random_trig_field(dim, seed=seed)
        eps = pick_levels(field, 1, seed)[0]
        pts = slice_points(field, eps, rays=24, seed=seed)
        if len(pts) < per_field:
            continue
        battery.append((field, eps, pts[:per_field]))
        if len(battery) == n_fields:
            return battery


def test_criterion_2_minor_relation():
    t0 = time.perf_counter()
    base = flat_base(2)

    # closed-form anchor: paraboloid at (1, 0) on the level 1/2
    pt = extrinsic_point(Paraboloid(2), base, np.array([1.0, 0.0]))
    frame = slice_frame_of_point(pt, eps=0.5)
    anchor_ok = (
        abs(adapted_matrix(frame.frame, pt.base_jet.g, pt.shape_operator)[1, 1] - 1.0 / SQRT2) <= 1e-12
        and abs(frame.cos_angle - 1.0 / SQRT2) <= 1e-12
        and abs(frame.h_sigma - 1.0) <= 1e-12
        and minor_relation_residual(frame, pt) <= 1e-8
    )

    battery = collect_slice_battery()
    worst_analytic = 0.0
    for field, eps, pts in battery:
        for x in pts:
            p = extrinsic_point(field, base, x)
            f = slice_frame_of_point(p, eps=eps)
            worst_analytic = max(worst_analytic, minor_relation_residual(f, p))

    # finite-difference jets at three steps: residual and convergence order
    steps = np.array([1e-2, 5e-3, 2.5e-3])
    worst_by_step = np.zeros(3)
    slopes = []
    for field, eps, pts in battery[::5]:
        for x in pts[:4]:
            p = extrinsic_point(field, base, x)
            f = slice_frame_of_point(p, eps=eps)
            errs = []
            for k, h in enumerate(steps):
                p_fd = extrinsic_point(FiniteDifferenceField(field, field.dim, step=h), base, x)
                r = minor_relation_residual(f, p_fd)
                errs.append(r)
                worst_by_step[k] = max(worst_by_step[k], r)
            errs = np.asarray(errs)
            if np.all(errs > 1e-14):
                slopes.append(np.log2(errs[:-1] / errs[1:]).mean())
    median_slope = float(np.median(slopes))
    elapsed = time.perf_counter() - t0

    points = sum(len(p) for _, _, p in battery)
    ok = (
        anchor_ok
        and points == 1000
        and worst_analytic <= 1e-8
        and worst_by_step[-1] <= 1e-4
        and median_slope > 1.7
    )
    report(
        2,
        "slice minor relation",
        ok,
        f"anchor exact, {len(battery)} fields x 20 points analytic {worst_analytic:.3e} <= 1e-8, "
        f"fd {worst_by_step[-1]:.3e} <= 1e-4 at h/4 with median order {median_slope:.2f}",
        elapsed,
        30.0,
    )


def gauss_residual(field, base, x):
    """|R_M by the Gauss relation - R of the induced metric by finite differences| at x."""
    return abs(extrinsic_point(field, base, x).scalar_curvature - intrinsic_scalar_curvature(field, base, x))


def test_criterion_3_scalar_curvature_oracle():
    t0 = time.perf_counter()
    flat = flat_base(2)
    worst_flat = 0.0
    for seed in range(50):
        field = random_trig_field(2, seed=seed)
        rng = np.random.default_rng(seed + 500)
        for _ in range(2):
            x = rng.uniform(-0.7, 0.7, size=2)
            worst_flat = max(worst_flat, gauss_residual(field, flat, x))

    round_fd = GeneralMetric(2, lambda Y: round_sphere_base(2).jets(Y).g)
    worst_round = 0.0
    for seed in range(10):
        field = random_trig_field(2, seed=seed)
        rng = np.random.default_rng(seed + 900)
        x = rng.uniform(-0.6, 0.6, size=2)
        worst_round = max(worst_round, gauss_residual(field, round_fd, x))
    elapsed = time.perf_counter() - t0

    ok = worst_flat <= 1e-4 and worst_round <= 2e-3
    report(
        3,
        "scalar curvature vs intrinsic oracle",
        ok,
        f"flat base {worst_flat:.3e} <= 1e-4 over 50 fields, "
        f"fd round base {worst_round:.3e} <= 2e-3 over 10 fields",
        elapsed,
        60.0,
    )


def test_criterion_4_spherical_minimal_graphs():
    t0 = time.perf_counter()
    amb = spherical_ambient(2)
    equator = Constant(2, 0.0)
    hemisphere = SphereCap(2, 1.0)
    rng = np.random.default_rng(0)
    worst_h = 0.0
    worst_route = 0.0
    for _ in range(1000):
        x = rng.uniform(-0.9, 0.9, size=2)
        cp = conformal_point(equator, amb, x)
        direct = mean_curvature_spherical(equator, x)
        worst_h = max(worst_h, abs(cp.mean_curvature), abs(direct))
        worst_route = max(worst_route, abs(cp.mean_curvature - direct))
    for _ in range(1000):
        x = rng.uniform(-0.65, 0.65, size=2)
        cp = conformal_point(hemisphere, amb, x)
        direct = mean_curvature_spherical(hemisphere, x)
        worst_h = max(worst_h, abs(cp.mean_curvature), abs(direct))
        worst_route = max(worst_route, abs(cp.mean_curvature - direct))
    elapsed = time.perf_counter() - t0

    ok = worst_h <= 1e-10 and worst_route <= 1e-8
    report(
        4,
        "minimal graphs in the round sphere",
        ok,
        f"|H| {worst_h:.3e} <= 1e-10 at 1000 points each on the equator disk and "
        f"hemisphere, route agreement {worst_route:.3e} <= 1e-8",
        elapsed,
        5.0,
    )


def test_criterion_5_trace_inequality_suites():
    t0 = time.perf_counter()
    plan = (("prod", 40), ("phi", 30), ("euclid", 15), ("sphere", 15))
    summaries = [
        run_suite(which, dim=2, n_fields=count, rays=10, levels=2, seed=0)
        for which, count in plan
    ]
    total_fields = sum(s.fields for s in summaries)
    violations = sum(s.violations for s in summaries)
    min_gap = min(s.min_gap for s in summaries)

    eq_parab = check_euclid(Paraboloid(2), 0.5, np.array([1.0, 0.0]))
    eq_cap = check_prod(
        SphereCap(2, 1.0), flat_base(2), 1.0 / SQRT2, np.array([1.0 / SQRT2, 0.0])
    )
    eq_round = check_sphere(
        SphereCap(2, 0.6, height=0.3), 0.5, np.array([np.sqrt(0.32), 0.0])
    )
    equality_ok = all(
        abs(r.gap) <= 1e-6 and r.equality_detected for r in (eq_parab, eq_cap, eq_round)
    )

    cup = QuadraticCup([1.0, 4.0, 9.0])
    t = np.sqrt(3.0 / 14.0)
    strict = check_prod(cup, flat_base(3), 0.5, t * np.ones(3) / np.sqrt(3.0))
    strict_ok = strict.gap > 1e-3 and not strict.equality_detected
    elapsed = time.perf_counter() - t0

    ok = (
        total_fields == 100
        and violations == 0
        and min_gap >= -1e-8
        and equality_ok
        and strict_ok
    )
    report(
        5,
        "trace inequality suites",
        ok,
        f"100 fields across 4 ambients, 0 violations at -1e-8 (min gap {min_gap:.3e}), "
        f"equality detected on 3 model cases <= 1e-6, strict gap {strict.gap:.3e} > 1e-3",
        elapsed,
        120.0,
    )


def test_criterion_6_glued_revolution_surface():
    t0 = time.perf_counter()
    a = 0.5
    cap_ok = (
        abs(cap_curvature(a) + 0.125) <= 1e-12
        and abs(cap_scalar_curvature(a) - 2.03125) <= 1e-12
    )

    rows = sweep_u(a, count=1000)
    scalars = rows[:, 4]
    floor_ok = scalars.min() >= 2.0 - 1e-10
    locus_ok = abs(rows[np.argmin(scalars), 0] - a) <= 1e-6

    junction = junction_c2_check(a)
    junction_ok = (
        junction.passed
        and abs(junction.value_limit - 0.5) <= 1e-3
        and abs(abs(junction.lam1_limit) - 0.125) <= 1e-3
        and abs(abs(junction.lam2_limit) - 0.125) <= 1e-3
    )

    radii = np.linspace(a + 0.01, 0.98, 100)
    X = np.column_stack([radii, np.zeros_like(radii)])
    cp = conformal_points(radial_field(RevolutionProfile("S-u", a)), spherical_ambient(2), X)
    closed = np.sort(np.column_stack(principal_curvatures_u(a, radii)), axis=1)
    pipeline_worst = float(np.abs(cp.principal - closed).max())
    elapsed = time.perf_counter() - t0

    ok = cap_ok and floor_ok and locus_ok and junction_ok and pipeline_worst <= 1e-6
    report(
        6,
        "glued spherical counterexample",
        ok,
        f"cap curvature -1/8 and scalar 2.03125 exact, sweep floor >= 2-1e-10 with "
        f"equality at r = 1/2, junction limits within 1e-3, closed-vs-pipeline "
        f"{pipeline_worst:.3e} <= 1e-6 at 100 radii",
        elapsed,
        10.0,
    )


def test_criterion_7_euclidean_cone_curvature():
    t0 = time.perf_counter()
    zs = np.linspace(0.01, 0.99, 1000)
    min_k = float(gauss_curvature_f(zs).min())
    prof = RevolutionProfile("E-f")
    boundary_ok = (
        profile_jet(prof, 0.0)[0] == 1.0
        and profile_jet(prof, 1.0)[0] == 0.0
        and np.isinf(profile_jet(prof, 0.0)[1])
    )
    elapsed = time.perf_counter() - t0

    ok = min_k >= -1e-10 and boundary_ok
    report(
        7,
        "euclidean cone profile",
        ok,
        f"Gauss curvature min {min_k:.3e} >= -1e-10 on 1000 samples, endpoints "
        f"f(0) = 1 and f(1) = 0 exact, vertical tangent flagged at z = 0",
        elapsed,
        2.0,
    )


def test_criterion_8_barrier_slides_and_bounds():
    t0 = time.perf_counter()

    successful = 0
    worst_margin = np.inf
    for seed in range(8):
        field = enveloped_field(seed)
        try:
            run = slide(field, (0.3, 1.0), 0.35, radial=128, angular=24, seed=seed)
        except NoTouchError:
            run = slide(
                NegatedField(field), (0.3, 1.0), 0.35, radial=128, angular=24, seed=seed
            )
        if run.successful:
            successful += 1
            worst_margin = min(worst_margin, gradient_bound_margin(run))
    slides_ok = successful >= 5 and worst_margin >= -1e-6

    ring_worst = max(
        abs(ring_mean_curvature(r, e, n) - ring_mean_curvature_via_slices(r, e, n))
        for r, e, n in [(0.5, 0.0, 2), (0.5, 0.5, 3), (0.8, 0.3, 2), (0.3, -0.2, 4)]
    )

    designated = BarrierRun(
        dim=2, annulus=(0.3, 1.0), a_prime=0.35, r_out=0.99,
        lam_star=0.0, x0=np.array([0.5, 0.0]), u0=0.0, grad_norm=1.0,
        radial_derivative=-0.5, touch_gap=0.0, interior_touch=True,
        boundary_touch=False, degenerate=False, radial=64, angular=16, seed=0,
    )
    bounds = comparison_bounds(designated)
    pair_ok = (
        abs(bounds.cap - 0.5) <= 1e-12
        and abs(bounds.lower - 0.75) <= 1e-12
        and bounds.cap_lt_lower
        and not bounds.ordering_skipped
    )
    elapsed = time.perf_counter() - t0

    ok = slides_ok and ring_worst <= 1e-8 and pair_ok
    report(
        8,
        "cone barrier slides",
        ok,
        f"{successful} successful slides with gradient-bound margin "
        f"{worst_margin:.3e} >= -1e-6, ring cross-check {ring_worst:.3e} <= 1e-8, "
        f"designated bound pair (0.5, 0.75) strictly ordered",
        elapsed,
        10.0,
    )


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    t0 = time.perf_counter()
    cases = [
        ("inequality.json", ["verify", "inequality", "--which", "euclid",
                             "--fields", "3", "--rays", "5", "--seed", "11"]),
        ("identity.json", ["verify", "identity", "--n", "3-4",
                           "--trials", "2000", "--seed", "4"]),
        ("glued.csv", ["example", "--name", "spherical-glued", "--format", "csv"]),
    ]
    all_equal = True
    for fname, argv in cases:
        pa = tmp_path / f"a_{fname}"
        pb = tmp_path / f"b_{fname}"
        assert main(argv + ["--out", str(pa)]) == 0
        assert main(argv + ["--out", str(pb)]) == 0
        all_equal = all_equal and pa.read_bytes() == pb.read_bytes()
    capsys.readouterr()
    elapsed = time.perf_counter() - t0

    with capsys.disabled():
        report(
            9,
            "deterministic reports",
            all_equal,
            "repeated same-seed runs of 3 report commands are byte-identical",
            elapsed,
        )
