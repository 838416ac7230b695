"""Keywords that had one value in every caller are module constants; they stay
out of the signatures. Routes that were folded into another stay deleted, and
no module of curv imports scipy."""

import ast
import inspect
from pathlib import Path

import pytest

from curv import barrier, conformal, fields, graphgeom, inequality, metrics, revolution, syminv, util

REMOVED = [
    (graphgeom.level_slice, {"delta_reg", "level_tol"}),
    (graphgeom.slice_frames, {"delta_reg"}),
    (graphgeom.nonregular_error, {"delta_reg"}),
    (graphgeom.slice_frame_of_point, {"delta_reg"}),
    (graphgeom.intrinsic_scalar_curvature, {"step"}),
    (graphgeom.gauss_oracle_residual, {"step"}),
    (graphgeom.slice_shape_sampled, {"root_tol"}),
    (inequality.check_prod, {"delta_reg"}),
    (inequality.check_euclid, {"delta_reg"}),
    (inequality.check_phi, {"delta_reg"}),
    (inequality.check_sphere, {"delta_reg"}),
    (inequality.slice_points, {"center", "delta_reg", "samples_per_ray"}),
    (inequality._checks, {"delta_reg"}),
    (inequality._slice_rows, {"center", "delta_reg", "samples_per_ray"}),
    (fields.random_trig_field, {"amplitude", "freq_scale"}),
    (metrics.GeneralMetric, {"step"}),
    (revolution.monotonicity_checks, {"grid"}),
    (revolution.junction_c2_check, {"ks"}),
    (revolution.radial_field, {"rim_margin"}),
    (revolution.sweep_u, {"r_max"}),
    (revolution.sweep_f, {"z_lo", "z_hi"}),
    (syminv.newton_gap, {"tol"}),
    (syminv.randomized_identity_suite, {"batch"}),
    (barrier._newton_refine_ratio, {"iters"}),
]


@pytest.mark.parametrize("func, names", REMOVED, ids=[f.__qualname__ for f, _ in REMOVED])
def test_removed_keywords_stay_removed(func, names):
    assert not names & set(inspect.signature(func).parameters)


def test_check_is_the_one_row_route():
    assert not hasattr(inequality, "_check_one")


#: (owner, name) of deleted routes: the metric kinds' one-point copies of
#: `jets(Y).g` and the stack builder only the row loop used, the one-point
#: slice trace that the `phi` check replaces, the built-ins' constant
#: broadcast (they run on the polynomial kernel), the scalar identity
#: splitting (the suite's kernel at one matrix serves) and the suite's fixed
#: verdict beside `verify identity --tol`, and the revolution profiles'
#: one-radius fork (a radial field takes `profile_jets` as it is)
DELETED = [
    (util.Stacked, "from_rows"),
    (fields, "_broadcast"),
    (syminv, "_decomposition"),
    (syminv.IdentitySuiteResult, "passed"),
    (metrics.FlatMetric, "components"),
    (metrics.ConformalMetric, "components"),
    (conformal, "SliceTrace"),
    (conformal, "conformal_slice_trace"),
    (conformal, "slice_trace_from_ambient"),
    (revolution, "_radial_jets"),
]


@pytest.mark.parametrize("owner, name", DELETED, ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in DELETED])
def test_deleted_routes_stay_deleted(owner, name):
    assert not hasattr(owner, name)


def test_no_module_imports_scipy():
    """curv runs on numpy alone: no import of scipy in any scope of any module."""
    imported = []
    for path in sorted(Path(util.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if not node.level else []
            else:
                continue
            imported += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
    assert imported == []
