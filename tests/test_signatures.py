"""Keywords that had one value in every caller are module constants; they stay
out of the signatures. Routes that were folded into another stay deleted, no
module of curv imports scipy, every public name of curv (a class's public
methods and properties too) has a caller in the program or is an oracle or
closed-form reference the tests check it by, and every defaulted parameter
is passed by some call in the program or has a stated reason to stay."""

import ast
import dataclasses
import inspect
import math
from pathlib import Path

import pytest

from curv import barrier, conformal, errors, fields, graphgeom, inequality, metrics, revolution, syminv, util

import syminv_reference

REMOVED = [
    (graphgeom.level_slice, {"delta_reg", "level_tol"}),
    (graphgeom.slice_frames, {"delta_reg"}),
    (graphgeom.nonregular_error, {"delta_reg"}),
    (graphgeom.slice_frame_of_point, {"delta_reg"}),
    (graphgeom.intrinsic_scalar_curvature, {"step"}),
    (graphgeom.slice_shape_sampled, {"root_tol"}),
    (inequality.check_prod, {"delta_reg"}),
    (inequality.check_euclid, {"delta_reg"}),
    (inequality.check_phi, {"delta_reg"}),
    (inequality.check_sphere, {"delta_reg"}),
    (inequality.slice_points, {"center", "delta_reg", "samples_per_ray", "max_per_ray"}),
    (inequality._checks, {"delta_reg"}),
    (inequality.checks, {"ambient"}),
    (inequality._slice_rows, {"center", "delta_reg", "samples_per_ray", "max_per_ray"}),
    (inequality.pick_levels, {"probes"}),
    (inequality._probes, {"probes"}),
    (fields.random_trig_field, {"amplitude", "freq_scale", "domain"}),
    (fields.random_trig_family, {"domain"}),
    (fields.FiniteDifferenceField, {"name", "domain"}),
    (fields.SphereCap, {"rim_margin"}),
    (fields.Ball, {"center"}),
    (fields.Annulus, {"center"}),
    (metrics.GeneralMetric, {"step"}),
    (revolution.monotonicity_checks, {"grid"}),
    (revolution.junction_c2_check, {"ks"}),
    (revolution.radial_field, {"rim_margin"}),
    (revolution.profile_jet, {"order"}),
    (revolution.sweep_u, {"r_max"}),
    (revolution.sweep_f, {"z_lo", "z_hi"}),
    (syminv_reference.newton_gap, {"tol"}),
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
#: verdict beside `verify identity --tol`, the revolution profiles'
#: one-radius fork (a radial field takes `profile_jets` as it is), and the
#: library only the tests reached: the rotated field kind (the invariance
#: tests rotate a trig field through its frequencies), the wrappers around
#: the production pipeline that the tests now compute inline, the slice
#: frame's minor (`adapted_matrix` serves), the metric kinds' unread names,
#: the ambient's one-point factor (row 0 of `phis` serves) and the 2-D ring
#: (inlined in `unit_directions`); the closed-form references of the
#: splitting with their helpers, which live in tests/syminv_reference.py; and
#: the members only tests read: the rescaled shape operator Abar (the phi route
#: reads its eigenvalues), the round domains' off-origin center and the report
#: row's dict (tests/report_dict.py); the finite differences' row loop
#: over a value callable (they wrap a field, whose `values` takes the stack);
#: the general-factor scaled wrapper (tests/kernels.py; the program only
#: negates) and the round domains' base class (a ball is an annulus with no
#: hole); and the members nothing in the program read: the grid writer
#: (tests/kernels.py) and the box's and the ambient's dim
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
    (fields, "RotatedField"),
    (fields, "_RotatedDomain"),
    (inequality, "adapted_graph_matrix"),
    (inequality, "adapted_conformal_matrix"),
    (inequality, "decomposition_gap"),
    (revolution, "gauss_check_f"),
    (revolution, "closed_vs_pipeline"),
    (graphgeom, "gauss_oracle_residual"),
    (syminv, "identity_residual_batch"),
    (graphgeom.SliceFrame, "minor"),
    (metrics.FlatMetric, "kind"),
    (metrics.ConformalMetric, "kind"),
    (metrics.GeneralMetric, "kind"),
    (inequality.InequalityReport, "extras"),
    (metrics.AmbientSpec, "phi"),
    (util, "ring_directions"),
    *[(syminv, name) for name in ("sigma1", "sigma1_minor", "sigma2", "NewtonGap", "newton_gap",
                                  "identity_residual", "_checked", "DEFAULT_EQUALITY_TOL")],
    (util, "maxabs"),
    (errors, "SignConditionError"),
    (conformal, "conformal_shape"),
    (conformal.ConformalPoint, "shape_operator"),
    (conformal.ConformalPoint, "dim"),
    (fields.Annulus, "_center"),
    (inequality.InequalityReport, "to_dict"),
    (fields, "_row_values"),
    (fields, "ScaledField"),
    (fields, "_RoundDomain"),
    (fields.GridField, "write"),
    (fields.Box, "dim"),
    (metrics.AmbientSpec, "dim"),
]


@pytest.mark.parametrize("owner, name", DELETED, ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in DELETED])
def test_deleted_routes_stay_deleted(owner, name):
    assert not hasattr(owner, name)


def test_slice_frames_do_not_carry_their_points():
    assert "point" not in {f.name for f in dataclasses.fields(graphgeom.SliceFrame)}


def test_extrinsic_points_do_not_carry_the_induced_metric():
    assert "induced_metric" not in {f.name for f in dataclasses.fields(graphgeom.ExtrinsicPoint)}


def test_inequality_reports_carry_no_extras_dict():
    assert "extras" not in {f.name for f in dataclasses.fields(inequality.InequalityReport)}


REPO = Path(util.__file__).parents[2]
CURV = sorted(Path(util.__file__).parent.glob("*.py"))
PROGRAM = [p for d in ("src", "scripts", "perfbench") for p in sorted((REPO / d).rglob("*.py"))]

#: public names of curv that only the tests call, each with the reason it stays
UNCALLED = {
    "slice_shape_sampled": "oracle: the slice operator traced from the level set by root finding",
    "principal_curvatures_u": "closed-form reference: the u-graph's curvatures in the round ambient",
    "principal_curvatures_f": "closed-form reference: the E-f surface's meridian and parallel curvatures",
    "gauss_curvature_f": "closed-form reference: the E-f surface's Gauss curvature",
}


def _public_names() -> set[str]:
    """The public names each module of curv defines at its top level, and
    the public methods and properties of each class."""
    names = set()
    for path in CURV:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if isinstance(node, ast.ClassDef):
                names |= {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
    return {n for n in names if not n.startswith("_")}


def _units(tree: ast.Module):
    """(node, own names) of each top-level statement, a class taken member by
    member: a function, class or method that names itself does not count as
    its own caller."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            yield from ((node, {top.name}) for node in top.bases + top.keywords + top.decorator_list)
            yield from ((m, {top.name} | ({m.name} if isinstance(m, ast.FunctionDef) else set())) for m in top.body)
        else:
            yield top, {top.name} if isinstance(top, ast.FunctionDef) else set()


def _referenced_names() -> set[str]:
    """Every name, attribute and import in src/, scripts/ and perfbench/, and
    every string of perfbench/tracing.py (its tables patch by name).

    A member counts as referenced when any attribute of that name is read,
    whatever the object, so a member named like a common attribute escapes
    the guard: `GridField.write` (any file's `write`) and the `dim` of
    `Box`, of the round domains and of `AmbientSpec` (any field's `dim`)
    escaped it until they were deleted. Dataclass fields, such as the
    deleted `ExtrinsicPoint.induced_metric`, are not members here at all;
    the dataclass-field tests above pin those that were deleted."""
    refs = set()
    for path in PROGRAM:
        for unit, own in _units(ast.parse(path.read_text())):
            found = set()
            for node in ast.walk(unit):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.alias):
                    found.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) and path.name == "tracing.py":
                    found.add(node.value)
            refs |= found - own
    return refs


def test_every_public_name_has_a_caller_or_a_reason():
    """src/ grows no library that only the tests reach: a public name or
    member is called from the program, or it is on UNCALLED, and nothing on
    UNCALLED has gained a caller."""
    public, refs = _public_names(), _referenced_names()
    assert sorted(public - refs - set(UNCALLED)) == []
    assert sorted(set(UNCALLED) - public) == []
    assert sorted(set(UNCALLED) & refs) == []


#: (function or class, parameter) of the defaulted parameters that no call in
#: the program passes, each with the reason it stays
UNPASSED = {
    ("brentq_lanes", "maxiter"): "the tests compare its iterates with scipy's at maxiter 1 to 8",
    ("slice_shape_sampled", "step"): "the oracle's convergence studies vary it",
    ("profile_jets", "order"): "RadialField's profile callable passes it",
    ("inverse_profile_jet", "order"): "RadialField's profile callable passes it",
}


def _defaulted_parameters():
    """(name, parameter, position) of each defaulted parameter of a public
    function of curv or of a public class's own __init__, the position
    counted without self; a keyword-only parameter has none."""
    for path in CURV:
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            inits = [(m, 1) for m in top.body if isinstance(m, ast.FunctionDef) and m.name == "__init__"]
            for fn, skip in [(top, 0)] if isinstance(top, ast.FunctionDef) else inits:
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                yield from ((top.name, a.arg, i - skip) for i, a in enumerate(args) if i >= first)
                kwonly = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                yield from ((top.name, a.arg, None) for a, d in kwonly if d is not None)


def _passed() -> dict[str, tuple[set[str], float]]:
    """For each name that the program calls (a function, a class, or a
    method's attribute), the keywords its calls pass and the most positional
    arguments one call passes; a call that unpacks *args may pass any
    position, and one that unpacks **kwargs any keyword ("**")."""
    calls = {}
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                keywords, most = calls.get(name, (set(), 0))
                star = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = keywords | {k.arg or "**" for k in node.keywords}
                calls[name] = keywords, max(most, math.inf if star else len(node.args))
    return calls


def test_every_defaulted_parameter_is_passed_or_has_a_reason():
    """src/ keeps no option that only the tests set: some call in the
    program passes each defaulted parameter, by keyword or by position, or it
    is on UNPASSED, and nothing on UNPASSED has gained a caller."""
    calls, unpassed = _passed(), set()
    for name, param, position in _defaulted_parameters():
        keywords, most = calls.get(name, (set(), 0))
        if not ({param, "**"} & keywords or (position is not None and position < most)):
            unpassed.add((name, param))
    assert sorted(unpassed - set(UNPASSED)) == []
    assert sorted(set(UNPASSED) - unpassed) == []


def test_no_module_imports_scipy():
    """curv runs on numpy alone: no import of scipy in any scope of any module."""
    imported = []
    for path in CURV:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if not node.level else []
            else:
                continue
            imported += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
    assert imported == []
